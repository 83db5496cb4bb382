import numpy as np
import pytest

from windmpc import DomainError, generate_wind


class TestConstant:
    def test_sixty_seconds_at_seven(self, params):
        profile = generate_wind("constant", 0, 60.0, params, level=7.0)
        assert len(profile) == 1200
        assert np.all(profile.v == 7.0)
        assert profile.t[0] == 0.0
        assert profile.t[-1] == pytest.approx(59.95)

    def test_monotone_time_at_sampling_rate(self, params):
        profile = generate_wind("constant", 0, 5.0, params)
        assert np.allclose(np.diff(profile.t), params.t_s)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, params):
        for kind in ("steps", "turbulent"):
            a = generate_wind(kind, 42, 30.0, params)
            b = generate_wind(kind, 42, 30.0, params)
            assert np.array_equal(a.v, b.v)

    def test_different_seeds_differ(self, params):
        a = generate_wind("turbulent", 1, 30.0, params)
        b = generate_wind("turbulent", 2, 30.0, params)
        assert not np.array_equal(a.v, b.v)


class TestEnvelope:
    def test_all_kinds_stay_in_partial_load_band(self, params):
        for kind in ("constant", "steps", "turbulent"):
            for seed in range(5):
                profile = generate_wind(kind, seed, 60.0, params, std=2.0)
                assert profile.v.min() >= 4.0
                assert profile.v.max() < 11.0


class TestSteps:
    def test_crosses_switch_threshold(self, params):
        for seed in range(10):
            profile = generate_wind("steps", seed, 120.0, params)
            assert profile.v.min() < 8.7 <= profile.v.max()

    def test_piecewise_constant(self, params):
        profile = generate_wind("steps", 3, 100.0, params)
        changes = np.count_nonzero(np.diff(profile.v))
        assert 1 <= changes <= 10


class TestTurbulent:
    def test_sample_std_near_configured(self, params):
        profile = generate_wind("turbulent", 11, 600.0, params)
        assert 0.3 <= profile.v.std() <= 0.7

    def test_mean_near_level(self, params):
        profile = generate_wind("turbulent", 5, 600.0, params, level=7.5)
        assert abs(profile.v.mean() - 7.5) < 0.3


class TestValidation:
    def test_zero_duration_gives_empty_profile(self, params):
        profile = generate_wind("constant", 0, 0.0, params)
        assert len(profile) == 0

    def test_negative_duration_rejected(self, params):
        with pytest.raises(DomainError):
            generate_wind("constant", 0, -1.0, params)

    def test_unknown_kind_rejected(self, params):
        with pytest.raises(DomainError):
            generate_wind("gusty", 0, 10.0, params)

    @pytest.mark.parametrize("kwargs", [
        dict(seed=-1), dict(std=-1.0), dict(std=np.nan), dict(std=np.inf),
        dict(level=np.nan), dict(level=np.inf), dict(duration=np.inf),
        dict(duration=np.nan)],
        ids=["seed_negative", "std_negative", "std_nan", "std_inf",
             "level_nan", "level_inf", "duration_inf", "duration_nan"])
    def test_bad_input_rejected(self, params, kwargs):
        with pytest.raises(DomainError):
            generate_wind(**{"kind": "turbulent", "seed": 0, "duration": 10.0,
                             "params": params, **kwargs})
