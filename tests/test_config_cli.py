import pytest

from windmpc.cli import main
from windmpc.config import (INT_KEYS, STR_KEYS, build_config,
                            parse_wind_spec, read_kv_file)
from windmpc.errors import ConfigError


def assert_one_config_error_line(err):
    """A rejected value is reported in one line, not a traceback."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), err


class TestConfigFile:
    def test_parse_kv_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment setup\n"
            "rho = 1.20\n"
            "q1 = 50     # tighter tracking\n"
            "\n"
            "duration = 12.5\n"
            "seed = 3\n")
        values = read_kv_file(path)
        assert values == {"rho": "1.20", "q1": "50", "duration": "12.5",
                          "seed": "3"}

    def test_build_config_routes_keys(self, tmp_path):
        config = build_config(
            {"rho": "1.20", "q1": "50", "n_p": "15", "duration": "12.5"},
            {"seed": 3, "controller": "offline"})
        assert config.turbine.rho == 1.20
        assert config.weights.q1 == 50.0
        assert config.weights.n_p == 15
        assert config.duration == 12.5
        assert config.seed == 3
        assert config.controller == "offline"

    def test_typed_key_sets_follow_the_field_types(self):
        assert INT_KEYS == {"n_p", "n_c", "seed"}
        assert STR_KEYS == {"wind_kind", "controller"}

    def test_overrides_win(self):
        config = build_config({"duration": "10"}, {"duration": 99.0})
        assert config.duration == 99.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"spin_rate": "1"})

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"rho": "fast"})

    def test_invalid_turbine_value_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"rho": "-1.0"})

    def test_model_points_at_the_envelope_edges_accepted(self):
        config = build_config({"op_low": "4", "op_high": "11", "kappa": "0"})
        assert (config.op_low, config.op_high, config.kappa) == (4.0, 11.0, 0.0)

    @pytest.mark.parametrize("key,value,message", [
        ("op_low", "3.99", "op_low must lie in"),
        ("op_high", "11.01", "op_high must lie in"),
        ("kappa", "-0.01", "kappa must be nonnegative"),
        ("seed", "-1", "seed must be nonnegative"),
        ("v_switch", "10.5", "op_low < op_high and v_switch in")],
        ids=["op_low", "op_high", "kappa", "seed", "v_switch"])
    def test_harness_value_outside_its_range_rejected(self, key, value,
                                                      message):
        with pytest.raises(ConfigError, match=message):
            build_config({key: value})

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError):
            read_kv_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            read_kv_file(tmp_path / "absent.cfg")


class TestWindSpec:
    def test_constant_with_level(self):
        assert parse_wind_spec("constant:7") == ("constant", 7.0, None)

    def test_kind_only(self):
        assert parse_wind_spec("steps") == ("steps", None, None)
        assert parse_wind_spec("turbulent") == ("turbulent", None, None)

    def test_turbulent_with_mean_and_std(self):
        assert parse_wind_spec("turbulent:8.0") == ("turbulent", 8.0, None)
        assert parse_wind_spec("turbulent:8.7:1.0") == ("turbulent", 8.7, 1.0)

    def test_bad_specs_rejected(self):
        for spec in ("breeze", "constant:fast", "turbulent:8:1:2"):
            with pytest.raises(ConfigError):
                parse_wind_spec(spec)


class TestCli:
    def test_simulate_writes_outputs(self, tmp_path, capsys):
        rc = main(["simulate", "--controller", "online", "--wind",
                   "constant:7", "--duration", "1", "--seed", "1",
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        assert (tmp_path / "run" / "online.csv").exists()
        assert (tmp_path / "run" / "metrics.json").exists()
        out = capsys.readouterr().out
        assert "online:" in out and "rms power error" in out

    def test_compare_emits_comparison_plot(self, tmp_path, capsys):
        rc = main(["compare", "--wind", "constant:7", "--duration", "1",
                   "--out", str(tmp_path / "cmp")])
        assert rc == 0
        assert (tmp_path / "cmp" / "offline.csv").exists()
        assert (tmp_path / "cmp" / "online.csv").exists()
        assert (tmp_path / "cmp" / "error_comparison.svg").exists()

    def test_determinism_same_seed_same_csv(self, tmp_path):
        for name in ("a", "b"):
            rc = main(["simulate", "--wind", "turbulent", "--duration", "2",
                       "--seed", "7", "--out", str(tmp_path / name)])
            assert rc == 0
        a = (tmp_path / "a" / "online.csv").read_bytes()
        b = (tmp_path / "b" / "online.csv").read_bytes()
        assert a == b

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("unknown_key = 5\n")
        rc = main(["simulate", "--config", str(bad), "--duration", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_wind_spec_exit_code(self, tmp_path):
        rc = main(["simulate", "--wind", "breeze", "--duration", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    @pytest.mark.parametrize("args,config", [
        (["--wind", "turbulent:8.7:-1"], None),
        (["--duration", "-5"], None),
        (["--duration", "nan"], None),
        (["--duration", "inf"], None),
        ([], "hysteresis = -0.2\n"),
        (["--wind", "turbulent:nan"], None),
        (["--wind", "turbulent:inf"], None),
        ([], "kappa = nan\n"),
        ([], "v_switch = inf\n"),
        ([], "op_low = -inf\n"),
        ([], "op_high = nan\n"),
        ([], "op_low = 3\n"),
        ([], "op_high = 12\n"),
        ([], "kappa = -1\n"),
        (["--seed", "-1"], None),
        ([], "seed = -1\n"),
        ([], "v_switch = 50\nop_low = 10\nop_high = 6.4\n"),
    ], ids=["wind_std", "duration", "duration_nan", "duration_inf",
            "hysteresis", "wind_level_nan", "wind_level_inf", "kappa_nan",
            "v_switch_inf", "op_low_inf", "op_high_nan", "op_low_below_4",
            "op_high_above_11", "kappa_negative", "seed_negative",
            "seed_negative_in_file", "bank_layout"])
    def test_bad_harness_value_exit_code(self, tmp_path, capsys, args, config):
        if config is not None:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(config)
            args = [*args, "--config", str(cfg)]
        rc = main(["simulate", "--controller", "offline", "--duration", "1",
                   *args, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert_one_config_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("config", ["rho = nan\n", "p_g_max = nan\n",
                                        "omega_g_max = inf\n"],
                             ids=["rho_nan", "p_g_max_nan", "omega_g_max_inf"])
    def test_bad_turbine_value_exit_code(self, tmp_path, capsys, config):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        rc = main(["simulate", "--config", str(cfg), "--duration", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert_one_config_error_line(capsys.readouterr().err)

    def test_qpbench_passes(self, capsys):
        rc = main(["qpbench", "--instances", "50", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_qpbench_nonpositive_instances_exit_code(self, count, capsys):
        assert main(["qpbench", "--instances", count]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err and "PASS" not in captured.out

    def test_lincheck_coarse_grid(self, capsys):
        rc = main(["lincheck", "--v-range", "4:11:1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "worst Jacobian mismatch" in out
        assert "Cp peak" in out
        assert "condensed-cost equivalence" in out

    @pytest.mark.parametrize("spec", ["nonsense", "4:12:1", "3:11:1"])
    def test_lincheck_bad_range_exit_code(self, spec):
        assert main(["lincheck", "--v-range", spec]) == 1

    def test_lincheck_grid_overshooting_by_roundoff_runs(self):
        # 4 + 10 * 0.7 rounds to 11.000000000000002, just past V_RATED
        assert main(["lincheck", "--v-range", "4:11:0.7"]) == 0

    def test_simulation_failure_exit_code(self, monkeypatch, tmp_path, capsys):
        import windmpc.cli as cli_mod
        from windmpc.errors import SimulationError

        def broken(config):
            raise SimulationError("synthetic", step=17)

        monkeypatch.setattr(cli_mod, "run_experiment", broken)
        rc = main(["simulate", "--duration", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert "step 17" in capsys.readouterr().err

    def test_qpbench_failure_exit_code(self, monkeypatch):
        import windmpc.verify as verify_mod
        monkeypatch.setattr(verify_mod, "run_benchmark",
                            lambda instances, seed: (3, 1e-2, 0))
        assert main(["qpbench", "--instances", "10"]) == 3

    @pytest.fixture(scope="class")
    def logs(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("logs")
        for name in ("a", "b"):
            assert main(["simulate", "--wind", "turbulent", "--duration", "2",
                         "--seed", "7", "--out", str(out / name)]) == 0
        return out / "a" / "online.csv", out / "b" / "online.csv"

    def test_compare_logs_passes_on_equal_logs(self, logs, capsys):
        assert main(["compare-logs", *map(str, logs)]) == 0
        out = capsys.readouterr().out
        assert "40 rows" in out and "PASS" in out

    def test_compare_logs_fails_on_a_changed_status(self, logs, tmp_path,
                                                    capsys):
        lines = logs[1].read_text().splitlines()
        lines[5] = lines[5].replace("optimal", "hold")
        changed = tmp_path / "changed.csv"
        changed.write_text("\n".join(lines) + "\n")
        assert main(["compare-logs", str(logs[0]), str(changed)]) == 3
        out = capsys.readouterr().out
        assert "first differing row 4" in out and "FAIL" in out

    @pytest.mark.parametrize("text", [None, "not,a,log\n", "HEADER\n1,2\n"],
                             ids=["missing", "bad_header", "short_row"])
    def test_compare_logs_unreadable_csv_exit_code(self, logs, tmp_path,
                                                   capsys, text):
        bad = tmp_path / "bad.csv"
        if text is not None:
            header = logs[0].read_text().splitlines()[0]
            bad.write_text(text.replace("HEADER", header))
        assert main(["compare-logs", str(logs[0]), str(bad)]) == 1
        assert "config error" in capsys.readouterr().err
