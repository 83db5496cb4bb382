import json
from dataclasses import asdict, fields

import numpy as np
import pytest

import windmpc.output
from windmpc import (Metrics, OfflineMpc, OnlineMpc, SimLog, compute_metrics,
                     generate_wind, run_closed_loop)
from windmpc.experiment import LOG_FIELDS, LOG_FLOAT_FIELDS
from windmpc.output import CSV_HEADER, emit, read_csv, svg_line_plot, write_csv

from helpers import svg_line_plot_reference, synthetic_log, write_csv_reference


def assert_column_types(log):
    """The types ``SimLog.from_columns`` gives each column."""
    for name in LOG_FLOAT_FIELDS + ("step_time",):
        assert getattr(log, name).dtype == np.float64, name
    assert log.qp_iters.dtype == np.dtype(int)
    assert type(log.mode) is list and type(log.qp_status) is list


@pytest.fixture(scope="module")
def short_log():
    from windmpc import MpcWeights, TurbineParams
    params = TurbineParams()
    profile = generate_wind("turbulent", 9, 3.0, params)
    return params, run_closed_loop(profile, OnlineMpc(params, MpcWeights()),
                                   params)


class TestCsv:
    def test_one_field_order(self):
        # SimLog, the loop's rows and the CSV header share LOG_FIELDS' order
        assert tuple(f.name for f in fields(SimLog)) == LOG_FIELDS
        assert tuple(CSV_HEADER.split(",")) == LOG_FIELDS[:-1]

    def test_header_and_row_count(self, short_log, tmp_path):
        params, log = short_log
        path = write_csv(log, tmp_path / "run.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(log) + 1

    def test_twelve_hundred_samples_give_1201_lines(self, tmp_path, params):
        path = write_csv(synthetic_log(1200, params), tmp_path / "long.csv")
        assert len(path.read_text().strip().splitlines()) == 1201

    def test_round_trip_bitwise_numeric(self, short_log, tmp_path):
        params, log = short_log
        path = write_csv(log, tmp_path / "run.csv")
        back = read_csv(path)
        for name in LOG_FLOAT_FIELDS:
            assert np.array_equal(getattr(back, name), getattr(log, name)), name
        assert np.array_equal(back.qp_iters, log.qp_iters)
        assert back.mode == log.mode
        assert back.qp_status == log.qp_status
        assert_column_types(log)
        assert_column_types(back)

    def test_rejects_foreign_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_csv(bad)


class TestEmptyRun:
    def test_header_only_csv_and_zero_metrics(self, params, tmp_path):
        # a zero-length profile: the loop's empty log, a header-only CSV that
        # reads back empty, no plots and all-zero metrics, TV included
        profile = generate_wind("turbulent", 2024, 0.0, params)
        log = run_closed_loop(profile, OfflineMpc(params), params)
        metrics = compute_metrics(log, params)
        assert len(log) == 0 and metrics == Metrics()
        assert metrics.torque_total_variation == 0.0
        written = emit({"offline": (log, metrics)}, tmp_path)
        names = ["metrics.json", "offline.csv"]
        assert sorted(p.name for p in written) == names
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        assert (tmp_path / "offline.csv").read_text() == CSV_HEADER + "\n"
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc == {"offline": asdict(Metrics())}
        back = read_csv(tmp_path / "offline.csv")
        for name in LOG_FIELDS:
            assert len(getattr(back, name)) == 0, name
        assert_column_types(back)
        assert_column_types(log)


class TestSvg:
    def test_self_contained_with_labeled_series(self, tmp_path):
        t = np.linspace(0.0, 10.0, 200)
        text = svg_line_plot(
            [("offline", t, np.sin(t)), ("online", t, np.cos(t))],
            "error comparison", "error [W]", tmp_path / "plot.svg")
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert ">offline<" in text and ">online<" in text
        assert "href" not in text  # no external assets
        assert (tmp_path / "plot.svg").read_text() == text

    def test_long_series_thinned(self):
        t = np.arange(50000, dtype=float)
        text = svg_line_plot([("x", t, t)], "t", "y")
        points = text.split('points="')[1].split('"')[0]
        assert len(points.split()) <= 4100


class TestEmit:
    def test_comparison_outputs(self, short_log, tmp_path):
        params, log = short_log
        metrics = compute_metrics(log, params)
        results = {"offline": (log, metrics), "online": (log, metrics)}
        written = emit(results, tmp_path / "out")
        names = {p.name for p in written}
        assert {"offline.csv", "online.csv", "metrics.json",
                "error_comparison.svg"} <= names
        comparison = (tmp_path / "out" / "error_comparison.svg").read_text()
        assert comparison.count("<polyline") == 2
        assert ">offline<" in comparison and ">online<" in comparison

    def test_metrics_json_fields(self, short_log, tmp_path):
        params, log = short_log
        metrics = compute_metrics(log, params)
        emit({"online": (log, metrics)}, tmp_path / "m")
        doc = json.loads((tmp_path / "m" / "metrics.json").read_text())
        assert set(doc) == {"online"}
        assert {"rms_power_error", "rms_speed_error", "constraint_violations",
                "step_time_mean", "step_time_max", "energy",
                "torque_total_variation"} <= set(doc["online"])


class TestAgainstRowWiseReference:
    """Column-wise emission writes the bytes of the row-wise, per-point
    formatters kept in ``helpers``."""

    @staticmethod
    def _emit_both(results, tmp_path, monkeypatch):
        emit(results, tmp_path / "columns")
        with monkeypatch.context() as patch:
            patch.setattr(windmpc.output, "write_csv", write_csv_reference)
            patch.setattr(windmpc.output, "svg_line_plot",
                          svg_line_plot_reference)
            emit(results, tmp_path / "rows")
        names = sorted(p.name for p in (tmp_path / "columns").iterdir())
        assert len(names) == 10  # 2 CSVs, 7 SVGs, metrics.json
        for name in names:
            assert ((tmp_path / "columns" / name).read_bytes()
                    == (tmp_path / "rows" / name).read_bytes()), name

    def test_closed_loop_logs(self, short_log, tmp_path, monkeypatch):
        params, online = short_log
        profile = generate_wind("turbulent", 2024, 60.0, params, level=8.7,
                                std=1.0)
        offline = run_closed_loop(profile, OfflineMpc(params), params)
        assert len(offline) == 1200
        self._emit_both({name: (log, compute_metrics(log, params))
                         for name, log in (("offline", offline),
                                           ("online", online))},
                        tmp_path, monkeypatch)

    def test_non_finite_and_negative_zero(self, params, tmp_path, monkeypatch):
        odd = synthetic_log(50, params)
        odd.t[7], odd.omega_g[3], odd.p_t[11] = np.nan, np.inf, -np.inf
        odd.beta[:20] = odd.t_g_ref[5] = -0.0
        plain = synthetic_log(30, params)
        with np.errstate(all="ignore"):
            self._emit_both({name: (log, compute_metrics(log, params))
                             for name, log in (("a", odd), ("b", plain))},
                            tmp_path, monkeypatch)
        assert "-0.0" in (tmp_path / "columns" / "a.csv").read_text()
