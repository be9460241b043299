"""The statistics of ``tools/perf_pairs.py`` on synthetic readings."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "perf_pairs.py"


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(value, failed=0, name="op_p50_ms"):
    return {"failed": failed, "metrics": {name: {"value": value, "unit": "ms"}}}


class TestQuantiles:
    @pytest.mark.parametrize("values", [[3.0], [2.0, 1.0], [5.0, 1.0, 4.0], [1.0, 9.0, 2.0, 7.0],
                                        list(np.random.default_rng(0).normal(size=11))])
    def test_match_numpy_linear_interpolation(self, perf_pairs, values):
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert perf_pairs.quantile(values, q) == pytest.approx(np.quantile(values, q))

    def test_odd_and_even_medians(self, perf_pairs):
        assert perf_pairs.spread([3.0, 1.0, 2.0])["median"] == 2.0
        stats = perf_pairs.spread([4.0, 1.0, 3.0, 2.0])
        assert stats["median"] == 2.5
        assert (stats["q1"], stats["q3"], stats["iqr"]) == (1.75, 3.25, 1.5)

    def test_no_values(self, perf_pairs):
        with pytest.raises(ValueError):
            perf_pairs.quantile([], 0.5)


class TestCompareMetric:
    def test_a_clear_gain_on_a_lower_is_better_metric(self, perf_pairs):
        parent = [1.40, 1.43, 1.42, 1.38, 1.41, 1.44, 1.39, 1.40, 1.42, 1.43]
        change = [1.19, 1.21, 1.26, 1.20, 1.22, 1.18, 1.25, 1.20, 1.19, 1.23]
        stats = perf_pairs.compare_metric(parent, change, "lower")
        assert (stats["pairs"], stats["wins"], stats["ties"], stats["losses"]) == (10, 10, 0, 0)
        assert stats["improved"] and stats["apart"] and stats["claim"]
        assert stats["relative"] == pytest.approx(
            (np.median(change) - np.median(parent)) / np.median(parent)
        )

    def test_one_lost_pair_of_ten_still_claims(self, perf_pairs):
        parent = [1.40] * 10
        change = [1.20] * 9 + [1.50]
        stats = perf_pairs.compare_metric(parent, change, "lower")
        assert (stats["wins"], stats["losses"]) == (9, 1)
        assert stats["claim"]

    def test_two_lost_pairs_of_ten_do_not(self, perf_pairs):
        stats = perf_pairs.compare_metric([1.40] * 10, [1.20] * 8 + [1.50] * 2, "lower")
        assert stats["wins"] == 8 and not stats["claim"]

    def test_ties_are_not_wins(self, perf_pairs):
        stats = perf_pairs.compare_metric([2.0, 2.0, 3.0], [2.0, 1.0, 3.0], "lower")
        assert (stats["wins"], stats["ties"], stats["losses"]) == (1, 2, 0)
        assert not stats["claim"]

    def test_higher_is_better(self, perf_pairs):
        stats = perf_pairs.compare_metric([100.0, 101.0, 99.0], [110.0, 111.0, 112.0], "higher")
        assert stats["wins"] == 3 and stats["improved"] and stats["claim"]
        worse = perf_pairs.compare_metric([100.0, 101.0, 99.0], [90.0, 91.0, 92.0], "higher")
        assert worse["wins"] == 0 and not worse["improved"] and worse["apart"]
        assert not worse["claim"]

    def test_medians_inside_the_parent_iqr_are_not_apart(self, perf_pairs):
        # Parent quartiles 1.0 and 2.0: a 0.5 shift in the median is noise.
        parent = [0.5, 1.0, 1.5, 2.0, 2.5]
        change = [0.0, 0.5, 1.0, 1.5, 2.0]
        stats = perf_pairs.compare_metric(parent, change, "lower")
        assert stats["wins"] == 5 and stats["improved"]
        assert stats["parent"]["iqr"] == 1.0 and not stats["apart"] and not stats["claim"]

    def test_a_pair_with_a_lost_run_is_dropped_whole(self, perf_pairs):
        stats = perf_pairs.compare_metric([1.0, None, 1.0, 1.0], [0.5, 0.4, None, 0.5], "lower")
        assert (stats["pairs"], stats["lost"], stats["wins"]) == (2, 2, 2)
        assert stats["parent"]["median"] == 1.0 and stats["change"]["median"] == 0.5

    def test_every_pair_lost(self, perf_pairs):
        assert perf_pairs.compare_metric([None], [1.0], "lower") == {"pairs": 0, "lost": 1}

    def test_bad_arguments(self, perf_pairs):
        with pytest.raises(ValueError):
            perf_pairs.compare_metric([1.0], [1.0, 2.0], "lower")
        with pytest.raises(ValueError):
            perf_pairs.compare_metric([1.0], [1.0], "smaller")


class TestSummary:
    METRICS = [{"name": "op_p50_ms", "better": "lower"}]

    def test_failed_counts_and_lost_runs(self, perf_pairs):
        runs = [
            {"parent": result_line(1.4), "change": result_line(1.2, failed=2)},
            {"parent": None, "change": result_line(1.1)},
            {"parent": result_line(1.5, failed=1), "change": result_line(1.3)},
        ]
        summary = perf_pairs.summarise(runs, self.METRICS)
        assert summary["failed"] == {"parent": 1, "change": 2}
        assert summary["lost_runs"] == {"parent": 1, "change": 0}
        assert summary["metrics"]["op_p50_ms"]["pairs"] == 2
        lines = perf_pairs.format_summary(summary)
        assert lines[1].startswith("op_p50_ms") and " 2/2 " in lines[1]
        assert "failed output checks: parent 1, change 2" in lines
        assert "lost runs: parent 1, change 0" in lines

    def test_append_record_keeps_earlier_records(self, perf_pairs, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        perf_pairs.append_record({"workload": "a"}, path)
        perf_pairs.append_record({"workload": "b"}, path)
        assert [record["workload"] for record in json.loads(path.read_text())] == ["a", "b"]
