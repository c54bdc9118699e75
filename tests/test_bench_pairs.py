"""The pure helpers of tools/bench_pairs.py, which is a script, not a package."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "words_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}


def run(words_per_s, latency, correct=True):
    return {
        "correct": correct,
        "metrics": {"words_per_s": words_per_s, "latency_p50_s": latency},
    }


PARENT = [run(100, 0.5), run(110, 0.4), run(90, 0.6), run(100, 0.5)]
CHANGE = [run(120, 0.4), run(100, 0.5), run(95, 0.5), run(100, 0.5)]


def test_compare_counts_wins_by_the_metric_direction_and_ties_apart():
    out = bench_pairs.compare(PARENT, CHANGE, SPEC)
    rate, latency = out["words_per_s"], out["latency_p50_s"]
    # higher is better: 120 > 100 and 95 > 90 win, 100 < 110 loses, 100 = 100 ties
    assert (rate["change_wins"], rate["ties"], rate["pairs"]) == (2, 1, 4)
    # lower is better: 0.4 < 0.5 and 0.5 < 0.6 win, 0.5 > 0.4 loses, 0.5 = 0.5 ties
    assert (latency["change_wins"], latency["ties"], latency["pairs"]) == (2, 1, 4)
    assert rate["better"] == "higher" and latency["better"] == "lower"
    assert rate["bound"] == latency["bound"] == 0.25


def test_median_change_ratio_is_relative_to_the_parent_median():
    out = bench_pairs.compare(PARENT, CHANGE, SPEC)
    # medians: words_per_s 100 -> 100, latency 0.5 -> 0.5
    assert out["words_per_s"]["median_change_ratio"] == 0
    faster = bench_pairs.compare([run(100, 0.5)] * 3, [run(125, 0.4)] * 3, SPEC)
    assert faster["words_per_s"]["median_change_ratio"] == pytest.approx(0.25)
    assert faster["latency_p50_s"]["median_change_ratio"] == pytest.approx(-0.2)
    assert bench_pairs.compare([run(0, 0)], [run(1, 1)], SPEC)["words_per_s"][
        "median_change_ratio"
    ] is None


def test_summary_of_one_run_and_of_several():
    assert bench_pairs.summary([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "runs": [3.0]}
    out = bench_pairs.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (out["median"], out["q1"], out["q3"]) == (3.0, 1.5, 4.5)


def test_all_correct_counts_the_traced_runs():
    traced = {"parent": run(100, 0.5), "change": run(100, 0.5)}
    runs = {"parent": PARENT, "change": CHANGE}
    assert bench_pairs.workload_report(runs, traced, SPEC)["all_correct"]
    traced["change"] = run(100, 0.5, correct=False)
    report = bench_pairs.workload_report(runs, traced, SPEC)
    assert not report["all_correct"]
    assert report["per_layer"]["words_per_s"] == {"parent": 100, "change": 100}
    runs["parent"] = PARENT[:-1] + [run(100, 0.5, correct=False)]
    traced["change"] = run(100, 0.5)
    assert not bench_pairs.workload_report(runs, traced, SPEC)["all_correct"]
