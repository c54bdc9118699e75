"""The pure helpers of tools/bench_pairs.py, which is a script, not a package."""

import importlib.util
import os
import subprocess
import sys
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


def test_both_sides_are_exported_from_a_throwaway_repository(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com", *args],
            cwd=repo, check=True, capture_output=True,
        )

    git("init", "-q")
    (repo / ".gitignore").write_text("*.log\nout/\n")
    (repo / "kept.txt").write_text("committed\n")
    (repo / "gone.txt").write_text("committed\n")
    (repo / "tools").mkdir()
    (repo / "tools" / "run.sh").write_text("#!/bin/sh\n")
    (repo / "tools" / "run.sh").chmod(0o755)
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (repo / "kept.txt").write_text("edited\n")
    (repo / "gone.txt").unlink()
    (repo / "new.txt").write_text("untracked\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "out").mkdir()
    (repo / "out" / "result.json").write_text("ignored\n")

    def files(root):
        return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())

    change, parent = tmp_path / "change", tmp_path / "parent"
    bench_pairs.export_checkout(repo, change)
    bench_pairs.export_commit(repo, "HEAD", parent)
    assert files(change) == [".gitignore", "kept.txt", "new.txt", "tools/run.sh"]
    assert (change / "kept.txt").read_text() == "edited\n"
    assert os.access(change / "tools" / "run.sh", os.X_OK)
    assert files(parent) == [".gitignore", "gone.txt", "kept.txt", "tools/run.sh"]
    assert (parent / "kept.txt").read_text() == "committed\n"
    assert os.access(parent / "tools" / "run.sh", os.X_OK)


def load_perfbench_run():
    """perfbench/run.py as a module; it imports its sibling scripts by name."""
    perfbench = _PATH.parent.parent / "perfbench"
    names = ("reference", "workloads", "worker", "tracer")
    siblings = [name for name in names if name not in sys.modules]
    sys.path.insert(0, str(perfbench))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(perfbench))
        for name in siblings:
            sys.modules.pop(name, None)
    return module


def test_source_digest_is_the_one_perfbench_reports(tmp_path, monkeypatch):
    run_py = load_perfbench_run()
    package = tmp_path / "src" / "braidpoly"
    package.mkdir(parents=True)
    (package / "a.py").write_text("A = 1\n")
    (package / "b.py").write_text("B = 2\n")
    first = bench_pairs.source_sha256(tmp_path)
    monkeypatch.setattr(run_py, "ROOT", tmp_path)
    assert first == run_py.meta_data(1)["source_sha256"]
    # only the package's .py files count, and each one's name and bytes do
    (package / "notes.txt").write_text("ignored\n")
    (tmp_path / "src" / "c.py").write_text("ignored\n")
    assert bench_pairs.source_sha256(tmp_path) == first
    (package / "b.py").write_text("B = 3\n")
    assert bench_pairs.source_sha256(tmp_path) != first
    (package / "b.py").unlink()
    (package / "c.py").write_text("B = 2\n")
    assert bench_pairs.source_sha256(tmp_path) != first
