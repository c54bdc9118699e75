"""Benchmark a change against its parent in alternating pairs; write BENCH_<n>.json.

    python3 tools/bench_pairs.py --number 6 --parent HEAD~1 --pairs 10
    python3 tools/bench_pairs.py --number 6 --parent HEAD~1 --workloads det-large --pairs 3

Run from anywhere inside the checkout.  Both sides run from sibling
directories under one temporary directory, so neither gains from where it
lies: the parent is the tree of ``--parent``, exported with ``git
archive``, and the change is the checkout as it stands, copied file by
file: tracked files with their uncommitted edits, and untracked files that
``.gitignore`` does not exclude.  The repository's own metadata is left as
it was.  A parent that is HEAD of a clean checkout is refused, since both
sides would be the same tree.  Each side runs its own ``perfbench/run.py``
on its own ``src/``, one process at a time, for BENCHMARK.json's
``run_seconds``.

For each workload, pair k (counting from 0) runs ``--trace 0`` on both
sides with seed k + 1, the parent first in even pairs and the change
first in odd ones, so a machine that drifts within a pair favours
neither side.  One ``--trace 1`` run per side follows, on seed 1.  The
JSON file records the parent's commit, the checkout's HEAD and whether
it had uncommitted edits, and the sha256 of each side's
``src/braidpoly``, the digest that ``perfbench/run.py`` reports as
``source_sha256``.  It holds, per workload, whether every run answered correctly,
traced runs included; per end-to-end metric, every run's value, each
side's median and quartiles, and how many pairs the change won; and
each side's per-layer metrics from its traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("det-large", "cli-small", "verify-enum")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_commit(root: Path, rev: str, into: Path) -> None:
    """The committed tree of ``rev`` in the repository at ``root``, unpacked into ``into``."""
    archive = subprocess.run(["git", "archive", rev], cwd=root, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into)


def export_checkout(root: Path, into: Path) -> None:
    """The checkout at ``root`` as it stands, copied into ``into``.

    Tracked files are copied with their uncommitted edits, and a tracked
    file deleted in the checkout is left out.  Untracked files are copied
    unless ``.gitignore`` excludes them.
    """
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True,
    ).stdout
    for name in filter(None, listing.decode().split("\0")):
        source = root / name
        if source.is_symlink() or source.is_file():
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target, follow_symlinks=False)


def source_sha256(tree: Path) -> str:
    """sha256 over the name and bytes of each ``src/braidpoly/*.py`` in ``tree``, by name."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "braidpoly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def bench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The last stdout line of one ``perfbench/run.py`` run in ``tree``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[dict], change: list[dict], spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        p = [run["metrics"][name] for run in parent]
        c = [run["metrics"][name] for run in change]
        wins = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
        ties = sum(1 for a, b in zip(p, c) if a == b)
        pm, cm = statistics.median(p), statistics.median(c)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": summary(p),
            "change": summary(c),
            "change_wins": wins,
            "ties": ties,
            "pairs": len(p),
            "median_change_ratio": (cm - pm) / pm if pm else None,
        }
    return out


def workload_report(runs: dict, traced: dict, spec: dict) -> dict:
    """One workload's entry from its paired runs and its traced runs.

    ``all_correct`` holds only when every run answered correctly, the
    traced ones included.
    """
    return {
        "all_correct": all(
            r["correct"] for r in [*runs["parent"], *runs["change"], *traced.values()]
        ),
        "end_to_end": compare(runs["parent"], runs["change"], spec),
        "per_layer": {
            name: {side: traced[side]["metrics"].get(name) for side in traced}
            for name in sorted(traced["change"]["metrics"])
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="n in BENCH_<n>.json")
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workloads.split(",")
    seeds = [k + 1 for k in range(args.pairs)]
    parent, head = git("rev-parse", args.parent), git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain"))
    if parent == head and not dirty:
        parser.error(f"--parent {args.parent} is HEAD and the checkout is clean: nothing to compare")
    report = {
        "parent": parent,
        "change": {"head": head, "dirty": dirty},
        "source_sha256": {},
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "settings": {"pairs": args.pairs, "seconds": seconds, "seeds": seeds},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_commit(ROOT, args.parent, sides["parent"])
        export_checkout(ROOT, sides["change"])
        report["source_sha256"] = {side: source_sha256(tree) for side, tree in sides.items()}
        for workload in names:
            runs = {"parent": [], "change": []}
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(bench(sides[side], workload, seed, seconds, 0))
                rate = {side: runs[side][-1]["metrics"]["words_per_s"] for side in sides}
                print(f"{workload} pair {k + 1}/{args.pairs}: words_per_s change/parent "
                      f"{rate['change'] / rate['parent']:.3f}", file=sys.stderr)
            traced = {side: bench(sides[side], workload, 1, seconds, 1) for side in sides}
            report["workloads"][workload] = workload_report(runs, traced, spec)
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
