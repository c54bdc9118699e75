"""The braidpoly benchmark: three workloads, answers checked, one JSON line.

    python3 perfbench/run.py --workload det-large --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 44

Run from the root of a checkout.  The package is imported from ``src/``
of that checkout; nothing is installed.  Each workload runs in a fresh
interpreter (worker.py), one request at a time, and starts no pool.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json:
setup_s is the median of SETUP_SAMPLES fresh interpreters taken to
ready, the rest come from one closed-loop run of --seconds.  --trace 1
prints the per-layer metrics of a separate traced run instead.  Either
way the last stdout line is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads
from worker import child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 7
# A run may overrun --seconds by one request and the set-up; this bounds
# a worker that stopped answering.
WORKER_GRACE_S = 100

# ROADMAP baseline (Python 3.11.7, 2 cores): det path total, determinant
ROADMAP_BASELINE = {
    "2x20": (0.026, 0.022),
    "2x40": (0.191, 0.182),
    "10x10": (1.38, 1.36),
    "2x80": (2.11, 2.07),
}


class BenchError(Exception):
    pass


def run_child(cmd: list[str], timeout: float) -> str:
    """Stdout of a child that must exit 0; it is killed and reaped on timeout."""
    with subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{' '.join(cmd[1:3])} did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited with {proc.returncode}")
    return out


def run_worker(mode: str, workload: str, *extra: str, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload, *extra]
    return json.loads(run_child(cmd, timeout).splitlines()[-1])


def setup_seconds(workload: str) -> float:
    """Fresh interpreter to ready: import braidpoly plus one warm-up call.

    For cli-small, ready is the first answer of a fresh CLI process.
    """
    if workload == "cli-small":
        argv = ["jones", "--braid", "s1^3"]
        cmd = [sys.executable, "-m", "braidpoly.cli", *argv]
        expect = reference.cli_stdout(argv)
    else:
        cmd = [sys.executable, str(HERE / "worker.py"), "ready", "--workload", workload]
        expect = "ready\n"
    start = time.perf_counter()
    out = run_child(cmd, timeout=60)
    took = time.perf_counter() - start
    if out != expect:
        raise BenchError(f"set-up of {workload} printed {out!r}")
    return took


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    setups = [setup_seconds(workload) for _ in range(SETUP_SAMPLES)]
    res = run_worker(
        "run", workload, "--seed", str(seed), "--seconds", str(seconds),
        timeout=seconds + WORKER_GRACE_S,
    )
    latencies = sorted(res["latencies"])
    attempted, failed = res["attempted"], res["failed"]
    timed, p90 = len(latencies), percentile(latencies, 0.9)
    beyond = sum(1 for t in latencies if t > p90)
    print(f"# {workload}: {attempted} requests, {timed} timed in whole cycles over "
          f"{res['elapsed']:.2f} s, {beyond} beyond p90, {failed} failed")
    values = {
        "setup_s": statistics.median(setups),
        "words_per_s": (timed - res["timed_failed"]) / res["elapsed"],
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": p90,
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    return values, attempted, failed


def per_layer(workload: str, seed: int, seconds: float, meta: dict) -> tuple[dict, int, int]:
    res = run_worker(
        "trace", workload, "--seed", str(seed), "--meta", json.dumps(meta),
        timeout=seconds + WORKER_GRACE_S,
    )
    values = res["metrics"]
    print(f"# {workload}: traced {values['trace.requests']} requests, "
          f"tracing overhead {values['trace.overhead_ratio']:.1%}, spans in {res['spans_file']}")
    if workload == "det-large":
        share = values.get("dimer.determinant.self_s", 0) / values["trace.busy_s"]
        print(f"# det-large: dimer.determinant.self_s is {share:.1%} of traced busy time")
        print("# anchor   det path (ROADMAP)    determinant share (ROADMAP)")
        for name, (total, det) in ROADMAP_BASELINE.items():
            print(f"# {name:<7} {values[f'anchor.{name}.det_path_s']:8.3f} s ({total:.3f} s)"
                  f"    {values[f'anchor.{name}.determinant_share']:6.1%} ({det / total:.1%})")
    return values, res["attempted"], res["failed"]


def meta_data(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "braidpoly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "braidpoly" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no src/braidpoly or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    meta = meta_data(args.seed)
    print("# meta " + json.dumps(meta))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        # compile the package once so no timed start-up pays for bytecode
        run_child([sys.executable, "-c", "import braidpoly.cli"], timeout=60)
        for workload in names:
            if args.trace:
                values, n, bad = per_layer(workload, args.seed, args.seconds, meta)
            else:
                values, n, bad = end_to_end(workload, args.seed, args.seconds)
            attempted += n
            failed += bad
            prefix = f"{workload}." if len(names) > 1 else ""
            for m in declared:
                value = values.get(m["name"], 0)
                print(f"{prefix}{m['name']:<40} {value:>14.6g} {m['unit']}")
                metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
