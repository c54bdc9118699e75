"""One workload in a fresh interpreter, started by run.py.

    python3 perfbench/worker.py {ready,run,trace} --workload W --seed N --seconds S

``ready`` imports braidpoly, makes one warm-up call and prints "ready".
``run`` does the same, then sends requests one at a time (a closed loop
with one client) until S seconds have passed.  ``trace`` sends a fixed
number of requests, each once plain and once under the tracer.  The
last stdout line is one JSON object; run.py turns it into metrics.

Every answer is checked against reference.py after the loop, so the
check costs no run time.  A request that raises, exits non-zero, times
out or answers wrongly is a failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

REQUEST_TIMEOUT_S = 30
# one full cycle each; cli-small requests are cheap, so two
TRACE_REQUESTS = {"det-large": 20, "cli-small": 40, "verify-enum": 20}
IMPORT_SAMPLES = 5


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout(f"no answer within {REQUEST_TIMEOUT_S} s")


def with_timeout(fn, *args):
    signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


# ------------------------------------------------------------- requests
# Functions are looked up on the modules at call time, so the tracer's
# wrappers are seen when installed.

def bp():
    return sys.modules["braidpoly"]


def run_det(req):
    return bp().jones_via_det(bp().parse_braid(req["braid"]))


def check_det(req, value):
    expected = reference.family_jones(reference.parse_word(req["braid"]))
    return None if value.terms == expected else "jones differs from the connected-sum reference"


def run_cross(req):
    word = bp().parse_braid(req["braid"])
    values = {
        "statesum": bp().bracket_state_sum(bp().build_diagram(word)),
        "trees": bp().thistlethwaite_sum(bp().build_tait(bp().build_diagram(word))),
    }
    if word.is_homogeneous_family():
        values["matchings"] = bp().partition_function(bp().prepare_overlay(word))
    return values


def check_cross(req, values):
    syllables = reference.parse_word(req["braid"])
    if reference.is_family(syllables):
        if set(values) != {"statesum", "trees", "matchings"}:
            return "family word not sent through all three routes"
        expected = reference.family_bracket(syllables)
    else:
        expected = values["statesum"].terms
    bad = [route for route, value in values.items() if value.terms != expected]
    return f"{', '.join(bad)} disagree" if bad else None


def clear_kauffman_caches() -> None:
    """Drop the lru caches so each request computes as a fresh process would."""
    for value in vars(sys.modules["braidpoly.kauffman"]).values():
        clear = getattr(value, "cache_clear", None)
        if callable(clear):
            clear()


def run_k2q(req):
    out = {}
    for method in workloads.K2Q_METHODS:
        clear_kauffman_caches()
        out[method] = bp().K2q(req["q"], method)
    return out


def check_k2q(req, values):
    expected = reference.k2q(req["q"])
    bad = [m for m, value in values.items() if value.terms != expected]
    return f"K2q by {', '.join(bad)} differs from the skein reference" if bad else None


def run_cli_process(req):
    proc = subprocess.run(
        [sys.executable, "-m", "braidpoly.cli", *req["argv"]],
        capture_output=True,
        text=True,
        timeout=REQUEST_TIMEOUT_S,
        cwd=ROOT,
        env=child_env(),
    )
    return proc.returncode, proc.stdout


def run_cli_inprocess(req):
    clear_kauffman_caches()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["braidpoly.cli"].run(list(req["argv"]))
    return code, buf.getvalue()


def check_cli(req, value):
    code, stdout = value
    if code != 0:
        return f"exit code {code}"
    return None if stdout == reference.cli_stdout(req["argv"]) else "stdout differs from reference"


RUN = {"det": run_det, "cross": run_cross, "k2q": run_k2q, "cli": run_cli_process}
CHECK = {"det": check_det, "cross": check_cross, "k2q": check_k2q, "cli": check_cli}

WARM_UP = {
    "det-large": [{"kind": "det", "braid": "s1^3 s2^3"}],
    "verify-enum": [{"kind": "cross", "braid": "s1^2 s2^-1 s1"}, {"kind": "k2q", "q": 5}],
    "cli-small": [{"kind": "cli", "argv": ["jones", "--braid", "s1^3"]}],
}


def setup(workload: str) -> None:
    """Import braidpoly from this checkout and make the warm-up calls in process."""
    import braidpoly

    if workload == "cli-small":
        import braidpoly.cli  # noqa: F401
    if not Path(braidpoly.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"braidpoly imported from {braidpoly.__file__}, not from {ROOT / 'src'}")
    for req in WARM_UP[workload]:
        execute(req, in_process=True)


def execute(req, in_process: bool = False):
    if req["kind"] == "cli" and in_process:
        return run_cli_inprocess(req)
    return RUN[req["kind"]](req)


def check(req, value) -> str | None:
    return CHECK[req["kind"]](req, value)


def attempt(fn, *args):
    """(seconds, value, error text) for one request."""
    start = time.perf_counter()
    try:
        value, error = with_timeout(fn, *args), None
    except Exception as exc:
        value, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, value, error


def judge(outcomes) -> list[int]:
    """Positions of the failed requests; outcomes are (request, value, error).

    The first few failures are described on stderr.
    """
    failed = []
    for i, (req, value, error) in enumerate(outcomes):
        error = error or check(req, value)
        if error:
            if len(failed) < 5:
                print(f"perfbench: FAILED {json.dumps(req)}: {error}", file=sys.stderr)
            failed.append(i)
    return failed


# ----------------------------------------------------------------- modes

def mode_run(workload: str, seed: int, seconds: float) -> dict:
    """Closed loop until the deadline; timings cover whole cycles only.

    Requests of the cycle the deadline cuts are sent and checked but not
    timed, so every timed run holds the same mix of slots.
    """
    in_process = workload != "cli-small"
    if in_process:
        setup(workload)
    requests = workloads.stream(workload, seed)
    cycle = len(workloads.CYCLES[workload])
    latencies, ends, outcomes = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        req = next(requests)
        took, value, error = attempt(execute, req)
        latencies.append(took)
        ends.append(time.perf_counter() - start)
        outcomes.append((req, value, error))
    timed = len(latencies) // cycle * cycle or len(latencies)
    failed = judge(outcomes)
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return {
        "latencies": latencies[:timed],
        "elapsed": ends[timed - 1],
        "timed_failed": sum(1 for i in failed if i < timed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }


def _import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import braidpoly.cli; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=REQUEST_TIMEOUT_S, cwd=ROOT, env=child_env(), check=True,
    )
    return float(proc.stdout)


def _anchors() -> tuple[dict, list]:
    """Det-path time and the determinant's share for the ROADMAP rows."""
    metrics, outcomes = {}, []
    for name, syllables in workloads.ANCHORS:
        req = {"kind": "det", "braid": workloads.word_text(syllables)}
        with Tracer(ring_ops=False) as tracer:
            _, value, error = attempt(tracer.request, 0, run_det, req)
        outcomes.append((req, value, error))
        total = tracer.durations("request")
        metrics[f"anchor.{name}.det_path_s"] = total
        metrics[f"anchor.{name}.determinant_share"] = tracer.durations("dimer.determinant") / total
    return metrics, outcomes


def mode_trace(workload: str, seed: int, meta: dict) -> dict:
    setup(workload)
    requests = workloads.first(workload, seed, TRACE_REQUESTS[workload])
    # plain and traced runs of each request back to back, so a drift in
    # machine speed hits both alike
    tracer = Tracer()
    plain, traced, process = [], [], []
    for rid, req in enumerate(requests):
        plain.append(attempt(execute, req, True))
        with tracer:
            traced.append(attempt(tracer.request, rid, execute, req, True))
        if workload == "cli-small":
            process.append(attempt(run_cli_process, req))
    outcomes = [
        (req, v, e) for runs in (plain, traced, process) for req, (_, v, e) in zip(requests, runs)
    ]

    metrics: dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        metrics[f"{name}.self_s"] = seconds
    for name, seconds in tracer.meter_time.items():
        metrics[f"{name}.self_s"] = seconds
    metrics.update(tracer.counts)
    metrics["dimer.ops.total"] = sum(tracer.counts[f"dimer.ops.{f}"] for f in ("muls", "adds", "divs"))
    for layer, count in tracer.errors.items():
        metrics[f"{layer}.errors"] = count
    busy = tracer.durations("request")
    metrics["trace.requests"] = len(requests)
    metrics["trace.busy_s"] = busy
    metrics["trace.overhead_ratio"] = 1 - sum(took for took, _, _ in plain) / busy

    metrics["cli.import_s"] = statistics.median(_import_seconds() for _ in range(IMPORT_SAMPLES))
    if workload == "cli-small":
        metrics["cli.process_s"] = statistics.median(
            wall - inproc for (wall, _, _), (inproc, _, _) in zip(process, plain)
        )
    if workload == "det-large":
        anchor_metrics, anchor_outcomes = _anchors()
        metrics.update(anchor_metrics)
        outcomes += anchor_outcomes

    failed = judge(outcomes)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "meta": meta,
        "fields": ["id", "name", "start", "end", "parent", "request"],
        "spans": tracer.spans,
        "requests": requests,
    }))
    return {
        "metrics": metrics,
        "attempted": len(outcomes),
        "failed": len(failed),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("ready", "run", "trace"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--meta", default="{}")
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.mode == "ready":
        setup(args.workload)
        print("ready", flush=True)
        return 0
    if args.mode == "run":
        result = mode_run(args.workload, args.seed, args.seconds)
    else:
        result = mode_trace(args.workload, args.seed, json.loads(args.meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
