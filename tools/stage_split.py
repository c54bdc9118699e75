"""Split the det path's in-process time by stage, over det-large words.

    python3 tools/stage_split.py
    python3 tools/stage_split.py --parent HEAD~1
    python3 tools/stage_split.py --words 5 --rounds 1

The words are the first ``--words`` requests (200 by default) of the
det-large stream for seed 3, read from perfbench/workloads.py, which is
only imported.  Each stage of ``jones_via_det`` is called on its own,
in the order the det path calls it, and timed with ``perf_counter``:
parse, close, checkerboard, overlay, letters, signs, matrix,
determinant, sign and writhe.  One untimed pass first checks every
word's assembled answer against ``jones_via_det``.  A round times every
word once; each stage's figure is its median over ``--rounds`` rounds
(10 by default).  "front" sums close through sign, the determinant
left out.

Without ``--parent`` every round runs in this process, on this
checkout's ``src/``.  With it, each round runs in a fresh interpreter,
on this checkout and on the tree of ``--parent`` (exported with ``git
archive``), the parent first in even rounds and the change first in odd
ones, and the table sets the two side by side.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = (
    "parse", "close", "checkerboard", "overlay", "letters",
    "signs", "matrix", "determinant", "sign", "writhe",
)
SEED = 3
FRONT = ("close", "checkerboard", "overlay", "letters", "signs", "matrix", "sign")


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def det_words(count: int) -> list[str]:
    workloads = _load("workloads", ROOT / "perfbench" / "workloads.py")
    return [r["braid"] for r in workloads.first("det-large", SEED, count)]


def time_rounds(src: Path, texts: list[str], rounds: int) -> list[dict[str, float]]:
    """Per round, each stage's seconds summed over ``texts``."""
    sys.path.insert(0, str(src))
    from braidpoly import dimer
    from braidpoly.braid import parse_braid
    from braidpoly.diagram import checkerboard, close_braid
    from braidpoly.dimer import adjacency_matrix, determinant, jones_via_det, kasteleyn_sign
    from braidpoly.oracle import writhe_correction
    from braidpoly.overlay import build_overlay, overlay_activity_letters

    def split(text: str, spent: dict[str, float] | None):
        clock = time.perf_counter
        t0 = clock()
        word = parse_braid(text)
        t1 = clock()
        d = close_braid(word)
        t2 = clock()
        checkerboard(d)
        t3 = clock()
        g = build_overlay(d)
        t4 = clock()
        overlay_activity_letters(g)
        t5 = clock()
        kasteleyn_sign(g)
        t6 = clock()
        m = adjacency_matrix(g)
        t7 = clock()
        det = determinant(m)
        t8 = clock()
        sign = dimer.bracket_sign(word, det)
        t9 = clock()
        jones = writhe_correction(word.writhe) * (det if sign > 0 else -det)
        t10 = clock()
        if spent is not None:
            marks = (t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10)
            for stage, start, end in zip(STAGES, marks, marks[1:]):
                spent[stage] += end - start
        return word, jones

    for text in texts:
        word, jones = split(text, None)
        if jones != jones_via_det(word):
            raise SystemExit(f"stage split of {text!r} disagrees with jones_via_det")
    out = []
    for _ in range(rounds):
        spent = dict.fromkeys(STAGES, 0.0)
        for text in texts:
            split(text, spent)
        out.append(spent)
    return out


def medians(rounds: list[dict[str, float]]) -> dict[str, float]:
    out = {s: statistics.median(r[s] for r in rounds) for s in STAGES}
    out["front"] = sum(out[s] for s in FRONT)
    out["total"] = sum(out[s] for s in STAGES)
    return out


def table(sides: dict[str, dict[str, float]]) -> str:
    names = list(sides)
    head = "".join(f"{n + ' ms':>12}{'share':>8}" for n in names)
    ratio = len(names) == 2
    lines = [f"{'stage':<14}{head}" + (f"{'ratio':>8}" if ratio else "")]
    for stage in (*STAGES, "front", "total"):
        cells = "".join(
            f"{1e3 * s[stage]:>12.1f}{s[stage] / s['total']:>8.1%}" for s in sides.values()
        )
        if ratio:
            a, b = (sides[n][stage] for n in names)
            cells += f"{b / a:>8.2f}" if a else f"{'-':>8}"
        lines.append(f"{stage:<14}{cells}")
    return "\n".join(lines)


def child(src: Path, args) -> list[dict[str, float]]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--src", str(src),
        "--words", str(args.words), "--rounds", "1", "--json",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--words", type=int, default=200)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--parent", help="revision to time against, in alternating rounds")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    parser.add_argument("--json", action="store_true", help="print each round's raw seconds")
    args = parser.parse_args()

    if args.parent is None:
        rounds = time_rounds(args.src, det_words(args.words), args.rounds)
        print(json.dumps(rounds) if args.json else table({"this": medians(rounds)}))
        return 0
    bench_pairs = _load("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    with tempfile.TemporaryDirectory() as tmp:
        bench_pairs.export_commit(ROOT, args.parent, Path(tmp))
        srcs = {"parent": Path(tmp) / "src", "change": ROOT / "src"}
        rounds: dict[str, list] = {"parent": [], "change": []}
        for k in range(args.rounds):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                rounds[side] += child(srcs[side], args)
    print(table({side: medians(r) for side, r in rounds.items()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
