"""Command-line front end.

Exit codes are part of the contract so runs can be scripted:

* 0  success
* 1  input could not be parsed (braid text or arguments)
* 2  word outside what the requested method supports
* 3  a resource cap refused the computation
* 4  verification found a mismatch between methods

Output on stdout is byte-identical across repeated invocations;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .braid import BraidWord, parse_braid
from .diagram import build_diagram
from .dimer import MAX_DET_CROSSINGS, adjacency_matrix, bracket_via_det, prepare_overlay
from .errors import (
    BraidSyntaxError,
    DisconnectedLink,
    NegativeIndex,
    StrandMismatch,
    TooLarge,
    TooManyCrossings,
    UnsupportedWord,
    ZeroExponent,
)
from .kauffman import F2q, K2Q_METHODS, K2q
from .oracle import DEFAULT_CROSSING_CAP, bracket_state_sum, writhe_correction
from .overlay import overlay_to_dot, partition_function, perfect_matchings
from .tait import build_tait, dual_tait, spanning_trees, tait_to_dot, thistlethwaite_sum

__all__ = ["run", "build_parser"]

JONES_METHODS = ("det", "matchings", "trees", "statesum")


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="braidpoly", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    braid_args = _Parser(add_help=False)
    braid_args.add_argument("--braid", required=True, help="braid word, e.g. 's1^3'")
    braid_args.add_argument("--strands", type=int, default=None)
    braid_args.add_argument(
        "--debug-diagram",
        action="store_true",
        help="dump the closed diagram as JSON on stderr",
    )

    cap_args = _Parser(add_help=False)
    cap_args.add_argument(
        "--max-crossings",
        type=int,
        default=DEFAULT_CROSSING_CAP,
        help="cap for the enumeration methods (default %(default)s)",
    )

    for name in ("jones", "bracket"):
        cmd = sub.add_parser(name, parents=[braid_args, cap_args])
        cmd.add_argument("--method", choices=JONES_METHODS, default="det")
        cmd.add_argument("--format", choices=("text", "json"), default="text")

    kauffman = sub.add_parser("kauffman")
    kauffman.add_argument("--q", type=int, required=True)
    kauffman.add_argument("--method", choices=K2Q_METHODS, default="skein")
    kauffman.add_argument(
        "--normalized",
        action="store_true",
        help="divide out the framing factor a^q",
    )
    kauffman.add_argument("--format", choices=("text", "json"), default="text")

    matrix = sub.add_parser("matrix", parents=[braid_args])
    matrix.add_argument("--symbolic", action="store_true")
    matrix.add_argument("--format", choices=("text", "json"), default="text")

    graph = sub.add_parser("graph", parents=[braid_args])
    graph.add_argument("--kind", choices=("tait", "dual", "overlay"), default="tait")
    graph.add_argument("--format", choices=("dot", "json"), default="dot")

    verify = sub.add_parser("verify", parents=[cap_args])
    verify.add_argument("--braid", default=None)
    verify.add_argument("--strands", type=int, default=None)
    verify.add_argument("--debug-diagram", action="store_true")
    verify.add_argument(
        "--corpus",
        action="store_true",
        help="sweep the bounded family instead of a single word",
    )

    return parser


def _load_word(args) -> BraidWord:
    word = parse_braid(args.braid, args.strands)
    # no method reaches further than the determinant, so its cap bounds every command
    if word.crossing_count > MAX_DET_CROSSINGS:
        raise TooManyCrossings(
            f"{word.crossing_count} crossings exceeds the determinant cap {MAX_DET_CROSSINGS}"
        )
    if args.debug_diagram:
        diagram = build_diagram(word)
        print(json.dumps(diagram.to_debug_json(), indent=2), file=sys.stderr)
    return word


def _check_cap(word: BraidWord, method: str, cap: int) -> None:
    if word.crossing_count > cap:
        raise TooManyCrossings(f"{word.crossing_count} crossings exceeds the {method} cap {cap}")


def _bracket(word: BraidWord, method: str, cap: int):
    if method == "det":
        return bracket_via_det(word)
    _check_cap(word, method, cap)
    if method == "statesum":
        return bracket_state_sum(build_diagram(word), max_crossings=cap)
    if method == "matchings":
        return partition_function(prepare_overlay(word), max_crossings=cap)
    return thistlethwaite_sum(build_tait(build_diagram(word)), max_edges=cap)


def _emit_poly(poly, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(poly.to_json(), indent=2))
    else:
        print(poly.to_text())
    return 0


def _cmd_polynomial(args) -> int:
    word = _load_word(args)
    value = _bracket(word, args.method, args.max_crossings)
    if args.command == "jones":
        value = writhe_correction(word.writhe) * value
    return _emit_poly(value, args.format)


def _cmd_kauffman(args) -> int:
    value = F2q(args.q, args.method) if args.normalized else K2q(args.q, args.method)
    return _emit_poly(value, args.format)


def _cmd_matrix(args) -> int:
    word = _load_word(args)
    m = adjacency_matrix(prepare_overlay(word))
    if args.format == "json":
        print(json.dumps(m.to_json(args.symbolic), indent=2))
    else:
        print(m.to_text(args.symbolic))
    return 0


def _cmd_graph(args) -> int:
    word = _load_word(args)
    if args.kind == "overlay":
        g = prepare_overlay(word)
        if args.format == "json":
            payload = {
                "crossings": list(g.crossings),
                "faces": list(g.faces),
                "shaded": sorted(g.shaded),
                "edges": [
                    {
                        "crossing": e.crossing_id,
                        "face": e.face_id,
                        "letter": e.letter,
                        "kasteleyn_sign": e.kasteleyn_sign,
                    }
                    for e in g.edges
                ],
            }
            print(json.dumps(payload, indent=2))
        else:
            print(overlay_to_dot(g))
        return 0
    diagram = build_diagram(word)
    g = dual_tait(diagram) if args.kind == "dual" else build_tait(diagram)
    if args.format == "json":
        payload = {
            "vertices": list(g.vertices),
            "edges": [
                {
                    "crossing": e.crossing_id,
                    "endpoints": list(e.endpoints),
                    "sign": e.sign,
                }
                for e in g.edges
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(tait_to_dot(g))
    return 0


def _verify_word(word: BraidWord, cap: int, label: str | None = None) -> bool:
    """Every method on one word; the enumerations share one diagram and one overlay."""
    det = bracket_via_det(word)
    _check_cap(word, "matchings", cap)
    overlay = prepare_overlay(word)
    diagram = build_diagram(word)
    tait = build_tait(diagram)
    brackets = {
        "det": det,
        "matchings": partition_function(overlay, max_crossings=cap),
        "trees": thistlethwaite_sum(tait, max_edges=cap),
        "statesum": bracket_state_sum(diagram, max_crossings=cap),
    }
    correction = writhe_correction(word.writhe)
    values = {m: correction * brackets[m] for m in JONES_METHODS}
    reference = values["det"]
    ok = all(v == reference for v in values.values())
    if label is None:
        for method in JONES_METHODS:
            print(f"jones[{method}] = {values[method].to_text()}")
        matchings = sum(1 for _ in perfect_matchings(overlay, max_crossings=cap))
        trees = sum(1 for _ in spanning_trees(tait, max_edges=cap))
        print(f"perfect matchings: {matchings}   spanning trees: {trees}")
        print("PASS" if ok else "FAIL")
    elif not ok:
        print(f"FAIL {label}")
    return ok


def _family_corpus() -> list[BraidWord]:
    words = []
    for strands in (2, 3, 4):
        for sign in (1, -1):
            for exponents in itertools.product(range(1, 5), repeat=strands - 1):
                syllables = tuple(
                    (i + 1, sign * m) for i, m in enumerate(exponents)
                )
                words.append(BraidWord(strands, syllables))
    return words


def _cmd_verify(args) -> int:
    if args.corpus:
        words = _family_corpus()
        failures = 0
        for word in words:
            if not _verify_word(word, args.max_crossings, label=str(word)):
                failures += 1
        if failures:
            print(f"FAIL ({failures} of {len(words)} words)")
            return 4
        print(f"PASS ({len(words)} words)")
        return 0
    if args.braid is None:
        print("braidpoly verify: error: provide --braid or --corpus", file=sys.stderr)
        return 1
    word = _load_word(args)
    return 0 if _verify_word(word, args.max_crossings) else 4


_COMMANDS = {
    "jones": _cmd_polynomial,
    "bracket": _cmd_polynomial,
    "kauffman": _cmd_kauffman,
    "matrix": _cmd_matrix,
    "graph": _cmd_graph,
    "verify": _cmd_verify,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except (BraidSyntaxError, StrandMismatch, ZeroExponent, NegativeIndex) as exc:
        print(f"braidpoly: error: {exc}", file=sys.stderr)
        return 1
    except (UnsupportedWord, DisconnectedLink) as exc:
        print(f"braidpoly: error: {exc}", file=sys.stderr)
        return 2
    except (TooManyCrossings, TooLarge) as exc:
        print(f"braidpoly: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(run())
