"""perfbench's tracer installs on this tree, which it patches from outside.

The tracer is a script beside the benchmark, not a package, so it is
loaded by path.  It reads the ring operations and ``OpCounter`` fields
it meters by name, so a rename or deletion in ``src/`` shows here
rather than in a failed benchmark run.
"""

import importlib.util
from pathlib import Path

from braidpoly import dimer, kauffman
from braidpoly.braid import parse_braid
from braidpoly.diagram import build_diagram
from braidpoly.dimer import prepare_overlay
from braidpoly.laurent import LaurentPoly1
from braidpoly.overlay import partition_function
from braidpoly.tait import build_tait, thistlethwaite_sum

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def test_tracer_records_the_det_path_and_restores_what_it_wrapped():
    determinant, mul = dimer.determinant, LaurentPoly1.__dict__["__mul__"]
    with tracer.Tracer() as t:
        assert dimer.determinant is not determinant
        dimer.jones_via_det(parse_braid("s1^5 s2^5"))
        kauffman.K2q(5)
    assert dimer.determinant is determinant
    assert LaurentPoly1.__dict__["__mul__"] is mul
    names = {span[1] for span in t.spans}
    assert {"dimer.determinant", "dimer.jones_via_det", "kauffman.K2q.skein"} <= names
    # 10 crossings on 3 strands: 3c - 2n + 1 muls and c - n + 1 adds
    ops = [t.counts[f"dimer.ops.{field}"] for field in ("muls", "adds", "divs")]
    assert (ops, sum(ops)) == ([25, 8, 0], 33)
    assert t.counts["laurent.mul.calls"] > 0
    # one quotient by a unit pivot per elimination step: c - n + 1
    assert t.counts["laurent.exact_div.calls"] == 8


def test_tracer_counts_the_enumeration_streams_and_word_specializations():
    word = parse_braid("s1^3 s2^3")
    with tracer.Tracer() as t:
        thistlethwaite_sum(build_tait(build_diagram(word)))
        partition_function(prepare_overlay(word))
    assert (t.counts["tait.trees"], t.counts["overlay.matchings"]) == (9, 9)
    assert t.counts["kauffman.specialize_bracket.calls"] == 18
