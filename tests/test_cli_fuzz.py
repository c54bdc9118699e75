"""Fuzzing the command line: every argv ends in a contract exit code.

Small inputs run in process.  Inputs with huge numbers run in a child
process under a time and memory limit, because a CLI that expanded
them before refusing would otherwise take the test run down with it.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from braidpoly.cli import JONES_METHODS, run
from braidpoly.kauffman import K2Q_METHODS

from cli_child import run_child

CONTRACT_CODES = {0, 1, 2, 3}

_junk = st.sampled_from(["", "x", "--frobnicate", "-h", "--format", "s1^", "--braid"])

_syllable = st.one_of(
    st.builds("s{}^{}".format, st.integers(1, 5), st.integers(-4, 4)),
    st.builds("s{}".format, st.integers(1, 5)),
)
_words = st.tuples(
    st.lists(_syllable, min_size=1, max_size=5), st.sampled_from([" ", "*", " * ", "\t"])
).map(lambda parts: parts[1].join(parts[0]))
# free text over the braid alphabet; at most 6 characters keeps exponents below 1000
braid_text = st.one_of(_words, _words, _words, st.text(alphabet="s^-*0123 x\t", max_size=6))


def _option(name, values):
    return st.tuples(st.just(name), values).map(list)


def _flag(name):
    return st.just([name])


def _braid_options(extra):
    return [
        _option("--braid", braid_text),
        _option("--strands", st.integers(-1, 7).map(str)),
        _flag("--debug-diagram"),
        *extra,
    ]


_fmt = st.sampled_from(["text", "json", "text", "json", "dot", "xml"])
# the enumeration methods stay fast below 11 crossings
_cap = _option("--max-crossings", st.integers(-1, 10).map(str))

_OPTIONS = {
    "jones": _braid_options(
        [
            _option("--method", st.sampled_from(JONES_METHODS + ("magic",))),
            _option("--format", _fmt),
        ]
    ),
    "matrix": _braid_options([_flag("--symbolic"), _option("--format", _fmt)]),
    "graph": _braid_options(
        [
            _option("--kind", st.sampled_from(["tait", "dual", "overlay", "bogus"])),
            _option("--format", _fmt),
        ]
    ),
    "verify": _braid_options([]),
    "kauffman": [
        _option("--q", st.integers(-2, 30).map(str)),
        _option("--method", st.sampled_from(K2Q_METHODS + ("magic",))),
        _flag("--normalized"),
        _option("--format", _fmt),
    ],
}
_OPTIONS["bracket"] = _OPTIONS["jones"]
_CAPPED = {"jones", "bracket", "verify"}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS) + ["frobnicate"]))
    pool = _OPTIONS.get(command, [])
    # --braid (or --q) comes first in each pool and is usually given
    keep = [draw(st.integers(0, 4)) > 0] + [draw(st.booleans()) for _ in pool[1:]]
    parts = [draw(option) for option, kept in zip(pool, keep) if kept]
    if command in _CAPPED:
        parts.append(draw(_cap))
    if draw(st.integers(0, 3)) == 0:
        parts.append([draw(_junk)])
    parts = draw(st.permutations(parts))
    return [command] + [arg for part in parts for arg in part]


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=300)
@given(argvs())
def test_small_argv_ends_in_contract_code(argv):
    code, out, err = run_in_process(argv)
    assert code in CONTRACT_CODES
    assert "Traceback" not in err
    assert run_in_process(argv)[:2] == (code, out)


_huge = st.integers(10**4, 10**12).map(str)

huge_argvs = st.one_of(
    st.tuples(st.sampled_from(["jones", "bracket", "matrix", "graph", "verify"]), _huge).map(
        lambda t: [t[0], "--braid", f"s1^{t[1]}"]
    ),
    st.tuples(st.sampled_from(["jones", "bracket", "matrix", "graph"]), _huge).map(
        lambda t: [t[0], "--braid", "s1", "--strands", t[1]]
    ),
    st.tuples(st.sampled_from(K2Q_METHODS), _huge).map(
        lambda t: ["kauffman", "--q", t[1], "--method", t[0]]
    ),
)


# no shrinking: a CLI that expands these inputs fails each one only at the timeout
@settings(deadline=None, max_examples=8, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(huge_argvs)
def test_huge_argv_hits_a_cap(argv):
    result = run_child(*argv)
    assert result.returncode in {2, 3}
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
