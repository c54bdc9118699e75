"""Exponential-time reference implementations.

Everything faster in this package is tested against the two functions
here: the 2^c bracket state sum and a Laplace-expansion determinant.
Both exist to be obviously correct, not quick.  Caps keep them inside
desk-scale runtimes, and the callers that need large inputs use the
polynomial-time paths instead.  The state sum runs in one process.  It
visits the states in Gray-code order, so each state re-smooths one
crossing, walks each loop once, and counts the states by (#A, loops);
the polynomial is built from those counts at the end.  18 crossings
(``s1^9 s2^9``) take 1.1-1.5 s on a 2-core VM with Python 3.11, and
every two more crossings take about four times as long.

Smoothing convention (calibrated so the positive-kink closure comes
out -A^3): the A-smoothing of a crossing joins slot 1 to slot 2 and
slot 3 to slot 0; the B-smoothing joins 0 to 1 and 2 to 3.  The same
slot rule serves both crossing signs because slots are anchored to the
under-strand, not to the page.
"""

from __future__ import annotations

from .braid import BraidWord
from .diagram import LinkDiagram, build_diagram
from .errors import TooLarge, TooManyCrossings
from .laurent import LaurentPoly1

__all__ = [
    "DEFAULT_CROSSING_CAP",
    "bracket_state_sum",
    "jones_state_sum",
    "writhe_correction",
    "cofactor_det",
]

DEFAULT_CROSSING_CAP = 24

_LOOP_FACTOR = LaurentPoly1({2: -1, -2: -1})


def _check_cap(crossings: int, max_crossings: int) -> None:
    if crossings > max_crossings:
        raise TooManyCrossings(
            f"{crossings} crossings exceeds the state-sum cap {max_crossings}"
        )


def bracket_state_sum(d: LinkDiagram, max_crossings: int = DEFAULT_CROSSING_CAP) -> LaurentPoly1:
    """Bracket of a diagram by brute force over all 2^c smoothings.

    Each state contributes A^(#A - #B) times (-A^2 - A^-2)^(loops - 1).
    The states run in Gray-code order: state i differs from state i - 1
    at the crossing of the lowest set bit of i, so only that crossing's
    four ``smooth`` entries change.  The A-smoothing pairs each slot s
    with s ^ 3 and the B-smoothing with s ^ 1, so a flip toggles bit 1
    of all four.  Loops are the cycles of smooth . theta; the reverse
    of a cycle is its image under theta, so a walk stamps both and
    counts each loop once.  States are counted by (#A, loops), and the
    polynomial is built from those counts at the end.
    """
    crossings = d.crossing_count
    _check_cap(crossings, max_crossings)
    theta = d.theta
    n_darts = 4 * crossings
    smooth = [dart ^ 1 for dart in range(n_darts)]  # every crossing B-smoothed
    visited = [0] * n_darts
    # a loop holds at least one dart each way, so a state has at most 2c
    width = 2 * crossings + 1
    counts = [0] * ((crossings + 1) * width)
    n_a = 0
    for state in range(1 << crossings):
        if state:
            base = 4 * ((state & -state).bit_length() - 1)
            smooth[base] ^= 2
            smooth[base + 1] ^= 2
            smooth[base + 2] ^= 2
            smooth[base + 3] ^= 2
            n_a += 1 if smooth[base] == base + 3 else -1
        stamp = state + 1
        loops = 0
        for start in range(n_darts):
            if visited[start] != stamp:
                loops += 1
                dart = start
                while True:
                    back = theta[dart]
                    visited[dart] = visited[back] = stamp
                    dart = smooth[back]
                    if dart == start:
                        break
        counts[n_a * width + loops] += 1
    free_loops = d.free_loops
    total = LaurentPoly1.zero()
    delta_pow = LaurentPoly1.one()  # (-A^2 - A^-2)^(loops - 1)
    for loops in range(1, free_loops + width):
        walked = loops - free_loops
        if walked >= 0:
            by_a = {2 * k - crossings: counts[k * width + walked] for k in range(crossings + 1)}
            total = total + LaurentPoly1(by_a) * delta_pow
        delta_pow = delta_pow * _LOOP_FACTOR
    return total


def writhe_correction(writhe: int) -> LaurentPoly1:
    """The normalization (-A^-3)^writhe as a one-term polynomial."""
    return LaurentPoly1.term(-1 if writhe % 2 else 1, -3 * writhe)


def jones_state_sum(w: BraidWord, max_crossings: int = DEFAULT_CROSSING_CAP) -> LaurentPoly1:
    """Writhe-corrected bracket of the closure of ``w``.

    The cap is checked on the word, before any diagram is built.
    """
    _check_cap(w.crossing_count, max_crossings)
    d = build_diagram(w)
    return writhe_correction(w.writhe) * bracket_state_sum(d, max_crossings)


def cofactor_det(m: list[list[LaurentPoly1]], max_size: int = 10) -> LaurentPoly1:
    """Determinant by first-row Laplace expansion; reference only."""
    n = len(m)
    if n > max_size:
        raise TooLarge(f"{n}x{n} exceeds the cofactor cap {max_size}")
    for row in m:
        if len(row) != n:
            raise TooLarge("matrix is not square")
    if n == 0:
        return LaurentPoly1.one()

    def expand(rows: list[list[LaurentPoly1]]) -> LaurentPoly1:
        if len(rows) == 1:
            return rows[0][0]
        total = LaurentPoly1.zero()
        for j, entry in enumerate(rows[0]):
            if entry.is_zero:
                continue
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            term = entry * expand(minor)
            total = total + term if j % 2 == 0 else total - term
        return total

    return expand([list(row) for row in m])
