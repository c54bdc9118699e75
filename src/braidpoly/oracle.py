"""Exponential-time reference implementations.

Everything faster in this package is tested against the two functions
here: the 2^c bracket state sum and a Laplace-expansion determinant.
Both are deliberately plain; they exist to be obviously correct, not
quick.  Caps keep them inside desk-scale runtimes, and the callers
that need large inputs use the polynomial-time paths instead.  The
state sum runs in one process: 18 crossings (``s1^9 s2^9``) take about
3 s on a 2-core VM with Python 3.11, and every two more crossings take
about four times as long.

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
    "A_SMOOTHING_PAIRS",
    "B_SMOOTHING_PAIRS",
    "DEFAULT_CROSSING_CAP",
    "bracket_state_sum",
    "jones_state_sum",
    "writhe_correction",
    "cofactor_det",
]

A_SMOOTHING_PAIRS = ((1, 2), (3, 0))
B_SMOOTHING_PAIRS = ((0, 1), (2, 3))

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
    Loop counting walks the dart permutation smoothing . theta; every
    loop is traversed once in each direction, hence the halving.
    """
    crossings = d.crossing_count
    _check_cap(crossings, max_crossings)
    theta = d.theta
    free_loops = d.free_loops
    n_darts = 4 * crossings
    smooth = [0] * n_darts
    visited = [-1] * n_darts
    delta_pows: list[dict[int, int]] = [{0: 1}]
    terms: dict[int, int] = {}
    for state in range(1 << crossings):
        bits = 0
        for k in range(crossings):
            pairs = A_SMOOTHING_PAIRS if (state >> k) & 1 else B_SMOOTHING_PAIRS
            bits += (state >> k) & 1
            base = 4 * k
            for s1, s2 in pairs:
                smooth[base + s1] = base + s2
                smooth[base + s2] = base + s1
        cycles = 0
        for start in range(n_darts):
            if visited[start] == state:
                continue
            cycles += 1
            dart = start
            while visited[dart] != state:
                visited[dart] = state
                dart = smooth[theta[dart]]
        loops = cycles // 2 + free_loops
        while loops - 1 >= len(delta_pows):
            last = LaurentPoly1(delta_pows[-1]) * _LOOP_FACTOR
            delta_pows.append(last.terms)
        exp_a = 2 * bits - crossings
        for e, c in delta_pows[loops - 1].items():
            key = e + exp_a
            terms[key] = terms.get(key, 0) + c
    return LaurentPoly1(terms)


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
