"""The exponential-time bracket state sum.

Everything faster in this package is tested against the 2^c state sum
here, or against the Laplace-expansion determinant kept with the tests.
Both exist to be obviously correct, not quick.  Caps keep them inside
desk-scale runtimes, and the callers that need large inputs use the
polynomial-time paths instead.  The state sum runs in one process.  It
visits the states in Gray-code order, so each state re-smooths one
crossing and walks one loop to learn whether its loop count went up or
down by one; it counts the states by (#A, loops), and the polynomial is
built from those counts at the end.  18 crossings (``s1^9 s2^9``) take
0.17-0.25 s on a 2-core VM with Python 3.11, and every two more crossings
take about four times as long.

Smoothing convention (calibrated so the positive-kink closure comes
out -A^3): the A-smoothing of a crossing joins slot 1 to slot 2 and
slot 3 to slot 0; the B-smoothing joins 0 to 1 and 2 to 3.  The same
slot rule serves both crossing signs because slots are anchored to the
under-strand, not to the page.
"""

from __future__ import annotations

from .braid import DEFAULT_CROSSING_CAP, BraidWord
from .diagram import LinkDiagram, build_diagram
from .errors import TooManyCrossings
from .laurent import LaurentPoly1

__all__ = [
    "bracket_state_sum",
    "check_state_sum",
    "jones_state_sum",
    "writhe_correction",
]

_LOOP_FACTOR = LaurentPoly1({2: -1, -2: -1})


def check_state_sum(crossings: int, max_crossings: int) -> None:
    """Refuse a state sum past ``max_crossings`` or past the default cap.

    The work is exactly 2^c states, known before any starts: a caller's
    cap may lower the limit, but never lift it past 2^DEFAULT_CROSSING_CAP.
    """
    if crossings > max_crossings:
        raise TooManyCrossings(
            f"{crossings} crossings exceeds the state-sum cap {max_crossings}"
        )
    if crossings > DEFAULT_CROSSING_CAP:
        raise TooManyCrossings(
            f"{crossings} crossings means 2^{crossings} states, past the state-sum"
            f" ceiling of 2^{DEFAULT_CROSSING_CAP}"
        )


def bracket_state_sum(d: LinkDiagram, max_crossings: int = DEFAULT_CROSSING_CAP) -> LaurentPoly1:
    """Bracket of a diagram by brute force over all 2^c smoothings.

    Each state contributes A^(#A - #B) times (-A^2 - A^-2)^(loops - 1).
    The states run in Gray-code order: state i differs from state i - 1
    at the crossing of the lowest set bit of i, so only that crossing's
    four ``smooth`` entries change.  The A-smoothing pairs each slot s
    with s ^ 3 and the B-smoothing with s ^ 1, so a flip toggles bit 1
    of all four.  Loops are the cycles of smooth . theta; the reverse
    of a cycle is its image under theta, so the all-B state's walk
    stamps both and counts each loop once.  In a planar diagram,
    re-smoothing one crossing merges two loops or splits one (each edge
    of the cube of resolutions, Bar-Natan 2002).  So each later state
    walks from dart ``base`` until the walk re-enters the flipped
    crossing: at ``smooth[base]`` the loop closed without meeting the
    crossing's other strand, a split, and the count goes up by one;
    at either other dart both strands lie on one loop, a merge, and it
    goes down by one.  States are counted by (#A, loops), and the
    polynomial is built from those counts at the end.
    """
    crossings = d.crossing_count
    check_state_sum(crossings, max_crossings)
    theta = d.theta
    n_darts = 4 * crossings
    smooth = [dart ^ 1 for dart in range(n_darts)]  # every crossing B-smoothed
    visited = [False] * n_darts
    # a loop holds at least one dart each way, so a state has at most 2c
    width = 2 * crossings + 1
    counts = [0] * ((crossings + 1) * width)
    # the all-B state: walk every loop once
    loops = 0
    for start in range(n_darts):
        if not visited[start]:
            loops += 1
            dart = start
            while True:
                back = theta[dart]
                visited[dart] = visited[back] = True
                dart = smooth[back]
                if dart == start:
                    break
    counts[loops] += 1
    n_a = 0
    for state in range(1, 1 << crossings):
        crossing = (state & -state).bit_length() - 1
        base = 4 * crossing
        smooth[base] ^= 2
        smooth[base + 1] ^= 2
        smooth[base + 2] ^= 2
        smooth[base + 3] ^= 2
        n_a += 1 if smooth[base] == base + 3 else -1
        # walk the loop out of dart base until it re-enters this crossing
        back = theta[base]
        while back >> 2 != crossing:
            back = theta[smooth[back]]
        loops += 1 if back == smooth[base] else -1
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
    check_state_sum(w.crossing_count, max_crossings)
    d = build_diagram(w)
    return writhe_correction(w.writhe) * bracket_state_sum(d, max_crossings)
