"""Exponential-time references that the package's own paths are tested against.

``bracket_state_sum`` re-walks every loop of every state, and
``cofactor_det`` expands a determinant along its first row; both exist to
be obviously correct, not quick.
"""

from braidpoly.braid import DEFAULT_CROSSING_CAP
from braidpoly.diagram import LinkDiagram
from braidpoly.errors import TooLarge
from braidpoly.laurent import LaurentPoly1
from braidpoly.oracle import check_state_sum

_LOOP_FACTOR = LaurentPoly1({2: -1, -2: -1})


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
    check_state_sum(crossings, max_crossings)
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
