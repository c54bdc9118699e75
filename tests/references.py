"""Exponential-time references that the package's own paths are tested against.

``bracket_state_sum`` re-walks every loop of every state, ``cofactor_det``
expands a determinant along its first row, and ``symbolic_determinant``
expands the letter matrix into signed letter words; all three exist to
be obviously correct, not quick.  ``ladder_words`` writes out the
matching words of the q-rung ladder that ``P(q)`` sums.  ``mirror`` and
``power`` are the ring operations the tests use that the package does not.
``relabel`` renumbers a diagram's crossings.
"""

from collections import Counter

from braidpoly.activity import ActivityWord
from braidpoly.braid import DEFAULT_CROSSING_CAP
from braidpoly.diagram import LinkDiagram
from braidpoly.dimer import ModifiedAdjacencyMatrix
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


def relabel(d: LinkDiagram, order: list[int]) -> LinkDiagram:
    """``d`` with crossing ``order[j]`` renumbered j: ``theta`` rewritten, nothing else."""
    label = {crossing: j for j, crossing in enumerate(order)}
    theta = [4 * label[d.theta[4 * k + s] >> 2] + (d.theta[4 * k + s] & 3)
             for k in order for s in range(4)]
    return LinkDiagram(d.word, d.crossings, theta, d.closure_darts, d.free_loops)


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


def symbolic_determinant(m: ModifiedAdjacencyMatrix) -> dict[tuple, int]:
    """Determinant as a signed sum of letter words.

    Returned as word-key -> integer coefficient; the nonzero structure
    is sparse enough on these graphs that plain first-row expansion is
    fine.
    """
    n = len(m.rows)

    def expand(row: int, cols: tuple[int, ...]) -> Counter:
        if not cols:
            return Counter({(): 1})
        total: Counter = Counter()
        for pos, j in enumerate(cols):
            cell = m.sparse[row].get(j)
            if cell is None:
                continue
            sign, letter = cell
            parity = -1 if pos % 2 else 1
            sub = expand(row + 1, cols[:pos] + cols[pos + 1 :])
            for key, coeff in sub.items():
                joined = Counter(dict(key))
                joined[letter] += 1
                new_key = ActivityWord(joined).key()
                total[new_key] += parity * sign * coeff
        return total

    out = expand(0, tuple(range(n)))
    return {key: coeff for key, coeff in out.items() if coeff}


def ladder_words(q: int) -> list[ActivityWord]:
    """The q matching words of the q-rung ladder, q >= 1: l D^(q-1) and d L^i D^(q-1-i)."""
    words = [ActivityWord({"l": 1, "D": q - 1})]
    return words + [ActivityWord({"d": 1, "L": i, "D": q - 1 - i}) for i in range(1, q)]


def mirror(p: LaurentPoly1) -> LaurentPoly1:
    """``p`` with A -> A^-1: the value of the mirror diagram."""
    return LaurentPoly1({-e: c for e, c in p.terms.items()})


def power(p: LaurentPoly1, n: int) -> LaurentPoly1:
    """``p`` to the power n >= 0, by repeated products."""
    out = LaurentPoly1.one()
    for _ in range(n):
        out = out * p
    return out
