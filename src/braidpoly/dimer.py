"""Kasteleyn signs, the signed adjacency matrix, and the determinant path.

The enumeration modules get the bracket by listing trees or matchings;
this one gets it in polynomial time.  Steps: sign the overlay edges so
every face of its embedding satisfies the dimer parity rule, build the
crossing-by-face matrix of signed letters, evaluate and eliminate it
over the Laurent ring, and take the global sign from the determinant's
value at A = 1, which also checks its size.  The matrix is the one
``braidpoly matrix`` prints, over the whole overlay: the bracket is its
determinant times that sign, whatever the overlay's connected
components.

Each matrix row is a map from column position to nonzero cell, a
(Kasteleyn sign, letter) pair filled from the overlay's crossing
rotation.  ``determinant`` is the one place a cell becomes its signed
bracket image; the symbolic expansion reads the cells as they are, and
the dense ``entries`` view exists only for printing.  Every image is a
unit +-A^k, so the elimination peels rows and columns with one nonzero
by Laplace expansion, takes plain Gaussian steps on unit pivots, and
leaves only what neither reaches to a small dense fraction-free
(Bareiss) elimination, kept for general matrices.  On the matrices of
family words that rest is empty: no division but shifts, and the number
of ring operations grows about linearly with the crossing count.

Signing is a GF(2) solve: one unknown per edge, one parity equation
per traced face, where a face of boundary length 2k wants its negative
edge count congruent to k + 1 mod 2.  All faces are included; in each
component the unbounded equation is the sum of the bounded ones, so
nothing is overconstrained.  Every component has as many crossings as
faces: one that had not would have no perfect matching, so the matching
sum, which is the bracket, would be 0.  The bracket never is; at A = 1
it is (-1)^w (-2)^(mu - 1) for a closure of writhe w and mu components,
which ``bracket_sign`` reads.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .activity import ActivityWord
from .braid import BraidWord
from .diagram import build_diagram
from .errors import DeterminantCheckFailed, NoKasteleynSolution, NotDivisible
from .kauffman import BRACKET_IMAGE
from .laurent import LaurentPoly1
from .oracle import writhe_correction
from .overlay import OverlayGraph, build_overlay, overlay_activity_letters

__all__ = [
    "MAX_DET_CROSSINGS",
    "OpCounter",
    "ModifiedAdjacencyMatrix",
    "embedding_faces",
    "kasteleyn_sign",
    "adjacency_matrix",
    "bareiss_determinant",
    "determinant",
    "symbolic_determinant",
    "bracket_sign",
    "bracket_via_det",
    "jones_via_det",
    "prepare_overlay",
]


# The CLI refuses longer words for every braid command, since no method
# reaches further.  In process on a 2-core Xeon VM with Python 3.11,
# jones_via_det takes at most 0.07 s on each of s1 s2^999 and the wide
# words s1^50 ... s20^50, s1^25 ... s40^25 and s1^10 ... s100^10 (medians
# of 9 runs: 35, 44, 45 and 52 ms).
MAX_DET_CROSSINGS = 1000


@dataclass
class OpCounter:
    """Tally of ring operations performed by the elimination.

    A quotient by a unit +-A^k is a product with its inverse and counts
    in ``muls``, so ``divs`` counts only exact divisions by other values.
    Those happen only in the Bareiss rest, which no matrix of a family
    word reaches.
    """

    muls: int = 0
    adds: int = 0
    divs: int = 0

    @property
    def total(self) -> int:
        return self.muls + self.adds + self.divs


_SIGNED_IMAGE = {
    (sign, letter): image if sign > 0 else -image
    for letter, image in BRACKET_IMAGE.items()
    for sign in (1, -1)
}


def _letter_text(cell: tuple[int, str] | None) -> str:
    if cell is None:
        return "0"
    sign, letter = cell
    return letter if sign > 0 else f"-{letter}"


@dataclass(frozen=True)
class ModifiedAdjacencyMatrix:
    """Rows follow crossing order, columns the overlay's face order.

    ``sparse`` holds one map per row from column position to nonzero
    cell, in column order.  A cell is a (kasteleyn sign, letter) pair,
    as in the paper's matrix of letters; ``determinant`` evaluates it to
    its signed bracket image, and the renderers show either form.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    sparse: tuple[dict[int, tuple[int, str]], ...]

    @property
    def entries(self) -> tuple[tuple, ...]:
        """Dense view of the cells, with None for a zero."""
        return tuple(tuple(row.get(j) for j in range(len(self.cols))) for row in self.sparse)

    def _render(self, symbolic: bool, numeric) -> list[list]:
        """Each cell as letter text, or its signed image through ``numeric``."""
        zero = LaurentPoly1.zero()
        return [
            [
                _letter_text(cell) if symbolic else numeric(_SIGNED_IMAGE.get(cell, zero))
                for cell in row
            ]
            for row in self.entries
        ]

    def to_text(self, symbolic: bool = False) -> str:
        cells = self._render(symbolic, LaurentPoly1.to_text)
        widths = [
            max(len(cells[i][j]) for i in range(len(self.rows)))
            for j in range(len(self.cols))
        ]
        lines = []
        for row in cells:
            padded = [value.rjust(widths[j]) for j, value in enumerate(row)]
            lines.append("[ " + "  ".join(padded) + " ]")
        return "\n".join(lines)

    def to_json(self, symbolic: bool = False) -> dict:
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "symbolic": symbolic,
            "entries": self._render(symbolic, LaurentPoly1.to_json),
        }


def embedding_faces(g: OverlayGraph) -> list[tuple[int, ...]]:
    """Boundary walks of the overlay embedding, as edge-index sequences.

    Dart ``2 * i`` leaves edge i's crossing and dart ``2 * i + 1`` its
    face.  The walk crosses the edge, then turns to the next edge in the
    rotation at the far endpoint.  Walk length equals face boundary
    length.
    """
    # leave the far vertex along the next edge, toward its other endpoint
    succ = [0] * (2 * len(g.edges))
    for rot in g.crossing_rotation.values():
        i = rot[-1]
        for nxt in rot:
            succ[2 * i] = 2 * nxt + 1
            i = nxt
    for rot in g.face_rotation.values():
        i = rot[-1]
        for nxt in rot:
            succ[2 * i + 1] = 2 * nxt
            i = nxt

    seen = bytearray(len(succ))
    faces = []
    for start in range(len(succ)):
        if seen[start]:
            continue
        walk = []
        dart = start
        while not seen[dart]:
            seen[dart] = 1
            walk.append(dart >> 1)
            dart = succ[dart]
        faces.append(tuple(walk))
    return faces


def kasteleyn_sign(g: OverlayGraph) -> OverlayGraph:
    """Assign edge signs satisfying the face parity rule, in place.

    Components share no edge, so one solve over all faces equals a
    separate solve per component.
    """
    equations = []
    for walk in embedding_faces(g):
        mask = 0
        for edge_idx in walk:  # an edge walked twice cancels
            mask ^= 1 << edge_idx
        equations.append((mask, (len(walk) // 2 + 1) % 2))
    # character i of the reversed binary solution is edge i's bit
    bits = format(_solve_gf2(equations), f"0{len(g.edges)}b")[::-1]
    for e, bit in zip(g.edges, bits):
        e.kasteleyn_sign = -1 if bit == "1" else 1
    return g


def _solve_gf2(equations: list[tuple[int, int]]) -> int:
    """One solution of the masked xor system, free variables zero.

    Each stored row is keyed by its lowest set bit, which no other
    stored row has below its own key, so reducing a row by the pivots
    of its successive lowest bits leaves it either new or empty.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in equations:
        while mask:
            low = mask & -mask
            if low not in pivots:
                pivots[low] = (mask, rhs)
                break
            pmask, prhs = pivots[low]
            mask ^= pmask
            rhs ^= prhs
        else:
            if rhs:
                raise NoKasteleynSolution("face parity system is inconsistent")
    solution = 0
    for low in sorted(pivots, reverse=True):
        mask, rhs = pivots[low]
        # bits above low are settled already; low itself is still clear
        if rhs ^ (mask & solution).bit_count() % 2:
            solution |= low
    return solution


def adjacency_matrix(g: OverlayGraph) -> ModifiedAdjacencyMatrix:
    """Crossing-by-face matrix of letters over all of ``g``.

    Edges run by crossing, then by face order, so each row fills in
    column order.
    """
    col_pos = {fid: j for j, fid in enumerate(g.faces)}
    row_pos = {cid: i for i, cid in enumerate(g.crossings)}
    rows: list[dict[int, tuple[int, str]]] = [{} for _ in g.crossings]
    for e in g.edges:
        rows[row_pos[e.crossing_id]][col_pos[e.face_id]] = (e.kasteleyn_sign, e.letter)
    return ModifiedAdjacencyMatrix(g.crossings, g.faces, tuple(rows))


def _permutation_sign(order: list[int]) -> int:
    seen = [False] * len(order)
    sign = 1
    for start in range(len(order)):
        j = start
        while not seen[j]:
            seen[j] = True
            j = order[j]
            if j != start:
                sign = -sign
    return sign


def bareiss_determinant(
    rows: Sequence[Mapping[int, LaurentPoly1]], ops: OpCounter | None = None
) -> LaurentPoly1:
    """Determinant by singleton peeling and unit Gaussian steps, then Bareiss.

    Rows are maps from column to entry, and every entry must be nonzero:
    the counts below take each stored entry as one.  The rows are copied,
    not changed.  Each pivot (r, c) deletes row r and column c, and its
    entry becomes a factor of the determinant.  Pivots are taken in three
    kinds:

    1. A row or column with one nonzero is a singleton.  Laplace
       expansion along it leaves the minor as it is, so it costs no ring
       operation, whatever its entry.  A row or column goes on a
       worklist when its count drops to 1; a count that drops to 0
       makes the determinant 0.
    2. Else a unit entry +-A^k, from a heap keyed by Markowitz cost
       (row count - 1) * (column count - 1), ties going to the lowest
       (row, column).  The plain Gaussian step row_i -= (x p^-1) row_r
       on it is exact, so the rows left hold the true Schur complement.
       Only unit entries are pushed: at the start, and when an update
       leaves one.  A popped entry that is gone or no longer a unit is
       dropped, and one whose cost has since grown is pushed back.
    3. What neither reaches goes to ``_bareiss_rest``, a dense Bareiss
       elimination whose divisions are exact.  On the matrices of family
       words that rest is empty: each of 472 whole matrices tried was
       taken by the first two kinds.  They were the 168 words of the test
       corpus, 300 random words of up to 12 generators with exponents up
       to 30 and both signs, ``s1^160 s2^160``, and three words at the
       1000-crossing cap: ``s1 s2^999``, ``s1^10 ... s100^10`` and
       ``s1^-25 ... s40^-25``.  Over the first 40 matrices of the
       benchmark's det-large stream (seed 1), the first two kinds took
       184 singleton pivots and 2312 unit pivots, and no update filled in
       an entry that was zero.

    The determinant is the product of the factors, taken in a balanced
    tree, times the signs of the row and column orders of all pivots.
    ``ops`` counts each product in the updates and the tree as a mul and
    each sum as an add; peeling itself costs nothing.  The rest counts
    its own steps the same way, and each quotient by a non-unit as a div.
    """
    live = {i: dict(row) for i, row in enumerate(rows)}
    if not all(live.values()):
        return LaurentPoly1.zero()
    in_col: dict[int, set[int]] = {}
    for i, row in live.items():
        for j in row:
            in_col.setdefault(j, set()).add(i)
    # (row, None) or (None, column), checked again when popped
    singles = [(i, None) for i, row in live.items() if len(row) == 1]
    singles += [(None, j) for j, col in in_col.items() if len(col) == 1]

    def cost(i: int, j: int) -> int:
        return (len(live[i]) - 1) * (len(in_col[j]) - 1)

    units = [(cost(i, j), i, j) for i, row in live.items() for j, x in row.items() if x.is_unit]
    heapify(units)
    factors: list[LaurentPoly1] = []
    row_order: list[int] = []
    col_order: list[int] = []
    while live:
        if singles:
            r, c = singles.pop()
            if r is None:
                if len(in_col.get(c, ())) != 1:
                    continue
                (r,) = in_col[c]
            elif len(live.get(r, ())) == 1:
                (c,) = live[r]
            else:
                continue
        elif units:
            stored, r, c = heappop(units)
            if c not in live.get(r, ()) or not live[r][c].is_unit:
                continue
            current = cost(r, c)
            if current > stored:
                heappush(units, (current, r, c))
                continue
        else:
            break
        upper = live.pop(r)
        pivot = upper.pop(c)
        factors.append(pivot)
        row_order.append(r)
        col_order.append(c)
        for j in upper:
            in_col[j].discard(r)
        touched = in_col.pop(c)
        touched.discard(r)
        if touched and upper:
            # not a singleton, so the pivot is a unit: a quotient by it is
            # a product with its inverse
            minus_inverse = -(pivot**-1)
        for i in touched:
            row = live[i]
            x = row.pop(c)
            if upper:
                factor = x * minus_inverse
                for j, y in upper.items():
                    old = row.get(j)
                    value = factor * y if old is None else old + factor * y
                    if value:
                        if old is None:
                            in_col[j].add(i)
                        row[j] = value
                        if value.is_unit:
                            heappush(units, (cost(i, j), i, j))
                    else:
                        del row[j]
                        in_col[j].discard(i)
                    if ops and old is not None:
                        ops.adds += 1
                if ops:
                    ops.muls += 1 + len(upper)
            if len(row) < 2:
                if not row:
                    return LaurentPoly1.zero()
                singles.append((i, None))
        # the columns of row r lost it, and may have lost cancelled entries
        for j in upper:
            size = len(in_col[j])
            if size < 2:
                if not size:
                    return LaurentPoly1.zero()
                singles.append((None, j))
    if live:
        rest = _bareiss_rest(live, row_order, col_order, ops)
        if not rest:
            return rest
        factors.append(rest)
    while len(factors) > 1:
        pairs = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if ops:
            ops.muls += len(pairs)
        factors[: 2 * len(pairs)] = pairs
    det = factors[0] if factors else LaurentPoly1.one()
    sign = _permutation_sign(row_order) * _permutation_sign(col_order)
    return det if sign > 0 else -det


def _bareiss_rest(
    live: dict[int, dict[int, LaurentPoly1]],
    row_order: list[int],
    col_order: list[int],
    ops: OpCounter | None,
) -> LaurentPoly1:
    """Dense fraction-free (Bareiss) elimination of the rows left in ``live``.

    The rows and the columns they still use are taken in sorted order,
    and a zero pivot is swapped for the first lower row with a nonzero
    in its column.  Step t sets a_ij = (a_tt a_ij - a_it a_tj) / p, where
    p is the step t - 1 pivot (1 at the first step); by Sylvester's
    identity every such division is exact.  The last pivot is the
    determinant in the final row and column orders, which are appended
    to ``row_order`` and ``col_order``.  A column that was zero from the
    start is in no row, so fewer columns than rows means determinant 0.
    """
    rows = sorted(live)
    cols = sorted({j for row in live.values() for j in row})
    n = len(rows)
    zero = LaurentPoly1.zero()
    if len(cols) < n:
        return zero
    a = [[live[i].get(j, zero) for j in cols] for i in rows]
    pivot = LaurentPoly1.one()
    for t in range(n):
        k = next((k for k in range(t, n) if a[k][t]), None)
        if k is None:
            return zero
        a[t], a[k], rows[t], rows[k] = a[k], a[t], rows[k], rows[t]
        divisor, pivot = pivot, a[t][t]
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                value = pivot * a[i][j] - a[i][t] * a[t][j]
                if t:
                    try:
                        value = value.exact_div(divisor)
                    except NotDivisible as exc:
                        where = f"elimination step ({rows[i]},{cols[j]}) at pivot {t + 1}"
                        raise NotDivisible(f"{where}: {exc}") from exc
                a[i][j] = value
        if ops:
            cells = (n - t - 1) ** 2
            ops.muls += 2 * cells
            ops.adds += cells
            if t:
                # a quotient by a unit is a product with its inverse
                if divisor.is_unit:
                    ops.muls += cells
                else:
                    ops.divs += cells
    row_order += rows
    col_order += cols
    return pivot


def determinant(m: ModifiedAdjacencyMatrix, ops: OpCounter | None = None) -> LaurentPoly1:
    """Determinant after evaluation: each cell becomes its signed bracket image."""
    images = [{j: _SIGNED_IMAGE[cell] for j, cell in row.items()} for row in m.sparse]
    return bareiss_determinant(images, ops)


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


def bracket_sign(word: BraidWord, det: LaurentPoly1) -> int:
    """The unit making sign * det the bracket of ``word``'s closure.

    At A = 1 the bracket is (-1)^w (-2)^(mu - 1) for writhe w and mu
    components (Jones 1985: V(1) = (-2)^(mu - 1)).  In the family
    s1^m1 ... s(n-1)^m(n-1), the only shape ``build_overlay`` takes, an
    odd m_i joins the cycles of strands i and i + 1 and an even one does
    not, so mu is 1 plus the number of even exponents.  A value at 1,
    the sum of the coefficients, of any other size is a signing or
    elimination bug.
    """
    at_one = sum(det.terms.values())
    mu = 1 + sum(1 for _, m in word.syllables if m % 2 == 0)
    expected = (-2) ** (mu - 1) * (-1 if word.writhe % 2 else 1)
    if abs(at_one) != abs(expected):
        raise DeterminantCheckFailed(
            f"determinant of {word.to_text()} is {at_one} at A = 1, not +-{abs(expected)}"
        )
    return 1 if at_one == expected else -1


def prepare_overlay(word: BraidWord) -> OverlayGraph:
    """Diagram, overlay, letters, and Kasteleyn signs in one call."""
    return kasteleyn_sign(overlay_activity_letters(build_overlay(build_diagram(word))))


def bracket_via_det(word: BraidWord) -> LaurentPoly1:
    """Bracket of the closure: the determinant of its letter matrix, signed."""
    det = determinant(adjacency_matrix(prepare_overlay(word)))
    return det if bracket_sign(word, det) > 0 else -det


def jones_via_det(word: BraidWord) -> LaurentPoly1:
    return writhe_correction(word.writhe) * bracket_via_det(word)
