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
bracket image; the dense ``entries`` view exists only for printing, which
shows a cell as its letter or as its image.  Every image is a
unit +-A^k, and ``forward_determinant`` proves that one pass over the
rows in crossing order, of Laplace peels and Gaussian steps on unit
pivots, eliminates every family matrix.  It divides by nothing but
units, and its ring operations are linear in the crossing count.

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

from collections.abc import Mapping, Sequence

from .braid import BraidWord
from .diagram import build_diagram
from .errors import DeterminantCheckFailed, NoKasteleynSolution
from .kauffman import BRACKET_IMAGE
from .laurent import LaurentPoly1
from .oracle import writhe_correction
from .overlay import OverlayGraph, build_overlay, overlay_activity_letters

__all__ = [
    "OpCounter",
    "ModifiedAdjacencyMatrix",
    "embedding_faces",
    "kasteleyn_sign",
    "adjacency_matrix",
    "forward_determinant",
    "determinant",
    "bracket_sign",
    "bracket_via_det",
    "jones_via_det",
    "prepare_overlay",
]


class OpCounter:
    """Tally of ring operations performed by the elimination.

    A quotient by a unit +-A^k counts in ``muls``, as the product with
    its inverse would.  The elimination divides by nothing else, so
    ``divs`` is always 0; it stays because the benchmark's tracer reads it.
    """

    __slots__ = ("muls", "adds", "divs")

    def __init__(self):
        self.muls = self.adds = self.divs = 0

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


class ModifiedAdjacencyMatrix:
    """Rows follow crossing order, columns the overlay's face order.

    ``sparse`` holds one map per row from column position to nonzero
    cell, in column order.  A cell is a (kasteleyn sign, letter) pair,
    as in the paper's matrix of letters; ``determinant`` evaluates it to
    its signed bracket image, and the renderers show either form.
    """

    __slots__ = ("rows", "cols", "sparse")

    def __init__(
        self, rows: tuple[int, ...], cols: tuple[int, ...], sparse: tuple[dict[int, tuple], ...]
    ):
        self.rows, self.cols, self.sparse = rows, cols, sparse

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


def forward_determinant(
    rows: Sequence[Mapping[int, LaurentPoly1]], ops: OpCounter | None = None
) -> LaurentPoly1:
    """Determinant by one forward pass over the rows: peels and unit steps.

    Rows map columns 0 to n - 1 to nonzero entries; they are copied, not
    changed.  When row r is reached the earlier rows are gone.  With one
    entry it is peeled: Laplace expansion makes the entry a factor and
    drops its column from the later rows, at no ring operation.  With
    two, some column c must hold exactly two entries, a unit p in row r:
    the exact step row_i -= (x p^-1) row_r clears c from its other, later
    row i, and p is a factor.  With none the determinant is 0.  Anything
    else stalls and raises ``DeterminantCheckFailed`` naming the row, so
    no value is ever wrong.  The factors are multiplied in a balanced
    tree and signed by the column order; ``ops`` counts each product and
    each sum.

    No family matrix stalls.  Its rows run in crossing order.  Syllable
    i brings m_i new columns: m_i - 1 bigons b_k, each in its rows k and
    k + 1 only, and a dense face D_i in all its rows.  Its rows meet no
    other column but D_(i-1), on its first and last rows, and D_(i-2),
    either absent if a deleted face.  So the matrix is block lower
    triangular by syllable, and each diagonal block is a ladder.  When
    the pass reaches syllable i, D_(i-1) and D_(i-2) are peeled and the
    earlier steps stayed in their own syllables, so row k < m_i holds
    {b_k, D_i}; no step has touched b_k, so its entry is a letter's
    image, a unit.  The step into row k + 1 clears b_k there and changes
    only its D_i entry, which times the k pivots is the determinant of
    the ladder's first k + 1 rows: a unit times the bracket of the
    (2, k + 1) torus link, whose k + 1 ladder words are its matchings.
    That is never 0 and never a unit, so D_i competes only in row 1 of
    a two-row block that no later row meets, at the same cost.  The
    last row holds {D_i} alone, and its peel drops D_i from the later
    syllables.  So c crossings on n strands take c - n + 1 steps of two
    products and a sum, and the tree c - 1 products:
    muls = 3c - 2n + 1 and adds = c - n + 1.
    """
    live = [dict(row) for row in rows]
    in_col: dict[int, set[int]] = {}
    for i, row in enumerate(live):
        for j in row:
            in_col.setdefault(j, set()).add(i)
    factors: list[LaurentPoly1] = []
    col_order: list[int] = []
    for r, row in enumerate(live):
        for j in row:
            in_col[j].discard(r)
        if len(row) == 1:
            ((c, pivot),) = row.items()
            for i in in_col.pop(c):
                del live[i][c]
        elif len(row) == 2:
            for c, pivot in row.items():
                if len(in_col[c]) == 1 and pivot.is_unit:
                    break
            else:
                raise DeterminantCheckFailed(f"elimination stalls at row {r}: no unit pivot")
            del row[c]
            ((j, y),) = row.items()
            (i,) = in_col.pop(c)
            target = live[i]
            old = target.get(j)
            factor = -target.pop(c).exact_div(pivot)
            value = factor * y if old is None else old + factor * y
            if value:
                target[j] = value
                in_col[j].add(i)
            else:
                del target[j]
                in_col[j].discard(i)
            if ops:
                ops.muls += 2
                if old is not None:
                    ops.adds += 1
        elif not row:
            return LaurentPoly1.zero()
        else:
            raise DeterminantCheckFailed(f"elimination stalls at row {r}: {len(row)} entries")
        factors.append(pivot)
        col_order.append(c)
    while len(factors) > 1:
        pairs = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if ops:
            ops.muls += len(pairs)
        factors[: 2 * len(pairs)] = pairs
    det = factors[0] if factors else LaurentPoly1.one()
    return det if _permutation_sign(col_order) > 0 else -det


def determinant(m: ModifiedAdjacencyMatrix, ops: OpCounter | None = None) -> LaurentPoly1:
    """Determinant after evaluation: each cell becomes its signed bracket image."""
    images = [{j: _SIGNED_IMAGE[cell] for j, cell in row.items()} for row in m.sparse]
    return forward_determinant(images, ops)


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
