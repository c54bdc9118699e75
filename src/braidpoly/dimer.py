"""Kasteleyn signs, the signed adjacency matrix, and the determinant path.

The enumeration modules get the bracket by listing trees or matchings;
this one gets it in polynomial time.  Steps: sign the overlay edges so
every face of its embedding satisfies the dimer parity rule, build the
crossing-by-face matrix of signed letter images, run sparse
fraction-free (Bareiss) elimination over the Laurent ring, and repair
the global sign from any single perfect matching.  Each block of the
matrix is bidiagonal plus one dense column, so the elimination touches
only the rows with a nonzero in the pivot column, and the number of
ring operations grows about linearly with the crossing count.

Signing is a GF(2) solve: one unknown per edge, one parity equation
per traced face, where a face of boundary length 2k wants its negative
edge count congruent to k + 1 mod 2.  All faces are included; for a
component with an even vertex count the unbounded equation is the sum
of the bounded ones, so nothing is overconstrained, and an odd
component has no perfect matching at all (its determinant block is
zero and signs stay +1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .activity import ActivityWord
from .braid import BraidWord
from .diagram import build_diagram
from .errors import NoKasteleynSolution, NotDivisible
from .kauffman import BRACKET_IMAGE
from .laurent import LaurentPoly1
from .oracle import writhe_correction
from .overlay import OverlayGraph, build_overlay, components, overlay_activity_letters

__all__ = [
    "OpCounter",
    "ModifiedAdjacencyMatrix",
    "embedding_faces",
    "kasteleyn_sign",
    "adjacency_matrix",
    "bareiss_determinant",
    "determinant",
    "symbolic_determinant",
    "fix_sign",
    "bracket_via_det",
    "jones_via_det",
    "prepare_overlay",
]


@dataclass
class OpCounter:
    """Tally of ring operations performed by the elimination."""

    muls: int = 0
    adds: int = 0
    divs: int = 0

    @property
    def total(self) -> int:
        return self.muls + self.adds + self.divs


@dataclass(frozen=True)
class ModifiedAdjacencyMatrix:
    """Rows follow crossing order, columns the overlay's face order.

    Numeric entries are bracket-specialized polynomials; symbolic ones
    are (kasteleyn sign, letter) pairs, with None for structural zero.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    entries: tuple[tuple, ...]
    symbolic: bool

    def entry_text(self, i: int, j: int) -> str:
        cell = self.entries[i][j]
        if self.symbolic:
            if cell is None:
                return "0"
            sign, letter = cell
            return letter if sign > 0 else f"-{letter}"
        return cell.to_text()

    def to_text(self) -> str:
        cells = [
            [self.entry_text(i, j) for j in range(len(self.cols))]
            for i in range(len(self.rows))
        ]
        widths = [
            max(len(cells[i][j]) for i in range(len(self.rows)))
            for j in range(len(self.cols))
        ]
        lines = []
        for row in cells:
            padded = [value.rjust(widths[j]) for j, value in enumerate(row)]
            lines.append("[ " + "  ".join(padded) + " ]")
        return "\n".join(lines)

    def to_json(self) -> dict:
        if self.symbolic:
            body = [
                [self.entry_text(i, j) for j in range(len(self.cols))]
                for i in range(len(self.rows))
            ]
        else:
            body = [[cell.to_json() for cell in row] for row in self.entries]
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "symbolic": self.symbolic,
            "entries": body,
        }


def embedding_faces(g: OverlayGraph) -> list[tuple[int, ...]]:
    """Boundary walks of the overlay embedding, as edge-index sequences.

    Darts are (edge, endpoint-kind); the walk crosses the edge, then
    turns to the next edge in the rotation at the far endpoint.  Walk
    length equals face boundary length.
    """
    succ: dict[tuple[int, int], tuple[int, int]] = {}
    rotations: dict[tuple[str, int], tuple[int, ...]] = {}
    for cid, rot in g.crossing_rotation.items():
        rotations[("c", cid)] = rot
    for fid, rot in g.face_rotation.items():
        rotations[("f", fid)] = rot

    def far_vertex(edge_idx: int, side: int) -> tuple[str, int]:
        e = g.edges[edge_idx]
        return ("c", e.crossing_id) if side == 0 else ("f", e.face_id)

    darts = [(i, side) for i in range(len(g.edges)) for side in (0, 1)]
    for i, side in darts:
        rot = rotations[far_vertex(i, side)]
        pos = rot.index(i)
        nxt = rot[(pos + 1) % len(rot)]
        # leave the far vertex along nxt, toward its other endpoint
        succ[(i, side)] = (nxt, 1 - side)

    seen: set[tuple[int, int]] = set()
    faces = []
    for start in darts:
        if start in seen:
            continue
        walk = []
        dart = start
        while dart not in seen:
            seen.add(dart)
            walk.append(dart[0])
            dart = succ[dart]
        faces.append(tuple(walk))
    return faces


def kasteleyn_sign(g: OverlayGraph) -> OverlayGraph:
    """Assign edge signs satisfying the face parity rule, in place."""
    comp_of_edge: dict[int, int] = {}
    comps = components(g)
    vertex_counts = []
    for ci, (cids, fids, eids) in enumerate(comps):
        vertex_counts.append(len(cids) + len(fids))
        for i in eids:
            comp_of_edge[i] = ci

    equations: dict[int, list[tuple[int, int]]] = {ci: [] for ci in range(len(comps))}
    for walk in embedding_faces(g):
        ci = comp_of_edge[walk[0]]
        visits = Counter(walk)
        mask = 0
        for edge_idx, times in visits.items():
            if times % 2:
                mask |= 1 << edge_idx
        rhs = (len(walk) // 2 + 1) % 2
        equations[ci].append((mask, rhs))

    solution = 0
    for ci, (cids, fids, eids) in enumerate(comps):
        if vertex_counts[ci] % 2:
            continue
        solution |= _solve_gf2(equations[ci], eids)
    for i, e in enumerate(g.edges):
        e.kasteleyn_sign = -1 if (solution >> i) & 1 else 1
    return g


def _solve_gf2(equations: list[tuple[int, int]], variables: tuple[int, ...]) -> int:
    """One solution of the masked xor system, free variables zero."""
    rows = [(mask, rhs) for mask, rhs in equations if mask or rhs]
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in rows:
        for var in variables:
            bit = 1 << var
            if not mask & bit:
                continue
            if var in pivots:
                pmask, prhs = pivots[var]
                mask ^= pmask
                rhs ^= prhs
            else:
                pivots[var] = (mask, rhs)
                break
        else:
            if rhs:
                raise NoKasteleynSolution("face parity system is inconsistent")
    solution = 0
    for var in sorted(pivots, reverse=True):
        mask, rhs = pivots[var]
        value = rhs
        rest = mask & ~(1 << var)
        while rest:
            low = rest & -rest
            if solution & low:
                value ^= 1
            rest ^= low
        if value:
            solution |= 1 << var
    return solution


_SIGNED_IMAGE = {
    (sign, letter): image if sign > 0 else -image
    for letter, image in BRACKET_IMAGE.items()
    for sign in (1, -1)
}


def adjacency_matrix(
    g: OverlayGraph,
    symbolic: bool = False,
    crossings: tuple[int, ...] | None = None,
    faces: tuple[int, ...] | None = None,
) -> ModifiedAdjacencyMatrix:
    """Crossing-by-face matrix, over all of ``g`` or the given subsets."""
    row_ids = g.crossings if crossings is None else tuple(crossings)
    col_ids = g.faces if faces is None else tuple(faces)
    lookup = {(e.crossing_id, e.face_id): e for e in g.edges}
    zero = None if symbolic else LaurentPoly1.zero()
    rows = []
    for cid in row_ids:
        row = []
        for fid in col_ids:
            e = lookup.get((cid, fid))
            if e is None:
                row.append(zero)
            elif symbolic:
                row.append((e.kasteleyn_sign, e.letter))
            else:
                row.append(_SIGNED_IMAGE[(e.kasteleyn_sign, e.letter)])
        rows.append(tuple(row))
    return ModifiedAdjacencyMatrix(row_ids, col_ids, tuple(rows), symbolic)


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
    rows: list[list[LaurentPoly1]], ops: OpCounter | None = None
) -> LaurentPoly1:
    """Sparse fraction-free elimination; every division is exact.

    Rows are maps from column to nonzero entry.  Each step takes the
    pivot of least Markowitz cost (row count - 1) * (column count - 1)
    and updates only the rows with a nonzero in the pivot column.  A
    row updated at step t holds the step-t Bareiss values; an untouched
    row would be rescaled by p_s / p_(s-1) at each later step s, so the
    scalings are left implicit and settled in one exact division by
    p_t when the row is next touched (p_s is the step-s pivot, p_0 = 1).
    The determinant is the last pivot times the signs of the row and
    column orders in which pivots were taken.
    """
    n = len(rows)
    live = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(rows)}
    in_col: dict[int, set[int]] = {}
    for i, row in live.items():
        for j in row:
            in_col.setdefault(j, set()).add(i)
    level = dict.fromkeys(live, 0)
    pivots = [LaurentPoly1.one()]
    row_order: list[int] = []
    col_order: list[int] = []
    for step in range(1, n + 1):
        best = None
        for i, row in live.items():
            reach = len(row) - 1
            for j in row:
                cost = reach * (len(in_col[j]) - 1)
                if best is None or cost < best[0]:
                    best = (cost, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            return LaurentPoly1.zero()
        _, r, c = best
        upper = live.pop(r)
        for j in upper:
            in_col[j].discard(r)
        t = level.pop(r)
        if t < step - 1:
            for j, x in upper.items():
                x = x * pivots[step - 1]
                upper[j] = _divide(x, pivots[t], (r, j, step), ops) if t else x
            if ops:
                ops.muls += len(upper)
        pivot = upper.pop(c)
        for i in in_col.pop(c):
            row = live[i]
            left = -row.pop(c)
            divisor = pivots[level[i]] if level[i] else None
            for j in row.keys() | upper.keys():
                x, y = row.get(j), upper.get(j)
                if y is None:
                    value = pivot * x
                elif x is None:
                    value = left * y
                    in_col[j].add(i)
                else:
                    value = pivot * x + left * y
                    if ops:
                        ops.muls += 1
                        ops.adds += 1
                if ops:
                    ops.muls += 1
                if divisor is not None:
                    value = _divide(value, divisor, (i, j, step), ops)
                if value:
                    row[j] = value
                else:
                    del row[j]
                    in_col[j].discard(i)
            level[i] = step
            if ops:
                ops.adds += 1
        pivots.append(pivot)
        row_order.append(r)
        col_order.append(c)
    sign = _permutation_sign(row_order) * _permutation_sign(col_order)
    return pivots[-1] if sign > 0 else -pivots[-1]


def _divide(
    value: LaurentPoly1, divisor: LaurentPoly1, where: tuple[int, int, int], ops: OpCounter | None
) -> LaurentPoly1:
    try:
        out = value.exact_div(divisor)
    except NotDivisible as exc:
        i, j, step = where
        raise NotDivisible(f"elimination step ({i},{j}) at pivot {step}: {exc}") from exc
    if ops:
        ops.divs += 1
    return out


def determinant(m: ModifiedAdjacencyMatrix, ops: OpCounter | None = None) -> LaurentPoly1:
    if m.symbolic:
        raise ValueError("numeric entries required; use symbolic_determinant")
    return bareiss_determinant([list(row) for row in m.entries], ops)


def symbolic_determinant(m: ModifiedAdjacencyMatrix) -> dict[tuple, int]:
    """Determinant as a signed sum of letter words.

    Returned as word-key -> integer coefficient; the nonzero structure
    is sparse enough on these graphs that plain first-row expansion is
    fine.
    """
    if not m.symbolic:
        raise ValueError("symbolic entries required")
    n = len(m.rows)

    def expand(row: int, cols: tuple[int, ...]) -> Counter:
        if not cols:
            return Counter({(): 1})
        total: Counter = Counter()
        for pos, j in enumerate(cols):
            cell = m.entries[row][j]
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


def _maximum_matching(m: ModifiedAdjacencyMatrix) -> dict[int, int] | None:
    """Row position -> column position, via augmenting paths."""
    n = len(m.rows)
    adjacency = []
    for i in range(n):
        row = m.entries[i]
        adjacency.append(
            [
                j
                for j in range(n)
                if (row[j] is not None if m.symbolic else not row[j].is_zero)
            ]
        )
    match_col: dict[int, int] = {}

    def augment(i: int, banned: set[int]) -> bool:
        for j in adjacency[i]:
            if j in banned:
                continue
            banned.add(j)
            if j not in match_col or augment(match_col[j], banned):
                match_col[j] = i
                return True
        return False

    for i in range(n):
        if not augment(i, set()):
            return None
    return {i: j for j, i in match_col.items()}


def fix_sign(m: ModifiedAdjacencyMatrix, g: OverlayGraph) -> int:
    """The unit making sign * det equal the matching sum; +1 if det is 0."""
    matching = _maximum_matching(m)
    if matching is None:
        return 1
    n = len(m.rows)
    seen = [False] * n
    cycles = 0
    for i in range(n):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = matching[j]
    perm_sign = 1 if (n - cycles) % 2 == 0 else -1
    signs = {(e.crossing_id, e.face_id): e.kasteleyn_sign for e in g.edges}
    product = 1
    for i, j in matching.items():
        product *= signs[(m.rows[i], m.cols[j])]
    return perm_sign * product


def prepare_overlay(word: BraidWord) -> OverlayGraph:
    """Diagram, overlay, letters, and Kasteleyn signs in one call."""
    return kasteleyn_sign(overlay_activity_letters(build_overlay(build_diagram(word))))


def bracket_via_det(
    word: BraidWord, per_component: bool = True, ops: OpCounter | None = None
) -> LaurentPoly1:
    """Bracket of the closure through the determinant pipeline."""
    g = prepare_overlay(word)
    if not per_component:
        m = adjacency_matrix(g)
        return LaurentPoly1.term(fix_sign(m, g), 0) * determinant(m, ops)
    total = LaurentPoly1.one()
    for cids, fids, _ in components(g):
        m = adjacency_matrix(g, crossings=cids, faces=fids)
        block = LaurentPoly1.term(fix_sign(m, g), 0) * determinant(m, ops)
        total = total * block
    return total


def jones_via_det(
    word: BraidWord, per_component: bool = True, ops: OpCounter | None = None
) -> LaurentPoly1:
    return writhe_correction(word.writhe) * bracket_via_det(word, per_component, ops)
