"""Signed Tait graphs, spanning-tree activity, and the tree-sum bracket.

One vertex per shaded face, one edge per crossing joining the two
shaded quadrants there, signed by the crossing's checkerboard sign.
Edge order is braid-word order, and the activity rules below always
say "lowest" with respect to that order:

* edge in the tree: L when it is the lowest edge reconnecting the cut
  left by removing it, otherwise D;
* edge outside: l when it is the lowest edge on the cycle it closes,
  otherwise d (a loop edge closes its own one-edge cycle, hence l);
* negative edges wear the bar.

Summing the bracket specialization of the word over all spanning trees
reproduces the bracket of the diagram.  The sum is independent of the
edge order even though individual words are not.
"""

from __future__ import annotations

from typing import Iterator

from .activity import ActivityWord, signed_letter
from .braid import DEFAULT_CROSSING_CAP
from .diagram import LinkDiagram, dart
from .errors import TooManyCrossings
from .kauffman import specialize_bracket
from .laurent import LaurentPoly1

__all__ = [
    "TaitEdge",
    "TaitGraph",
    "build_tait",
    "dual_tait",
    "spanning_trees",
    "tree_activity_word",
    "thistlethwaite_sum",
    "tait_to_dot",
]

SpanningTree = frozenset


class TaitEdge:
    __slots__ = ("crossing_id", "endpoints", "sign")

    def __init__(self, crossing_id: int, endpoints: tuple[int, int], sign: int):
        self.crossing_id, self.endpoints, self.sign = crossing_id, endpoints, sign


class TaitGraph:
    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: tuple[int, ...], edges: tuple[TaitEdge, ...]):
        self.vertices, self.edges = vertices, edges

    def reordered(self, order: list[int]) -> "TaitGraph":
        """Same graph with edges permuted; activity words may change."""
        return TaitGraph(self.vertices, tuple(self.edges[i] for i in order))


def _corner_faces(d: LinkDiagram, cid: int, corners: tuple[int, int]) -> tuple[int, int]:
    return (
        d.face_index[dart(cid, corners[0])],
        d.face_index[dart(cid, corners[1])],
    )


def build_tait(d: LinkDiagram) -> TaitGraph:
    vertices = tuple(sorted(f.id for f in d.faces if f.shaded))
    edges = []
    for c in d.crossings:
        corners = (0, 2) if c.checkerboard_sign == 1 else (1, 3)
        edges.append(TaitEdge(c.id, _corner_faces(d, c.id, corners), c.checkerboard_sign))
    return TaitGraph(vertices, tuple(edges))


def dual_tait(d: LinkDiagram) -> TaitGraph:
    """The Tait graph of the opposite shading choice.

    Swapping shaded and unshaded exchanges the quadrant pairs at every
    crossing, so each sign flips.
    """
    vertices = tuple(sorted(f.id for f in d.faces if not f.shaded))
    edges = []
    for c in d.crossings:
        corners = (1, 3) if c.checkerboard_sign == 1 else (0, 2)
        edges.append(TaitEdge(c.id, _corner_faces(d, c.id, corners), -c.checkerboard_sign))
    return TaitGraph(vertices, tuple(edges))


def spanning_trees(g: TaitGraph, max_edges: int = DEFAULT_CROSSING_CAP) -> Iterator[SpanningTree]:
    """All spanning trees, as frozensets of edge positions.

    Include/exclude recursion over the edge list, in edge order.  An
    edge is left out only when the chosen edges and the later ones still
    connect the graph, so every branch ends in a tree and the work grows
    with the trees listed.  Capped like the other exponential paths; the
    cap is checked before the stream starts.
    """
    if len(g.edges) > max_edges:
        raise TooManyCrossings(
            f"{len(g.edges)} edges exceeds the tree-enumeration cap {max_edges}"
        )
    return _tree_stream(g)


def _tree_stream(g: TaitGraph) -> Iterator[SpanningTree]:
    index = {v: i for i, v in enumerate(g.vertices)}
    ends = [(index[u], index[v]) for u, v in (e.endpoints for e in g.edges)]
    n = len(g.vertices)

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def connects(parent: list[int], components: int, start: int) -> bool:
        """Whether the edges from ``start`` on join ``parent``'s components into one."""
        parent = list(parent)
        for u, v in ends[start:]:
            if components == 1:
                break
            ru, rv = find(parent, u), find(parent, v)
            if ru != rv:
                parent[ru] = rv
                components -= 1
        return components == 1

    # every call's chosen edges plus the edges from pos on connect the graph
    def recurse(pos: int, parent: list[int], components: int, chosen: tuple[int, ...]):
        if components == 1:
            yield frozenset(chosen)
            return
        u, v = ends[pos]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            merged = list(parent)
            merged[ru] = rv
            yield from recurse(pos + 1, merged, components - 1, chosen + (pos,))
        if connects(parent, components, pos + 1):
            yield from recurse(pos + 1, parent, components, chosen)

    if connects(list(range(n)), n, 0):
        yield from recurse(0, list(range(n)), n, ())


def _tree_adjacency(g: TaitGraph, tree: SpanningTree) -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for pos in tree:
        u, v = g.edges[pos].endpoints
        adj[u].append((v, pos))
        adj[v].append((u, pos))
    return adj


def _tree_path(adj, start: int, goal: int) -> set[int]:
    """Edge positions on the unique tree path from start to goal."""
    stack = [(start, -1, ())]
    seen = {start}
    while stack:
        node, _, path = stack.pop()
        if node == goal:
            return set(path)
        for nxt, pos in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, pos, path + (pos,)))
    raise AssertionError("tree path must exist")


def _cut_side(adj, tree: SpanningTree, removed: int, start: int) -> set[int]:
    side = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt, pos in adj[node]:
            if pos != removed and nxt not in side:
                side.add(nxt)
                stack.append(nxt)
    return side


def tree_activity_word(g: TaitGraph, tree: SpanningTree) -> ActivityWord:
    """Activity letters of all edges under the given tree."""
    adj = _tree_adjacency(g, tree)
    letters = []
    for pos, edge in enumerate(g.edges):
        u, v = edge.endpoints
        if pos in tree:
            side = _cut_side(adj, tree, pos, u)
            reconnecting = min(
                j
                for j, other in enumerate(g.edges)
                if (other.endpoints[0] in side) != (other.endpoints[1] in side)
            )
            base = "L" if reconnecting == pos else "D"
        else:
            cycle = _tree_path(adj, u, v) | {pos}
            base = "l" if min(cycle) == pos else "d"
        letters.append(signed_letter(base, edge.sign))
    return ActivityWord(letters)


def thistlethwaite_sum(g: TaitGraph, max_edges: int = DEFAULT_CROSSING_CAP) -> LaurentPoly1:
    """Bracket of the underlying diagram as a sum over spanning trees."""
    total = LaurentPoly1.zero()
    for tree in spanning_trees(g, max_edges):
        total = total + specialize_bracket(tree_activity_word(g, tree))
    return total


def tait_to_dot(g: TaitGraph) -> str:
    """DOT text; each edge is labelled with its sign."""
    lines = ["graph tait {"]
    for v in g.vertices:
        lines.append(f"  f{v};")
    for e in g.edges:
        u, v = e.endpoints
        label = "+" if e.sign > 0 else "-"
        lines.append(f'  f{u} -- f{v} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
