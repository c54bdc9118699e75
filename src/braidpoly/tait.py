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

One rooted tree gives both: an outside edge's fundamental cycle is
itself and the tree path between its ends, which climbing both ends
towards the root finds where they meet; a tree edge's fundamental cut
is itself and every outside edge whose cycle passes it.  So one climb
per outside edge sets every letter of a tree's word.

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
from .kauffman import bracket_sum
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


def build_tait(d: LinkDiagram) -> TaitGraph:
    return _tait(d, True)


def dual_tait(d: LinkDiagram) -> TaitGraph:
    """The Tait graph of the opposite shading choice.

    Swapping shaded and unshaded exchanges the quadrant pairs at every
    crossing, so each sign flips.
    """
    return _tait(d, False)


def _tait(d: LinkDiagram, shaded: bool) -> TaitGraph:
    face_index = d.face_index
    vertices = tuple(sorted(f.id for f in d.faces if f.shaded == shaded))
    edges = []
    for c in d.crossings:
        sign = c.checkerboard_sign if shaded else -c.checkerboard_sign
        # the crossing's faces of this shading: corners 0 and 2 if positive in it, else 1 and 3
        corner = 0 if sign == 1 else 1
        ends = (face_index[dart(c.id, corner)], face_index[dart(c.id, corner + 2)])
        edges.append(TaitEdge(c.id, ends, sign))
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


def tree_activity_word(g: TaitGraph, tree: SpanningTree) -> ActivityWord:
    """Activity letters of all edges, by one climb per edge outside the tree.

    Raises ``ValueError`` when ``tree`` is not a spanning tree of ``g``.
    """
    vertices, edges = g.vertices, g.edges
    if len(tree) != len(vertices) - 1:
        raise ValueError(f"{len(tree)} edges cannot span a tree on {len(vertices)} vertices")
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
    for pos in tree:
        u, v = edges[pos].endpoints
        adj[u].append((v, pos))
        adj[v].append((u, pos))
    root = vertices[0]
    up = {root: (root, -1, 0)}  # vertex -> (parent, tree edge to it, depth)
    queue = [root]
    for x in queue:
        depth = up[x][2] + 1
        for y, pos in adj[x]:
            if y not in up:
                up[y] = (x, pos, depth)
                queue.append(y)
    if len(up) != len(vertices):
        raise ValueError(f"edges {sorted(tree)} hold a cycle and leave vertices unreached")
    letters = []
    reconnected = set()  # tree edges whose cut holds a lower outside edge
    for pos, edge in enumerate(edges):
        if pos in tree:
            continue
        u, v = edge.endpoints
        lowest = True
        while u != v:
            if up[u][2] < up[v][2]:
                u, v = v, u
            u, t, _ = up[u]
            if t < pos:
                lowest = False
            else:
                reconnected.add(t)
        letters.append(signed_letter("l" if lowest else "d", edge.sign))
    letters += [signed_letter("D" if t in reconnected else "L", edges[t].sign) for t in tree]
    return ActivityWord(letters)


def thistlethwaite_sum(g: TaitGraph, max_edges: int = DEFAULT_CROSSING_CAP) -> LaurentPoly1:
    """Bracket of the underlying diagram as a sum over spanning trees."""
    return bracket_sum(tree_activity_word(g, tree) for tree in spanning_trees(g, max_edges))


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
