"""The balanced crossing/face incidence graph and its dimer sum.

Vertices on one side are the crossings in word order; on the other,
every face except two, the shaded ones first and each kind in face-id
order.  The deleted pair is the two faces flanking the
closure arc of strand position 2; they always have opposite shading,
neither is the outer face, and dropping them balances the graph (faces
minus two equals crossings).  For two-strand closures this is the
innermost pair on the right.

Each surviving face gets one edge per incident crossing, even when the
boundary touches that crossing at both opposite quadrants.  The edge's
corner is the first of the crossing's four darts, in slot order, that
lies in the face.  Corners anchor the embedding while it is built: the
rotation at a crossing is its edges in the slot order of their corners,
and the rotation at a face is its edges in the order their corners come
on its boundary walk.  The edges do not keep their corners.

Those two rotations are also the graph's incidence index:
``crossing_rotation[cid]`` holds the edge positions at a crossing and
``face_rotation[fid]`` each edge of a face exactly once.  Letters,
matchings and the signed matrix all read incidence from them, so
nothing downstream scans the whole edge list per vertex.

Edges run by crossing, then by face order, so a face's lowest edge
position is its edge at its lowest-numbered crossing.  Letters, per
face: a shaded face gives L to its lowest edge position and D to the
rest; an unshaded face gives l and d.  Negative checkerboard crossings
bar their letters.  Summing the specialized
letter product over perfect matchings then reproduces the bracket of
the diagram.
"""

from __future__ import annotations

from .activity import ActivityWord, signed_letter
from .braid import DEFAULT_CROSSING_CAP
from .diagram import LinkDiagram
from .errors import TooManyCrossings, UnbalancedGraph, UnsupportedWord
from .kauffman import bracket_sum
from .laurent import LaurentPoly1

__all__ = [
    "OverlayEdge",
    "OverlayGraph",
    "build_overlay",
    "overlay_activity_letters",
    "perfect_matchings",
    "matching_word",
    "partition_function",
    "overlay_to_dot",
]

Matching = frozenset


class OverlayEdge:
    __slots__ = ("crossing_id", "face_id", "letter", "kasteleyn_sign")

    def __init__(self, crossing_id: int, face_id: int, letter: str | None = None):
        self.crossing_id, self.face_id, self.letter = crossing_id, face_id, letter
        self.kasteleyn_sign = 1


class OverlayGraph:
    __slots__ = ("crossings", "faces", "shaded", "edges", "crossing_rotation", "face_rotation",
                 "crossing_signs")

    def __init__(
        self, crossings: tuple[int, ...], faces: tuple[int, ...], shaded: frozenset[int],
        edges: tuple[OverlayEdge, ...], crossing_rotation: dict[int, tuple[int, ...]],
        face_rotation: dict[int, tuple[int, ...]], crossing_signs: dict[int, int],
    ):
        self.crossings, self.faces, self.shaded, self.edges = crossings, faces, shaded, edges
        self.crossing_rotation, self.face_rotation = crossing_rotation, face_rotation
        self.crossing_signs = crossing_signs


def build_overlay(d: LinkDiagram) -> OverlayGraph:
    if not d.word.is_homogeneous_family():
        raise UnsupportedWord(
            f"{d.word.to_text() or '<empty>'} is outside the supported braid family"
        )
    face_index = d.face_index
    bottom, top = d.closure_darts
    deleted = (face_index[bottom], face_index[top])
    if deleted[0] == deleted[1]:
        raise UnbalancedGraph("deletion picked one face twice")

    crossings = tuple(c.id for c in d.crossings)
    shaded_ids = [f.id for f in d.faces if f.shaded and f.id not in deleted]
    unshaded_ids = [f.id for f in d.faces if not f.shaded and f.id not in deleted]
    faces = tuple(shaded_ids + unshaded_ids)
    if len(faces) != len(crossings):
        raise UnbalancedGraph(
            f"{len(faces)} face vertices against {len(crossings)} crossings"
        )

    # each corner's face position, -1 in a deleted face
    position = [-1] * len(d.faces)
    for j, fid in enumerate(faces):
        position[fid] = j
    at = [position[fid] for fid in face_index]
    # A corner is its edge's corner when its face survives and no earlier
    # slot of its crossing lies in that face.  Shades alternate around a
    # crossing, so adjacent corners never share a face: only slot 2 can
    # repeat slot 0, and slot 3 slot 1.
    corners = [c for c, j in enumerate(at) if j >= 0 and (not c & 2 or j != at[c - 2])]
    # edges run by crossing, then by face order
    width = len(faces)
    order = sorted(corners, key=lambda c: (c >> 2) * width + at[c])
    edge_at = [-1] * len(at)  # corner -> edge position
    for i, c in enumerate(order):
        edge_at[c] = i
    edges = tuple([OverlayEdge((c >> 2) + 1, face_index[c]) for c in order])
    # rotations: at a crossing in slot order, at a face along its boundary
    # walk; -1 marks a corner that is no edge's
    crossing_rotation = {
        k: tuple([i for i in edge_at[4 * k - 4 : 4 * k] if i >= 0]) for k in crossings
    }
    face_rotation = {
        fid: tuple([edge_at[c] for c in d.faces[fid].corners if edge_at[c] >= 0])
        for fid in faces
    }

    return OverlayGraph(
        crossings,
        faces,
        frozenset(shaded_ids),
        edges,
        crossing_rotation,
        face_rotation,
        {c.id: c.checkerboard_sign for c in d.crossings},
    )


# (lead, other) letters of a face, by its shading, each by crossing sign
_LETTERS = {
    shaded: tuple({sign: signed_letter(base, sign) for sign in (1, -1)} for base in bases)
    for shaded, bases in ((True, "LD"), (False, "ld"))
}


def overlay_activity_letters(g: OverlayGraph) -> OverlayGraph:
    edges, signs = g.edges, g.crossing_signs
    for fid in g.faces:
        rotation = g.face_rotation[fid]
        lead, other = _LETTERS[fid in g.shaded]
        for i in rotation:
            e = edges[i]
            e.letter = other[signs[e.crossing_id]]
        e = edges[min(rotation)]
        e.letter = lead[signs[e.crossing_id]]
    return g


def perfect_matchings(g: OverlayGraph, max_crossings: int = DEFAULT_CROSSING_CAP):
    """All perfect matchings, as frozensets of edge positions.

    Backtracks on the unmatched crossing with the fewest free faces,
    which keeps the branching shallow on the ladder-like graphs here.
    """
    if len(g.crossings) > max_crossings:
        raise TooManyCrossings(
            f"{len(g.crossings)} crossings exceeds the matching cap {max_crossings}"
        )
    return _matching_stream(g)


def _matching_stream(g: OverlayGraph):
    def recurse(unmatched: frozenset[int], used_faces: frozenset[int], chosen: tuple[int, ...]):
        if not unmatched:
            yield frozenset(chosen)
            return
        cid = min(
            unmatched,
            key=lambda c: sum(
                1 for i in g.crossing_rotation[c] if g.edges[i].face_id not in used_faces
            ),
        )
        options = [i for i in g.crossing_rotation[cid] if g.edges[i].face_id not in used_faces]
        for i in options:
            yield from recurse(
                unmatched - {cid},
                used_faces | {g.edges[i].face_id},
                chosen + (i,),
            )

    yield from recurse(frozenset(g.crossings), frozenset(), ())


def matching_word(g: OverlayGraph, matching: Matching) -> ActivityWord:
    letters = []
    for i in matching:
        letter = g.edges[i].letter
        if letter is None:
            raise ValueError("letters not assigned; call overlay_activity_letters")
        letters.append(letter)
    return ActivityWord(letters)


def partition_function(g: OverlayGraph, max_crossings: int = DEFAULT_CROSSING_CAP) -> LaurentPoly1:
    """Dimer sum: specialized matching words over all perfect matchings."""
    return bracket_sum(matching_word(g, m) for m in perfect_matchings(g, max_crossings))


def overlay_to_dot(g: OverlayGraph) -> str:
    lines = ["graph overlay {"]
    for cid in g.crossings:
        lines.append(f"  c{cid} [shape=box];")
    for fid in g.faces:
        style = ', style=filled, fillcolor="gray80"' if fid in g.shaded else ""
        lines.append(f"  f{fid} [shape=ellipse{style}];")
    for e in g.edges:
        attrs = []
        if e.letter is not None:
            attrs.append(f'label="{e.letter}"')
        if e.kasteleyn_sign < 0:
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  c{e.crossing_id} -- f{e.face_id}{suffix};")
    lines.append("}")
    return "\n".join(lines)
