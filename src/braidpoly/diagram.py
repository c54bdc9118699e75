"""Planar diagrams of braid closures, built as combinatorial maps.

No coordinates anywhere.  A diagram is a set of crossings, each with
four slots in counterclockwise rotational order, plus an involution
pairing slot ends into arcs.  Faces fall out of the usual face-tracing
permutation, so every downstream structure is exact and testable.

Conventions, fixed once:

* Slots 0 and 2 carry the under-strand, slots 1 and 3 the over-strand.
  With the braid flowing downward, a positive crossing reads
  0=NE, 1=NW, 2=SW, 3=SE and a negative one 0=NW, 1=SW, 2=SE, 3=NE.
  The compass names only matter while wiring arcs; afterwards all
  structure is slot arithmetic.
* Corner ``s`` of a crossing is the quadrant swept counterclockwise
  from slot ``s`` to slot ``s+1``.  Slot ``s`` of crossing ``k`` and the
  corner it opens are both named by one integer, the dart
  ``4 * (k - 1) + s``.  Darts sort like the pairs ``(k, s)``, and every
  per-dart table (``theta``, ``face_index``) is a flat list indexed by
  dart.
* Closure arcs run around the right side, the arc for strand position
  ``p`` nested inside the arc for ``p-1``, so position ``n`` closes
  innermost.
* The outer face is the one left of the braid column; it contains the
  west corner of the first crossing on strand position 1.

Checkerboard shading gives the outer face the unshaded color.  The
checkerboard sign of a crossing is +1 when the shaded quadrants are
corners {0, 2} and -1 when they are corners {1, 3}; every crossing of
a positive torus braid closure comes out +1 under this rule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .braid import BraidWord
from .errors import ColoringContradiction, DisconnectedLink

__all__ = [
    "Dart",
    "Crossing",
    "Face",
    "LinkDiagram",
    "close_braid",
    "checkerboard",
    "build_diagram",
    "dart",
    "rotate_cw",
]

Dart = int

# compass -> slot, per crossing sign
_COMPASS = {
    1: {"NE": 0, "NW": 1, "SW": 2, "SE": 3},
    -1: {"NE": 3, "NW": 0, "SW": 1, "SE": 2},
}


def dart(crossing_id: int, slot: int) -> Dart:
    return 4 * (crossing_id - 1) + slot


def rotate_cw(d: Dart) -> Dart:
    """The previous slot of the same crossing."""
    return d - 1 if d & 3 else d + 3


@dataclass
class Crossing:
    """One crossing, identified by its 1-based position in the word."""

    id: int
    generator_index: int
    oriented_sign: int
    checkerboard_sign: int | None = None


@dataclass
class Face:
    """A complementary region, as the cyclic list of its corner darts."""

    id: int
    corners: tuple[Dart, ...]
    shaded: bool | None = None
    is_outer: bool = False


@dataclass
class LinkDiagram:
    word: BraidWord
    crossings: tuple[Crossing, ...]
    theta: list[Dart]
    faces: list[Face] = field(default_factory=list)
    face_index: list[int] = field(default_factory=list)
    closure_darts: dict[int, tuple[Dart, Dart]] = field(default_factory=dict)
    outer_face: int = -1
    free_loops: int = 0

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def arcs(self) -> list[tuple[Dart, Dart]]:
        """Each arc once, as its two darts in increasing order."""
        return [(d1, d2) for d1, d2 in enumerate(self.theta) if d1 < d2]

    def face_of(self, corner: Dart) -> Face:
        return self.faces[self.face_index[corner]]

    def shaded_faces(self) -> list[Face]:
        return [f for f in self.faces if f.shaded]

    def to_debug_json(self) -> dict:
        return {
            "word": self.word.to_text(),
            "strands": self.word.strands,
            "crossings": [
                {
                    "id": c.id,
                    "generator": c.generator_index,
                    "oriented_sign": c.oriented_sign,
                    "checkerboard_sign": c.checkerboard_sign,
                }
                for c in self.crossings
            ],
            "arcs": [[_pair(d1), _pair(d2)] for d1, d2 in self.arcs],
            "faces": [
                {
                    "id": f.id,
                    "corners": [_pair(d) for d in f.corners],
                    "shaded": f.shaded,
                    "outer": f.is_outer,
                }
                for f in self.faces
            ],
            "free_loops": self.free_loops,
        }


def _pair(d: Dart) -> list[int]:
    """A dart as ``[crossing_id, slot]``."""
    return [(d >> 2) + 1, d & 3]


def close_braid(word: BraidWord) -> LinkDiagram:
    """Build the closure diagram of a braid word and trace its faces.

    Split diagrams are rejected: every adjacent strand pair must be
    crossed at least once, which for a braid closure is exactly
    connectedness of the projection.
    """
    if not word.syllables:
        if word.strands == 1:
            return _unknot_diagram(word)
        raise DisconnectedLink(f"{word.strands} crossingless strands close to a split union")
    # generators lie in 1..strands-1, so the count alone says whether all occur
    if len({gen for gen, _ in word.syllables}) != word.strands - 1:
        raise DisconnectedLink(
            f"closure of {word.to_text()!r} on {word.strands} strands splits"
        )

    crossings = tuple(
        Crossing(cid, gen, sign)
        for cid, (gen, sign) in enumerate(word.crossings(), start=1)
    )
    theta = [0] * (4 * len(crossings))

    def join(d1: Dart, d2: Dart) -> None:
        theta[d1] = d2
        theta[d2] = d1

    dangling: dict[int, Dart | None] = {p: None for p in range(1, word.strands + 1)}
    top_attach: dict[int, Dart] = {}
    for c in crossings:
        compass = _COMPASS[c.oriented_sign]
        ends = {name: dart(c.id, slot) for name, slot in compass.items()}
        for pos, top_end in ((c.generator_index, ends["NW"]), (c.generator_index + 1, ends["NE"])):
            below = dangling[pos]
            if below is None:
                top_attach[pos] = top_end
            else:
                join(below, top_end)
        dangling[c.generator_index] = ends["SW"]
        dangling[c.generator_index + 1] = ends["SE"]

    closure_darts: dict[int, tuple[Dart, Dart]] = {}
    for p in range(1, word.strands + 1):
        bottom = dangling[p]
        assert bottom is not None
        join(bottom, top_attach[p])
        closure_darts[p] = (bottom, top_attach[p])

    d = LinkDiagram(word, crossings, theta, closure_darts=closure_darts)
    _trace_faces(d)
    d.outer_face = d.face_index[top_attach[1]]
    d.faces[d.outer_face].is_outer = True
    return d


def _trace_faces(d: LinkDiagram) -> None:
    """Orbit decomposition of dart -> clockwise-rotated arc partner.

    Each orbit is traced from the lowest dart not yet assigned, so face
    ids ascend with each face's lowest dart.
    """
    theta = d.theta
    assigned = [-1] * len(theta)
    faces: list[Face] = []
    for start in range(len(theta)):
        if assigned[start] >= 0:
            continue
        fid = len(faces)
        orbit = []
        at = start
        while assigned[at] < 0:
            assigned[at] = fid
            orbit.append(at)
            at = rotate_cw(theta[at])
        if at != start:
            raise ColoringContradiction("face tracing closed on a foreign dart")
        faces.append(Face(fid, tuple(orbit)))
    d.faces = faces
    d.face_index = assigned
    if len(faces) != d.crossing_count + 2:
        raise ColoringContradiction(
            f"{len(faces)} faces for {d.crossing_count} crossings breaks Euler count"
        )


def checkerboard(d: LinkDiagram) -> LinkDiagram:
    """Shade faces so neighbours differ and the outer face is unshaded.

    Consecutive corners around a crossing lie in adjacent faces, so the
    constraint graph is just corner alternation; a contradiction there
    can only mean the face tracing is broken.
    """
    if not d.crossings:
        for f in d.faces:
            f.shaded = not f.is_outer
        return d
    shade: dict[int, bool] = {d.outer_face: False}
    queue = deque([d.outer_face])
    while queue:
        fid = queue.popleft()
        for corner in d.faces[fid].corners:
            neighbour = d.face_index[rotate_cw(corner)]
            if neighbour not in shade:
                shade[neighbour] = not shade[fid]
                queue.append(neighbour)
            elif shade[neighbour] == shade[fid]:
                raise ColoringContradiction(
                    f"faces {fid} and {neighbour} collide at corner {_pair(corner)}"
                )
    if len(shade) != len(d.faces):
        raise ColoringContradiction("shading did not reach every face")
    for f in d.faces:
        f.shaded = shade[f.id]
    for c in d.crossings:
        shaded_corners = {s for s in range(4) if d.face_of(dart(c.id, s)).shaded}
        if shaded_corners == {0, 2}:
            c.checkerboard_sign = 1
        elif shaded_corners == {1, 3}:
            c.checkerboard_sign = -1
        else:
            raise ColoringContradiction(
                f"crossing {c.id} has shaded corners {sorted(shaded_corners)}"
            )
    return d


def build_diagram(word: BraidWord) -> LinkDiagram:
    """Closure diagram with faces, shading, and both sign notions filled in."""
    return checkerboard(close_braid(word))


def _unknot_diagram(word: BraidWord) -> LinkDiagram:
    d = LinkDiagram(word, (), [], free_loops=1)
    d.faces = [Face(0, (), is_outer=True), Face(1, ())]
    d.outer_face = 0
    return d
