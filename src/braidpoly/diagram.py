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
]

Dart = int

# slots of a crossing's (NW, NE, SW, SE) ends, per crossing sign
_ENDS = {1: (1, 0, 2, 3), -1: (0, 3, 1, 2)}


def dart(crossing_id: int, slot: int) -> Dart:
    return 4 * (crossing_id - 1) + slot


@dataclass(slots=True)
class Crossing:
    """One crossing, identified by its 1-based position in the word."""

    id: int
    generator_index: int
    oriented_sign: int
    checkerboard_sign: int | None = None


@dataclass(slots=True)
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
    # bottom and top dart of strand position 2's closure arc; () on one strand
    closure_darts: tuple[Dart, ...] = ()
    outer_face: int = -1
    free_loops: int = 0

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def arcs(self) -> list[tuple[Dart, Dart]]:
        """Each arc once, as its two darts in increasing order."""
        return [(d1, d2) for d1, d2 in enumerate(self.theta) if d1 < d2]

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
    # per strand position: the end its strand hangs from (None above its
    # first crossing), and the end it entered the braid at
    dangling: list[Dart | None] = [None] * (word.strands + 1)
    top_attach = [0] * (word.strands + 1)
    first = 0  # dart 0 of the syllable's first crossing
    for gen, m in word.syllables:
        last = first + 4 * (abs(m) - 1)
        nw, ne, sw, se = _ENDS[1 if m > 0 else -1]
        for pos, top, bottom in ((gen, nw, sw), (gen + 1, ne, se)):
            below = dangling[pos]
            if below is None:
                top_attach[pos] = first + top
            else:
                theta[below] = first + top
                theta[first + top] = below
            # down the syllable, each crossing's bottom end meets the next one's top end
            theta[first + bottom : last + bottom : 4] = range(first + 4 + top, last + 4 + top, 4)
            theta[first + 4 + top : last + 4 + top : 4] = range(first + bottom, last + bottom, 4)
            dangling[pos] = last + bottom
        first = last + 4

    for bottom, top in zip(dangling[1:], top_attach[1:]):
        theta[bottom] = top
        theta[top] = bottom

    d = LinkDiagram(word, crossings, theta, closure_darts=(dangling[2], top_attach[2]))
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
    n = len(theta)
    # the clockwise neighbour of every dart, then its composite with theta
    cw = list(range(-1, n - 1))
    cw[::4] = range(3, n, 4)
    step = [cw[t] for t in theta]
    assigned = [-1] * n
    faces: list[Face] = []
    for start in range(n):
        if assigned[start] >= 0:
            continue
        fid = len(faces)
        orbit = []
        at = start
        while assigned[at] < 0:
            assigned[at] = fid
            orbit.append(at)
            at = step[at]
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

    A crossing's checkerboard sign is read from corner 0 alone: +1 when
    it is shaded.  That is enough because the search below compares
    every corner of every face with the corner clockwise before it, and
    ``_trace_faces`` files each corner under the face whose walk holds
    it.  So once the search passes, the shades alternate around every
    crossing, and the shaded pair is {0, 2} exactly when corner 0 is
    shaded, {1, 3} otherwise.
    """
    faces = d.faces
    if not d.crossings:
        for f in faces:
            f.shaded = not f.is_outer
        return d
    face_index = d.face_index
    shade: list[bool | None] = [None] * len(faces)
    shade[d.outer_face] = False
    queue = [d.outer_face]
    for fid in queue:  # breadth first: the queue grows as it is read
        mine = shade[fid]
        for corner in faces[fid].corners:
            neighbour = face_index[corner - 1 if corner & 3 else corner + 3]
            theirs = shade[neighbour]
            if theirs is None:
                shade[neighbour] = not mine
                queue.append(neighbour)
            elif theirs == mine:
                raise ColoringContradiction(
                    f"faces {fid} and {neighbour} collide at corner {_pair(corner)}"
                )
    if len(queue) != len(faces):
        raise ColoringContradiction("shading did not reach every face")
    for f, shaded in zip(faces, shade):
        f.shaded = shaded
    for c, fid in zip(d.crossings, face_index[::4]):
        c.checkerboard_sign = 1 if shade[fid] else -1
    return d


def build_diagram(word: BraidWord) -> LinkDiagram:
    """Closure diagram with faces, shading, and both sign notions filled in."""
    return checkerboard(close_braid(word))


def _unknot_diagram(word: BraidWord) -> LinkDiagram:
    d = LinkDiagram(word, (), [], free_loops=1)
    d.faces = [Face(0, (), is_outer=True), Face(1, ())]
    d.outer_face = 0
    return d
