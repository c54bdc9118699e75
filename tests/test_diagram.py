import hashlib
import json
import random

import pytest
from hypothesis import given

from braidpoly.braid import BraidWord, parse_braid
from braidpoly.diagram import _trace_faces, build_diagram, checkerboard, close_braid
from braidpoly.errors import ColoringContradiction, DisconnectedLink
from words import connected_words, corpus_words, family_words


def dart(k: int, s: int) -> int:
    """Slot s of crossing k, as the diagram numbers its darts."""
    return 4 * (k - 1) + s


def test_single_crossing_closure():
    d = build_diagram(parse_braid("s1"))
    assert d.crossing_count == 1
    assert len(d.faces) == 3
    assert len(d.shaded_faces()) == 1
    assert d.crossings[0].oriented_sign == 1
    assert d.crossings[0].checkerboard_sign == 1


def test_trefoil_structure():
    d = build_diagram(parse_braid("s1^3"))
    assert d.crossing_count == 3
    assert len(d.faces) == 5
    assert len(d.shaded_faces()) == 3

    pairs = {frozenset(a) for a in d.arcs}
    assert pairs == {
        frozenset({dart(1, 1), dart(3, 2)}),
        frozenset({dart(1, 0), dart(3, 3)}),
        frozenset({dart(1, 2), dart(2, 1)}),
        frozenset({dart(1, 3), dart(2, 0)}),
        frozenset({dart(2, 2), dart(3, 1)}),
        frozenset({dart(2, 3), dart(3, 0)}),
    }

    orbits = {frozenset(f.corners) for f in d.faces}
    assert orbits == {
        frozenset({dart(1, 1), dart(3, 1), dart(2, 1)}),
        frozenset({dart(1, 0), dart(3, 2)}),
        frozenset({dart(1, 2), dart(2, 0)}),
        frozenset({dart(2, 2), dart(3, 0)}),
        frozenset({dart(1, 3), dart(2, 3), dart(3, 3)}),
    }

    outer = d.faces[d.outer_face]
    assert frozenset(outer.corners) == frozenset({dart(1, 1), dart(3, 1), dart(2, 1)})
    assert not outer.shaded

    shaded = {frozenset(f.corners) for f in d.shaded_faces()}
    assert shaded == {
        frozenset({dart(1, 0), dart(3, 2)}),
        frozenset({dart(1, 2), dart(2, 0)}),
        frozenset({dart(2, 2), dart(3, 0)}),
    }
    assert [c.checkerboard_sign for c in d.crossings] == [1, 1, 1]


def test_torus_braid_signs_match_calibration():
    for q in (1, 2, 3):
        d = build_diagram(parse_braid(f"s1^{q}"))
        assert all(c.checkerboard_sign == 1 for c in d.crossings)
    d = build_diagram(parse_braid("s1^-3"))
    assert all(c.checkerboard_sign == -1 for c in d.crossings)


def test_two_syllable_face_count():
    d = build_diagram(parse_braid("s1^2 s2^2"))
    assert d.crossing_count == 4
    assert len(d.faces) == 6


def test_sign_notions_diverge_on_s1_s2():
    # The two sign notions agree everywhere on two strands but not in
    # general: the closure of s1 s2 carries a crossing where they split.
    d = build_diagram(parse_braid("s1 s2"))
    assert [c.oriented_sign for c in d.crossings] == [1, 1]
    assert [c.checkerboard_sign for c in d.crossings] == [1, -1]


def test_disconnected_closures_rejected():
    with pytest.raises(DisconnectedLink):
        close_braid(parse_braid("s1", strands=3))
    with pytest.raises(DisconnectedLink):
        close_braid(parse_braid("s2^3", strands=3))
    with pytest.raises(DisconnectedLink):
        close_braid(BraidWord(2, ()))


def test_unknot_diagram():
    d = build_diagram(BraidWord(1, ()))
    assert d.crossing_count == 0
    assert d.free_loops == 1
    assert len(d.faces) == 2
    assert not d.faces[d.outer_face].shaded
    assert len(d.shaded_faces()) == 1


def test_debug_json_shape():
    doc = build_diagram(parse_braid("s1^3")).to_debug_json()
    assert doc["word"] == "s1^3"
    assert doc["strands"] == 2
    assert len(doc["crossings"]) == 3
    assert len(doc["arcs"]) == 6
    assert len(doc["faces"]) == 5
    assert sum(f["shaded"] for f in doc["faces"]) == 3


DEBUG_JSON_SHA256 = "0a55416f5988cc64e8d7b704ff10440ad48c953054caadfae033328277833a00"


def test_debug_json_is_pinned():
    # every corpus word, the unknot and a few mixed-sign words, in order
    words = corpus_words() + [BraidWord(1, ())] + [
        parse_braid(text)
        for text in (
            "s1 s2^-1 s1 s2^-1",
            "s1^2 s2^-1 s3 s2^2",
            "s1^-1 s2 s1^-2 s3^-1 s2",
            "s2 s1^-1 s2^3 s1 s3^-2",
        )
    ]
    assert debug_json_digest(words) == DEBUG_JSON_SHA256
    assert debug_json_digest(mixed_sign_words()) == MIXED_DEBUG_JSON_SHA256


def debug_json_digest(words) -> str:
    digest = hashlib.sha256()
    for word in words:
        digest.update(json.dumps(build_diagram(word).to_debug_json()).encode())
        digest.update(b"\n")
    return digest.hexdigest()


MIXED_DEBUG_JSON_SHA256 = "37df576d721101150870626d4fbf9dfb558bc2c0740af39a7594c447e3da9bf5"


def mixed_sign_words():
    """25 seeded connected words: mixed signs, generators repeated out of order."""
    rng = random.Random(11)
    words = []
    for _ in range(25):
        strands = rng.randint(2, 6)
        gens = list(range(1, strands)) + [rng.randint(1, strands - 1) for _ in range(rng.randint(1, 6))]
        rng.shuffle(gens)
        syllables = tuple((g, rng.choice((1, -1)) * rng.randint(1, 5)) for g in gens)
        words.append(BraidWord(strands, syllables))
    return words


@given(connected_words())
def test_euler_face_count(word):
    d = build_diagram(word)
    assert len(d.faces) == d.crossing_count + 2
    assert sum(len(f.corners) for f in d.faces) == 4 * d.crossing_count
    lowest = [min(f.corners) for f in d.faces]
    assert lowest == sorted(lowest)


@given(connected_words())
def test_theta_is_a_fixed_point_free_involution(word):
    d = build_diagram(word)
    assert len(d.theta) == 4 * d.crossing_count
    assert set(range(len(d.theta))) == {dart(c.id, s) for c in d.crossings for s in range(4)}
    for end, partner in enumerate(d.theta):
        assert d.theta[partner] == end
        assert partner != end


@given(connected_words())
def test_coloring_proper_and_quadrants_alternate(word):
    d = build_diagram(word)
    outer = d.faces[d.outer_face]
    assert outer.is_outer and not outer.shaded
    assert sum(f.is_outer for f in d.faces) == 1
    for c in d.crossings:
        shading = [d.faces[d.face_index[dart(c.id, s)]].shaded for s in range(4)]
        assert shading in ([True, False, True, False], [False, True, False, True])
        assert c.checkerboard_sign == (1 if shading[0] else -1)


@given(family_words())
def test_mirror_flips_checkerboard_signs(word):
    d = build_diagram(word)
    mirror = BraidWord(word.strands, tuple((i, -m) for i, m in word.syllables))
    dm = build_diagram(mirror)
    assert len(dm.faces) == len(d.faces)
    assert [c.checkerboard_sign for c in dm.crossings] == [
        -c.checkerboard_sign for c in d.crossings
    ]
    assert [c.oriented_sign for c in dm.crossings] == [
        -c.oriented_sign for c in d.crossings
    ]


def test_corrupt_theta_fails_face_tracing():
    # two darts sent to one partner: a walk runs into a dart traced by
    # another orbit
    d = close_braid(parse_braid("s1^3"))
    d.theta[dart(1, 0)] = d.theta[dart(1, 1)]
    with pytest.raises(ColoringContradiction, match="foreign dart"):
        _trace_faces(d)
    # a re-paired involution walks a surface of higher genus: too few faces
    d = close_braid(parse_braid("s1^3 s2^2"))
    a, b = dart(1, 0), dart(2, 2)
    pa, pb = d.theta[a], d.theta[b]
    d.theta[a], d.theta[pb] = pb, a
    d.theta[b], d.theta[pa] = pa, b
    with pytest.raises(ColoringContradiction, match="Euler"):
        _trace_faces(d)


def test_corrupt_face_index_fails_checkerboard():
    # a corner filed under the face of the next corner counterclockwise,
    # so the two read as one face across a strand
    d = close_braid(parse_braid("s1^3"))
    d.face_index[dart(2, 1)] = d.face_index[dart(2, 2)]
    with pytest.raises(ColoringContradiction):
        checkerboard(d)
