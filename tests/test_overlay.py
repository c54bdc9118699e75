import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from braidpoly.activity import ActivityWord
from braidpoly.braid import BraidWord, parse_braid
from braidpoly.diagram import build_diagram
from braidpoly.dimer import adjacency_matrix, bracket_sign, determinant, prepare_overlay
from braidpoly.errors import TooManyCrossings, UnsupportedWord
from braidpoly.laurent import LaurentPoly1
from braidpoly.oracle import bracket_state_sum
from braidpoly.overlay import (
    OverlayEdge,
    OverlayGraph,
    build_overlay,
    matching_word,
    overlay_activity_letters,
    overlay_to_dot,
    partition_function,
    perfect_matchings,
)
from braidpoly.tait import build_tait, spanning_trees, tree_activity_word
from overlay_parts import overlay_components
from words import corpus_words, family_words


def overlay_of(text: str) -> OverlayGraph:
    return overlay_activity_letters(build_overlay(build_diagram(parse_braid(text))))


def letter_map(g: OverlayGraph) -> dict[tuple[int, int], str]:
    """(V1 position, W position) -> letter, in ladder-style indexing."""
    face_pos = {fid: j for j, fid in enumerate(g.faces)}
    cross_pos = {cid: i for i, cid in enumerate(g.crossings)}
    return {
        (cross_pos[e.crossing_id], face_pos[e.face_id]): e.letter for e in g.edges
    }


def test_non_family_words_rejected():
    for text in ["s1 s2 s1", "s1^2 s2^-2", "s2 s1"]:
        with pytest.raises(UnsupportedWord):
            build_overlay(build_diagram(parse_braid(text)))


def test_single_crossing_overlay():
    g = overlay_of("s1")
    assert len(g.crossings) == 1
    assert len(g.faces) == 1
    assert len(g.edges) == 1
    assert g.edges[0].letter == "l"
    assert g.faces[0] not in g.shaded
    assert partition_function(g) == LaurentPoly1({3: -1})


def test_hopf_overlay_is_a_4_cycle():
    g = overlay_of("s1^2")
    assert len(g.crossings) == 2
    assert len(g.faces) == 2
    assert len(g.edges) == 4
    assert letter_map(g) == {(0, 0): "L", (1, 0): "D", (0, 1): "l", (1, 1): "d"}
    assert partition_function(g) == LaurentPoly1({4: -1, -4: -1})


def test_trefoil_overlay_structure():
    g = overlay_of("s1^3")
    assert len(g.crossings) == 3
    # two shaded bigons first, then the outer face
    assert len(g.faces) == 3
    assert g.faces[0] in g.shaded and g.faces[1] in g.shaded
    assert g.faces[2] not in g.shaded
    assert letter_map(g) == {
        (0, 0): "L",
        (1, 0): "D",
        (1, 1): "L",
        (2, 1): "D",
        (0, 2): "l",
        (1, 2): "d",
        (2, 2): "d",
    }


def test_trefoil_matchings_and_words():
    g = overlay_of("s1^3")
    matchings = list(perfect_matchings(g))
    assert len(matchings) == 3
    words = {matching_word(g, m) for m in matchings}
    assert words == {
        ActivityWord("LLd"),
        ActivityWord("LdD"),
        ActivityWord(["l", "D", "D"]),
    }
    assert partition_function(g) == LaurentPoly1({-7: 1, -3: -1, 5: -1})


def test_negative_trefoil_is_barred_mirror():
    g = overlay_of("s1^-3")
    assert all(e.letter.endswith("~") for e in g.edges)
    assert partition_function(g) == LaurentPoly1({7: 1, 3: -1, -5: -1})


def test_ladder_matching_count_and_words():
    for q in range(2, 9):
        g = overlay_of(f"s1^{q}")
        matchings = list(perfect_matchings(g))
        assert len(matchings) == q
        got = Counter(matching_word(g, m).key() for m in matchings)
        expected = Counter()
        expected[ActivityWord(["l"] + ["D"] * (q - 1)).key()] += 1
        for i in range(1, q):
            expected[ActivityWord(["d"] + ["L"] * i + ["D"] * (q - 1 - i)).key()] += 1
        assert got == expected


def test_matching_words_match_tree_words():
    for q in range(2, 7):
        g = overlay_of(f"s1^{q}")
        t = build_tait(build_diagram(parse_braid(f"s1^{q}")))
        matches = Counter(
            matching_word(g, m).key() for m in perfect_matchings(g)
        )
        trees = Counter(
            tree_activity_word(t, tr).key() for tr in spanning_trees(t)
        )
        assert matches == trees


def test_two_column_word_splits_into_components():
    g = overlay_of("s1^2 s2^2")
    comps = overlay_components(g)
    assert len(comps) == 2
    for cids, fids, eids in comps:
        assert len(cids) == 2
        assert len(fids) == 2
        assert len(eids) == 4
    assert partition_function(g) == LaurentPoly1({8: 1, 0: 2, -8: 1})


def test_component_product_identity():
    from braidpoly.kauffman import specialize_bracket

    g = overlay_of("s1^2 s2^3")
    product = LaurentPoly1.one()
    for cids, fids, eids in overlay_components(g):
        part = LaurentPoly1.zero()
        for m in _component_matchings([g.edges[i] for i in eids], cids):
            word = ActivityWord([e.letter for e in m])
            part = part + specialize_bracket(word)
        product = product * part
    assert product == partition_function(g)


def _component_matchings(edges, cids):
    def recurse(remaining, used_faces, chosen):
        if not remaining:
            yield chosen
            return
        cid = remaining[0]
        for e in edges:
            if e.crossing_id == cid and e.face_id not in used_faces:
                yield from recurse(remaining[1:], used_faces | {e.face_id}, chosen + (e,))

    yield from recurse(list(cids), set(), ())


def test_kink_pair_word():
    # the closure of s1 s2 is an unknot with two kinks; its overlay is
    # two single-edge components whose letters multiply to A^6
    g = overlay_of("s1 s2")
    assert len(overlay_components(g)) == 2
    assert partition_function(g) == LaurentPoly1({6: 1})


def test_matching_cap_is_eager():
    g = overlay_of("s1^3")
    with pytest.raises(TooManyCrossings):
        perfect_matchings(g, max_crossings=2)
    with pytest.raises(TooManyCrossings):
        partition_function(g, max_crossings=2)


def test_isolated_vertex_has_no_matchings():
    g = OverlayGraph(
        crossings=(1, 2),
        faces=(10, 11),
        shaded=frozenset({10}),
        edges=(OverlayEdge(1, 10, "L"), OverlayEdge(2, 10, "D")),
        crossing_rotation={1: (0,), 2: (1,)},
        face_rotation={10: (0, 1), 11: ()},
        crossing_signs={1: 1, 2: 1},
    )
    assert list(perfect_matchings(g)) == []
    assert partition_function(g) == LaurentPoly1.zero()


def test_dot_export():
    g = overlay_of("s1^3")
    dot = overlay_to_dot(g)
    assert dot.count("[shape=box]") == 3
    assert dot.count("shape=ellipse") == 3
    assert dot.count("fillcolor") == 2
    assert dot.count(" -- ") == 7


@settings(max_examples=40, deadline=None)
@given(family_words())
def test_partition_function_matches_state_sum(word):
    d = build_diagram(word)
    g = overlay_activity_letters(build_overlay(d))
    assert len(g.faces) == len(g.crossings)
    assert partition_function(g) == bracket_state_sum(d)


@settings(max_examples=40, deadline=None)
@given(family_words())
def test_word_length_and_bars(word):
    d = build_diagram(word)
    g = overlay_activity_letters(build_overlay(d))
    negative = {c.id for c in d.crossings if c.checkerboard_sign < 0}
    for e in g.edges:
        assert e.letter is not None
        assert e.letter.endswith("~") == (e.crossing_id in negative)
    for m in perfect_matchings(g):
        assert len(matching_word(g, m)) == len(g.crossings)


SIGNED_OVERLAYS_SHA256 = "993a7b921f0a41a27e1fabfdbc25be00f7e2352ea26988f20adf8cc8ecc42d9f"


def pinned_family_words():
    """The corpus, then 60 seeded family words of up to 8 generators."""
    rng = random.Random(10)
    words = corpus_words()
    for _ in range(60):
        n = rng.randint(2, 9)
        sign = rng.choice([1, -1])
        words.append(
            BraidWord(n, tuple((i + 1, sign * rng.randint(1, 12)) for i in range(n - 1)))
        )
    return words


def test_signed_overlays_are_pinned():
    # the edge corners fix the face rotations, and through them the
    # Kasteleyn signs; a different corner can keep every determinant
    digest = hashlib.sha256()
    for word in pinned_family_words():
        g = prepare_overlay(word)
        digest.update(repr((g.crossing_rotation, g.face_rotation)).encode())
        digest.update(overlay_to_dot(g).encode())
    assert digest.hexdigest() == SIGNED_OVERLAYS_SHA256
    # and at the benchmark's sizes, with the letter matrix and the sign
    # that makes its determinant the bracket
    digest = hashlib.sha256()
    for word in pinned_large_words():
        g = prepare_overlay(word)
        m = adjacency_matrix(g)
        digest.update(repr((g.crossing_rotation, g.face_rotation)).encode())
        digest.update(overlay_to_dot(g).encode())
        sign = bracket_sign(word, determinant(m))
        digest.update(f"{m.to_text(symbolic=True)}\n{sign}\n".encode())
    assert digest.hexdigest() == LARGE_SIGNED_OVERLAYS_SHA256


LARGE_SIGNED_OVERLAYS_SHA256 = "4b700daa338acdfdea7fdd4b77a3b4da955926a5c667774137caedb970e8badf"


def pinned_large_words():
    """s1^10 ... s10^10 and s1^40 s2^40, then 24 seeded family words of
    40-100 crossings on 5-10 generators, all in both signs."""
    rng = random.Random(12)
    shapes = [(10,) * 10, (40, 40)]
    for _ in range(24):
        gens = rng.randint(5, 10)
        shapes.append(tuple(rng.randint(40 // gens, 100 // gens) for _ in range(gens)))
    return [
        BraidWord(len(shape) + 1, tuple((i + 1, sign * m) for i, m in enumerate(shape)))
        for shape in shapes
        for sign in (1, -1)
    ]
