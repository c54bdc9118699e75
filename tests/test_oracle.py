import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidpoly.braid import BraidWord, parse_braid
from braidpoly.diagram import build_diagram
from braidpoly.dimer import bracket_via_det
from braidpoly.errors import TooLarge, TooManyCrossings
from braidpoly.laurent import LaurentPoly1
from braidpoly.oracle import bracket_state_sum, jones_state_sum, writhe_correction
from braidpoly.tait import build_tait, thistlethwaite_sum
from references import bracket_state_sum as full_walk_state_sum
from references import cofactor_det
from words import connected_words, family_words


def bracket(text: str) -> LaurentPoly1:
    return bracket_state_sum(build_diagram(parse_braid(text)))


def test_single_kink_calibration():
    assert bracket("s1") == LaurentPoly1({3: -1})
    assert bracket("s1^-1") == LaurentPoly1({-3: -1})


def test_trefoil_bracket():
    assert bracket("s1^3") == LaurentPoly1({-7: 1, -3: -1, 5: -1})


def test_unknot_bracket():
    assert bracket_state_sum(build_diagram(BraidWord(1, ()))) == LaurentPoly1.one()


def test_free_loops_multiply_by_the_loop_factor():
    d = build_diagram(parse_braid("s1^3 s2^-2"))
    loop = LaurentPoly1({2: -1, -2: -1})
    with_two_more = build_diagram(parse_braid("s1^3 s2^-2"))
    with_two_more.free_loops += 2
    assert bracket_state_sum(with_two_more) == bracket_state_sum(d) * loop * loop


def test_hopf_link_bracket():
    # two-state expansion of each crossing by hand: -A^4 - A^-4
    assert bracket("s1^2") == LaurentPoly1({4: -1, -4: -1})


def test_double_kink_is_multiplicative():
    # the closure of s1 s2 is an unknot carrying two positive kinks
    assert bracket("s1 s2") == LaurentPoly1({6: 1})


def test_writhe_correction_values():
    assert writhe_correction(0) == LaurentPoly1.one()
    assert writhe_correction(1) == LaurentPoly1({-3: -1})
    assert writhe_correction(-1) == LaurentPoly1({3: -1})
    assert writhe_correction(3) == LaurentPoly1({-9: -1})
    assert writhe_correction(2) * writhe_correction(-2) == LaurentPoly1.one()


def test_trefoil_jones():
    expected = LaurentPoly1({-4: 1, -12: 1, -16: -1})
    assert jones_state_sum(parse_braid("s1^3")) == expected
    assert expected.to_text() == "A^-4 + A^-12 - A^-16"


def test_single_crossing_jones_is_unknot():
    assert jones_state_sum(parse_braid("s1")) == LaurentPoly1.one()
    assert jones_state_sum(parse_braid("s1^-1")) == LaurentPoly1.one()


def test_crossing_cap():
    word = BraidWord(2, ((1, 25),))
    with pytest.raises(TooManyCrossings):
        jones_state_sum(word)
    with pytest.raises(TooManyCrossings):
        bracket_state_sum(build_diagram(word), max_crossings=24)
    with pytest.raises(TooManyCrossings, match="2\\^25 states"):
        bracket_state_sum(build_diagram(word), max_crossings=100)


def test_jones_state_sum_checks_the_cap_before_building(monkeypatch):
    import braidpoly.oracle as oracle

    def refuse(word):
        raise AssertionError("a diagram was built past the cap")

    monkeypatch.setattr(oracle, "build_diagram", refuse)
    word = BraidWord(2, ((1, 25),))
    with pytest.raises(TooManyCrossings, match="25 crossings exceeds the state-sum cap 24"):
        jones_state_sum(word)
    with pytest.raises(TooManyCrossings, match="cap 9"):
        jones_state_sum(parse_braid("s1^10"), max_crossings=9)
    # a raised cap never lifts the state sum past the default's 2^24 states
    with pytest.raises(TooManyCrossings, match="ceiling of 2\\^24"):
        jones_state_sum(word, max_crossings=100)


@settings(max_examples=30, deadline=None)
@given(connected_words())
def test_mirror_property(word):
    mirror = BraidWord(word.strands, tuple((i, -m) for i, m in word.syllables))
    assert bracket_state_sum(build_diagram(mirror)) == bracket_state_sum(
        build_diagram(word)
    ).mirror()


@settings(max_examples=30, deadline=None)
@given(connected_words())
def test_jones_parity(word):
    # every exponent of the Jones value of a braid closure is even or
    # every one is odd, depending only on the component count parity
    poly = jones_state_sum(word)
    assert len({e % 2 for e in poly.terms}) <= 1


def mixed_sign(word):
    return {m > 0 for _, m in word.syllables} == {True, False}


@settings(max_examples=40, deadline=None)
@given(connected_words().filter(mixed_sign))
def test_state_sum_matches_tree_sum_on_mixed_words(word):
    d = build_diagram(word)
    assert bracket_state_sum(d) == thistlethwaite_sum(build_tait(d))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(family_words(max_strands=5), connected_words()).filter(
        lambda w: w.crossing_count <= 10
    ),
    st.integers(min_value=0, max_value=2),
)
# kinks: theta[base] is a dart of the flipped crossing itself
@example(parse_braid("s1"), 0)
@example(parse_braid("s1^-1"), 0)
@example(BraidWord(1, ()), 0)
@example(parse_braid("s1^3 s2^-2"), 2)
@example(parse_braid("s1 s2^-1 s1 s2^-1"), 0)
def test_one_walk_per_state_matches_the_full_walk(word, free_loops):
    d = build_diagram(word)
    d.free_loops += free_loops
    assert bracket_state_sum(d) == full_walk_state_sum(d)


@pytest.mark.parametrize(
    "text",
    ["s1^5", "s1^-8", "s1^3 s2^4", "s1^-4 s2^-4 s3^-4", "s1^2 s2^3 s3^2 s4^2 s5^3", "s1^6 s2^6"],
)
def test_state_sum_matches_the_determinant_on_family_words(text):
    word = parse_braid(text)
    assert bracket_state_sum(build_diagram(word)) == bracket_via_det(word)


@pytest.mark.parametrize(
    "text",
    [
        "s1 s2^-1 s1 s2^-1",
        "s1^2 s2^-3 s1 s3^2 s2^-1",
        "s1^-2 s2 s3^-1 s2^2 s1^3 s3",
        # 15 crossings on four strands, both signs
        "s1^2 s2^-3 s1 s3^2 s2^-1 s3^-2 s1^3 s2",
    ],
)
def test_state_sum_matches_tree_sum_on_fixed_mixed_words(text):
    d = build_diagram(parse_braid(text))
    assert bracket_state_sum(d) == thistlethwaite_sum(build_tait(d))


def test_cofactor_identity_and_zero():
    one = LaurentPoly1.one()
    zero = LaurentPoly1.zero()
    ident = [[one if i == j else zero for j in range(4)] for i in range(4)]
    assert cofactor_det(ident) == one
    repeated = [[one, one], [one, one]]
    assert cofactor_det(repeated) == zero
    assert cofactor_det([]) == one


def test_cofactor_2x2():
    a = LaurentPoly1({1: 1})
    b = LaurentPoly1({0: 2})
    c = LaurentPoly1({-1: 1})
    d = LaurentPoly1({0: 3})
    m = [[a, b], [c, d]]
    assert cofactor_det(m) == a * d - b * c


def test_cofactor_cap():
    one = LaurentPoly1.one()
    big = [[one] * 11 for _ in range(11)]
    with pytest.raises(TooLarge):
        cofactor_det(big)
    with pytest.raises(TooLarge):
        cofactor_det([[one, one]])
