import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidpoly.braid import BraidWord, parse_braid
from braidpoly.errors import BraidSyntaxError, StrandMismatch, ZeroExponent


def test_parse_single_syllable():
    w = parse_braid("s1^3")
    assert w.strands == 2
    assert w.syllables == ((1, 3),)


def test_parse_defaults_exponent_to_one():
    w = parse_braid("s1 s2 s1")
    assert w.strands == 3
    assert w.syllables == ((1, 1), (2, 1), (1, 1))


def test_parse_mixed_signs_and_star_separator():
    w = parse_braid("s1^2*s2^-1")
    assert w.strands == 3
    assert w.syllables == ((1, 2), (2, -1))


def test_parse_explicit_strands():
    w = parse_braid("s1^4", strands=4)
    assert w.strands == 4
    with pytest.raises(StrandMismatch):
        parse_braid("s3^2", strands=3)


def test_parse_rejects_garbage():
    for bad in ["", "  ", "t1^2", "s^2", "s1^", "s1^^2", "sigma1", "s1^2x", "s-1"]:
        with pytest.raises(BraidSyntaxError):
            parse_braid(bad)


def test_parse_rejects_zero_exponent():
    with pytest.raises(ZeroExponent):
        parse_braid("s1^0")
    with pytest.raises(ZeroExponent):
        BraidWord(2, ((1, 0),))


def test_constructor_validates_indices():
    with pytest.raises(StrandMismatch):
        BraidWord(2, ((2, 1),))
    with pytest.raises(StrandMismatch):
        BraidWord(0, ())


def test_writhe_and_crossing_count():
    assert parse_braid("s1^3").writhe == 3
    assert parse_braid("s1^-1").writhe == -1
    assert parse_braid("s1^2 s2^-2").writhe == 0
    assert parse_braid("s1^2 s2^-2").crossing_count == 4


def test_homogeneous_family_membership():
    assert parse_braid("s1^3").is_homogeneous_family()
    assert parse_braid("s1^2 s2^5").is_homogeneous_family()
    assert parse_braid("s1^-2 s2^-2 s3^-1").is_homogeneous_family()
    assert not parse_braid("s1 s2 s1").is_homogeneous_family()
    assert not parse_braid("s2 s1").is_homogeneous_family()
    assert not parse_braid("s1^2 s2^-2").is_homogeneous_family()
    assert not parse_braid("s2^3", strands=3).is_homogeneous_family()
    assert not parse_braid("s1^2", strands=3).is_homogeneous_family()


def test_crossings_expansion():
    w = parse_braid("s1^2 s2^-1")
    assert w.crossings() == [(1, 1), (1, 1), (2, -1)]


def test_unknot_word_allowed_programmatically():
    w = BraidWord(1)
    assert w.crossing_count == 0
    assert w.writhe == 0
    assert not w.is_homogeneous_family()


syllable = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=-6, max_value=6).filter(lambda m: m != 0),
)
words = st.lists(syllable, min_size=1, max_size=8).map(
    lambda s: BraidWord(max(i for i, _ in s) + 1, tuple(s))
)


@given(words)
def test_text_round_trip(w):
    assert parse_braid(w.to_text()) == w


@given(words, words)
def test_writhe_additive_under_concatenation(u, v):
    strands = max(u.strands, v.strands)
    joined = BraidWord(strands, u.syllables + v.syllables)
    assert joined.writhe == u.writhe + v.writhe


def test_words_are_immutable_and_compare_by_value():
    w = parse_braid("s1^2 s2^-1")
    same = BraidWord(3, [(1, 2), (2, -1)])
    assert w == same and hash(w) == hash(same)
    assert len({w, same, parse_braid("s1^2 s2")}) == 2
    assert w != parse_braid("s1^2 s2^-1", strands=4)
    assert w != ((1, 2), (2, -1))
    for name in ("strands", "syllables", "other"):
        with pytest.raises(AttributeError):
            setattr(w, name, 5)
        with pytest.raises(AttributeError):
            delattr(w, name)
    assert (w.strands, w.syllables) == (3, ((1, 2), (2, -1)))


def test_family_check_does_not_grow_with_strands():
    assert not BraidWord(10**12, ((1, 1),)).is_homogeneous_family()
    assert BraidWord(3, ((1, 2), (2, 5))).is_homogeneous_family()
