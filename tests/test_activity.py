import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidpoly.activity import LETTERS, ActivityWord, signed_letter

letters = st.sampled_from(LETTERS)


def test_alphabet():
    assert LETTERS == ("L", "l", "D", "d", "L~", "l~", "D~", "d~")


def test_bar_marks():
    assert signed_letter("D", 1) == "D"
    assert signed_letter("D", -1) == "D~"
    with pytest.raises(ValueError):
        signed_letter("x", 1)


def test_word_is_a_multiset():
    assert ActivityWord("LLd") == ActivityWord(["d", "L", "L"])
    assert ActivityWord("LLd") != ActivityWord("Ld")
    assert len(ActivityWord("LLd")) == 3
    assert ActivityWord("LLd").count("L") == 2
    assert ActivityWord({"L": 2, "d": 1}) == ActivityWord("LLd")


def test_word_rejects_unknown_letters():
    with pytest.raises(ValueError):
        ActivityWord(["x"])


def test_word_counts_are_nonnegative_integers():
    for counts in ({"L": -2}, {"L": 1.5}, {"d": "2"}, {"D": 1, "l": -1}):
        with pytest.raises(ValueError):
            ActivityWord(counts)
    # a zero count means the letter is absent
    assert ActivityWord({"L": 0, "d": 1}) == ActivityWord("d")
    assert ActivityWord({"L": 0}).key() == () and str(ActivityWord({"L": 0})) == "1"


def test_word_str():
    assert str(ActivityWord([])) == "1"
    assert str(ActivityWord(["L", "L", "d"])) == "L^2d"
    assert str(ActivityWord(["d~", "l", "D~"])) == "lD~d~"


def test_word_key_and_hash():
    a = ActivityWord(["L", "d~", "L"])
    b = ActivityWord(["d~", "L", "L"])
    assert a.key() == (("L", 2), ("d~", 1))
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


@given(st.lists(letters, max_size=10))
def test_iteration_round_trip(ls):
    word = ActivityWord(ls)
    assert ActivityWord(list(word)) == word
    assert len(list(word)) == len(ls)
