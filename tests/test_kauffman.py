import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpoly import kauffman
from braidpoly.activity import BASE_LETTERS, LETTERS, ActivityWord
from braidpoly.braid import parse_braid
from braidpoly.diagram import build_diagram
from braidpoly.dimer import prepare_overlay
from braidpoly.errors import BarredLetter, NegativeIndex, TooLarge
from braidpoly.kauffman import (
    BRACKET_IMAGE,
    KAUFFMAN_IMAGE,
    MAX_Q,
    F2q,
    K2Q_METHODS,
    K2q,
    P,
    _k2q_prop,
    _k2q_skein,
    g,
    specialize_bracket,
    specialize_kauffman,
)
from braidpoly.laurent import LaurentPoly1, LaurentPoly2
from braidpoly.oracle import bracket_state_sum
from braidpoly.overlay import partition_function
from braidpoly.tait import build_tait, thistlethwaite_sum

A = LaurentPoly1.term
az = LaurentPoly2.term


def test_bracket_specialization():
    assert specialize_bracket(ActivityWord("LLd")) == A(1, -7)
    assert specialize_bracket(ActivityWord(["l", "D", "D"])) == A(-1, 5)
    assert specialize_bracket(ActivityWord(["L~", "l~"])) == LaurentPoly1.one()
    assert specialize_bracket(ActivityWord([])) == LaurentPoly1.one()


def test_trefoil_tree_words_sum_to_bracket():
    words = [ActivityWord("LLd"), ActivityWord("LdD"), ActivityWord(["l", "D", "D"])]
    total = LaurentPoly1.zero()
    for w in words:
        total = total + specialize_bracket(w)
    assert total == LaurentPoly1({-7: 1, -3: -1, 5: -1})


def test_kauffman_specialization():
    assert specialize_kauffman(ActivityWord("Ld")) == az(1, 1, 1)
    assert specialize_kauffman(ActivityWord(["l", "D"])) == az(1, -1, 1)
    assert specialize_kauffman(ActivityWord(["l"])) == az(1, -1, 0)
    with pytest.raises(BarredLetter):
        specialize_kauffman(ActivityWord(["L~"]))


def counts_over(letters):
    return st.dictionaries(st.sampled_from(letters), st.integers(0, 300), max_size=8)


@settings(deadline=None, max_examples=60)
@given(counts_over(LETTERS))
def test_bracket_specialization_is_the_product_of_letter_images(counts):
    word = ActivityWord(counts)
    expected = LaurentPoly1.one()
    for letter in word:
        expected = expected * BRACKET_IMAGE[letter]
    assert specialize_bracket(word) == expected


@settings(deadline=None, max_examples=60)
@given(counts_over(BASE_LETTERS))
def test_kauffman_specialization_is_the_product_of_letter_images(counts):
    word = ActivityWord(counts)
    expected = LaurentPoly2.one()
    for letter in word:
        expected = expected * KAUFFMAN_IMAGE[letter]
    assert specialize_kauffman(word) == expected


def test_specialization_and_ladder_sums_make_no_ring_product(monkeypatch):
    calls = []
    spied = ((LaurentPoly1, "__mul__"), (LaurentPoly1, "exact_div"), (LaurentPoly2, "__mul__"))
    for cls, name in spied:

        def counted(*args, original=getattr(cls, name), label=f"{cls.__name__}.{name}"):
            calls.append(label)
            return original(*args)

        monkeypatch.setattr(cls, name, counted)
    P.cache_clear()
    specialize_bracket(ActivityWord({"L": 300, "l~": 7, "D~": 2, "d": 1}))
    specialize_kauffman(ActivityWord({"L": 300, "l": 7, "D": 2, "d": 1}))
    for q in range(41):
        P(q)
    assert calls == []


def test_word_sums_make_no_ring_sum(monkeypatch):
    word = parse_braid("s1^3 s2^3")
    tait, overlay = build_tait(build_diagram(word)), prepare_overlay(word)
    expected = bracket_state_sum(build_diagram(word))
    calls = []
    for cls in (LaurentPoly1, LaurentPoly2):
        for name in ("__add__", "__sub__"):

            def counted(*args, original=getattr(cls, name), label=f"{cls.__name__}.{name}"):
                calls.append(label)
                return original(*args)

            monkeypatch.setattr(cls, name, counted)
    P.cache_clear()
    assert thistlethwaite_sum(tait) == partition_function(overlay) == expected
    for q in range(41):
        P(q)
    assert calls == []


def test_inverse_pair_invariant():
    L = specialize_kauffman(ActivityWord(["L"]))
    l = specialize_kauffman(ActivityWord(["l"]))
    assert L * l == LaurentPoly2.one()
    assert specialize_kauffman(ActivityWord(["D"])) == specialize_kauffman(
        ActivityWord(["d"])
    )


def test_p_bases():
    assert P(0) == LaurentPoly2({(1, -1): 1, (-1, -1): 1, (0, 0): -1})
    assert P(0).to_text() == "(a + a^-1) z^-1 - 1"
    assert P(1) == az(1, -1, 0)


def test_p_small_values():
    assert P(2) == az(1, 1, 1) + az(1, -1, 1)
    assert P(3) == az(1, 2, 1) + az(1, 1, 2) + az(1, -1, 2)


def test_p_recursion():
    z = az(1, 0, 1)
    for q in range(2, 16):
        assert P(q) == z * az(1, q - 1, 0) + z * P(q - 1)


def test_g_values():
    assert g(0) == LaurentPoly2.one()
    assert g(1) == az(1, 0, 1)
    assert g(2) == az(1, 0, 2) - LaurentPoly2.one()
    assert g(3) == az(1, 0, 3) - az(2, 0, 1)


def test_g_identity():
    for n in range(2, 21):
        rhs = az(1, 0, n)
        for i in range(n - 1):
            rhs = rhs - az(1, 0, i) * g(n - 2 - i)
        assert g(n) == rhs


def test_g_is_univariate_in_z():
    for n in range(0, 21):
        assert all(ea == 0 for ea, _ in g(n).terms)


def test_k2q_bases_and_small_values():
    assert K2q(0) == P(0)
    assert K2q(1) == P(1)
    expected_22 = az(1, 1, 1) + az(1, -1, 1) - az(1, 1, -1) - az(1, -1, -1) + LaurentPoly2.one()
    assert K2q(2) == expected_22


def test_k23_golden():
    # expanded by hand from the crossing-switch recursion
    expected = (
        az(1, 2, 1)
        + az(1, 1, 2)
        + az(1, -1, 2)
        - az(1, 1, 0)
        - az(2, -1, 0)
        + az(1, 0, 1)
    )
    for method in K2Q_METHODS:
        assert K2q(3, method) == expected


def test_k2q_three_way_equality():
    for q in range(0, 16):
        skein = K2q(q, "skein")
        assert K2q(q, "prop") == skein
        assert K2q(q, "closed") == skein


def test_f2q_values():
    assert F2q(1) == az(1, -2, 0)
    assert F2q(3) == az(1, -3, 0) * K2q(3)


def test_f2q_z_support_parity():
    # odd q closes to a knot (no z^-1 terms); even q to a two-component
    # link, whose value keeps a z^-1 group
    for q in range(2, 13):
        min_z = min(ez for _, ez in F2q(q).terms)
        assert min_z == (-1 if q % 2 == 0 else 0), q


def test_negative_indices_rejected():
    with pytest.raises(NegativeIndex, match=r"^P needs q >= 0, got -1$"):
        P(-1)
    with pytest.raises(NegativeIndex, match=r"^g needs n >= 0, got -2$"):
        g(-2)
    with pytest.raises(NegativeIndex, match=r"^K2q needs q >= 0, got -1$"):
        K2q(-1)
    with pytest.raises(NegativeIndex, match=r"^F2q needs q >= 1, got 0$"):
        F2q(0)
    with pytest.raises(ValueError):
        K2q(3, "magic")


@pytest.mark.parametrize("method", K2Q_METHODS)
def test_q_above_the_cap_is_refused_before_any_work(method):
    _k2q_skein.cache_clear()
    _k2q_prop.cache_clear()
    with pytest.raises(TooLarge):
        K2q(MAX_Q + 1, method)
    with pytest.raises(TooLarge):
        F2q(10**9, method)
    assert _k2q_skein.cache_info().currsize == _k2q_prop.cache_info().currsize == 0


def test_q_at_the_cap_is_computed():
    assert K2q(MAX_Q, "skein") == K2q(MAX_Q, "closed")


@pytest.mark.parametrize("q", [0, 1, 5, 30, 57])
def test_k2q_minus_itself_is_zero(q):
    for method in K2Q_METHODS:
        value = K2q(q, method)
        diff = value - K2q(q, "skein")
        assert diff == LaurentPoly2.zero()
        assert hash(diff) == hash(LaurentPoly2.zero())
        assert diff.terms == {} and list(diff.z_groups()) == []
        assert diff.to_json()["terms"] == [] and diff.to_text() == "0"


def clear_kauffman_caches():
    for value in vars(kauffman).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


@pytest.mark.parametrize("method", K2Q_METHODS)
def test_a_kauffman_value_keeps_under_45_kb(method):
    # a K2q(57) value kept 62 KB as one {a: coeff} dict per z; packed runs keep about 17 KB
    clear_kauffman_caches()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = K2q(57, method)
        clear_kauffman_caches()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert value == K2q(57, "skein")
    assert kept < 45 * 1024, kept
