"""Acceptance gate: the eight criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines on a passing run; on failures they appear in the captured output.
"""

import math
import time
from collections import Counter

import pytest

from braidpoly.activity import ActivityWord
from braidpoly.braid import BraidWord, parse_braid
from braidpoly.cli import run
from braidpoly.diagram import build_diagram
from braidpoly.dimer import (
    OpCounter,
    adjacency_matrix,
    bracket_sign,
    determinant,
    embedding_faces,
    jones_via_det,
    prepare_overlay,
)
from braidpoly.errors import TooManyCrossings
from braidpoly.kauffman import F2q, K2q, P, g, specialize_kauffman
from braidpoly.laurent import LaurentPoly1, LaurentPoly2
from braidpoly.oracle import bracket_state_sum, jones_state_sum
from braidpoly.overlay import matching_word, partition_function, perfect_matchings
from braidpoly.tait import build_tait, spanning_trees, tree_activity_word

from references import mirror, symbolic_determinant
from words import corpus_words

TREFOIL = "A^-4 + A^-12 - A^-16"


def _verdict(num: int, label: str, fn) -> None:
    try:
        fn()
    except BaseException:
        print(f"criterion {num}: FAIL  {label}")
        raise
    print(f"criterion {num}: PASS  {label}")


def _matching_multiset(word: BraidWord) -> Counter:
    g_ = prepare_overlay(word)
    return Counter(matching_word(g_, m).key() for m in perfect_matchings(g_))


def _tree_multiset(word: BraidWord) -> Counter:
    g_ = build_tait(build_diagram(word))
    return Counter(tree_activity_word(g_, t).key() for t in spanning_trees(g_))


def _ladder_multiset(q: int) -> Counter:
    words = [ActivityWord("l" + "D" * (q - 1))]
    words += [ActivityWord("d" + "L" * i + "D" * (q - 1 - i)) for i in range(1, q)]
    return Counter(w.key() for w in words)


def test_criterion_1_trefoil_all_methods(capsys):
    def check():
        start = time.perf_counter()
        for method in ("det", "matchings", "trees", "statesum"):
            code = run(["jones", "--braid", "s1^3", "--method", method])
            out = capsys.readouterr().out
            assert code == 0
            assert out == TREFOIL + "\n"
        assert time.perf_counter() - start < 1.0

    _verdict(1, "trefoil golden value by all four methods under 1 s", check)


def test_criterion_2_trefoil_matrix_and_words():
    def check():
        word = parse_braid("s1^3")
        overlay = prepare_overlay(word)
        m = adjacency_matrix(overlay)
        s = bracket_sign(word, determinant(m))
        det = Counter(
            {key: s * coeff for key, coeff in symbolic_determinant(m).items()}
        )
        expected = Counter(
            {
                ActivityWord("LLd").key(): 1,
                ActivityWord("LDd").key(): 1,
                ActivityWord(["l", "D", "D"]).key(): 1,
            }
        )
        assert det == expected
        assert _tree_multiset(word) == expected
        assert _matching_multiset(word) == expected

    _verdict(2, "trefoil symbolic determinant, tree words, matching words", check)


def test_criterion_3_ladder_word_multisets():
    def check():
        start = time.perf_counter()
        for q in range(2, 11):
            word = BraidWord(2, ((1, q),))
            expected = _ladder_multiset(q)
            assert _matching_multiset(word) == expected
            assert _tree_multiset(word) == expected
        assert time.perf_counter() - start < 5.0

    _verdict(3, "matching and tree words for s1^q, q up to 10", check)


def test_criterion_4_dimer_identity_on_corpus():
    def check():
        words = corpus_words()
        assert len(words) >= 100
        start = time.perf_counter()
        for word in words:
            overlay = prepare_overlay(word)
            z = partition_function(overlay)
            assert z == bracket_state_sum(build_diagram(word))
            det = determinant(adjacency_matrix(overlay))
            s = bracket_sign(word, det)
            assert LaurentPoly1.term(s, 0) * det == z
        assert time.perf_counter() - start < 120.0

    _verdict(4, "partition function equals bracket and signed determinant on corpus", check)


def test_criterion_5_kasteleyn_parity_exhaustive():
    def check():
        for word in corpus_words():
            overlay = prepare_overlay(word)
            for walk in embedding_faces(overlay):
                negatives = sum(
                    1 for idx in walk if overlay.edges[idx].kasteleyn_sign < 0
                )
                assert negatives % 2 == (len(walk) // 2 + 1) % 2

    _verdict(5, "every face of every signed corpus overlay satisfies the parity rule", check)


def test_criterion_6_kauffman_suite():
    def check():
        z = LaurentPoly2.term(1, 0, 1)
        for n in range(2, 21):
            rhs = LaurentPoly2.term(1, 0, n)
            for i in range(n - 1):
                rhs = rhs - LaurentPoly2.term(1, 0, i) * g(n - 2 - i)
            assert g(n) == rhs
        for q in range(0, 16):
            skein = K2q(q, "skein")
            assert skein == K2q(q, "prop")
            assert skein == K2q(q, "closed")
        assert K2q(0) == LaurentPoly2({(1, -1): 1, (-1, -1): 1, (0, 0): -1})
        assert K2q(1) == LaurentPoly2.term(1, -1, 0)
        for q in range(2, 16):
            assert P(q) == z * LaurentPoly2.term(1, q - 1, 0) + z * P(q - 1)
        for q in range(2, 11):
            overlay = prepare_overlay(BraidWord(2, ((1, q),)))
            total = LaurentPoly2.zero()
            for m in perfect_matchings(overlay):
                total = total + specialize_kauffman(matching_word(overlay, m))
            assert total == P(q)

    _verdict(6, "two-variable suite: g identity, K(2,q) methods, bases, P recursion, bridge", check)


def test_criterion_7_polynomial_time_at_desk_scale():
    def check():
        word = parse_braid("s1^20 s2^20 s3^20")
        start = time.perf_counter()
        value = jones_via_det(word)
        assert time.perf_counter() - start < 10.0
        assert not value.is_zero
        with pytest.raises(TooManyCrossings):
            jones_state_sum(word)
        counts = {}
        for c in (10, 20, 40, 80):
            ops = OpCounter()
            word = BraidWord(3, ((1, c // 2), (2, c // 2)))
            determinant(adjacency_matrix(prepare_overlay(word)), ops)
            counts[c] = ops.total
        xs = [math.log(c) for c in counts]
        ys = [math.log(v) for v in counts.values()]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
            (x - mean_x) ** 2 for x in xs
        )
        assert slope < 4.0

    _verdict(7, "60-crossing determinant under 10 s, cap refusal, subquartic op growth", check)


def test_criterion_8_mirror_property_on_corpus():
    def check():
        for word in corpus_words():
            if any(m < 0 for _, m in word.syllables):
                continue
            mirrored = BraidWord(
                word.strands, tuple((i, -m) for i, m in word.syllables)
            )
            assert jones_via_det(mirrored) == mirror(jones_via_det(word))

    _verdict(8, "all-negative words give the A to 1/A image of their positive twins", check)
