import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpoly import dimer
from braidpoly.activity import ActivityWord
from braidpoly.braid import BraidWord, parse_braid
from braidpoly.diagram import build_diagram
from braidpoly.dimer import (
    ModifiedAdjacencyMatrix,
    OpCounter,
    _solve_gf2,
    adjacency_matrix,
    bracket_sign,
    bracket_via_det,
    determinant,
    embedding_faces,
    forward_determinant,
    jones_via_det,
    kasteleyn_sign,
    prepare_overlay,
)
from braidpoly.errors import DeterminantCheckFailed, NoKasteleynSolution, UnsupportedWord
from braidpoly.kauffman import BRACKET_IMAGE
from braidpoly.laurent import LaurentPoly1
from braidpoly.oracle import bracket_state_sum, jones_state_sum
from braidpoly.overlay import partition_function

from overlay_parts import overlay_components
from references import cofactor_det, mirror, power, symbolic_determinant
from words import corpus_words, family_words


def overlay_of(text: str):
    return prepare_overlay(parse_braid(text))


def negative_count(g, walk) -> int:
    return sum(1 for idx in walk if g.edges[idx].kasteleyn_sign < 0)


def test_embedding_faces_cover_each_edge_twice():
    g = overlay_of("s1^3")
    walks = embedding_faces(g)
    assert all(len(w) % 2 == 0 for w in walks)
    total = sum(len(w) for w in walks)
    assert total == 2 * len(g.edges)


def test_single_crossing_overlay_is_trivially_signed():
    g = overlay_of("s1")
    assert [e.kasteleyn_sign for e in g.edges] == [1]
    walks = embedding_faces(g)
    assert [len(w) for w in walks] == [2]
    det = determinant(adjacency_matrix(g))
    assert det.terms == {3: -1}
    assert bracket_sign(parse_braid("s1"), det) == 1


def test_two_crossing_overlay_signing_and_text():
    g = overlay_of("s1^2")
    walks = embedding_faces(g)
    assert sorted(len(w) for w in walks) == [4, 4]
    assert sum(1 for e in g.edges if e.kasteleyn_sign < 0) == 1
    m = adjacency_matrix(g)
    assert m.to_text(symbolic=True) == "[ -L  l ]\n[  D  d ]"
    det = determinant(m)
    s = bracket_sign(parse_braid("s1^2"), det)
    assert (LaurentPoly1.term(s, 0) * det).terms == {4: -1, -4: -1}


def test_parity_rule_holds_on_family_sample():
    for text in ("s1^3", "s1^-4", "s1^2 s2^3", "s1 s2 s3", "s1^-2 s2^-2 s3^-3"):
        g = overlay_of(text)
        comp_of_edge = {}
        sizes = {}
        for ci, (cids, fids, eids) in enumerate(overlay_components(g)):
            sizes[ci] = len(cids) + len(fids)
            for idx in eids:
                comp_of_edge[idx] = ci
        for walk in embedding_faces(g):
            assert sizes[comp_of_edge[walk[0]]] % 2 == 0
            assert negative_count(g, walk) % 2 == (len(walk) // 2 + 1) % 2


@settings(deadline=None, max_examples=60)
@given(family_words())
def test_parity_rule_holds_on_random_family_words(word):
    g = prepare_overlay(word)
    # the solve takes every face, so every component must be balanced
    for cids, fids, _ in overlay_components(g):
        assert len(cids) == len(fids)
    for walk in embedding_faces(g):
        assert negative_count(g, walk) % 2 == (len(walk) // 2 + 1) % 2


def euler_characteristics(g) -> list[int]:
    """V - E + F of each overlay component, F its boundary walks."""
    parts = overlay_components(g)
    part_of_edge = {idx: k for k, (_, _, eids) in enumerate(parts) for idx in eids}
    walks = [0] * len(parts)
    for walk in embedding_faces(g):
        walks[part_of_edge[walk[0]]] += 1
    return [
        len(cids) + len(fids) - len(eids) + w
        for (cids, fids, eids), w in zip(parts, walks)
    ]


def test_face_walks_satisfy_euler_on_corpus():
    # each component is a plane graph: a wrong successor changes the
    # walk count even when every edge is still walked twice
    for word in corpus_words():
        assert set(euler_characteristics(prepare_overlay(word))) == {2}, word


@settings(deadline=None, max_examples=60)
@given(family_words(max_strands=6, max_exponent=6))
def test_face_walks_satisfy_euler_on_random_family_words(word):
    assert set(euler_characteristics(prepare_overlay(word))) == {2}


def test_trefoil_matrix_shape_and_pattern():
    g = overlay_of("s1^3")
    m = adjacency_matrix(g)
    assert m.rows == g.crossings
    assert m.cols == g.faces
    incidence = {(e.crossing_id, e.face_id) for e in g.edges}
    for i, cid in enumerate(m.rows):
        for j, fid in enumerate(m.cols):
            assert (m.entries[i][j] is not None) == ((cid, fid) in incidence)
    letters = {
        (i, j): m.entries[i][j][1]
        for i in range(3)
        for j in range(3)
        if m.entries[i][j] is not None
    }
    assert letters == {
        (0, 0): "L",
        (1, 0): "D",
        (1, 1): "L",
        (2, 1): "D",
        (0, 2): "l",
        (1, 2): "d",
        (2, 2): "d",
    }


def test_trefoil_sign_fixed_symbolic_determinant():
    g = overlay_of("s1^3")
    m = adjacency_matrix(g)
    s = bracket_sign(parse_braid("s1^3"), determinant(m))
    det = {key: s * coeff for key, coeff in symbolic_determinant(m).items()}
    assert det == {
        ActivityWord("LLd").key(): 1,
        ActivityWord("LDd").key(): 1,
        ActivityWord(["l", "D", "D"]).key(): 1,
    }


def test_numeric_entries_match_symbolic_entries():
    m = adjacency_matrix(overlay_of("s1^2 s2^2"))
    numeric = m.to_json()["entries"]
    for i in range(len(m.rows)):
        for j in range(len(m.cols)):
            cell = m.entries[i][j]
            if cell is None:
                assert numeric[i][j] == LaurentPoly1.zero().to_json()
            else:
                sign, letter = cell
                image = BRACKET_IMAGE[letter]
                assert numeric[i][j] == (image if sign > 0 else -image).to_json()


def test_matrix_json_round_structure():
    m = adjacency_matrix(overlay_of("s1^2"))
    payload = m.to_json(symbolic=True)
    assert payload["symbolic"] is True
    assert payload["entries"] == [["-L", "l"], ["D", "d"]]
    numeric = adjacency_matrix(overlay_of("s1^2")).to_json()
    assert numeric["symbolic"] is False
    assert numeric["rows"] == [1, 2]


def signed_image(cell) -> LaurentPoly1:
    if cell is None:
        return LaurentPoly1.zero()
    image = BRACKET_IMAGE[cell[1]]
    return image if cell[0] > 0 else -image


def test_determinant_evaluates_letters_on_corpus_matrices():
    # the whole matrix of each of the 168 corpus words, at most 12 rows;
    # the dense signed images are built here
    sizes = []
    for word in corpus_words():
        m = adjacency_matrix(prepare_overlay(word))
        dense = [[signed_image(cell) for cell in row] for row in m.entries]
        assert determinant(m) == cofactor_det(dense, max_size=12), word
        sizes.append(len(m.rows))
    assert (len(sizes), max(sizes)) == (168, 12)


def sparse_rows(rows):
    """Dense rows as the column-to-entry maps ``forward_determinant`` takes: no zeros."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def test_bareiss_row_swap_sign():
    z = LaurentPoly1.zero()
    one = LaurentPoly1.one()
    assert forward_determinant(sparse_rows([[z, one], [one, z]])).terms == {0: -1}
    assert forward_determinant(sparse_rows([[z, one], [z, one]])).is_zero
    assert forward_determinant([]).terms == {0: 1}


def test_forward_pass_stalls_on_a_row_it_cannot_take():
    a = LaurentPoly1.term(1, 2)
    b = LaurentPoly1.term(-1, 0)
    c = LaurentPoly1({1: 1, -1: 1})
    z = LaurentPoly1.zero()
    # upper triangular, but the first row has three entries
    with pytest.raises(DeterminantCheckFailed, match="row 0: 3 entries"):
        forward_determinant(sparse_rows([[a, b, c], [z, b, a], [z, z, c]]))
    # two unit entries, each in a column of three
    rows = [[a, b, z], [b, c, a], [c, a, b]]
    with pytest.raises(DeterminantCheckFailed, match="row 0: no unit pivot"):
        forward_determinant(sparse_rows(rows))
    assert not cofactor_det(rows).is_zero


def unit_poly(rng: random.Random) -> LaurentPoly1:
    return LaurentPoly1.term(rng.choice([-1, 1]), rng.randint(-3, 3))


def general_poly(rng: random.Random) -> LaurentPoly1:
    terms = {rng.randint(-4, 4): rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)}
    return LaurentPoly1(terms) or LaurentPoly1.term(2, 0)


def sparse_unit_poly(rng: random.Random) -> LaurentPoly1:
    """Zero half the time, else a unit two times in three."""
    draw = rng.random()
    if draw < 0.5:
        return LaurentPoly1.zero()
    return unit_poly(rng) if draw < 5 / 6 else general_poly(rng)


def chained_ladders(rng: random.Random, sizes: list[int]) -> list[list[LaurentPoly1]]:
    """A matrix of a family word's shape, with general dense entries.

    Block i has ``sizes[i]`` rows.  Its bigon columns hold units in two
    consecutive rows, and its dense column D_i a general entry in every
    row.  Its first and last rows also meet D_(i-1), and every row meets
    D_(i-2).  The rows stay in order and the columns are shuffled.
    """
    n = sum(sizes)
    rows = [[LaurentPoly1.zero()] * n for _ in range(n)]
    cols = rng.sample(range(n), n)
    dense = []
    top = 0
    for m in sizes:
        block = range(top, top + m)
        for k in block[:-1]:
            bigon = cols.pop()
            rows[k][bigon] = unit_poly(rng)
            rows[k + 1][bigon] = unit_poly(rng)
        dense.append(cols.pop())
        met = [(dense[-1], block)]
        if len(dense) > 1:
            met.append((dense[-2], {top, top + m - 1}))
        if len(dense) > 2:
            met.append((dense[-3], block))
        for d, ks in met:
            for k in ks:
                rows[k][d] = general_poly(rng)
        top += m
    return rows


@settings(deadline=None, max_examples=80)
@given(
    st.integers(0, 2**31 - 1),
    st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda s: sum(s) <= 10),
)
def test_forward_pass_finishes_chained_ladders(seed, sizes):
    # the shape the docstring proves the pass finishes, with dense
    # entries that need not be units or torus brackets
    rows = chained_ladders(random.Random(seed), sizes)
    assert forward_determinant(sparse_rows(rows)) == cofactor_det(rows)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**31 - 1), st.integers(1, 7))
def test_forward_pass_stalls_or_is_exact_on_random_matrices(seed, n):
    # sparse, mostly unit entries: a stall raises, and any value is exact
    rng = random.Random(seed)
    rows = [[sparse_unit_poly(rng) for _ in range(n)] for _ in range(n)]
    try:
        value = forward_determinant(sparse_rows(rows))
    except DeterminantCheckFailed:
        return
    assert value == cofactor_det(rows)


def torus_bracket(q: int) -> LaurentPoly1:
    """<T(2,q)> as the sum of its ladder words l D^(q-1) and d L^i D^(q-1-i)."""
    letter = {
        "L": LaurentPoly1({-3: -1}),
        "D": LaurentPoly1({1: 1}),
        "l": LaurentPoly1({3: -1}),
        "d": LaurentPoly1({-1: 1}),
    }
    if q < 0:
        return mirror(torus_bracket(-q))
    total = letter["l"] * power(letter["D"], q - 1)
    for i in range(1, q):
        total = total + letter["d"] * power(letter["L"], i) * power(letter["D"], q - 1 - i)
    return total


# s1 s2^1050 has a matrix whose matching path is longer than the recursion limit
@pytest.mark.parametrize("text", ["s1^160 s2^160", "s1^-60 s2^-60 s3^-60", "s1 s2^1050"])
def test_bracket_via_det_equals_connected_sum_product(text):
    # the closure is a connected sum of (2, m_i) torus links, and the
    # bracket is multiplicative under connected sum
    word = parse_braid(text)
    expected = LaurentPoly1.one()
    for _, m in word.syllables:
        expected = expected * torus_bracket(m)
    assert bracket_via_det(word) == expected


@settings(deadline=None, max_examples=30)
@given(family_words(max_strands=7, max_exponent=60))
def test_bracket_via_det_equals_connected_sum_product_at_scale(word):
    # 1-6 generators, each exponent drawn on its own from 1..60, one sign
    # per word as the family requires; the product is computed apart
    expected = LaurentPoly1.one()
    for _, m in word.syllables:
        expected = expected * torus_bracket(m)
    assert bracket_via_det(word) == expected


def test_determinant_without_matching_is_zero():
    empty = ModifiedAdjacencyMatrix((1,), (0,), ({},))
    assert determinant(empty).is_zero


@settings(deadline=None, max_examples=50)
@given(family_words())
def test_sign_fixed_determinant_equals_partition_function(word):
    g = prepare_overlay(word)
    det = determinant(adjacency_matrix(g))
    s = bracket_sign(word, det)
    assert LaurentPoly1.term(s, 0) * det == partition_function(g)


@settings(deadline=None, max_examples=40)
@given(family_words())
def test_bracket_via_det_matches_state_sum(word):
    assert bracket_via_det(word) == bracket_state_sum(build_diagram(word))


def test_trefoil_jones_via_det_golden():
    assert jones_via_det(parse_braid("s1^3")).to_text() == "A^-4 + A^-12 - A^-16"


def test_mirror_trefoil_jones_via_det():
    value = jones_via_det(parse_braid("s1^-3"))
    assert value == mirror(jones_via_det(parse_braid("s1^3")))
    assert value.to_text() == "-A^16 + A^12 + A^4"


def test_two_column_word_matches_state_sum_jones():
    word = parse_braid("s1^2 s2^2")
    assert jones_via_det(word) == jones_state_sum(word)


def test_non_family_word_is_refused():
    with pytest.raises(UnsupportedWord):
        jones_via_det(parse_braid("s1 s2 s1", strands=3))


def test_op_counter_growth_is_subquartic():
    counts = {}
    for half in (5, 10, 20):
        ops = OpCounter()
        determinant(adjacency_matrix(prepare_overlay(parse_braid(f"s1^{half} s2^{half}"))), ops)
        assert ops.total == ops.muls + ops.adds + ops.divs
        counts[2 * half] = ops.total
    import math

    slope = math.log(counts[40] / counts[20]) / math.log(2)
    assert 0 < slope < 4


def test_op_counter_starts_at_zero_and_totals_its_counts():
    # perfbench builds one per determinant, then reads and adds to each count
    ops = OpCounter()
    assert (ops.muls, ops.adds, ops.divs, ops.total) == (0, 0, 0, 0)
    ops.muls, ops.adds, ops.divs = 3, 5, 7
    assert ops.total == 15


def op_counts(word) -> tuple[int, int, int]:
    """(muls, adds, divs) of the determinant of ``word``'s matrix."""
    ops = OpCounter()
    determinant(adjacency_matrix(prepare_overlay(word)), ops)
    return ops.muls, ops.adds, ops.divs


def exact_counts(word) -> tuple[int, int, int]:
    """3c - 2n + 1 muls and c - n + 1 adds for c crossings on n strands, no divs."""
    c, n = word.crossing_count, word.strands
    return 3 * c - 2 * n + 1, c - n + 1, 0


def test_unit_first_pivots_keep_divisions_few():
    # the forward pass divides by nothing but units, one step per bigon
    word = parse_braid(" ".join(f"s{i}^10" for i in range(1, 11)))
    assert op_counts(word) == exact_counts(word) == (279, 90, 0)
    word = parse_braid("s1^160 s2^160")
    assert op_counts(word) == exact_counts(word) == (955, 318, 0)


def test_wide_word_needs_no_big_division():
    # 100 generators at the crossing cap: each dense column is peeled at
    # no cost, so no big entry is ever divided or carried on
    word = parse_braid(" ".join(f"s{i}^10" for i in range(1, 101)))
    m = adjacency_matrix(prepare_overlay(word))
    ops = OpCounter()
    det = determinant(m, ops)
    assert (det if bracket_sign(word, det) > 0 else -det) == power(torus_bracket(10), 100)
    assert (ops.muls, ops.adds, ops.divs) == exact_counts(word) == (2799, 900, 0)


def uniform_words() -> list:
    """Every exponent 1, 2 or 3 alike, on 2 to 39 strands, both signs."""
    return [
        BraidWord(n, tuple((i, e) for i in range(1, n)))
        for n in range(2, 40)
        for m in (1, 2, 3)
        for e in (m, -m)
    ]


def is_unit_multiple(p: LaurentPoly1, q: LaurentPoly1) -> bool:
    low_p, low_q = min(p.terms), min(q.terms)
    unit = p.terms[low_p] // q.terms[low_q]
    return unit in (1, -1) and p == LaurentPoly1.term(unit, low_p - low_q) * q


def test_family_matrices_are_chained_ladders():
    # the shape forward_determinant's proof rests on: rows in crossing
    # order, and each syllable bringing its bigons and its dense face;
    # the ladder's first q rows have a unit times <T(2, q)> as determinant
    tall = [parse_braid("s1^10 s2^7 s3^9"), parse_braid("s1^-8 s2^-10 s3^-2")]
    for word in corpus_words() + uniform_words() + tall:
        rows = adjacency_matrix(prepare_overlay(word)).sparse
        seen, dense, top = set(), [], 0
        for _, e in word.syllables:
            block = list(range(top, top + abs(e)))
            new = {j for k in block for j in rows[k]} - seen
            holders = {j: [k for k, row in enumerate(rows) if j in row] for j in new}
            d = max(new, key=lambda j: len(holders[j]))
            assert holders[d][: len(block)] == block, word
            bigons = sorted(holders[j] for j in new if j != d)
            assert bigons == [[k, k + 1] for k in block[:-1]], word
            bigon_at = {holders[j][0]: j for j in new if j != d}
            sign = 1 if e > 0 else -1
            for q in range(1, len(block) + 1):
                cols = [bigon_at[k] for k in block[: q - 1]] + [d]
                minor = [[signed_image(rows[k].get(j)) for j in cols] for k in block[:q]]
                assert is_unit_multiple(cofactor_det(minor), torus_bracket(sign * q)), word
            for k in block:
                # D_(i-2) on any row, D_(i-1) on the first and last only
                allowed = set(dense[-2:-1])
                if k in (block[0], block[-1]):
                    allowed.update(dense[-1:])
                assert set(rows[k]) - new <= allowed, (word, k)
            dense.append(d)
            seen |= new
            top += len(block)


def test_family_words_take_the_forward_pass_at_the_exact_count():
    # the forward pass never stalls on a family word's matrix, and takes
    # one step of two products and a sum per bigon
    for word in corpus_words():
        assert op_counts(word) == exact_counts(word), word
    words = [
        parse_braid(text)
        for text in (
            " ".join(f"s{i}^10" for i in range(1, 31)),
            " ".join(f"s{i}^-6" for i in range(1, 21)),
            " ".join(f"s{i}" for i in range(1, 41)),
            "s1^3 s2^30 s3 s4^12 s5^2 s6^25",
            "s1^-40 s2^-40 s3^-40",
        )
    ]
    for word in words + uniform_words():
        expected = LaurentPoly1.one()
        for _, m in word.syllables:
            expected = expected * torus_bracket(m)
        assert bracket_via_det(word) == expected, word
        assert op_counts(word) == exact_counts(word), word


def test_bracket_via_det_checks_the_determinant_at_one(monkeypatch):
    # a determinant twice the right size is caught by its value at A = 1,
    # which must be +-2^(mu - 1)
    def doubled(m):
        return LaurentPoly1.term(2, 0) * determinant(m)

    monkeypatch.setattr(dimer, "determinant", doubled)
    for text in ("s1", "s1^3", "s1^2 s2^3", "s1^-4 s2^-2 s3^-5", "s1 s2 s3"):
        with pytest.raises(DeterminantCheckFailed, match="at A = 1"):
            bracket_via_det(parse_braid(text))


def test_bracket_via_det_takes_one_whole_matrix_per_word(monkeypatch):
    # the last three overlays have two components; the matrix stays whole
    seen = []

    def spy(m):
        seen.append(m)
        return determinant(m)

    monkeypatch.setattr(dimer, "determinant", spy)
    for text in ("s1^3", "s1^2 s2^3", "s1^-3 s2^-2 s3^-4", "s1 s2 s3"):
        word = parse_braid(text)
        seen.clear()
        assert bracket_via_det(word) == bracket_state_sum(build_diagram(word))
        whole = adjacency_matrix(prepare_overlay(word))
        assert [(m.rows, m.cols, m.sparse) for m in seen] == [
            (whole.rows, whole.cols, whole.sparse)
        ], text


def test_kasteleyn_is_idempotent_enough():
    g = overlay_of("s1^3")
    before = [e.kasteleyn_sign for e in g.edges]
    kasteleyn_sign(g)
    assert [e.kasteleyn_sign for e in g.edges] == before


def solve_gf2_by_variable_scan(equations, variables):
    """The earlier solver: pivot on the first listed variable left in a row."""
    pivots = {}
    for mask, rhs in equations:
        for var in variables:
            if not mask & (1 << var):
                continue
            if var in pivots:
                pmask, prhs = pivots[var]
                mask ^= pmask
                rhs ^= prhs
            else:
                pivots[var] = (mask, rhs)
                break
        else:
            if rhs:
                return None
    solution = 0
    for var in sorted(pivots, reverse=True):
        mask, rhs = pivots[var]
        value = rhs
        for other in variables:
            if other != var and mask & (1 << other) and solution & (1 << other):
                value ^= 1
        if value:
            solution |= 1 << var
    return solution


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, 2**n - 1), st.integers(0, 1)), max_size=14
        ).map(lambda eqs: (n, eqs))
    )
)
def test_solve_gf2_matches_variable_scan(system):
    n, equations = system
    expected = solve_gf2_by_variable_scan(equations, tuple(range(n)))
    if expected is None:
        with pytest.raises(NoKasteleynSolution):
            _solve_gf2(equations)
    else:
        assert _solve_gf2(equations) == expected
