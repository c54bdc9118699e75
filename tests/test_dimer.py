import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpoly import dimer
from braidpoly.activity import ActivityWord
from braidpoly.braid import parse_braid
from braidpoly.diagram import build_diagram
from braidpoly.dimer import (
    ModifiedAdjacencyMatrix,
    OpCounter,
    _solve_gf2,
    adjacency_matrix,
    bareiss_determinant,
    bracket_sign,
    bracket_via_det,
    determinant,
    embedding_faces,
    jones_via_det,
    kasteleyn_sign,
    prepare_overlay,
    symbolic_determinant,
)
from braidpoly.errors import DeterminantCheckFailed, NoKasteleynSolution, UnsupportedWord
from braidpoly.kauffman import BRACKET_IMAGE
from braidpoly.laurent import LaurentPoly1
from braidpoly.oracle import bracket_state_sum, cofactor_det, jones_state_sum
from braidpoly.overlay import partition_function

from overlay_parts import overlay_components
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


def test_determinant_evaluates_letters_on_corpus_matrices():
    # the whole matrix of each of the 168 corpus words, at most 12 rows;
    # the dense signed images are built here
    sizes = []
    for word in corpus_words():
        m = adjacency_matrix(prepare_overlay(word))
        dense = [
            [
                LaurentPoly1.zero()
                if cell is None
                else (BRACKET_IMAGE[cell[1]] if cell[0] > 0 else -BRACKET_IMAGE[cell[1]])
                for cell in row
            ]
            for row in m.entries
        ]
        assert determinant(m) == cofactor_det(dense, max_size=12), word
        sizes.append(len(m.rows))
    assert (len(sizes), max(sizes)) == (168, 12)


def sparse_rows(rows):
    """Dense rows as the column-to-entry maps ``bareiss_determinant`` takes: no zeros."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def test_bareiss_upper_triangular_is_diagonal_product():
    a = LaurentPoly1.term(1, 2)
    b = LaurentPoly1.term(-1, 0)
    c = LaurentPoly1({1: 1, -1: 1})
    z = LaurentPoly1.zero()
    rows = [[a, b, c], [z, b, a], [z, z, c]]
    assert bareiss_determinant(sparse_rows(rows)) == a * b * c


def test_bareiss_row_swap_sign():
    z = LaurentPoly1.zero()
    one = LaurentPoly1.one()
    assert bareiss_determinant(sparse_rows([[z, one], [one, z]])).terms == {0: -1}
    assert bareiss_determinant(sparse_rows([[z, one], [z, one]])).is_zero
    assert bareiss_determinant([]).terms == {0: 1}


def reaching_the_rest(monkeypatch):
    """Calls of ``_bareiss_rest``, each recorded as its row count."""
    calls = []
    rest = dimer._bareiss_rest

    def spy(live, *args):
        calls.append(len(live))
        return rest(live, *args)

    monkeypatch.setattr(dimer, "_bareiss_rest", spy)
    return calls


def test_bareiss_rest_with_fewer_columns_than_rows_is_zero(monkeypatch):
    # column 1 is zero from the start, so it never counts as emptied; no
    # entry is a unit or alone in its row or column, so all 3 rows reach
    # the rest, which sees only 2 columns
    rows = [
        [LaurentPoly1(terms) for terms in row]
        for row in (
            ({0: 2, 1: 1}, {}, {0: 3}),
            ({-1: 1, 2: 1}, {}, {1: 2, 0: -1}),
            ({0: 5}, {}, {2: 1, -2: 1}),
        )
    ]
    calls = reaching_the_rest(monkeypatch)
    expected = cofactor_det(rows)
    assert expected.is_zero
    assert bareiss_determinant(sparse_rows(rows)) == expected
    assert calls == [3]


def test_bareiss_rest_swaps_rows_on_a_zero_pivot(monkeypatch):
    # dense, no unit anywhere and nothing at the top left: the first
    # Bareiss step has to take a lower row
    rows = [
        [LaurentPoly1(terms) for terms in row]
        for row in (
            ({}, {0: 2, 1: 1}, {0: 3}, {-1: 1, 1: 1}),
            ({0: 2}, {2: 1, 0: 1}, {1: -2}, {0: 3, 1: 1}),
            ({1: 1, 0: -2}, {0: 4}, {-1: 2, 0: 1}, {0: -3}),
            ({0: 3, 2: 1}, {1: 2}, {0: 1, 1: 1}, {0: 2, -2: 1}),
        )
    ]
    calls = reaching_the_rest(monkeypatch)
    ops = OpCounter()
    expected = cofactor_det(rows)
    assert not expected.is_zero
    assert bareiss_determinant(sparse_rows(rows), ops) == expected
    assert calls == [4]
    assert ops.divs > 0


def sparse_poly(rng: random.Random) -> LaurentPoly1:
    if rng.random() < 0.45:
        return LaurentPoly1.zero()
    terms = {}
    for _ in range(rng.randint(1, 2)):
        terms[rng.randint(-3, 3)] = rng.choice([-2, -1, 1, 2])
    return LaurentPoly1(terms)


def test_bareiss_matches_cofactor_on_sparse_8x8():
    rng = random.Random(20260823)
    rows = [[sparse_poly(rng) for _ in range(8)] for _ in range(8)]
    assert bareiss_determinant(sparse_rows(rows)) == cofactor_det(rows)


def unit_poly(rng: random.Random) -> LaurentPoly1:
    return LaurentPoly1.term(rng.choice([-1, 1]), rng.randint(-3, 3))


def general_poly(rng: random.Random) -> LaurentPoly1:
    terms = {rng.randint(-4, 4): rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)}
    return LaurentPoly1(terms) or LaurentPoly1.term(2, 0)


@settings(deadline=None, max_examples=80)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 7),
    st.sampled_from(
        ["random", "singular", "zero diagonal", "chain", "singleton", "unit singular"]
    ),
)
def test_bareiss_matches_cofactor_on_random_matrices(seed, n, kind):
    rng = random.Random(seed)
    rows = [[sparse_poly(rng) for _ in range(n)] for _ in range(n)]
    z = LaurentPoly1.zero()
    if kind == "singleton":
        # general entries alone in their column (even picks) or in their
        # row (odd picks), peeled by Laplace expansion with no ring operation
        perm = rng.sample(range(n), n)
        lines = rng.sample(range(n), rng.randint(1, n))
        for i in lines[::2]:
            for k in range(n):
                rows[k][perm[i]] = z
            rows[i][perm[i]] = general_poly(rng)
        for i in lines[1::2]:
            rows[i] = [z] * n
            rows[i][perm[i]] = general_poly(rng)
    elif kind == "unit singular":
        # a cycle of units whose last row is a unit times the first (or,
        # transposed, the same of columns): the pivot taken on one of the
        # pair empties the other before any Bareiss step
        n += 2
        rows = [[z] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = unit_poly(rng)
            rows[i][(i + 1) % n] = unit_poly(rng)
        u = unit_poly(rng)
        rows[-1] = [u * x for x in rows[0]]
        if rng.random() < 0.5:
            rows = [list(col) for col in zip(*rows)]
        row_perm, col_perm = rng.sample(range(n), n), rng.sample(range(n), n)
        rows = [[rows[i][j] for j in col_perm] for i in row_perm]
    elif kind == "chain":
        # the shape of a crossing-by-face matrix: a unit bidiagonal, one or
        # two dense columns of general entries, rows and columns shuffled
        n += 3
        rows = [[z] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = unit_poly(rng)
            if i + 1 < n:
                rows[i][i + 1] = unit_poly(rng)
        for j in rng.sample(range(n), rng.randint(1, 2)):
            for i in range(n):
                rows[i][j] = general_poly(rng)
        row_perm, col_perm = rng.sample(range(n), n), rng.sample(range(n), n)
        rows = [[rows[i][j] for j in col_perm] for i in row_perm]
    elif kind == "singular":
        # the last row is a combination of the first and row n - 2
        f, g = sparse_poly(rng), sparse_poly(rng)
        rows[-1] = [f * x + g * y for x, y in zip(rows[0], rows[n - 2])]
    elif kind == "zero diagonal":
        # no pivot on the diagonal, so every pivot comes from a row swap
        for i in range(n):
            rows[i][i] = LaurentPoly1.zero()
    expected = cofactor_det(rows)
    assert bareiss_determinant(sparse_rows(rows)) == expected
    if kind in ("singular", "unit singular"):
        assert expected.is_zero


def torus_bracket(q: int) -> LaurentPoly1:
    """<T(2,q)> as the sum of its ladder words l D^(q-1) and d L^i D^(q-1-i)."""
    letter = {
        "L": LaurentPoly1({-3: -1}),
        "D": LaurentPoly1({1: 1}),
        "l": LaurentPoly1({3: -1}),
        "d": LaurentPoly1({-1: 1}),
    }
    if q < 0:
        return torus_bracket(-q).mirror()
    total = letter["l"] * letter["D"] ** (q - 1)
    for i in range(1, q):
        total = total + letter["d"] * letter["L"] ** i * letter["D"] ** (q - 1 - i)
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
    assert value == jones_via_det(parse_braid("s1^3")).mirror()
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


def test_unit_first_pivots_keep_divisions_few():
    # only a non-unit pivot makes a division; an elimination in Markowitz
    # order alone, with no preference for units, once took 148 here, and
    # peeling and unit steps take none
    word = parse_braid(" ".join(f"s{i}^10" for i in range(1, 11)))
    ops = OpCounter()
    determinant(adjacency_matrix(prepare_overlay(word)), ops)
    assert ops.divs == 0


def test_wide_word_needs_no_big_division():
    # 100 generators at the crossing cap.  Carrying each dense-column pivot
    # through the later rows once took 293 big exact divisions here; peeling
    # and unit steps leave no rest, so none
    word = parse_braid(" ".join(f"s{i}^10" for i in range(1, 101)))
    m = adjacency_matrix(prepare_overlay(word))
    ops = OpCounter()
    det = determinant(m, ops)
    assert (det if bracket_sign(word, det) > 0 else -det) == torus_bracket(10) ** 100
    assert ops.divs == 0


def test_family_words_never_reach_the_bareiss_rest(monkeypatch):
    # peeling and unit steps take every pivot of a family word's matrix,
    # so the det path divides by nothing but units
    def refuse(*args):
        raise AssertionError("a family matrix reached the Bareiss rest")

    monkeypatch.setattr(dimer, "_bareiss_rest", refuse)
    for word in corpus_words():
        bracket_via_det(word)
    for text in (
        " ".join(f"s{i}^10" for i in range(1, 31)),
        " ".join(f"s{i}^-6" for i in range(1, 21)),
        " ".join(f"s{i}" for i in range(1, 41)),
        "s1^3 s2^30 s3 s4^12 s5^2 s6^25",
        "s1^-40 s2^-40 s3^-40",
    ):
        word = parse_braid(text)
        expected = LaurentPoly1.one()
        for _, m in word.syllables:
            expected = expected * torus_bracket(m)
        assert bracket_via_det(word) == expected


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
