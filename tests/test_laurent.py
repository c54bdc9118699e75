import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from braidpoly.errors import NotDivisible
from braidpoly.laurent import LaurentPoly1, LaurentPoly2

from json_schemas import LAURENT1_JSON_SCHEMA, LAURENT2_JSON_SCHEMA

coeffs = st.integers(min_value=-50, max_value=50)
exps = st.integers(min_value=-12, max_value=12)

poly1 = st.dictionaries(exps, coeffs, max_size=8).map(LaurentPoly1)
poly2 = st.dictionaries(st.tuples(exps, exps), coeffs, max_size=8).map(LaurentPoly2)


def test_text_rendering_descending():
    p = LaurentPoly1({-4: 1, -12: 1, -16: -1})
    assert p.to_text() == "A^-4 + A^-12 - A^-16"


def test_text_rendering_edge_cases():
    assert LaurentPoly1().to_text() == "0"
    assert LaurentPoly1({0: 1}).to_text() == "1"
    assert LaurentPoly1({0: -3}).to_text() == "-3"
    assert LaurentPoly1({1: 1}).to_text() == "A"
    assert LaurentPoly1({1: -2, 0: 1}).to_text() == "-2A + 1"
    assert LaurentPoly1({3: 1, -3: 1}).to_text() == "A^3 + A^-3"


def test_two_variable_grouped_rendering():
    # a*z^-1 + a^-1*z^-1 - 1
    p = LaurentPoly2({(1, -1): 1, (-1, -1): 1, (0, 0): -1})
    assert p.to_text() == "(a + a^-1) z^-1 - 1"


def test_two_variable_rendering_more():
    p = LaurentPoly2({(2, 1): 1, (1, 2): 1, (-1, 2): 1, (0, 1): -2})
    assert p.to_text() == "(a^2 - 2) z + (a + a^-1) z^2"
    assert LaurentPoly2({(0, 0): 1}).to_text() == "1"
    assert LaurentPoly2({(-1, 0): 1}).to_text() == "a^-1"
    assert LaurentPoly2({(0, 1): 1}).to_text() == "z"
    assert LaurentPoly2({(0, 2): -1}).to_text() == "-z^2"
    assert LaurentPoly2({(1, -1): -1, (-1, -1): -1}).to_text() == "-(a + a^-1) z^-1"


def test_zero_coefficients_dropped():
    assert LaurentPoly1({5: 0, 1: 2}) == LaurentPoly1({1: 2})
    assert not LaurentPoly1({3: 0})
    assert LaurentPoly2({(1, 1): 0}).is_zero


def test_mirror_swaps_exponents():
    p = LaurentPoly1({-4: 1, -12: 1, -16: -1})
    assert p.mirror() == LaurentPoly1({4: 1, 12: 1, 16: -1})
    assert p.mirror().mirror() == p


def test_exact_div_by_unit():
    p = LaurentPoly1({7: 2, 3: -1})
    u = LaurentPoly1({2: -1})
    assert p.exact_div(u) * u == p


def test_exact_div_failure():
    p = LaurentPoly1({1: 1, 0: 1})
    with pytest.raises(NotDivisible):
        p.exact_div(LaurentPoly1({1: 1, 0: -1}))
    with pytest.raises(NotDivisible):
        p.exact_div(LaurentPoly1())
    with pytest.raises(NotDivisible):
        LaurentPoly1({0: 3}).exact_div(LaurentPoly1({0: 2}))


def test_pow_matches_repeated_multiplication():
    p = LaurentPoly1({1: 1, -1: -1})
    assert p**0 == LaurentPoly1.one()
    assert p**3 == p * p * p
    with pytest.raises(ValueError):
        p ** (-1)
    u = LaurentPoly1.term(-1, 3)
    assert u**-1 == LaurentPoly1.term(-1, -3)
    assert u**-3 * u**3 == LaurentPoly1.one()
    with pytest.raises(ValueError):
        LaurentPoly1.term(2, 3) ** -1


@given(poly1, poly1, poly1)
def test_ring_axioms_one_var(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p + LaurentPoly1.zero() == p
    assert p * LaurentPoly1.one() == p
    assert p - p == LaurentPoly1.zero()


@given(poly2, poly2, poly2)
def test_ring_axioms_two_var(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * LaurentPoly2.one() == p


@given(poly1)
def test_json_valid_and_ascending(p):
    doc = p.to_json()
    jsonschema.validate(doc, LAURENT1_JSON_SCHEMA)
    exps_seen = [t["exp"] for t in doc["terms"]]
    assert exps_seen == sorted(exps_seen)
    assert LaurentPoly1({t["exp"]: t["coeff"] for t in doc["terms"]}) == p


@given(poly2)
def test_json_valid_two_var(p):
    doc = p.to_json()
    jsonschema.validate(doc, LAURENT2_JSON_SCHEMA)
    keys = [(t["a"], t["z"]) for t in doc["terms"]]
    assert keys == sorted(keys)


@given(poly1, poly1)
def test_exact_div_inverts_multiplication(p, q):
    if q.is_zero:
        return
    assert (p * q).exact_div(q) == p


@given(poly1)
def test_mirror_negates_every_exponent(p):
    mirrored = {-e: c for e, c in p.terms.items()}
    assert p.mirror().terms == mirrored
    assert p.mirror() == LaurentPoly1(mirrored)


# ------------------------------------------- packed core vs a dict reference
#
# The reference keeps terms in a plain dict, as the original implementation
# did, and divides by the same schoolbook loop.

def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return ref_clean(out)


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return ref_clean(out)


def ref_div(p, q):
    """Quotient dict, or the NotDivisible message the division raises."""
    if not q:
        return "division by zero"
    if not p:
        return {}
    shift_n, shift_d = min(p), min(q)
    rem = {e - shift_n: c for e, c in p.items()}
    div = {e - shift_d: c for e, c in q.items()}
    deg_d = max(div)
    quot = {}
    while rem:
        deg_r = max(rem)
        if deg_r < deg_d:
            return "nonzero remainder"
        c, r = divmod(rem[deg_r], div[deg_d])
        if r:
            return "leading coefficient does not divide"
        quot[deg_r - deg_d] = c
        for ed, cd in div.items():
            k = ed + deg_r - deg_d
            rem[k] = rem.get(k, 0) - c * cd
            if not rem[k]:
                del rem[k]
    return {e + shift_n - shift_d: c for e, c in quot.items()}


def outcome(fn):
    try:
        return fn().terms
    except NotDivisible as exc:
        return str(exc)


wide_coeffs = st.one_of(
    coeffs,
    st.sampled_from([-128, 127, 128, -129, 2**63, -(2**63), 2**64 + 1]),
    st.integers(min_value=-(2**140), max_value=2**140),
)
wide_terms = st.one_of(
    st.dictionaries(exps, wide_coeffs, max_size=10),
    st.tuples(exps, wide_coeffs).map(lambda t: {t[0]: t[1]}),
    st.tuples(exps, st.sampled_from([1, -1])).map(lambda t: {t[0]: t[1]}),
)


# every exponent in one residue class mod 4, as in bracket values
one_class_terms = st.tuples(
    st.integers(0, 3), st.dictionaries(st.integers(-4, 4), wide_coeffs, max_size=8)
).map(lambda t: {4 * e + t[0]: c for e, c in t[1].items()})


def check_ring_ops(p, q):
    # comparing values, not only terms, also checks that each result's
    # stride is the one its terms call for
    a, b = LaurentPoly1(p), LaurentPoly1(q)
    assert a.terms == ref_clean(p)
    assert (a * b).terms == ref_mul(p, q)
    assert a * b == LaurentPoly1(ref_mul(p, q))
    assert (a + b).terms == ref_add(p, q)
    assert a + b == LaurentPoly1(ref_add(p, q))
    assert (a - b).terms == ref_add(p, q, -1)
    assert a - b == LaurentPoly1(ref_add(p, q, -1))
    assert (-a).terms == {e: -c for e, c in ref_clean(p).items()}
    assert a.mirror().terms == {-e: c for e, c in ref_clean(p).items()}
    assert a.mirror() == LaurentPoly1({-e: c for e, c in p.items()})
    assert (a == b) == (ref_clean(p) == ref_clean(q))


def check_exact_div(p, q, r):
    a, b = LaurentPoly1(p), LaurentPoly1(q)
    assert outcome(lambda: a.exact_div(b)) == ref_div(ref_clean(p), ref_clean(q))
    product = ref_add(ref_mul(p, q), r)
    c = LaurentPoly1(product)
    assert outcome(lambda: c.exact_div(b)) == ref_div(product, ref_clean(q))
    if b:
        assert (a * b).exact_div(b) == a


@given(wide_terms, wide_terms)
def test_packed_ring_ops_match_dict_reference(p, q):
    check_ring_ops(p, q)


@given(one_class_terms, st.one_of(one_class_terms, wide_terms))
def test_packed_ring_ops_match_dict_reference_on_one_class_operands(p, q):
    # same class, different classes, and one class against mixed classes
    check_ring_ops(p, q)
    check_ring_ops(q, p)


@given(wide_terms, wide_terms, wide_terms)
def test_packed_exact_div_matches_dict_reference(p, q, r):
    check_exact_div(p, q, r)


@given(
    one_class_terms,
    st.one_of(one_class_terms, wide_terms),
    st.one_of(st.just({}), one_class_terms, wide_terms),
)
def test_packed_exact_div_matches_dict_reference_on_one_class_operands(p, q, r):
    check_exact_div(p, q, r)
    check_exact_div(q, p, r)


def test_one_class_value_reached_by_cancellation_equals_its_own_build():
    # (1 + A)(1 - A + A^2 - A^3) = 1 - A^4: stride-1 factors, stride-4 product
    product = LaurentPoly1({0: 1, 1: 1}) * LaurentPoly1({0: 1, 1: -1, 2: 1, 3: -1})
    expected = LaurentPoly1({0: 1, 4: -1})
    assert product == expected
    assert hash(product) == hash(expected)
    assert product.to_text() == "-A^4 + 1"
    # a sum whose other class cancels, and a quotient of stride-1 values
    total = LaurentPoly1({0: 1, 1: 1, 8: 3}) - LaurentPoly1({1: 1})
    assert total == LaurentPoly1({0: 1, 8: 3})
    assert hash(total) == hash(LaurentPoly1({0: 1, 8: 3}))
    quotient = LaurentPoly1({0: 1, 8: -1}).exact_div(LaurentPoly1({0: 1, 1: 1}))
    assert quotient.terms == ref_div({0: 1, 8: -1}, {0: 1, 1: 1})
    assert quotient * LaurentPoly1({0: 1, 1: 1}) == LaurentPoly1({0: 1, 8: -1})


@pytest.mark.parametrize(
    "dividend, divisor, message",
    [
        ({0: 1, 4: 1}, {0: 1, 4: 2}, "leading coefficient does not divide"),
        ({0: 1, 8: 1}, {0: 1, 4: 1}, "nonzero remainder"),
        ({0: 1, 1: 1}, {0: 1, 4: 1}, "nonzero remainder"),
        ({4: 1}, {0: 1, 8: 1}, "nonzero remainder"),
        ({0: 3, 8: 6}, {0: 2}, "leading coefficient does not divide"),
        ({3: 1, 7: 2, 11: 1}, {1: 1, 5: 3}, "leading coefficient does not divide"),
        ({3: 1, 7: 2, 11: 1}, {1: 1, 5: 1, 9: 1}, "nonzero remainder"),
    ],
)
def test_not_divisible_messages_on_stride_4_divisors(dividend, divisor, message):
    assert ref_div(dividend, divisor) == message
    with pytest.raises(NotDivisible, match=message):
        LaurentPoly1(dividend).exact_div(LaurentPoly1(divisor))


@given(wide_terms, wide_terms)
def test_packed_equality_and_hash_ignore_history(p, q):
    a, b = LaurentPoly1(p), LaurentPoly1(q)
    rebuilt = [
        LaurentPoly1({**p, 99: 0}),
        a + b - b,
        (a * b - b * a) + a,
        a.mirror().mirror(),
        -(-a),
        LaurentPoly1(a.terms),
    ]
    for value in rebuilt:
        assert value == a
        assert hash(value) == hash(a)
        assert value.terms == a.terms


def test_exact_div_rejects_integer_quotients_that_are_not_polynomial():
    # the Kronecker images divide (2^k / 2) but the polynomials do not
    with pytest.raises(NotDivisible, match="leading coefficient does not divide"):
        LaurentPoly1({1: 1}).exact_div(LaurentPoly1({0: 2}))
    with pytest.raises(NotDivisible, match="nonzero remainder"):
        LaurentPoly1({2: 1, 0: 1}).exact_div(LaurentPoly1({1: 1, 0: 1}))
    with pytest.raises(NotDivisible, match="nonzero remainder"):
        LaurentPoly1({0: 1}).exact_div(LaurentPoly1({1: 1, 0: 1}))


@pytest.mark.parametrize("c", [127, -128, 2**15 - 1, -(2**63), 2**100])
@pytest.mark.parametrize("n", [2, 12, 300])
def test_products_of_runs_at_the_edge_of_their_width(c, n):
    # every coefficient at the extreme of its slot: the products need the
    # widest Kronecker slots the width bounds allow
    p = {e: c for e in range(n)}
    q = {e: -c if e % 3 else c for e in range(-5, n)}
    a, b = LaurentPoly1(p), LaurentPoly1(q)
    assert (a * b).terms == ref_mul(p, q)
    assert (a * a).terms == ref_mul(p, p)
    assert (a * b).exact_div(b) == a
    assert (a + a).terms == ref_add(p, p)
    assert (a - b).terms == ref_add(p, q, -1)


# ------------------------------------------------- one-byte fast paths
#
# A one-byte run times -1 is a byte translation, and a one-byte monomial
# outside a one-byte stride-4 run of its class is one more byte at an end.
# Byte 0x80 (-128) has no one-byte negation, so it takes the general path.

def assert_built_as(value, terms):
    expected = LaurentPoly1(terms)
    assert value.terms == terms
    assert value == expected
    assert hash(value) == hash(expected)


@pytest.mark.parametrize(
    "p, k",
    [
        ({0: -128, 4: 3}, 0),  # holds -128
        ({4: 5, 8: -128}, 3),
        ({7: -128}, -1),
        ({0: 127, 4: -127, 8: 1}, 0),
        ({0: 1, 1: -2, 5: 9}, 2),  # stride 1
        ({7: -1}, 5),
        ({7: 1}, -7),
        ({7: 3}, -2),
        ({0: 300, 4: -1}, 1),  # two-byte slots
    ],
)
def test_negation_and_products_by_minus_a_power(p, k):
    a, u = LaurentPoly1(p), LaurentPoly1.term(-1, k)
    negated = {e: -c for e, c in p.items()}
    assert_built_as(-a, negated)
    assert_built_as(a * u, {e + k: c for e, c in negated.items()})
    assert_built_as(u * a, {e + k: c for e, c in negated.items()})
    assert_built_as(a.exact_div(u), {e - k: c for e, c in negated.items()})


RUN = {8: 3, 12: -1, 16: 5}  # one-byte slots, stride 4


@pytest.mark.parametrize(
    "p, q",
    [
        (RUN, {4: 2}),  # below the run, no gap
        (RUN, {-4: 2}),  # below, a gap of 2 slots
        (RUN, {20: -7}),  # above, no gap
        (RUN, {28: -7}),  # above, a gap of 2 slots
        (RUN, {-4: -128}),  # subtracting -128 needs two-byte slots
        (RUN, {20: -128}),
        (RUN, {12: 1}),  # inside the run
        (RUN, {8: -3}),  # cancels the lowest slot
        (RUN, {16: -5}),  # cancels the highest slot
        ({0: 1, 8: 1}, {4: 7}),  # fills a zero slot
        ({8: -128, 12: 1}, {0: 1}),  # a run holding -128
        ({3: 1}, {-5: -1}),  # two monomials
        (RUN, {13: 1}),  # another class: stride 1
        ({0: 1, 1: 1}, {3: 4}),  # a stride-1 run
        ({0: 1, 1: 1}, {-2: 4}),
        ({0: 1, 1: 1}, {1: -1}),  # back to stride 4
        ({0: 300, 4: 1}, {8: 1}),  # two-byte slots
        (RUN, {24: 300}),
    ],
)
def test_run_plus_or_minus_a_monomial(p, q):
    a, b = LaurentPoly1(p), LaurentPoly1(q)
    assert_built_as(a + b, ref_add(p, q))
    assert_built_as(b + a, ref_add(p, q))
    assert_built_as(a - b, ref_add(p, q, -1))
    assert_built_as(b - a, ref_add(q, p, -1))


# -------------------------------------- grouped two-variable terms vs a dict


def ref_mul2(p, q):
    out = {}
    for (a1, z1), c1 in p.items():
        for (a2, z2), c2 in q.items():
            k = (a1 + a2, z1 + z2)
            out[k] = out.get(k, 0) + c1 * c2
    return ref_clean(out)


# few exponents and small coefficients, so terms and whole z groups cancel
small_exps = st.integers(min_value=-2, max_value=2)
terms2 = st.one_of(
    st.dictionaries(st.tuples(small_exps, small_exps), st.integers(-3, 3), max_size=8),
    st.dictionaries(st.tuples(exps, exps), wide_coeffs, max_size=6),
)


def assert_groups_canonical(p):
    groups = list(p.z_groups())
    assert [ez for ez, _ in groups] == sorted({ez for _, ez in p.terms})
    assert all(group and all(group.values()) for _, group in groups)
    # each packed run has nonzero ends, and steps by 2 exactly when its
    # a exponents share one parity
    for ez, group in groups:
        lo, step, coeffs = p._groups[ez]
        assert coeffs[0] and coeffs[-1] and lo == min(group)
        assert step == (2 if len({ea % 2 for ea in group}) == 1 else 1)


# the sum mixes parities (step 1); taking the second away again is step 2
STEP_SWITCH = ({(0, 0): 1, (2, 0): 1}, {(1, 0): 1})


@given(terms2, terms2)
@example(*STEP_SWITCH)
def test_poly2_ring_ops_match_dict_reference(p, q):
    a, b = LaurentPoly2(p), LaurentPoly2(q)
    for value, terms in (
        (a, ref_clean(p)),
        (a * b, ref_mul2(p, q)),
        (a + b, ref_add(p, q)),
        (a - b, ref_add(p, q, -1)),
        (-a, {k: -c for k, c in ref_clean(p).items()}),
        (a - a, {}),
        (a * b - b * a, {}),
        (a.packed(), ref_clean(p)),
        (a.packed() * b, ref_mul2(p, q)),
        (a + b.packed(), ref_add(p, q)),
        (a.packed() - b.packed(), ref_add(p, q, -1)),
    ):
        assert value.terms == terms
        assert value == LaurentPoly2(terms)
        assert_groups_canonical(value)


@given(terms2, terms2)
@example(*STEP_SWITCH)
def test_poly2_equality_and_hash_ignore_history(p, q):
    a, b = LaurentPoly2(p), LaurentPoly2(q)
    rebuilt = [
        LaurentPoly2(dict(reversed(list(p.items())))),
        LaurentPoly2({**p, (99, 99): 0}),
        a + b - b,
        b + a - b,
        (a * b - b * a) + a,
        -(-a),
        LaurentPoly2(a.terms),
        a.packed(),
        (a + b - b).packed(),
    ]
    for value in rebuilt:
        assert value == a and a == value
        assert hash(value) == hash(a)
        assert value.terms == a.terms


def test_packed_runs_hold_int64_slots_where_every_coefficient_fits():
    edge = 2**63
    p = LaurentPoly2({(0, 0): edge - 1, (2, 0): -edge, (0, 1): edge, (0, 2): 3})
    packed = p.packed()
    kinds = {ez: type(coeffs).__name__ for ez, (_, _, coeffs) in packed._groups.items()}
    assert kinds == {0: "array", 1: "tuple", 2: "array"}
    assert packed == p and packed.terms == p.terms and packed.to_text() == p.to_text()
    assert packed != p + LaurentPoly2.one()


def test_poly2_terms_and_json_stay_flat():
    p = LaurentPoly2({(2, 1): 3, (-1, 0): -1, (0, 1): 1})
    assert p.terms == {(2, 1): 3, (-1, 0): -1, (0, 1): 1}
    assert p.to_json() == {
        "variables": ["a", "z"],
        "terms": [
            {"a": -1, "z": 0, "coeff": -1},
            {"a": 0, "z": 1, "coeff": 1},
            {"a": 2, "z": 1, "coeff": 3},
        ],
    }
    assert [(ez, dict(group)) for ez, group in p.z_groups()] == [(0, {-1: -1}), (1, {2: 3, 0: 1})]
    with pytest.raises(TypeError):
        next(p.z_groups())[1][5] = 1


def test_poly2_products_with_a_monomial_leave_their_operands_alone():
    p = LaurentPoly2({(1, 0): 2, (0, 1): -1, (3, 1): 1})
    before = p.terms
    z, a = LaurentPoly2.term(1, 0, 1), LaurentPoly2.term(-2, 1, 0)
    assert (z * p).terms == {(1, 1): 2, (0, 2): -1, (3, 2): 1}
    assert (p * a).terms == {(2, 0): -4, (1, 1): 2, (4, 1): -2}
    assert ((z * p) + p - z * p - p).is_zero
    assert p.terms == before


# ------------------------------------------- text vs a plain reference renderer
#
# Built from the flat terms, apart from the grouping the classes keep.


def ref_monomial(coeff, var, exp):
    """``coeff * var^exp`` for coeff > 0, with no sign."""
    if exp == 0:
        return str(coeff)
    return ("" if coeff == 1 else str(coeff)) + (var if exp == 1 else f"{var}^{exp}")


def ref_join(parts):
    """(sign, body) pairs as a sum: a leading sign only when negative."""
    text = ""
    for sign, body in parts:
        if not text:
            text = body if sign > 0 else "-" + body
        else:
            text += (" + " if sign > 0 else " - ") + body
    return text or "0"


def ref_text1(terms):
    return ref_join(
        [(c, ref_monomial(abs(c), "A", e)) for e, c in sorted(terms.items(), reverse=True)]
    )


def ref_text2(terms):
    by_z = {}
    for (ea, ez), c in terms.items():
        by_z.setdefault(ez, {})[ea] = c
    parts = []
    for ez in sorted(by_z):
        group = sorted(by_z[ez].items(), reverse=True)
        z = "" if ez == 0 else "z" if ez == 1 else f"z^{ez}"
        if len(group) == 1:
            ((ea, c),) = group
            a = "" if ea == 0 and abs(c) == 1 and z else ref_monomial(abs(c), "a", ea)
            parts.append((c, " ".join(filter(None, (a, z)))))
            continue
        # a group of negative terms only takes its minus sign outside
        sign = -1 if all(c < 0 for _, c in group) else 1
        inner = ref_join([(sign * c, ref_monomial(abs(c), "a", ea)) for ea, c in group])
        parts.append((sign, " ".join(filter(None, (f"({inner})", z)))))
    return ref_join(parts)


@given(st.one_of(poly1, st.dictionaries(small_exps, st.integers(-2, 2)).map(LaurentPoly1)))
@example(LaurentPoly1({1: -1, 0: -1, -1: 1}))
@example(LaurentPoly1({2: 1, 0: 1, -2: -1}))
def test_text_matches_reference_renderer_one_var(p):
    assert p.to_text() == ref_text1(p.terms)


@given(st.one_of(poly2, terms2.map(LaurentPoly2)))
@example(LaurentPoly2({(1, -1): -1, (-1, -1): -1, (0, 0): -1}))
@example(LaurentPoly2({(0, 0): -1, (-2, 0): -3, (0, 1): 1, (0, 2): -1, (1, 3): -1}))
@example(LaurentPoly2({(2, 1): -1, (0, 1): 2, (0, -1): 3}))
def test_text_matches_reference_renderer_two_var(p):
    assert p.to_text() == ref_text2(p.terms)
