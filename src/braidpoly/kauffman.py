"""Letter specializations and the (2,q) torus-closure polynomial family.

Two specialization maps turn activity words into polynomials.  The
one-variable map recovers bracket values:

    L, l~   ->  -A^-3        D, d~  ->  A
    l, L~   ->  -A^3         d, D~  ->  A^-1

The two-variable map feeds the Kauffman-style ladder sums and is only
defined on unbarred letters:

    L -> a      l -> a^-1      D -> z      d -> z

The map orientation (l, not L, going to a^-1) is forced: the one-letter
word of the single-crossing closure is l, and its ladder value is a^-1.

Every image is one signed monomial, so a word specializes to one too:
its exponent is the sum over letters of exponent times multiplicity,
and its sign flips once for each negative image taken an odd number of
times.  No ring product is made.  ``bracket_sum``, for the tree and
matching sums, tallies those monomials by exponent and builds one
polynomial, so it makes no ring sum.  The ``closed`` method tallies its
q - 1 products P(i) g(q - 2 - i) the same way, term by term into one
{(a, z): coeff} dict, so it makes no product without a monomial factor.

The ladder polynomials themselves: P(q) is the sum of the two-variable
images of the q matching words of the q-rung ladder, l D^(q-1) and
d L^i D^(q-1-i) for 1 <= i < q; it writes their monomials a^-1 z^(q-1)
and a^i z^(q-i) directly.  g(n) is the Chebyshev-like z-recursion.  K2q
gives the unnormalized (2,q) torus value by three independent routes
that must agree, each in at most about 3q ring operations: ``prop``
makes 3q - 2, keeping a running sum of the lower values instead of
peeling each one off P(q) again, and ``closed`` about 2q, for g and
its one last sum.  F2q applies the a^-writhe normalization.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

from .errors import BarredLetter, NegativeIndex, TooLarge
from .laurent import LaurentPoly1, LaurentPoly2

if TYPE_CHECKING:
    from .activity import ActivityWord

__all__ = [
    "BRACKET_IMAGE",
    "KAUFFMAN_IMAGE",
    "specialize_bracket",
    "specialize_kauffman",
    "bracket_sum",
    "P",
    "g",
    "K2q",
    "F2q",
    "K2Q_METHODS",
    "MAX_Q",
]

# letter -> (coefficient, A exponent) of its one-variable image
_BRACKET_TERM = {
    "L": (-1, -3), "l~": (-1, -3), "l": (-1, 3), "L~": (-1, 3),
    "D": (1, 1), "d~": (1, 1), "d": (1, -1), "D~": (1, -1),
}

# letter -> (a exponent, z exponent) of its two-variable image, coefficient 1;
# a barred letter has none
_KAUFFMAN_EXP = {"L": (1, 0), "l": (-1, 0), "D": (0, 1), "d": (0, 1)}

BRACKET_IMAGE: dict[str, LaurentPoly1] = {
    letter: LaurentPoly1.term(c, e) for letter, (c, e) in _BRACKET_TERM.items()
}

KAUFFMAN_IMAGE: dict[str, LaurentPoly2] = {
    letter: LaurentPoly2.term(1, ea, ez) for letter, (ea, ez) in _KAUFFMAN_EXP.items()
}

K2Q_METHODS = ("skein", "prop", "closed")

# from cleared caches on a 2-core Xeon VM under load, medians of 15: prop and closed,
# the slower methods, take 0.081 and 0.071 s at q = 120 (0.047-0.100 s), 0.130 and
# 0.125 s at q = 150; skein takes 0.039 and 0.078 s
MAX_Q = 120


def specialize_bracket(word: ActivityWord) -> LaurentPoly1:
    sign, exp = 1, 0
    for letter, mult in word.key():
        c, e = _BRACKET_TERM[letter]
        exp += e * mult
        if c < 0 and mult % 2:
            sign = -sign
    return LaurentPoly1.term(sign, exp)


def specialize_kauffman(word: ActivityWord) -> LaurentPoly2:
    ea = ez = 0
    for letter, mult in word.key():
        image = _KAUFFMAN_EXP.get(letter)
        if image is None:
            raise BarredLetter(f"{letter} has no two-variable image")
        da, dz = image
        ea += da * mult
        ez += dz * mult
    return LaurentPoly2.term(1, ea, ez)


def bracket_sum(words: Iterable[ActivityWord]) -> LaurentPoly1:
    """Sum of the bracket specializations of ``words``, built once at the end."""
    tally: dict[int, int] = {}
    for word in words:
        for e, c in specialize_bracket(word).terms.items():
            tally[e] = tally.get(e, 0) + c
    return LaurentPoly1(tally)


@lru_cache(maxsize=None)
def P(q: int) -> LaurentPoly2:
    """Ladder matching sum; P(0) and P(1) are definitional constants."""
    if q < 0:
        raise NegativeIndex(f"P needs q >= 0, got {q}")
    if q == 0:
        return LaurentPoly2({(1, -1): 1, (-1, -1): 1, (0, 0): -1})
    # the word l D^(q-1) gives a^-1 z^(q-1), and d L^i D^(q-1-i) gives a^i z^(q-i)
    return LaurentPoly2({(-1, q - 1): 1, **{(i, q - i): 1 for i in range(1, q)}})


@lru_cache(maxsize=None)
def g(n: int) -> LaurentPoly2:
    if n < 0:
        raise NegativeIndex(f"g needs n >= 0, got {n}")
    if n == 0:
        return LaurentPoly2.one()
    if n == 1:
        return LaurentPoly2.term(1, 0, 1)
    z = LaurentPoly2.term(1, 0, 1)
    return z * g(n - 1) - g(n - 2)


def K2q(q: int, method: str = "skein") -> LaurentPoly2:
    """Unnormalized two-variable value of the (2,q) torus closure.

    The three methods are genuinely different recursions and serve as
    mutual cross-checks: ``skein`` walks the crossing-switch relation,
    ``prop`` takes a running sum of lower torus values off P(q), and
    ``closed`` avoids self-reference entirely via the g basis.  The value
    is packed, since callers keep it.
    """
    if q < 0:
        raise NegativeIndex(f"K2q needs q >= 0, got {q}")
    if method not in K2Q_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if q > MAX_Q:
        raise TooLarge(f"q = {q} exceeds the cap {MAX_Q}")
    value = {"skein": _k2q_skein, "prop": _k2q_prop, "closed": _k2q_closed}[method](q)
    return value.packed()


@lru_cache(maxsize=None)
def _k2q_skein(q: int) -> LaurentPoly2:
    if q == 0:
        return P(0)
    if q == 1:
        return P(1)
    z = LaurentPoly2.term(1, 0, 1)
    rung = LaurentPoly2.term(1, q - 1, 1)
    return rung + z * _k2q_skein(q - 1) - _k2q_skein(q - 2)


@lru_cache(maxsize=None)
def _k2q_prop(q: int) -> LaurentPoly2:
    """K(q) = P(q) - S(q - 2), where S(m) = z^m K(0) + ... + z K(m - 1) + K(m).

    S(m) = z S(m - 1) + K(m) keeps the sum one level at a time, with
    S(-1) = 0, so K(q) takes 3q - 2 ring operations.
    """
    if q == 0:
        return P(0)
    z = LaurentPoly2.term(1, 0, 1)
    older, last = LaurentPoly2.zero(), P(0)  # S(m - 2) and S(m - 1)
    for m in range(1, q):
        older, last = last, z * last + (P(m) - older)
    return P(q) - older


def _k2q_closed(q: int) -> LaurentPoly2:
    if q <= 1:
        return P(q)
    tally: dict[tuple[int, int], int] = {}
    for i in range(q - 1):
        right = g(q - 2 - i).terms.items()
        for (a1, z1), x in P(i).terms.items():
            for (a2, z2), y in right:
                key = a1 + a2, z1 + z2
                tally[key] = tally.get(key, 0) + x * y
    return P(q) - LaurentPoly2(tally)


def F2q(q: int, method: str = "skein") -> LaurentPoly2:
    """Writhe-normalized value a^-q K2q(q) for q >= 1."""
    if q < 1:
        raise NegativeIndex(f"F2q needs q >= 1, got {q}")
    return LaurentPoly2.term(1, -q, 0) * K2q(q, method)
