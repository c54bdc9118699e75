"""Exact sparse Laurent polynomials with integer coefficients.

Two flavours are needed: one variable (``A``) for bracket and Jones
values, and two variables (``a``, ``z``) for Kauffman-style values.
All arithmetic is exact at any size.

``LaurentPoly1`` carries the determinant path, so it is built for long
products: a lowest exponent plus the dense run of coefficients above
it, packed into one ``bytes`` as two's-complement slots of the
narrowest width that holds every coefficient.  The run steps by A^4
when every exponent lies in one class mod 4, as in every bracket value
and every minor of its matrix, and by A otherwise; so such runs are
about full instead of a quarter full.  Products and sums go through
Kronecker substitution, one big-int operation each: the run is read as
an integer in base 2^(8k) for a slot width k wide enough for the
result, and the result's digits are the coefficients.  The elimination's
commonest steps, nearly all on runs of one-byte slots, skip the
conversion.  A product with A^k, or a quotient by it, only moves the
run.  A negation, or a product with -A^k, of a one-byte run is one
``bytes.translate`` through a negation table.  A one-byte monomial added
to or subtracted from a one-byte stride-4 run, of its class and outside
it, is one more byte at an end.  Byte 0x80 (-128) has no one-byte
negation, so a run that holds it, or a subtraction of it, takes the
Kronecker path.  The determinant path divides by nothing but units, so
a unit is the only divisor; any other raises ``NotDivisible``.
``LaurentPoly2`` groups its terms by power of z: a dict from each z
exponent to a canonical run ``(lo, step, coeffs)``, the coefficients at
a = lo, lo + step, ... with both ends nonzero; step is 2 when those a
exponents share a parity, as in every (2,q) torus value.  A sum maps
``operator.add`` or ``sub`` over aligned runs, a product with a monomial
moves ``lo``, and any other product or sum of many fills one dense
accumulator per z.  ``coeffs`` is a tuple of ints, or, in a value
``packed`` to be kept, an int64 array where every coefficient fits:
``K2q(57)`` keeps 17 KB so, 38 KB as tuples, 62 KB as {a: coeff} dicts.

Text and JSON are output formats only; nothing in the package reads a
polynomial back.  Rendering conventions, fixed once and relied on by
the CLI tests:

* one variable: terms in descending exponent, ``A^-4 + A^-12 - A^-16``;
* two variables: grouped by ascending power of ``z``, descending ``a``
  inside each group, ``(a + a^-1) z^-1 - 1``;
* JSON: term lists in ascending exponent order (lexicographic for two
  variables).
"""

from __future__ import annotations

import sys
from array import array
from operator import add, neg, sub
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import NotDivisible

__all__ = ["LaurentPoly1", "LaurentPoly2"]


def _clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c != 0}


# ------------------------------------------------------------ packed runs
#
# A run of n coefficients is n little-endian two's-complement slots of w
# bytes each.  Its Kronecker image at slot width k >= w bytes is the
# integer sum(c_i * 2^(8k i)); one big-int product or sum of two images
# is one polynomial product or sum, provided every coefficient of the
# result fits a k-byte slot.

_ARRAY_CODES = {array(code).itemsize: code for code in "qlihb"}
_SIGN_FILL = bytes(0xFF if b & 0x80 else 0 for b in range(256))
_NEGATED = bytes(-b & 0xFF for b in range(256))  # 0x80 maps to itself: callers exclude it
_LITTLE = sys.byteorder == "little"


def _slot_bits(k: int, byte: int, n: int) -> int:
    """The top bit of byte ``byte`` in each of n k-byte slots."""
    slot = bytes(byte) + b"\x80" + bytes(k - byte - 1)
    return int.from_bytes(slot * n, "little")


def _to_int(data: bytes, w: int, k: int, gap: int = 1) -> int:
    """Kronecker image at k-byte slots of a run packed in w-byte slots.

    With ``gap`` 4, a stride-4 run is read at stride 1: three zero slots
    go between each two of its slots.
    """
    n = len(data) // w
    if k != w or gap != 1:
        n = (n - 1) * gap + 1
        wide = bytearray(n * k)
        for j in range(w):
            wide[j :: k * gap] = data[j::w]
        data = wide
    u = int.from_bytes(data, "little")
    # each slot holds c mod 2^(8w); take 2^(8w) back off the negative ones
    return u - ((u & _slot_bits(k, w - 1, n)) << 1)


def _from_int(value: int, k: int, n: int) -> tuple[int, bytes]:
    """(width, run) of the n balanced base-2^(8k) digits of ``value``.

    Callers choose k and n so that ``value`` fits n slots.
    """
    top = _slot_bits(k, k - 1, n)
    return _narrow(((value + top) ^ top).to_bytes(n * k, "little"), k)


def _narrow(data: bytes, k: int) -> tuple[int, bytes]:
    """Repack k-byte slots at the narrowest width that holds each one."""
    w = k
    # w - 1 bytes suffice when byte w - 1 of every slot only extends a sign
    while w > 1 and data[w - 1 :: k] == data[w - 2 :: k].translate(_SIGN_FILL):
        w -= 1
    if w == k:
        return k, data
    out = bytearray(len(data) // k * w)
    for j in range(w):
        out[j::w] = data[j::k]
    return w, bytes(out)


def _pack(coeffs: list[int]) -> tuple[int, bytes]:
    """(width, run) of a coefficient list with nonzero ends."""
    bits = max(max(coeffs), ~min(coeffs)).bit_length() + 1
    w = (bits + 7) // 8
    code = _ARRAY_CODES.get(w)
    if code is None:
        return w, b"".join(c.to_bytes(w, "little", signed=True) for c in coeffs)
    run = array(code, coeffs)
    if not _LITTLE:
        run.byteswap()
    return w, run.tobytes()


def _unpack(data: bytes, w: int) -> list[int]:
    code = _ARRAY_CODES.get(w)
    if code is None:
        return [
            int.from_bytes(data[i : i + w], "little", signed=True)
            for i in range(0, len(data), w)
        ]
    run = array(code, data)
    if not _LITTLE:
        run.byteswap()
    return run.tolist()


class LaurentPoly1:
    """A Laurent polynomial in the single variable ``A``.

    Stored as the lowest exponent ``_lo``, a stride ``_s`` and the dense
    run of coefficients of ``A^_lo``, ``A^(_lo + _s)``, ... up to the
    highest exponent, packed into ``_data`` as slots of ``_w`` bytes:
    the narrowest two's-complement width that holds every coefficient.
    The stride is 4 when every exponent is congruent to ``_lo`` mod 4
    (zero and monomials included), else 1.  Both end slots are nonzero,
    so equal polynomials have equal fields; zero is the empty run.

    Bracket values and the minors of their matrices keep all exponents
    in one class mod 4, so their runs are stride 4 and about full.
    Products, quotients and same-class sums of stride-4 values are
    stride 4 by construction.  Any other result is computed at stride 1
    and moved to stride 4 when only every fourth slot is nonzero, as in
    ``(1 + A)(1 - A + A^2 - A^3) = 1 - A^4``.
    """

    __slots__ = ("_lo", "_s", "_w", "_data")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if not isinstance(terms, dict):
            terms = dict(terms)
        terms = _clean(terms)
        if not terms:
            self._lo, self._s, self._w, self._data = 0, 4, 1, b""
            return
        lo = min(terms)
        s = 4 if all((e - lo) % 4 == 0 for e in terms) else 1
        coeffs = [0] * ((max(terms) - lo) // s + 1)
        for e, c in terms.items():
            coeffs[(e - lo) // s] = c
        self._lo, self._s = lo, s
        self._w, self._data = _pack(coeffs)

    @classmethod
    def _make(cls, lo: int, s: int, w: int, data: bytes) -> "LaurentPoly1":
        out = object.__new__(cls)
        out._lo, out._s, out._w, out._data = lo, s, w, data
        return out

    @classmethod
    def _canonical(cls, lo: int, s: int, w: int, data: bytes) -> "LaurentPoly1":
        """A run with nonzero ends, moved to stride 4 if it is one class."""
        n = len(data) // w
        if s == 1 and n % 4 == 1:
            kept = bytearray((n // 4 + 1) * w)
            for j in range(w):
                kept[j::w] = data[j :: 4 * w]
            # every other slot is zero when all nonzero bytes were kept
            if data.count(0) - kept.count(0) == len(data) - len(kept):
                s, data = 4, bytes(kept)
        return cls._make(lo, s, w, data)

    @classmethod
    def zero(cls) -> "LaurentPoly1":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly1":
        return _ONE

    @classmethod
    def term(cls, coeff: int, exp: int) -> "LaurentPoly1":
        """The monomial ``coeff * A^exp``."""
        return cls._make(exp, 4, *_pack([coeff])) if coeff else _ZERO

    def _span(self, s: int) -> int:
        """Slot count of the run at stride ``s``."""
        return (len(self._data) // self._w - 1) * (self._s // s) + 1

    @property
    def terms(self) -> dict[int, int]:
        lo, s = self._lo, self._s
        return {lo + s * i: c for i, c in enumerate(_unpack(self._data, self._w)) if c}

    @property
    def is_zero(self) -> bool:
        return not self._data

    @property
    def is_unit(self) -> bool:
        """True for the units ``+-A^k`` of the Laurent ring."""
        return self._data in _UNIT_RUNS

    def __bool__(self) -> bool:
        return bool(self._data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly1):
            return NotImplemented
        return (
            self._lo == other._lo
            and self._s == other._s
            and self._w == other._w
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self._lo, self._s, self._w, self._data))

    def _scaled(self, lo: int, c: int) -> "LaurentPoly1":
        """``c * self`` moved to lowest exponent ``lo``; one pass.

        A one-byte run times -1 is one ``translate`` through a negation
        table, unless it holds -128 (byte ``0x80``), whose negation needs
        a wider slot; so a product of two unit monomials never packs.  Any
        other scaling is one Kronecker product with ``c``.
        """
        if c == 1:
            return LaurentPoly1._make(lo, self._s, self._w, self._data)
        w, data = self._w, self._data
        if c == -1 and w == 1 and b"\x80" not in data:
            return LaurentPoly1._make(lo, self._s, 1, data.translate(_NEGATED))
        k = w + (abs(c).bit_length() + 7) // 8
        return LaurentPoly1._make(
            lo, self._s, *_from_int(_to_int(data, w, k) * c, k, len(data) // w)
        )

    def __neg__(self) -> "LaurentPoly1":
        if not self._data:
            return self
        return self._scaled(self._lo, -1)

    def _combine(self, other: "LaurentPoly1", sign: int) -> "LaurentPoly1":
        """``self + sign * other``.

        A one-byte stride-4 run plus or minus a one-byte monomial of its
        class that lies outside the run gains one byte at an end, with
        zero slots across any gap; subtracting -128 (byte ``0x80``) needs
        a wider slot and is left to the general path.  Any other sum is
        one Kronecker sum.
        """
        if not other._data:
            return self
        if not self._data:
            return other._scaled(other._lo, sign)
        if sign > 0 and len(self._data) == self._w:
            self, other = other, self
        (la, wa, a), (lb, wb, b) = (self._lo, self._w, self._data), (other._lo, other._w, other._data)
        lo = min(la, lb)
        s = 4 if self._s == other._s == 4 and (la - lb) % 4 == 0 else 1
        if len(b) == wb and s == 4 and wa == wb == 1 and (sign > 0 or b != b"\x80"):
            m = b if sign > 0 else b.translate(_NEGATED)
            hi = la + 4 * (len(a) - 1)
            if lb < la:
                return LaurentPoly1._make(lb, 4, 1, m + bytes((la - lb) // 4 - 1) + a)
            if lb > hi:
                return LaurentPoly1._make(la, 4, 1, a + bytes((lb - hi) // 4 - 1) + m)
        hi = max(la + s * (self._span(s) - 1), lb + s * (other._span(s) - 1))
        n = (hi - lo) // s + 1
        k = max(wa, wb) + 1  # a sum needs one more bit than its terms
        value = _to_int(a, wa, k, self._s // s) << (8 * k * ((la - lo) // s))
        value += (sign * _to_int(b, wb, k, other._s // s)) << (8 * k * ((lb - lo) // s))
        if not value:
            return _ZERO
        w, data = _from_int(value, k, n)
        # cancellation may leave zero slots at either end
        low = (len(data) - len(data.lstrip(b"\0"))) // w
        high = (len(data) - len(data.rstrip(b"\0"))) // w
        if low or high:
            w, data = _narrow(data[low * w : len(data) - high * w], w)
        return LaurentPoly1._canonical(lo + s * low, s, w, data)

    def __add__(self, other: "LaurentPoly1") -> "LaurentPoly1":
        return self._combine(other, 1)

    def __sub__(self, other: "LaurentPoly1") -> "LaurentPoly1":
        return self._combine(other, -1)

    def __mul__(self, other: "LaurentPoly1") -> "LaurentPoly1":
        a, b = self._data, other._data
        if not a or not b:
            return _ZERO
        wa, wb = self._w, other._w
        lo = self._lo + other._lo
        if len(b) == wb:
            return self._scaled(lo, int.from_bytes(b, "little", signed=True))
        if len(a) == wa:
            return other._scaled(lo, int.from_bytes(a, "little", signed=True))
        s = 4 if self._s == other._s == 4 else 1
        na, nb = self._span(s), other._span(s)
        # |product coefficient| < min(na, nb) * 2^(8wa - 1) * 2^(8wb - 1)
        k = (8 * wa + 8 * wb + min(na, nb).bit_length() + 6) // 8
        value = _to_int(a, wa, k, self._s // s) * _to_int(b, wb, k, other._s // s)
        return LaurentPoly1._canonical(lo, s, *_from_int(value, k, na + nb - 1))

    def exact_div(self, divisor: "LaurentPoly1") -> "LaurentPoly1":
        """The quotient by a unit ``+-A^k``: the run moved down by k, with its sign.

        The determinant path divides by nothing else, so any other divisor,
        zero included, raises :class:`NotDivisible`.
        """
        sign = _UNIT_RUNS.get(divisor._data)
        if sign is None:
            raise NotDivisible(f"{divisor.to_text()} is not a unit +-A^k")
        if not self._data:
            return self
        return self._scaled(self._lo - divisor._lo, sign)

    def to_text(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts: list[str] = []
        for e in sorted(terms, reverse=True):
            c = terms[e]
            parts.append(_join_sign(c, _monomial(abs(c), "A", e), first=not parts))
        return "".join(parts)

    def to_json(self) -> dict:
        terms = self.terms
        return {
            "variable": "A",
            "terms": [{"exp": e, "coeff": terms[e]} for e in sorted(terms)],
        }

    def __repr__(self) -> str:
        return f"LaurentPoly1({self.to_text()!r})"


_ZERO = LaurentPoly1()
_ONE = LaurentPoly1({0: 1})
_UNIT_RUNS = {_pack([c])[1]: c for c in (1, -1)}


def _trimmed(lo: int, step: int, coeffs):
    """``coeffs`` at a = lo, lo + step, ... as a canonical run, or None if all zero."""
    if not (coeffs[0] and coeffs[-1]):
        if not any(coeffs):
            return None
        low = coeffs.index(next(filter(None, coeffs)))
        high = len(coeffs) - coeffs[::-1].index(next(filter(None, reversed(coeffs))))
        coeffs, lo = coeffs[low:high], lo + step * low
    if step == 1 and len(coeffs) % 2 and not any(coeffs[1::2]):
        return lo, 2, tuple(coeffs[::2])
    return lo, step, tuple(coeffs)


def _add_run(acc: list, run: tuple) -> None:
    """Add ``run`` into the dense accumulator ``acc = [lo, step, coeffs]``, widening it."""
    (lo, t, vals), (l, s, c) = acc, run
    if s != t or (l - lo) % t:  # both to step 1: a zero between each two slots
        if t == 2:
            t, vals = 1, [x for v in vals for x in (v, 0)][:-1]
            acc[1:] = t, vals
        c = [x for v in c for x in (v, 0)][:-1] if s == 2 else c
    j = (l - lo) // t
    if j < 0:
        vals[:0] = [0] * -j
        acc[0], j = l, 0
    end = j + len(c)
    vals += [0] * (end - len(vals))
    vals[j:end] = map(add, vals[j:end], c)


class LaurentPoly2:
    """A Laurent polynomial in the two variables ``a`` and ``z``.

    ``_groups`` maps each z exponent to its canonical run, as described at
    the top of this module; a one-term run has step 2.
    """

    __slots__ = ("_groups",)

    def __init__(
        self, terms: Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]] = ()
    ):
        monomials = (LaurentPoly2.term(c, ea, ez) for (ea, ez), c in dict(terms).items())
        self._groups = LaurentPoly2.summed(monomials)._groups

    @classmethod
    def _make(cls, groups: dict) -> "LaurentPoly2":
        out = object.__new__(cls)
        out._groups = groups
        return out

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def summed(cls, polys: Iterable["LaurentPoly2"]) -> "LaurentPoly2":
        """The sum of ``polys``, one at a time into one dense accumulator per z."""
        accs: dict[int, list] = {}
        for poly in polys:
            for ez, run in poly._groups.items():
                _add_run(accs.setdefault(ez, [run[0], run[1], []]), run)
        runs = ((ez, _trimmed(*acc)) for ez, acc in accs.items())
        return cls._make({ez: run for ez, run in runs if run})

    @classmethod
    def term(cls, coeff: int, a: int, z: int) -> "LaurentPoly2":
        """The monomial ``coeff * a^a_exp * z^z_exp``."""
        return cls._make({z: (a, 2, (coeff,))} if coeff else {})

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        groups = self._groups.items()
        return {(lo + s * i, ez): c for ez, (lo, s, cs) in groups for i, c in enumerate(cs) if c}

    @property
    def is_zero(self) -> bool:
        return not self._groups

    def __bool__(self) -> bool:
        return bool(self._groups)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        # an array never equals a tuple, so a packed run is compared as a tuple
        return self._groups == other._groups or self._plain() == other._plain()

    def __hash__(self) -> int:
        return hash(frozenset(self._plain().items()))

    def _plain(self) -> dict:
        return {ez: (lo, s, tuple(c)) for ez, (lo, s, c) in self._groups.items()}

    def packed(self) -> "LaurentPoly2":
        """This value with each run that fits int64 slots held in an array."""
        groups = {}
        for ez, (lo, s, c) in self._groups.items():
            try:
                groups[ez] = lo, s, array("q", c)
            except OverflowError:
                groups[ez] = lo, s, c
        return LaurentPoly2._make(groups)

    def __neg__(self) -> "LaurentPoly2":
        return self._shifted(0, 0, -1)

    def _shifted(self, da: int, dz: int, coeff: int) -> "LaurentPoly2":
        """``coeff * a^da * z^dz * self``; one pass, nothing cancels."""
        if coeff == 1 and not da:
            return LaurentPoly2._make({ez + dz: run for ez, run in self._groups.items()})
        scale = coeff.__mul__
        return LaurentPoly2._make({
            ez + dz: (lo + da, s, c if coeff == 1 else tuple(map(scale, c)))
            for ez, (lo, s, c) in self._groups.items()
        })

    def _combine(self, other: "LaurentPoly2", sign: int) -> "LaurentPoly2":
        """``self + sign * other``, sharing the runs only one side holds."""
        op = add if sign > 0 else sub
        groups = dict(self._groups)
        for ez, theirs in other._groups.items():
            mine = groups.get(ez)
            if mine is None:
                groups[ez] = theirs if sign > 0 else (*theirs[:2], tuple(map(neg, theirs[2])))
                continue
            (la, s, ca), (lb, sb, cb) = mine, theirs
            if la == lb and s == sb and len(cb) <= len(ca):
                # b starts where a does and ends inside it, as in most K2q sums: map op over b
                out = (*map(op, ca, cb), *ca[len(cb):])
                run = (la, 2, out) if s == 2 and out[0] and out[-1] else _trimmed(la, s, out)
            else:
                acc = [la, s, list(ca)]
                _add_run(acc, theirs if sign > 0 else (lb, sb, tuple(map(neg, cb))))
                run = _trimmed(*acc)
            if run:
                groups[ez] = run
            else:
                del groups[ez]
        return LaurentPoly2._make(groups)

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return self._combine(other, 1)

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return self._combine(other, -1)

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        a, b = self._groups, other._groups
        if not a or not b:
            return LaurentPoly2()
        # a monomial factor only moves or scales the other's runs
        for mono, poly in ((b, self), (a, other)):
            if len(mono) == 1:
                (dz, (da, _, c)), = mono.items()
                if len(c) == 1:
                    return poly._shifted(da, dz, c[0])
        # one dense accumulator per z, indexed by a + z, at step 2 when both sides allow it
        kinds = [{(s, (lo + z) % 2) for z, (lo, s, _) in side.items()} for side in (a, b)]
        t = 2 if all(len(k) == 1 and min(k)[0] == 2 for k in kinds) else 1
        low_a, low_b = (min(lo + z for z, (lo, _, _) in side.items()) for side in (a, b))
        high = sum(max(lo + s * (len(c) - 1) + z for z, (lo, s, c) in x.items()) for x in (a, b))
        n = (high - low_a - low_b) // t + 1
        out = {z: [0] * n for z in {z1 + z2 for z1 in a for z2 in b}}
        # the other side term by term: in the package it is g(k), one term per run
        terms = [
            (z2, (l2 + z2 + s2 * i - low_b) // t, y)
            for z2, (l2, s2, c2) in b.items()
            for i, y in enumerate(c2)
            if y
        ]
        for z1, (l1, s1, c1) in a.items():
            for i, x in enumerate(c1):
                if x:
                    j1 = (l1 + z1 + s1 * i - low_a) // t
                    for z2, j2, y in terms:
                        out[z1 + z2][j1 + j2] += x * y
        runs = ((ez, _trimmed(low_a + low_b - ez, t, acc)) for ez, acc in out.items())
        return LaurentPoly2._make({ez: run for ez, run in runs if run})

    def z_groups(self) -> Iterator[tuple[int, Mapping[int, int]]]:
        """Pairs (z exponent, read-only {a exponent: coeff}) in ascending z order."""
        for ez, (lo, step, coeffs) in sorted(self._groups.items()):
            yield ez, MappingProxyType({lo + step * i: c for i, c in enumerate(coeffs) if c})

    def to_text(self) -> str:
        parts = [_render_group(g, ez, first=not i) for i, (ez, g) in enumerate(self.z_groups())]
        return "".join(parts) or "0"

    def to_json(self) -> dict:
        terms = [{"a": ea, "z": ez, "coeff": c} for (ea, ez), c in sorted(self.terms.items())]
        return {"variables": ["a", "z"], "terms": terms}

    def __repr__(self) -> str:
        return f"LaurentPoly2({self.to_text()!r})"


# ---------------------------------------------------------------- rendering

def _monomial(coeff: int, var: str, exp: int) -> str:
    """Render ``coeff * var^exp`` with coeff > 0 and no leading sign."""
    if exp == 0:
        return str(coeff)
    head = "" if coeff == 1 else str(coeff)
    power = var if exp == 1 else f"{var}^{exp}"
    return head + power


def _join_sign(coeff: int, body: str, first: bool) -> str:
    if first:
        return body if coeff > 0 else "-" + body
    return f" + {body}" if coeff > 0 else f" - {body}"


def _render_group(group: dict[int, int], ez: int, first: bool) -> str:
    zpart = "" if ez == 0 else (" z" if ez == 1 else f" z^{ez}")
    if len(group) == 1:
        (ea, c), = group.items()
        body = _monomial(abs(c), "a", ea) + zpart
        # "1 z^2" would be noise; drop a unit coefficient before a z part
        if zpart and ea == 0 and abs(c) == 1:
            body = zpart.strip()
        return _join_sign(c, body, first)
    inner_parts: list[str] = []
    negate = all(c < 0 for c in group.values())
    for ea in sorted(group, reverse=True):
        c = -group[ea] if negate else group[ea]
        inner_parts.append(_join_sign(c, _monomial(abs(c), "a", ea), first=not inner_parts))
    body = f"({''.join(inner_parts)}){zpart}"
    return _join_sign(-1 if negate else 1, body, first)
