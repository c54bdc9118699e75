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
about full instead of a quarter full.  Products of stride-4 runs, and
sums of stride-4 runs of one class, go through Kronecker substitution,
one big-int operation each: the run is read as an integer in base
2^(8k) for a slot width k wide enough for the result, and the result's
digits are the coefficients.  Any other product or sum tallies its
terms and builds the result once; no route in the package makes one.
The elimination's commonest steps, nearly all on runs of one-byte
slots, skip the conversion.  A product with A^k, or a quotient by it,
only moves the run.  A negation, or a product with -A^k, of a one-byte
run is one ``bytes.translate`` through a negation table; byte 0x80
(-128) has no one-byte negation, so a run that holds it takes the
Kronecker path.  A one-byte monomial added to a one-byte stride-4 run,
of its class and outside it, is one more byte at an end.  A difference
is a sum with the negation.  The determinant path divides by nothing
but units, so a unit is the only divisor; any other raises
``NotDivisible``.

``LaurentPoly2`` groups its terms by power of z: a dict from each z
exponent to an ``{a exponent: coeff}`` map, which is never changed once
built, so values share maps.  A sum copies only the maps that both
sides hold, a product with a monomial moves or scales the other
factor's terms, and any other product tallies its pairs of terms and
builds the result once.  Runs exist only in a value ``packed`` to be
kept: unless a coefficient does not fit int64, it holds all its maps in
one int64 array, [z, lo, step, n, c_0 ... c_(n-1)] per map, the
coefficients at a = lo, lo + step, ... with both ends nonzero and step
2 when those a exponents share a parity, as in every (2,q) torus
value.  It reads them back as maps when used: ``K2q(57)`` keeps 9 KB
so, against 63 KB as maps.

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


def _to_int(data: bytes, w: int, k: int) -> int:
    """Kronecker image at k-byte slots of a run packed in w-byte slots."""
    n = len(data) // w
    if k != w:
        wide = bytearray(n * k)
        for j in range(w):
            wide[j::k] = data[j::w]
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
    stride 4 by construction.  Any other product or sum tallies terms
    and lets the constructor pick the stride, so ``(1 + A)(1 - A + A^2
    - A^3) = 1 - A^4`` comes out at stride 4.
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
    def zero(cls) -> "LaurentPoly1":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly1":
        return _ONE

    @classmethod
    def term(cls, coeff: int, exp: int) -> "LaurentPoly1":
        """The monomial ``coeff * A^exp``."""
        return cls._make(exp, 4, *_pack([coeff])) if coeff else _ZERO

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

    def __add__(self, other: "LaurentPoly1") -> "LaurentPoly1":
        """Two stride-4 runs of one class make one Kronecker sum.

        A one-byte run plus a one-byte monomial of its class that lies
        outside the run gains one byte at an end instead, with zero slots
        across any gap.  Any other sum tallies terms.
        """
        if not other._data:
            return self
        if not self._data:
            return other
        if len(self._data) == self._w:
            self, other = other, self
        (la, wa, a), (lb, wb, b) = (self._lo, self._w, self._data), (other._lo, other._w, other._data)
        if not (self._s == other._s == 4 and (la - lb) % 4 == 0):
            terms = self.terms
            for e, c in other.terms.items():
                terms[e] = terms.get(e, 0) + c
            return LaurentPoly1(terms)
        if len(b) == wb and wa == wb == 1:
            hi = la + 4 * (len(a) - 1)
            if lb < la:
                return LaurentPoly1._make(lb, 4, 1, b + bytes((la - lb) // 4 - 1) + a)
            if lb > hi:
                return LaurentPoly1._make(la, 4, 1, a + bytes((lb - hi) // 4 - 1) + b)
        lo = min(la, lb)
        hi = max(la + 4 * (len(a) // wa - 1), lb + 4 * (len(b) // wb - 1))
        k = max(wa, wb) + 1  # a sum needs one more bit than its terms
        value = _to_int(a, wa, k) << (8 * k * ((la - lo) // 4))
        value += _to_int(b, wb, k) << (8 * k * ((lb - lo) // 4))
        if not value:
            return _ZERO
        w, data = _from_int(value, k, (hi - lo) // 4 + 1)
        # cancellation may leave zero slots at either end
        low = (len(data) - len(data.lstrip(b"\0"))) // w
        high = (len(data) - len(data.rstrip(b"\0"))) // w
        if low or high:
            w, data = _narrow(data[low * w : len(data) - high * w], w)
        return LaurentPoly1._make(lo + 4 * low, 4, w, data)

    def __sub__(self, other: "LaurentPoly1") -> "LaurentPoly1":
        return self + -other

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
        if self._s != 4 or other._s != 4:
            tally: dict[int, int] = {}
            right = other.terms.items()
            for ea, ca in self.terms.items():
                for eb, cb in right:
                    tally[ea + eb] = tally.get(ea + eb, 0) + ca * cb
            return LaurentPoly1(tally)
        na, nb = len(a) // wa, len(b) // wb
        # |product coefficient| < min(na, nb) * 2^(8wa - 1) * 2^(8wb - 1)
        k = (8 * wa + 8 * wb + min(na, nb).bit_length() + 6) // 8
        value = _to_int(a, wa, k) * _to_int(b, wb, k)
        return LaurentPoly1._make(lo, 4, *_from_int(value, k, na + nb - 1))

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


class LaurentPoly2:
    """A Laurent polynomial in the two variables ``a`` and ``z``.

    ``_groups`` maps each z exponent to its ``{a exponent: coeff}`` map,
    as described at the top of this module.  Coefficients are nonzero,
    no map is empty, and no map is changed once built, so values share
    them.
    """

    __slots__ = ("_groups",)

    def __init__(
        self, terms: Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]] = ()
    ):
        if not isinstance(terms, dict):
            terms = dict(terms)
        groups: dict[int, dict[int, int]] = {}
        for (ea, ez), c in terms.items():
            if c:
                groups.setdefault(ez, {})[ea] = c
        self._groups = groups

    @classmethod
    def _make(cls, groups: dict) -> "LaurentPoly2":
        # unpacked whatever the class it is called through, as every result is
        out = object.__new__(LaurentPoly2)
        out._groups = groups
        return out

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls._make({})

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls.term(1, 0, 0)

    @classmethod
    def term(cls, coeff: int, a: int, z: int) -> "LaurentPoly2":
        """The monomial ``coeff * a^a_exp * z^z_exp``."""
        return cls._make({z: {a: coeff}} if coeff else {})

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        return {(ea, ez): c for ez, group in self._groups.items() for ea, c in group.items()}

    @property
    def is_zero(self) -> bool:
        return not self._groups

    def __bool__(self) -> bool:
        return bool(self._groups)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self._groups == other._groups

    def __hash__(self) -> int:
        return hash(frozenset((ez, frozenset(group.items())) for ez, group in self._groups.items()))

    def packed(self) -> "LaurentPoly2":
        """This value held in one int64 array, or as it is if a coefficient does not fit."""
        flat = []
        for ez, group in self._groups.items():
            lo = min(group)
            step = 2 if all((ea - lo) % 2 == 0 for ea in group) else 1
            coeffs = [0] * ((max(group) - lo) // step + 1)
            for ea, c in group.items():
                coeffs[(ea - lo) // step] = c
            flat += ez, lo, step, len(coeffs), *coeffs
        try:
            flat = array("q", flat)
        except OverflowError:
            return self
        out = object.__new__(_PackedPoly2)
        out._flat = flat
        return out

    def __neg__(self) -> "LaurentPoly2":
        return self._shifted(0, 0, -1)

    def _shifted(self, da: int, dz: int, coeff: int) -> "LaurentPoly2":
        """``coeff * a^da * z^dz * self``; one pass, nothing cancels."""
        if coeff == 1 and not da:
            return LaurentPoly2._make({ez + dz: group for ez, group in self._groups.items()})
        return LaurentPoly2._make({
            ez + dz: {ea + da: coeff * c for ea, c in group.items()}
            for ez, group in self._groups.items()
        })

    def _combine(self, other: "LaurentPoly2", sign: int) -> "LaurentPoly2":
        """``self + sign * other``, sharing the maps only one side holds."""
        groups = dict(self._groups)
        for ez, theirs in other._groups.items():
            mine = groups.get(ez)
            if mine is None:
                groups[ez] = theirs if sign > 0 else {ea: -c for ea, c in theirs.items()}
                continue
            group = dict(mine)
            for ea, c in theirs.items():
                total = group.get(ea, 0) + sign * c
                if total:
                    group[ea] = total
                else:
                    del group[ea]
            if group:
                groups[ez] = group
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
        # a monomial factor only moves or scales the other's terms
        for mono, poly in ((b, self), (a, other)):
            if len(mono) == 1:
                (dz, group), = mono.items()
                if len(group) == 1:
                    (da, c), = group.items()
                    return poly._shifted(da, dz, c)
        tally: dict[tuple[int, int], int] = {}
        right = other.terms.items()
        for (a1, z1), x in self.terms.items():
            for (a2, z2), y in right:
                key = a1 + a2, z1 + z2
                tally[key] = tally.get(key, 0) + x * y
        return LaurentPoly2(tally)

    def z_groups(self) -> Iterator[tuple[int, Mapping[int, int]]]:
        """Pairs (z exponent, read-only {a exponent: coeff}) in ascending z order."""
        for ez, group in sorted(self._groups.items()):
            yield ez, MappingProxyType(group)

    def to_text(self) -> str:
        parts = [_render_group(g, ez, first=not i) for i, (ez, g) in enumerate(self.z_groups())]
        return "".join(parts) or "0"

    def to_json(self) -> dict:
        terms = [{"a": ea, "z": ez, "coeff": c} for (ea, ez), c in sorted(self.terms.items())]
        return {"variables": ["a", "z"], "terms": terms}

    def __repr__(self) -> str:
        return f"LaurentPoly2({self.to_text()!r})"


class _PackedPoly2(LaurentPoly2):
    """A kept value: each map as a run [z, lo, step, n, c_0 ... c_(n-1)] in one int64 array.

    ``_groups`` reads the runs back as maps on each use, so every method
    of the base class works unchanged and returns an unpacked value.
    """

    __slots__ = ("_flat",)

    @property
    def _groups(self) -> dict:
        flat, groups, i = self._flat, {}, 0
        while i < len(flat):
            ez, lo, s, n = flat[i : i + 4]
            groups[ez] = {lo + s * j: c for j, c in enumerate(flat[i + 4 : i + 4 + n]) if c}
            i += 4 + n
        return groups


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
