"""Braid words: parsing, writhe, and the homogeneous family check.

A word is a sequence of syllables ``(generator index, exponent)`` read
left to right.  Strands are numbered from 1; generator ``i`` crosses
strands ``i`` and ``i+1``, positive exponent meaning a positive
crossing under the all-strands-downward orientation of the closure.

The text grammar is ASCII on purpose: tokens ``s<k>`` or ``s<k>^<e>``
separated by whitespace or ``*``.  Syllables are never merged, so
``s1^2 s1`` is not the same word as ``s1^3``; the structural results
downstream depend on the literal shape.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import BraidSyntaxError, StrandMismatch, ZeroExponent

__all__ = ["BraidWord", "parse_braid"]

_TOKEN = re.compile(r"s(\d+)(?:\^(-?\d+))?$")


@dataclass(frozen=True)
class BraidWord:
    """An element of the braid group on ``strands`` strands."""

    strands: int
    syllables: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if self.strands < 1:
            raise StrandMismatch(f"need at least one strand, got {self.strands}")
        object.__setattr__(self, "syllables", tuple(self.syllables))
        for i, m in self.syllables:
            if not 1 <= i <= self.strands - 1:
                raise StrandMismatch(
                    f"generator s{i} needs at least {i + 1} strands, have {self.strands}"
                )
            if m == 0:
                raise ZeroExponent(f"syllable s{i}^0 is not allowed")

    @property
    def crossing_count(self) -> int:
        return sum(abs(m) for _, m in self.syllables)

    @property
    def writhe(self) -> int:
        return sum(m for _, m in self.syllables)

    def is_homogeneous_family(self) -> bool:
        """True for the shape s1^m1 s2^m2 ... s(n-1)^m(n-1), one sign throughout."""
        if self.strands < 2 or len(self.syllables) != self.strands - 1:
            return False
        if any(i != k for k, (i, _) in enumerate(self.syllables, start=1)):
            return False
        signs = {m > 0 for _, m in self.syllables}
        return len(signs) == 1

    def crossings(self) -> list[tuple[int, int]]:
        """Expand syllables into per-crossing (generator, sign) pairs, in word order."""
        out = []
        for i, m in self.syllables:
            sign = 1 if m > 0 else -1
            out.extend((i, sign) for _ in range(abs(m)))
        return out

    def to_text(self) -> str:
        if not self.syllables:
            return ""
        return " ".join(
            f"s{i}" if m == 1 else f"s{i}^{m}" for i, m in self.syllables
        )

    def __str__(self) -> str:
        return self.to_text()


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse a braid word from its text form.

    Strand count defaults to one more than the highest generator index;
    an explicit count must be at least that.
    """
    tokens = [t for t in re.split(r"[\s*]+", text.strip()) if t]
    if not tokens:
        raise BraidSyntaxError("empty braid word")
    syllables: list[tuple[int, int]] = []
    for token in tokens:
        m = _TOKEN.match(token)
        if m is None:
            raise BraidSyntaxError(f"bad token {token!r} (expected s<k> or s<k>^<e>)")
        try:
            index = int(m.group(1))
            exponent = int(m.group(2)) if m.group(2) is not None else 1
        except ValueError as exc:  # past the interpreter's digit limit for int()
            raise BraidSyntaxError(f"number too long in {token[:40]!r}") from exc
        if index < 1:
            raise BraidSyntaxError(f"generator index must be >= 1 in {token!r}")
        if exponent == 0:
            raise ZeroExponent(f"zero exponent in {token!r}")
        syllables.append((index, exponent))
    needed = max(i for i, _ in syllables) + 1
    if strands is None:
        strands = needed
    elif strands < needed:
        raise StrandMismatch(
            f"word uses s{needed - 1} but only {strands} strands were given"
        )
    return BraidWord(strands, tuple(syllables))
