"""The eight-letter activity alphabet and multiset words over it.

Letters classify how an edge (or matched overlay edge) sits relative to
a chosen reference structure, crossed with the local crossing sign:

* ``L`` / ``D``: in the reference structure, active / inactive;
* ``l`` / ``d``: outside it, active / inactive;
* a trailing ``~`` marks the letter as coming from a negative crossing.

Words are unordered with multiplicity, so they compare and hash as
multisets.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

__all__ = ["LETTERS", "BASE_LETTERS", "is_barred", "signed_letter", "ActivityWord"]

BASE_LETTERS = ("L", "l", "D", "d")
LETTERS = BASE_LETTERS + tuple(x + "~" for x in BASE_LETTERS)

_ORDER = {letter: i for i, letter in enumerate(LETTERS)}


def is_barred(letter: str) -> bool:
    return letter.endswith("~")


def signed_letter(letter: str, sign: int) -> str:
    """Attach the crossing sign: barred when negative."""
    if letter not in BASE_LETTERS:
        raise ValueError(f"not a base letter: {letter!r}")
    return letter if sign > 0 else letter + "~"


class ActivityWord:
    """A multiset of activity letters."""

    __slots__ = ("_counts",)

    def __init__(self, letters: Iterable[str] | Mapping[str, int] = ()):
        if isinstance(letters, Mapping):
            counts = Counter(dict(letters))
            # a count multiplies its letter's exponent when the word specializes
            for letter, mult in counts.items():
                if not isinstance(mult, int) or mult < 0:
                    raise ValueError(f"count of {letter!r} is not a nonnegative integer: {mult!r}")
        else:
            counts = Counter(letters)
        for letter in counts:
            if letter not in _ORDER:
                raise ValueError(f"unknown activity letter: {letter!r}")
        self._counts = +counts

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __iter__(self):
        for letter in sorted(self._counts, key=_ORDER.__getitem__):
            for _ in range(self._counts[letter]):
                yield letter

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActivityWord):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self.key())

    def key(self) -> tuple[tuple[str, int], ...]:
        """Canonical form usable as a dict key."""
        return tuple(
            (letter, self._counts[letter])
            for letter in sorted(self._counts, key=_ORDER.__getitem__)
        )

    def count(self, letter: str) -> int:
        return self._counts.get(letter, 0)

    def __str__(self) -> str:
        if not self._counts:
            return "1"
        parts = []
        for letter, mult in self.key():
            parts.append(letter if mult == 1 else f"{letter}^{mult}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"ActivityWord({str(self)!r})"
