"""Exception hierarchy shared by the whole package.

The CLI maps these onto process exit codes: input/parse problems exit 1,
unsupported inputs exit 2, resource-cap refusals exit 3. Anything else
escaping to the top level is a bug and is allowed to traceback.
"""

__all__ = [
    "BraidPolyError",
    "BraidSyntaxError",
    "StrandMismatch",
    "ZeroExponent",
    "NegativeIndex",
    "DisconnectedLink",
    "ColoringContradiction",
    "UnbalancedGraph",
    "NoKasteleynSolution",
    "DeterminantCheckFailed",
    "NotDivisible",
    "BarredLetter",
    "UnsupportedWord",
    "TooManyCrossings",
    "TooLarge",
]


class BraidPolyError(Exception):
    """Base class for all errors raised by braidpoly."""


class BraidSyntaxError(BraidPolyError):
    """Braid word text does not match the s<k> / s<k>^<e> grammar."""


class StrandMismatch(BraidPolyError):
    """Explicit strand count too small for the generators used."""


class ZeroExponent(BraidPolyError):
    """A syllable with exponent zero (the identity braid is not a syllable)."""


class NegativeIndex(BraidPolyError):
    """A recursion index below its lower bound, which the message names."""


class DisconnectedLink(BraidPolyError):
    """The braid closure has a crossing-free component; refuse to build it."""


class ColoringContradiction(BraidPolyError):
    """No proper checkerboard 2-coloring exists; indicates a construction bug."""


class UnbalancedGraph(BraidPolyError):
    """Crossing and face vertex counts differ after the face deletion."""


class NoKasteleynSolution(BraidPolyError):
    """The face-parity sign system is inconsistent; indicates an embedding bug."""


class DeterminantCheckFailed(BraidPolyError):
    """Wrong determinant size at A = 1, or a stalled elimination; a signing or elimination bug."""


class NotDivisible(BraidPolyError):
    """Exact Laurent division was requested but the quotient is not integral."""


class BarredLetter(BraidPolyError):
    """A barred activity letter has no image under the requested specialization."""


class UnsupportedWord(BraidPolyError):
    """The operation is only defined for one-syllable-per-generator words."""


class TooManyCrossings(BraidPolyError):
    """Crossing count exceeds the cap for an exponential-time route."""


class TooLarge(BraidPolyError):
    """A size parameter (matrix dimension, torus index q) exceeds its cap."""
