"""Exact link polynomials for closed homogeneous braids.

The package computes the Kauffman bracket and Jones polynomial of the
closure of a braid word four independent ways: a brute-force state
sum, a spanning-tree sum over the checkerboard Tait graph, a perfect
matching sum over a balanced bipartite overlay, and a Kasteleyn-signed
determinant that runs in polynomial time.  The last two require words
of the shape s1^m1 s2^m2 ... s(n-1)^m(n-1) with one sign throughout.
"""

from .braid import BraidWord, parse_braid
from .diagram import LinkDiagram, build_diagram, close_braid
from .dimer import (
    ModifiedAdjacencyMatrix,
    adjacency_matrix,
    bracket_sign,
    bracket_via_det,
    determinant,
    jones_via_det,
    kasteleyn_sign,
    prepare_overlay,
)
from .errors import BraidPolyError
from .kauffman import F2q, K2q, P, g, specialize_bracket, specialize_kauffman
from .laurent import LaurentPoly1, LaurentPoly2
from .oracle import bracket_state_sum, jones_state_sum, writhe_correction
from .overlay import OverlayGraph, build_overlay, partition_function, perfect_matchings
from .tait import TaitGraph, build_tait, dual_tait, spanning_trees, thistlethwaite_sum

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "parse_braid",
    "LinkDiagram",
    "build_diagram",
    "close_braid",
    "LaurentPoly1",
    "LaurentPoly2",
    "BraidPolyError",
    "bracket_state_sum",
    "jones_state_sum",
    "writhe_correction",
    "TaitGraph",
    "build_tait",
    "dual_tait",
    "spanning_trees",
    "thistlethwaite_sum",
    "OverlayGraph",
    "build_overlay",
    "partition_function",
    "perfect_matchings",
    "ModifiedAdjacencyMatrix",
    "adjacency_matrix",
    "determinant",
    "kasteleyn_sign",
    "bracket_sign",
    "bracket_via_det",
    "jones_via_det",
    "prepare_overlay",
    "P",
    "g",
    "K2q",
    "F2q",
    "specialize_bracket",
    "specialize_kauffman",
    "__version__",
]
