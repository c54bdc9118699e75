"""Exact link polynomials for closed homogeneous braids.

The package computes the Kauffman bracket and Jones polynomial of the
closure of a braid word four independent ways: a brute-force state
sum, a spanning-tree sum over the checkerboard Tait graph, a perfect
matching sum over a balanced bipartite overlay, and a Kasteleyn-signed
determinant that runs in polynomial time.  The last two require words
of the shape s1^m1 s2^m2 ... s(n-1)^m(n-1) with one sign throughout.

Names resolve on first use: ``import braidpoly`` loads only ``kauffman``
and its ring, and a read such as ``braidpoly.jones_via_det`` imports its
module and returns that module's current attribute, uncached.
"""

import importlib

# every CLI command loads it, and perfbench clears its caches through sys.modules
from . import kauffman  # noqa: F401

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in (
        ("braid", "BraidWord parse_braid"),
        ("diagram", "LinkDiagram build_diagram close_braid"),
        ("laurent", "LaurentPoly1 LaurentPoly2"),
        ("errors", "BraidPolyError"),
        ("oracle", "bracket_state_sum jones_state_sum writhe_correction"),
        ("tait", "TaitGraph build_tait dual_tait spanning_trees thistlethwaite_sum"),
        ("overlay", "OverlayGraph build_overlay partition_function perfect_matchings"),
        ("dimer", "ModifiedAdjacencyMatrix adjacency_matrix determinant kasteleyn_sign"),
        ("dimer", "bracket_sign bracket_via_det jones_via_det prepare_overlay"),
        ("kauffman", "P g K2q F2q specialize_bracket specialize_kauffman"),
    )
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
