"""Spans and counters around calls into braidpoly, installed from outside.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` swaps
each public function named in ``_SPANS`` for a wrapper, in every
braidpoly module namespace that holds it (the CLI and several modules
import helpers by name, so patching the defining module alone would
miss those calls), and swaps the Laurent ring operations on the
classes themselves.  ``uninstall`` puts the originals back.

Two kinds of wrapper:

* spans, for stage calls (a few per request): name, start, end, parent
  span and request id are kept in memory and written out once at the
  end.  A span's self time is its duration minus its child spans.
* meters, for ring operations and ``specialize_bracket`` (up to
  hundreds of thousands per request): only a call count and the time
  inside the call are kept.  Meters are not spans, so a stage's self
  time includes the ring operations it performs; ``laurent.*.self_s``
  reports the same time from the ring's side.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

_MODULES = (
    "braidpoly", "braidpoly.braid", "braidpoly.diagram", "braidpoly.overlay",
    "braidpoly.dimer", "braidpoly.kauffman", "braidpoly.oracle", "braidpoly.tait",
    "braidpoly.cli",
)

# (defining module, attribute, span name)
_SPANS = (
    ("braid", "parse_braid", "braid.parse_braid"),
    ("diagram", "build_diagram", "diagram.build_diagram"),
    ("overlay", "build_overlay", "overlay.build_overlay"),
    ("overlay", "overlay_activity_letters", "overlay.overlay_activity_letters"),
    ("overlay", "partition_function", "overlay.partition_function"),
    ("dimer", "prepare_overlay", "dimer.prepare_overlay"),
    ("dimer", "kasteleyn_sign", "dimer.kasteleyn_sign"),
    ("dimer", "adjacency_matrix", "dimer.matrix"),
    ("dimer", "_component_matrix", "dimer.matrix"),
    ("dimer", "fix_sign", "dimer.fix_sign"),
    ("dimer", "determinant", "dimer.determinant"),
    ("dimer", "bracket_via_det", "dimer.bracket_via_det"),
    ("dimer", "jones_via_det", "dimer.jones_via_det"),
    ("kauffman", "K2q", "kauffman.K2q"),
    ("oracle", "bracket_state_sum", "oracle.bracket_state_sum"),
    ("tait", "build_tait", "tait.build_tait"),
    ("tait", "thistlethwaite_sum", "tait.thistlethwaite_sum"),
    ("cli", "run", "cli.run"),
)

# generators whose items are counted: (module, attribute, counter)
_STREAMS = (
    ("overlay", "perfect_matchings", "overlay.matchings"),
    ("tait", "spanning_trees", "tait.trees"),
)


class Tracer:
    def __init__(self, ring_ops: bool = True):
        self.ring_ops = ring_ops
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, request id)
        self.counts: dict[str, int] = defaultdict(int)
        self.meter_time: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0
        self._request: int | None = None
        self._counted: set[tuple[str, int]] = set()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _error(self, layer: str, exc: BaseException) -> None:
        # one exception passing through several calls of a layer counts once
        key = (layer, id(exc))
        if key not in self._counted:
            self._counted.add(key)
            self.errors[layer] += 1

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self._error(name.split(".")[0], exc)
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self._request))

    def request(self, rid: int, fn, *args):
        self._request = rid
        self._counted.clear()
        try:
            return self.call("request", fn, *args)
        finally:
            self._request = None

    def self_times(self) -> dict[str, float]:
        child: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            out[name] += end - start - child[sid]
        return out

    def durations(self, name: str) -> float:
        return sum(end - start for _, n, start, end, _, _ in self.spans if n == name)

    # ------------------------------------------------------------- wrappers

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _k2q(self, fn):
        def wrapper(q, method="skein"):
            return self.call(f"kauffman.K2q.{method}", fn, q, method)

        return wrapper

    def _meter(self, name: str, fn, on_result=None):
        layer = name.split(".")[0]
        counts, meter_time = self.counts, self.meter_time
        perf = time.perf_counter

        def wrapper(*args):
            start = perf()
            try:
                result = fn(*args)
            except BaseException as exc:
                self._error(layer, exc)
                raise
            meter_time[name] += perf() - start
            counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _stream(self, name: str, fn):
        counts = self.counts

        def counted(items):
            for item in items:
                counts[name] += 1
                yield item

        def wrapper(*args, **kwargs):
            # call first: the library checks its caps before the stream starts
            return counted(fn(*args, **kwargs))

        return wrapper

    def _peaks(self, poly) -> None:
        coeffs = poly.terms.values()
        counts = self.counts
        if len(coeffs) > counts["laurent.peak_terms"]:
            counts["laurent.peak_terms"] = len(coeffs)
        bits = max((abs(c).bit_length() for c in coeffs), default=0)
        if bits > counts["laurent.peak_coeff_bits"]:
            counts["laurent.peak_coeff_bits"] = bits

    def _with_counts(self, fn, count):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(args, result)
            return result

        return wrapper

    def _determinant(self, fn, op_counter):
        counts = self.counts

        def determinant(m, ops=None):
            mine = op_counter() if op_counter is not None else None
            value = fn(m, mine)
            counts["dimer.blocks"] += 1
            counts["dimer.block_size_max"] = max(counts["dimer.block_size_max"], len(m.rows))
            if mine is not None:
                for field in ("muls", "adds", "divs"):
                    counts[f"dimer.ops.{field}"] += getattr(mine, field)
                    if ops is not None:
                        setattr(ops, field, getattr(ops, field) + getattr(mine, field))
            return value

        return determinant

    # ---------------------------------------------------------- installing

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _count_faces(self, args, diagram):
        self.counts["diagram.faces"] += len(diagram.faces)

    def _count_edges(self, args, overlay):
        self.counts["overlay.edges"] += len(overlay.edges)

    def _count_states(self, args, value):
        self.counts["oracle.states"] += 1 << args[0].crossing_count

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in _MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        dimer = by_name["dimer"]
        extra = {
            "build_diagram": self._count_faces,
            "build_overlay": self._count_edges,
            "bracket_state_sum": self._count_states,
        }
        for module_name, attr, name in _SPANS:
            original = getattr(by_name[module_name], attr, None)
            if original is None:
                continue
            fn = original
            if attr == "determinant":
                fn = self._determinant(fn, getattr(dimer, "OpCounter", None))
            if attr in extra:
                fn = self._with_counts(fn, extra[attr])
            wrapper = self._k2q(fn) if attr == "K2q" else self._span(name, fn)
            self._replace(modules, original, wrapper)
        for module_name, attr, name in _STREAMS:
            original = getattr(by_name[module_name], attr)
            self._replace(modules, original, self._stream(name, original))
        original = by_name["kauffman"].specialize_bracket
        self._replace(modules, original, self._meter("kauffman.specialize_bracket", original))
        if self.ring_ops:
            laurent = importlib.import_module("braidpoly.laurent")
            for cls, attr, name, on_result in (
                (laurent.LaurentPoly1, "__mul__", "laurent.mul", self._peaks),
                (laurent.LaurentPoly1, "exact_div", "laurent.exact_div", self._peaks),
                (laurent.LaurentPoly2, "__mul__", "laurent.poly2.mul", None),
            ):
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._meter(name, original, on_result))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
