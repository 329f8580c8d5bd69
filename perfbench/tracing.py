"""In-memory tracing of etale_forge from outside the package.

The tracer wraps public layer functions and hot kernel methods in place and
restores them on ``uninstall``.  A function bound into other modules with
``from .x import f`` is replaced in every ``etale_forge`` module that holds
the same object, so calls through any binding are seen.

Two kinds of wrapper exist:

* counters, for kernel methods called hundreds of thousands of times per
  report; they add one dict increment per call;
* spans, for layer boundaries; each records ``[name, start, end, parent]``
  in memory, where ``parent`` is the index of the enclosing span (or -1).
  Spans of one benchmark operation share its root span.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

# (counter name, module, class or None, attribute names)
COUNTERS = [
    ("numfield.mul", "etale_forge.numfield", "FieldElement", ("__mul__", "__rmul__")),
    ("numfield.add", "etale_forge.numfield", "FieldElement", ("__add__", "__radd__")),
    ("numfield.inverse", "etale_forge.numfield", "FieldElement", ("inverse",)),
    ("polyalg.mul", "etale_forge.polyalg", "Poly", ("__mul__", "__rmul__")),
    ("polyalg.pow", "etale_forge.polyalg", "Poly", ("__pow__",)),
    ("polyalg.evaluate", "etale_forge.polyalg", "Poly", ("evaluate",)),
    ("polyalg.substitute", "etale_forge.polyalg", "Poly", ("substitute",)),
    ("polyalg.divmod", "etale_forge.polyalg", None, ("divmod_poly",)),
    ("polyalg.gcd", "etale_forge.polyalg", None, ("gcd_univariate",)),
    ("surface.relation", "etale_forge.surface", "SurfaceSpec", ("relation",)),
    ("surface.sample_point", "etale_forge.surface", None, ("sample_point",)),
    ("endo.jacobian_det", "etale_forge.endo", None, ("jacobian_det_at",)),
]

# (span name, module, function); a span also counts its calls
SPANS = [
    ("surface.normal_form", "etale_forge.surface", "normal_form"),
    ("endo.make_map", "etale_forge.endo", "make_map"),
    ("endo.compose_maps", "etale_forge.endo", "compose_maps"),
    ("endo.base_polynomial", "etale_forge.endo", "base_polynomial"),
    ("endo.oracle", "etale_forge.endo", "jacobian_spotcheck"),
    ("endo.certificate", "etale_forge.endo", "etale_certificate"),
    ("family.theta", "etale_forge.family", "theta"),
    ("family.member", "etale_forge.family", "family_member"),
    ("constructor.solve_kr32", "etale_forge.constructor", "solve_kr32"),
    ("constructor.chebyshev_endo", "etale_forge.constructor", "chebyshev_endo"),
    ("chebyshab.extract_profile", "etale_forge.chebyshab", "extract_profile"),
    ("miyanishi.lift_check", "etale_forge.miyanishi", "miy_lift_check"),
    ("polyparse.parse", "etale_forge.polyparse", "parse_poly"),
    ("polyparse.print", "etale_forge.polyparse", "print_poly"),
]

ITEM_PREFIX = "reproduce.item."


class Tracer:
    """Counts and spans for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _counting(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanning(self, key, fn, name_of=None):
        counts, spans, stack = self.counts, self.spans, self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            counts[key] += 1
            rec = [name_of(args) if name_of else key, clock(), 0.0,
                   stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
        return spanned

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block, such as one benchmark operation."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module_name, attr, wrap):
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = wrap(original)
        for name, module in list(sys.modules.items()):
            if (name == "etale_forge" or name.startswith("etale_forge.")) \
                    and getattr(module, attr, None) is original:
                self._set(module, attr, wrapped)

    def install(self) -> None:
        for key, module_name, cls, attrs in COUNTERS:
            self.counts[key] = 0
            if cls is None:
                self._patch_function(module_name, attrs[0],
                                     lambda f, k=key: self._counting(k, f))
                continue
            owner = getattr(importlib.import_module(module_name), cls)
            for attr in attrs:
                self._set(owner, attr, self._counting(key, vars(owner)[attr]))
        for key, module_name, attr in SPANS:
            self.counts[key] = 0
            self._patch_function(module_name, attr,
                                 lambda f, k=key: self._spanning(k, f))
        self.counts["reproduce.item"] = 0
        self._patch_function(
            "etale_forge.reproduce", "_item",
            lambda f: self._spanning("reproduce.item", f,
                                     name_of=lambda args: ITEM_PREFIX + args[0]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a
        recursive call is not counted twice.  Self time is a span's
        duration minus the durations of its direct child spans.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["inclusive_s"] += end - start
        return out

    def record(self) -> dict:
        """Counts, per-layer times and every span, as JSON-ready data."""
        return {"counts": self.counts, "layers": self.layer_times(),
                "spans": self.spans}
