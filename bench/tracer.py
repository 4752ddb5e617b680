"""Spans and counts at lcpower's layer boundaries, recorded from outside.

The tracer patches module attributes while it is installed (one traced
pass at a time) and restores them afterwards; nothing under ``src/``
knows about it.  A span
records (id, name, start, end, parent) in memory; the spans are written
out when the run ends.  A layer's self time is its spans' durations minus
the part covered by their child spans.

Which functions are wrapped:

* the solver's phases and the per-step functions ``lcpower.solver``
  imports from ``lcpower.linalg`` (matvec, norms, Rayleigh quotient),
  wherever lcpower binds them: ``lcpower.cli`` imports ``solve`` and
  ``poly_dominant_root`` by name, so those bindings are patched too.  The
  set-up helpers (valuation shift, constant-part matrix, companion
  matrix, polynomial evaluation) stay in their caller's self time;
* the two series kernels of ``lcpower.core`` the metrics name (``sqrt``,
  ``invert``) as spans, and its multiplication kernel ``_mul`` as a count
  only: it runs far too often for a span, and its time belongs to the
  caller;
* the parse and serialize functions of ``lcpower.textio`` the workloads
  reach.

A name that no longer exists, or is no longer called, reads 0 calls and
0 seconds: later versions may replace a layer's functions.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: Span name -> (module, attribute); an attribute "A.b" is method b of class A.
SPAN_TARGETS = {
    "textio.parse_series": ("lcpower.textio", "parse_series"),
    "textio.parse_matrix": ("lcpower.textio", "parse_matrix"),
    "textio.parse_polynomial": ("lcpower.textio", "parse_polynomial"),
    "textio.serialize_series": ("lcpower.textio", "serialize_series"),
    "solver.solve": ("lcpower.solver", "solve"),
    "solver.poly_dominant_root": ("lcpower.solver", "poly_dominant_root"),
    "solver.precondition": ("lcpower.solver", "precondition"),
    "solver.estimate_dominant_complex": ("lcpower.solver", "estimate_dominant_complex"),
    "solver.weakly_converged": ("lcpower.solver", "weakly_converged"),
    "solver.error_table": ("lcpower.solver", "IterationTrace.error_table"),
    "linalg.matvec": ("lcpower.solver", "matvec"),
    "linalg.norm_l2": ("lcpower.solver", "norm_l2"),
    "linalg.norm_max_info": ("lcpower.solver", "norm_max_info"),
    "linalg.rayleigh_quotient_from_action": ("lcpower.solver",
                                             "rayleigh_quotient_from_action"),
    "core.sqrt": ("lcpower.core", "sqrt"),
    "core.invert": ("lcpower.core", "invert"),
}

#: Per-layer time metric -> the spans whose self time it sums.
LAYER_TIMES = {
    "textio.parse_s": ("textio.parse_series", "textio.parse_matrix",
                       "textio.parse_polynomial"),
    "textio.serialize_s": ("textio.serialize_series",),
    "solver.precondition_s": ("solver.precondition",),
    "solver.pi_power_s": ("solver.estimate_dominant_complex",),
    "solver.check_s": ("solver.weakly_converged",),
    "solver.error_table_s": ("solver.error_table",),
    "solver.other_s": ("solver.solve", "solver.poly_dominant_root"),
    "linalg.matvec_s": ("linalg.matvec",),
    "linalg.norm_s": ("linalg.norm_l2", "linalg.norm_max_info"),
    "linalg.rayleigh_s": ("linalg.rayleigh_quotient_from_action",),
    "core.sqrt_s": ("core.sqrt",),
    "core.invert_s": ("core.invert",),
}

#: Modules whose bindings of a wrapped function are all patched.
_NAMESPACES = ("lcpower", "lcpower.cli", "lcpower.solver", "lcpower.linalg",
               "lcpower.textio", "lcpower.core")

ROOT = 0  #: parent id of spans opened outside any other span


class Tracer:
    """Records spans and counts while installed (use as a context manager)."""

    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent_id)
        self.mul_calls = 0
        self.term_pairs = 0
        self._stack = [ROOT]
        self._next_id = ROOT + 1
        self._patches = []  # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def span(self, name: str, fn):
        """``fn`` wrapped so every call records one span called ``name``."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))

        return wrapper

    def _counted_mul(self, fn):
        @functools.wraps(fn)
        def wrapper(a, b):
            self.mul_calls += 1
            self.term_pairs += len(a.terms) * len(b.terms)
            return fn(a, b)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch_everywhere(self, original, wrapper, attr):
        for modname in _NAMESPACES:
            module = importlib.import_module(modname)
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def __enter__(self):
        for name, (modname, attr) in SPAN_TARGETS.items():
            owner = importlib.import_module(modname)
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                continue  # removed from the program: reads 0 calls
            wrapper = self.span(name, original)
            if cls_name:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._patch_everywhere(original, wrapper, attr)
        core = importlib.import_module("lcpower.core")
        mul = getattr(core, "_mul", None)
        if callable(mul):
            self._patch_everywhere(mul, self._counted_mul(mul), "_mul")
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- analysis -----------------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> (calls, self seconds) over everything recorded."""
        own = {sid: end - start for sid, _name, start, end, _parent in self.spans}
        for _sid, _name, start, end, parent in self.spans:
            if parent in own:
                own[parent] -= end - start
        out = defaultdict(lambda: [0, 0.0])
        for sid, name, _start, _end, _parent in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += own[sid] * 1e-9
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path):
        """Write the spans as CSV: id, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for row in self.spans:
                fh.write(",".join(map(str, row)) + "\n")
