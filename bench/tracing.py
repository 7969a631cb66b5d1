"""Outside-in tracing of equideg, from the benchmark's side.

The tracer wraps public entry points of the package without editing it.  The
modules import each other's functions with ``from .x import f``, so a wrapper
is put in place of the original in every equideg module namespace, and every
class attribute, that holds it; wrapping only the defining module would miss
those calls.  Each wrapped call counts one call; except for hot leaves, it
also records the key of its arguments and one span: name, parent span, start
and end.  A layer is the module that defines the entry point, and its self
time is the time of its spans minus the time of their child spans.  Spans
stay in memory until the benchmark writes them out.  An entry point that the
package no longer has is listed as absent, and its counts read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("groups", "reps", "spectrum", "orbit_types", "burnside", "degrees",
          "bifurcation", "model_io")

# (module, attribute path, mode); "span" records spans, "count" only counts
# calls (hot leaves, whose time stays with the caller).
TARGETS = (
    ("groups", "group_from_generators", "span"),
    ("groups", "direct_product", "span"),
    ("groups", "FiniteGroup.all_subgroups", "span"),
    ("reps", "antipodal_product", "span"),
    ("reps", "isotypic_components", "span"),
    ("reps", "irreps_with_antipodal", "span"),
    ("spectrum", "BesselZeroTable.__init__", "span"),
    ("spectrum", "bessel_zero", "span"),
    ("spectrum", "bessel_j", "count"),
    ("spectrum", "critical_points", "span"),
    ("orbit_types", "AmbientContext.__init__", "span"),
    ("orbit_types", "AmbientContext.intern", "span"),
    ("orbit_types", "orbit_types", "span"),
    ("orbit_types", "maximal_types", "span"),
    ("orbit_types", "fold", "span"),
    ("orbit_types", "leq", "span"),
    ("orbit_types", "n_amalgam", "span"),
    ("orbit_types", "ambient_weyl_order", "span"),
    ("orbit_types", "conjugate_in_g", "span"),
    ("orbit_types", "fixed_dim_irrep", "span"),
    ("burnside", "generator_product", "span"),
    ("burnside", "BurnsideElement.__mul__", "span"),
    ("degrees", "basic_degree", "span"),
    ("bifurcation", "local_invariant", "span"),
    ("bifurcation", "folding_profile", "span"),
    ("bifurcation", "theorem_bounded_coeff", "span"),
    ("bifurcation", "branch_certificates", "span"),
    ("bifurcation", "global_verdict", "span"),
    ("model_io", "load_model", "span"),
    ("model_io", "run_report", "span"),
    ("model_io", "report_json", "span"),
)

# Entry points whose distinct keys come from the returned orbit type rather
# than the arguments: intern receives a fresh subgroup object each call.
RESULT_KEYED = {"AmbientContext.intern"}

# per-layer metric -> (entry point, "calls" | "distinct")
COUNT_METRICS = {
    "spectrum.bessel_j_calls": ("bessel_j", "calls"),
    "spectrum.bessel_zero_calls": ("bessel_zero", "calls"),
    "orbit_types.conjugacy_tests": ("conjugate_in_g", "calls"),
    "orbit_types.n_amalgam_calls": ("n_amalgam", "calls"),
    "orbit_types.n_amalgam_distinct": ("n_amalgam", "distinct"),
    "orbit_types.leq_calls": ("leq", "calls"),
    "orbit_types.weyl_calls": ("ambient_weyl_order", "calls"),
    "orbit_types.fold_calls": ("fold", "calls"),
    "orbit_types.fold_distinct": ("fold", "distinct"),
    "orbit_types.intern_calls": ("AmbientContext.intern", "calls"),
    "orbit_types.intern_distinct": ("AmbientContext.intern", "distinct"),
    "burnside.product_calls": ("generator_product", "calls"),
    "burnside.product_distinct": ("generator_product", "distinct"),
    "burnside.mul_calls": ("BurnsideElement.__mul__", "calls"),
    "degrees.basic_degree_calls": ("basic_degree", "calls"),
    "degrees.basic_degree_distinct": ("basic_degree", "distinct"),
    "bifurcation.profile_calls": ("folding_profile", "calls"),
    "bifurcation.profile_distinct": ("folding_profile", "distinct"),
    "bifurcation.invariant_calls": ("local_invariant", "calls"),
    "bifurcation.invariant_distinct": ("local_invariant", "distinct"),
}



def arg_key(x):
    """A hashable stand-in for one argument, stable from run to run.

    Orbit types stand for their integer key and critical points for their id;
    contexts, problems and models (one per model) stand for their type name.
    """
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, tuple):
        return tuple(arg_key(v) for v in x)
    key = getattr(x, "key", None)
    if isinstance(key, int):
        return key
    cid = getattr(x, "id", None)
    if isinstance(cid, tuple):
        return cid
    return type(x).__name__


class Trace:
    """Calls, distinct keys, spans and layer self times of one traced stretch."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.keys: dict[str, set] = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.spans: list[list] = []  # [name, parent span index, start, end]
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span index, time in child spans]

    def _wrap(self, fn, name: str, layer: str, mode: str):
        calls, stack, spans, self_s = self.calls, self._stack, self.spans, self.self_s
        keys = self.keys.setdefault(name, set())
        by_result = name in RESULT_KEYED
        clock = time.perf_counter

        if mode == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            if not by_result:
                keys.add((arg_key(args), arg_key(tuple(sorted(kwargs.items())))))
            parent = stack[-1][0] if stack else -1
            span = [name, parent, clock(), 0.0]
            spans.append(span)
            frame = [len(spans) - 1, 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                span[3] = end
                stack.pop()
                dur = end - span[2]
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if by_result:
                keys.add(arg_key(out))
            return out
        return spanned

    @contextmanager
    def installed(self):
        """Put the wrappers in place for the body of the with-block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "equideg" or n.startswith("equideg."))]
        patches = []  # (namespace object, attribute, original)
        try:
            for mod_name, path, mode in TARGETS:
                # not getattr(package, name): the package's orbit_types is
                # the function of that name, not the module
                mod = sys.modules.get(f"equideg.{mod_name}")
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                original = getattr(owner, "__dict__", {}).get(attr)
                if original is None:
                    self.absent.append(f"{mod_name}.{path}")
                    continue
                wrapper = self._wrap(original, path, mod_name, mode)
                holders = [owner] if owner_name else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            patches.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    def metrics(self) -> dict[str, float]:
        out = {f"{layer}.self_s": t for layer, t in self.self_s.items()}
        # inclusive time of the outermost orbit_types() calls
        out["orbit_types.enum_s"] = sum(
            end - start for name, parent, start, end in self.spans
            if name == "orbit_types" and not self._has_ancestor(parent, "orbit_types"))
        for metric, (name, what) in COUNT_METRICS.items():
            out[metric] = self.calls[name] if what == "calls" else len(self.keys.get(name, ()))
        return out

    def counts(self) -> dict[str, int]:
        """The integer part of metrics(), which must repeat exactly."""
        return {k: v for k, v in self.metrics().items() if isinstance(v, int)}

    def _has_ancestor(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False
