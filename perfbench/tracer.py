"""In-process span tracer for the per-layer metrics.

Each traced function is wrapped at every name that binds it: module
globals across the package (so `from .spaces import rref` in jets is
wrapped too) and class attributes (`__radd__ = __add__`).  A span is
recorded only inside a job span opened by the harness, so input
generation and answer checking never count.  A span directly inside a
span of the same name is merged into it (contains -> reduce).

Self time is a span's duration minus the time covered by its child
spans; the cost of the metric observers is charged to nobody.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, span name); a trailing "*" globs module functions.
TRACED = [
    ("spaces", "rref", "spaces.rref"),
    ("spaces", "nullspace", "spaces.nullspace"),
    ("spaces", "FormSpace.span", "spaces.FormSpace.span"),
    ("spaces", "FormSpace.reduce", "spaces.reduce"),
    ("spaces", "FormSpace.contains", "spaces.reduce"),
    ("spaces", "FormSpace.coordinates_of", "spaces.reduce"),
    ("spaces", "monomials_of_degree", "spaces.monomials_of_degree"),
    ("spaces", "kernel_of_map", "spaces.kernel_of_map"),
    ("spaces", "vanishing_space", "spaces.vanishing_space"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "s_polynomial", "groebner.s_polynomial"),
    ("groebner", "reduce_poly", "groebner.reduce_poly"),
    ("groebner", "saturate_ideal", "groebner.saturate_ideal"),
    ("groebner", "is_zero_dimensional", "groebner.is_zero_dimensional"),
    ("poly", "Polynomial.__init__", "poly.Polynomial.init"),
    ("poly", "Polynomial.__mul__", "poly.mul"),
    ("poly", "Polynomial.__add__", "poly.add"),
    ("poly", "contract", "poly.contract"),
    ("poly", "evaluate", "poly.evaluate"),
    ("poly", "translate", "poly.translate"),
    ("poly", "compose_linear", "poly.compose_linear"),
    ("systems", "prolong", "systems.prolong"),
    ("systems", "is_saturated", "systems.is_saturated"),
    ("systems", "order", "systems.order"),
    ("systems", "validate", "systems.validate"),
    ("systems", "from_polynomial", "systems.from_polynomial"),
    ("model", "group_act", "model.group_act"),
    ("model", "euler_act", "model.euler_act"),
    ("model", "phi_eval", "model.phi_eval"),
    ("model", "implicitize", "model.implicitize"),
    ("model", "orbit_curve_degree", "model.orbit_curve_degree"),
    ("model", "build_model", "model.build_model"),
    ("jets", "jet_filtration", "jets.jet_filtration"),
    ("jets", "extract_fundamental_forms", "jets.extract_fundamental_forms"),
    ("jets", "cartan_check", "jets.cartan_check"),
    ("specfiles", "parse_symbol_file", "specfiles.parse_symbol_file"),
    ("specfiles", "parse_param_file", "specfiles.parse_param_file"),
    ("cli", "cmd_*", "cli.cmd"),
    ("cli", "Report.render", "cli.render"),
    ("cli", "main", "cli.main"),
]

# Per-layer metrics in the order BENCHMARK.json lists them, with units.
PER_LAYER = [
    ("spaces.rref.calls", "count"),
    ("spaces.rref.self_s", "s"),
    ("spaces.rref.cells", "count"),
    ("spaces.rref.max_bits", "bits"),
    ("spaces.rref.rank_ratio", "ratio"),
    ("spaces.nullspace.total_s", "s"),
    ("spaces.FormSpace.span.calls", "count"),
    ("spaces.FormSpace.span.self_s", "s"),
    ("spaces.reduce.calls", "count"),
    ("spaces.reduce.self_s", "s"),
    ("spaces.monomials_of_degree.calls", "count"),
    ("spaces.monomials_of_degree.self_s", "s"),
    ("spaces.kernel_of_map.total_s", "s"),
    ("spaces.vanishing_space.total_s", "s"),
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.total_s", "s"),
    ("groebner.buchberger.self_s", "s"),
    ("groebner.buchberger.out_len", "count"),
    ("groebner.s_polynomial.calls", "count"),
    ("groebner.s_polynomial.self_s", "s"),
    ("groebner.reduce_poly.calls", "count"),
    ("groebner.reduce_poly.self_s", "s"),
    ("groebner.reduce_poly.zero_ratio", "ratio"),
    ("groebner.saturate_ideal.calls", "count"),
    ("groebner.saturate_ideal.total_s", "s"),
    ("groebner.is_zero_dimensional.total_s", "s"),
    ("poly.Polynomial.init.calls", "count"),
    ("poly.mul.calls", "count"),
    ("poly.mul.self_s", "s"),
    ("poly.add.calls", "count"),
    ("poly.add.self_s", "s"),
    ("poly.contract.calls", "count"),
    ("poly.contract.self_s", "s"),
    ("poly.evaluate.calls", "count"),
    ("poly.evaluate.self_s", "s"),
    ("poly.translate.self_s", "s"),
    ("poly.compose_linear.self_s", "s"),
    ("systems.prolong.calls", "count"),
    ("systems.prolong.total_s", "s"),
    ("systems.prolong.self_s", "s"),
    ("systems.is_saturated.total_s", "s"),
    ("systems.order.total_s", "s"),
    ("systems.validate.calls", "count"),
    ("systems.validate.total_s", "s"),
    ("systems.from_polynomial.total_s", "s"),
    ("model.group_act.calls", "count"),
    ("model.group_act.total_s", "s"),
    ("model.group_act.self_s", "s"),
    ("model.euler_act.calls", "count"),
    ("model.euler_act.self_s", "s"),
    ("model.phi_eval.calls", "count"),
    ("model.phi_eval.self_s", "s"),
    ("model.implicitize.calls", "count"),
    ("model.implicitize.total_s", "s"),
    ("model.implicitize.self_s", "s"),
    ("model.orbit_curve_degree.calls", "count"),
    ("model.orbit_curve_degree.self_s", "s"),
    ("model.build_model.total_s", "s"),
    ("jets.jet_filtration.calls", "count"),
    ("jets.jet_filtration.total_s", "s"),
    ("jets.jet_filtration.self_s", "s"),
    ("jets.extract_fundamental_forms.total_s", "s"),
    ("jets.cartan_check.total_s", "s"),
    ("specfiles.parse_symbol_file.calls", "count"),
    ("specfiles.parse_symbol_file.self_s", "s"),
    ("specfiles.parse_param_file.calls", "count"),
    ("specfiles.parse_param_file.self_s", "s"),
    ("cli.cmd.self_s", "s"),
    ("cli.render.self_s", "s"),
    ("cli.main.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
]

MAX_SPANS = 50_000  # raw spans kept for the trace file; stats are never dropped


class BindingError(RuntimeError):
    """A traced name is missing, or bound to another object somewhere."""


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self.dropped = 0
        self._stack: list[list] = []  # [name, child_s, span index]

    # -------------------------------------------------------------- spans

    def _open(self, name):
        idx = -1
        if len(self.spans) < MAX_SPANS:
            parent = self._stack[-1][2] if self._stack else -1
            idx = len(self.spans)
            self.spans.append((name, None, None, parent))
        else:
            self.dropped += 1
        frame = [name, 0.0, idx]
        self._stack.append(frame)
        return frame

    def _close(self, frame, start, end):
        self._stack.pop()
        dt = end - start
        st = self.stats.setdefault(frame[0], [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame[1]
        if frame[2] >= 0:
            name, _, _, parent = self.spans[frame[2]]
            self.spans[frame[2]] = (name, start, end, parent)
        if self._stack:
            self._stack[-1][1] += dt

    @contextmanager
    def job(self, name):
        frame = self._open("job." + name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, perf_counter())

    def wrap(self, name, fn, observe=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack or stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, start, perf_counter())
            if observe is not None:
                t0 = perf_counter()
                observe(self.counters, args, result)
                stack[-1][1] += perf_counter() - t0
            return result

        return traced

    # ------------------------------------------------------------ install

    def install(self, package):
        """Wrap every TRACED function at every binding; fail on a mismatch."""
        prefix = package.__name__ + "."
        for mod in {mod for mod, _, _ in TRACED}:
            importlib.import_module(prefix + mod)
        modules = [package] + [m for name, m in sorted(sys.modules.items())
                               if name.startswith(prefix) and m is not None]
        classes = [v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith(prefix)]
        classes = list({id(c): c for c in classes}.values())
        targets = []  # (span name, original raw attribute)
        for mod, path, span in TRACED:
            home = importlib.import_module(prefix + mod)
            if path.endswith("*"):
                found = [v for k, v in vars(home).items()
                         if k.startswith(path[:-1]) and callable(v)]
                if not found:
                    raise BindingError(f"no {mod}.{path} functions")
                targets.extend((span, f) for f in found)
                continue
            owner = home
            *outer, last = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or last not in vars(owner):
                raise BindingError(f"{mod}.{path} does not exist")
            original = vars(owner)[last]
            if not outer:
                # every module-level binding of this name must be the same object
                for m in modules:
                    other = vars(m).get(last)
                    if other is not None and other is not original:
                        raise BindingError(
                            f"{m.__name__}.{last} is not {mod}.{last}; "
                            "it would escape the tracer")
            targets.append((span, original))
        observers = {"spaces.rref": _observe_rref,
                     "groebner.buchberger": _observe_buchberger,
                     "groebner.reduce_poly": _observe_reduce_poly}
        wrapped = {}
        for span, original in targets:
            fn = original.__func__ if isinstance(original, classmethod) else original
            w = self.wrap(span, fn, observers.get(span))
            wrapped[id(original)] = classmethod(w) if isinstance(original, classmethod) else w
        # `targets` keeps every original alive, so no id here is reused
        for namespace in modules + classes:
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrapped:
                    setattr(namespace, attr, wrapped[id(value)])

    # ------------------------------------------------------------ metrics

    def metrics(self, overhead_ratio):
        def stat(name, which):
            return self.stats.get(name, [0, 0.0, 0.0])[which]

        c = self.counters
        special = {
            "spaces.rref.cells": c.get("rref_cells", 0),
            "spaces.rref.max_bits": c.get("rref_max_bits", 0),
            "spaces.rref.rank_ratio": _ratio(c.get("rref_rank", 0), c.get("rref_rows", 0)),
            "groebner.buchberger.out_len": c.get("gb_out_len", 0),
            "groebner.reduce_poly.zero_ratio": _ratio(c.get("nf_zero", 0),
                                                      stat("groebner.reduce_poly", 0)),
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for metric, unit in PER_LAYER:
            if metric in special:
                value = special[metric]
            else:
                span, _, kind = metric.rpartition(".")
                value = stat(span, {"calls": 0, "total_s": 1, "self_s": 2}[kind])
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path):
        doc = {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counters": self.counters,
            "dropped_spans": self.dropped,
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
        }
        path.write_text(json.dumps(doc))


def _ratio(num, den):
    return num / den if den else 0.0


def _observe_rref(c, args, result):
    rows = args[0]
    reduced, pivots = result
    c["rref_rows"] = c.get("rref_rows", 0) + len(rows)
    c["rref_cells"] = c.get("rref_cells", 0) + len(rows) * (len(rows[0]) if rows else 0)
    c["rref_rank"] = c.get("rref_rank", 0) + len(pivots)
    bits = c.get("rref_max_bits", 0)
    for row in reduced:
        for x in row:
            if x:
                bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    c["rref_max_bits"] = bits


def _observe_buchberger(c, args, result):
    c["gb_out_len"] = c.get("gb_out_len", 0) + len(result)


def _observe_reduce_poly(c, args, result):
    c["nf_zero"] = c.get("nf_zero", 0) + result.is_zero()
