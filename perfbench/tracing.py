"""In-memory spans and counters around the library's public functions.

Nothing under ``src/`` is edited.  ``install()`` replaces functions with
wrappers in every ``khintchine`` module namespace that bound them (the library
imports by name, so patching only the defining module would miss calls such
as ``verifier.cond2.integrate``), and wraps the ``Interval`` operators in
counter-only wrappers.  A span is (name, start, end, parent); spans stay in
memory until ``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# Span name -> (defining module, attribute).  The layer is the text before the
# first dot of the span name.
SPANNED = {
    "quad.integrate": ("khintchine.quad", "integrate"),
    "quad.tail_bound_mu_p": ("khintchine.quad", "tail_bound_mu_p"),
    "quad.near_zero_bound": ("khintchine.quad", "near_zero_bound"),
    "specfun.neg_ln_cos_excess": ("khintchine.specfun", "neg_ln_cos_excess"),
    "specfun.zeta_sum": ("khintchine.specfun", "zeta_sum"),
    "specfun.gamma_iv": ("khintchine.specfun", "gamma_iv"),
    "specfun.b_constant": ("khintchine.specfun", "b_constant"),
    "specfun.ei_neg": ("khintchine.specfun", "ei_neg"),
    "specfun.si": ("khintchine.specfun", "si"),
    "specfun.ci": ("khintchine.specfun", "ci"),
    "distfn.f_star": ("khintchine.distfn", "f_star"),
    "distfn.g_star": ("khintchine.distfn", "g_star"),
    "engine.prove_positive_1d": ("khintchine.verifier.engine", "prove_positive_1d"),
    "engine.prove_positive_2d": ("khintchine.verifier.engine", "prove_positive_2d"),
    "npcheck.np_generic": ("khintchine.verifier.npcheck", "np_generic"),
    "oracle.random_unit_vectors": ("khintchine.oracle", "random_unit_vectors"),
    "oracle.khintchine_check": ("khintchine.oracle", "khintchine_check"),
    "oracle.steckin_convergence": ("khintchine.oracle", "steckin_convergence"),
    "oracle.monte_carlo_moment": ("khintchine.oracle", "monte_carlo_moment"),
    "oracle.exact_moment": ("khintchine.oracle", "exact_moment"),
    "cli.run": ("khintchine.cli", "run"),
}

# The top-level checks the workloads run; each gets a ``verifier.<fn>`` span.
CHECKS = (
    "check_conclusion_direct",
    "check_np_cos_gauss",
    "check_cond1_sign_at_sigma",
    "check_cond1_small_x",
    "check_cond1_monotone",
    "check_cond2_hprime",
    "check_cond2_h2",
)
SPANNED.update({"verifier." + fn: ("khintchine.verifier", fn) for fn in CHECKS})

SPECFUN = ("neg_ln_cos_excess", "zeta_sum", "gamma_iv", "b_constant", "ei_neg", "si", "ci")
LAYERS = ("cli", "verifier", "npcheck", "engine", "quad", "distfn", "specfun", "oracle")

# Interval attributes behind the interval.arith_ops and interval.elem_ops counters.
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__neg__", "__pow__")
ELEM = ("exp", "ln", "sqrt", "abs", "arccos", "cos", "sin")
COUNTERS = ("interval.objects", "interval.arith_ops", "interval.elem_ops",
            "interval.from_fraction", "interval.pow_real")


def _library_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "khintchine" or n.startswith("khintchine."))]


def rebind(old, new) -> list[str]:
    """Replace ``old`` by ``new`` in every loaded khintchine namespace."""
    bound = []
    for mod in _library_modules():
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)
                bound.append(f"{mod.__name__}.{attr}")
    return bound


class Tracer:
    """Spans kept in parallel arrays, indexed in start order."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self.counts = {c: [0] for c in COUNTERS}
        self.bound: dict[str, list[str]] = {}
        self._stack = [-1]

    def span(self, name: str, fn, on_result=None):
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
            self.layers.append(name.split(".", 1)[0])
        stack, names, parents, starts, ends = (
            self._stack, self.name, self.parent, self.start, self.end)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if on_result is not None:
                self.attrs[i] = on_result(out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every spanned function and the Interval kernel operators."""
        import khintchine.cli
        from khintchine.interval import Interval

        hooks = {
            "quad.integrate": lambda r: {"cells": r.cells, "status": r.status},
            "engine.prove_positive_1d": lambda r: {"cells": r[1], "status": r[2]},
            "engine.prove_positive_2d": lambda r: {"cells": r[1], "status": r[2]},
            "npcheck.np_generic": lambda r: {"cells": r.children[0].evaluations},
        }
        for name, (modname, attr) in SPANNED.items():
            orig = getattr(sys.modules[modname], attr)
            self.bound[name] = rebind(orig, self.span(name, orig, hooks.get(name)))

        report = khintchine.cli.Report
        report.to_json = self.span("cli.to_json", report.to_json,
                                   lambda s: {"bytes": len(s.encode())})

        def counted(fn, cell):
            def wrapper(*args):
                cell[0] += 1
                return fn(*args)
            return wrapper

        c = self.counts
        Interval.__init__ = counted(Interval.__init__, c["interval.objects"])
        for attr in ARITH:
            setattr(Interval, attr, counted(getattr(Interval, attr), c["interval.arith_ops"]))
        for attr in ELEM:
            setattr(Interval, attr, counted(getattr(Interval, attr), c["interval.elem_ops"]))
        Interval.from_fraction = staticmethod(
            counted(Interval.from_fraction, c["interval.from_fraction"]))
        pow_real = sys.modules["khintchine.interval"].pow_real
        self.bound["interval.pow_real"] = rebind(
            pow_real, counted(pow_real, c["interval.pow_real"]))

    # -- analysis ---------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far.

        A layer's time counts only its outermost spans, so a layer calling
        itself is not counted twice.  Self time is a span's duration minus the
        time its child spans cover; the kernel has no spans, so its time is
        part of its callers' self time.
        """
        n = len(self.start)
        layer_of = [self.layers[k] for k in self.name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        outer = [True] * n
        for i in range(n):
            layer, j = layer_of[i], self.parent[i]
            while j >= 0:
                if layer_of[j] == layer:
                    outer[i] = False
                    break
                j = self.parent[j]

        m: dict[str, float] = {k: float(v[0]) for k, v in self.counts.items()}
        m.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        layer_s: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            layer = layer_of[i]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur[i]
            if outer[i]:
                layer_s[layer] = layer_s.get(layer, 0.0) + dur[i]
            m[f"{layer}.self_s"] += dur[i] - child[i]
        top = sum(dur[i] for i in range(n) if self.parent[i] < 0)
        m["other.self_s"] = wall_s - top

        for fn in SPECFUN:
            m[f"specfun.{fn}.calls"] = float(calls.get(f"specfun.{fn}", 0))
            m[f"specfun.{fn}.s"] = incl.get(f"specfun.{fn}", 0.0)
        for fn in CHECKS:
            m[f"verifier.{fn}.s"] = incl.get(f"verifier.{fn}", 0.0)

        def attrs(name):
            nid = self._name_id.get(name)
            return [a for i, a in self.attrs.items() if self.name[i] == nid]

        quad = attrs("quad.integrate")
        m["quad.integrations"] = float(len(quad))
        m["quad.cells"] = float(sum(a["cells"] for a in quad))
        m["quad.s"] = incl.get("quad.integrate", 0.0)
        m["quad.cells_per_s"] = m["quad.cells"] / m["quad.s"] if m["quad.s"] else 0.0
        m["quad.wide"] = float(sum(a["status"] == "wide" for a in quad))
        m["quad.ok_ratio"] = (sum(a["status"] == "ok" for a in quad) / len(quad)
                              if quad else 0.0)

        m["distfn.f_star.calls"] = float(calls.get("distfn.f_star", 0))
        m["distfn.s"] = layer_s.get("distfn", 0.0)

        engine = attrs("engine.prove_positive_1d") + attrs("engine.prove_positive_2d")
        m["engine.cells"] = float(sum(a["cells"] for a in engine))
        m["engine.s"] = layer_s.get("engine", 0.0)
        m["engine.inconclusive"] = float(sum(a["status"] == "inconclusive" for a in engine))

        m["npcheck.classifier_cells"] = float(
            sum(a["cells"] for a in attrs("npcheck.np_generic")))
        # np_generic is the only npcheck span; its children are distfn and quad
        m["npcheck.classifier_self_s"] = m["npcheck.self_s"]

        m["oracle.s"] = layer_s.get("oracle", 0.0)
        m["cli.report_s"] = incl.get("cli.to_json", 0.0)
        m["cli.report_bytes"] = float(sum(a["bytes"] for a in attrs("cli.to_json")))
        m["trace.spans"] = float(n)
        return m

    def dump(self, path: str) -> None:
        """Write the spans, counters and bindings as one JSON document."""
        doc = {
            "names": self.names,
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            },
            "attrs": {str(i): a for i, a in self.attrs.items()},
            "counts": {k: v[0] for k, v in self.counts.items()},
            "bound": self.bound,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
