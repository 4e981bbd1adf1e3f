"""Outside-in tracer: spans around calls into each layer's public functions.

``install`` replaces public functions and methods of ``hurwitz`` with wrappers
that record a span (name, parent span, start, end) and exact work counts.
Nothing under ``src/`` is edited, so the spans stop at public boundaries:
``Fraction`` arithmetic inside a series kernel is that kernel's self time.

A span's self time is its duration minus the durations of its child spans.
A layer is the part of a span name before the first dot.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

from hurwitz import bernoulli, fixpoint, parametric, trees, verify
from hurwitz.rings import MultiPoly
from hurwitz.series import EgfSeries

LAYERS = ("rings", "series", "fixpoint", "bernoulli", "parametric", "trees", "verify")

# span names whose call count, self time and total time are reported
REPORTED = {
    "series.mul": ("calls", "self_s"),
    "series.reciprocal": ("calls", "self_s"),
    "series.compose": ("self_s",),
    "series.comp_inverse": ("self_s",),
    "rings.multipoly_mul": ("calls", "self_s"),
    "rings.multipoly_add": ("self_s",),
    "rings.exact_div": ("self_s",),
    "fixpoint.solve": ("calls", "total_s"),
    "bernoulli.m_series": ("total_s",),
    "bernoulli.m_direct_values": ("total_s",),
    "bernoulli.reduction_factor": ("total_s",),
    "bernoulli.certify": ("total_s",),
    "parametric.solve_f": ("total_s",),
    "parametric.functional_equation": ("total_s",),
    "parametric.inverse_series": ("total_s",),
    "trees.count": ("total_s",),
}


def coeff_bits(c) -> int:
    if isinstance(c, MultiPoly):
        return max((coeff_bits(v) for v in c.terms.values()), default=0)
    c = Fraction(c)
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def term_count(x) -> int:
    return len(x.terms) if isinstance(x, MultiPoly) else 1


def count_coeff_bits(counts: Counter, args, result) -> None:
    bits = max(coeff_bits(c) for c in result.coeffs)
    counts["rings.coeff_bits_max"] = max(counts["rings.coeff_bits_max"], bits)


def count_series_mul(counts: Counter, args, result) -> None:
    n = args[0].order
    counts["series.mul.coeff_ops"] += (n + 1) * (n + 2) // 2
    count_coeff_bits(counts, args, result)


def count_term_pairs(counts: Counter, args, result) -> None:
    counts["rings.multipoly_mul.term_pairs"] += term_count(args[0]) * term_count(args[1])


def count_prufer_decodes(counts: Counter, args, result) -> None:
    m = args[0]
    counts["trees.prufer_decodes"] += m ** (m - 2) if m >= 2 else 0


# (class, method) -> (span name, count hook)
METHODS = {
    (EgfSeries, "__add__"): ("series.add", None),
    (EgfSeries, "__sub__"): ("series.sub", None),
    (EgfSeries, "scale"): ("series.scale", None),
    (EgfSeries, "__mul__"): ("series.mul", count_series_mul),
    (EgfSeries, "reciprocal"): ("series.reciprocal", count_coeff_bits),
    (EgfSeries, "div_by_x"): ("series.div_by_x", None),
    (EgfSeries, "mul_by_x"): ("series.mul_by_x", None),
    (EgfSeries, "compose"): ("series.compose", count_coeff_bits),
    (EgfSeries, "comp_inverse"): ("series.comp_inverse", count_coeff_bits),
    (EgfSeries, "exp"): ("series.exp", count_coeff_bits),
    (EgfSeries, "log"): ("series.log", count_coeff_bits),
    (EgfSeries, "subst_exp_minus_one"): ("series.subst_exp_minus_one", None),
    (EgfSeries, "integrality_report"): ("series.integrality_report", None),
    # __rmul__, __radd__ and __rsub__ alias or call these; every alias is
    # rebound, so ``int * MultiPoly`` is counted too
    (MultiPoly, "__mul__"): ("rings.multipoly_mul", count_term_pairs),
    (MultiPoly, "__add__"): ("rings.multipoly_add", None),
    (MultiPoly, "__sub__"): ("rings.multipoly_sub", None),
    (MultiPoly, "exact_div"): ("rings.exact_div", None),
}

# (module, function) -> (span name, count hook)
FUNCTIONS = {
    (fixpoint, "solve_fixed_point"): ("fixpoint.solve", None),
    (fixpoint, "solve_tree_series"): ("fixpoint.solve_tree_series", None),
    (fixpoint, "pk_of_series"): ("fixpoint.pk_of_series", None),
    (fixpoint, "sum_powers_against_basis"): ("fixpoint.sum_powers", None),
    (fixpoint, "verify_exp_form"): ("fixpoint.verify_exp_form", None),
    (fixpoint, "verify_postnikov_form"): ("fixpoint.verify_postnikov_form", None),
    (bernoulli, "m_series"): ("bernoulli.m_series", None),
    (bernoulli, "m_direct"): ("bernoulli.m_direct", None),
    (bernoulli, "m_direct_values"): ("bernoulli.m_direct_values", None),
    (bernoulli, "reduction_factor"): ("bernoulli.reduction_factor", None),
    (bernoulli, "certify"): ("bernoulli.certify", None),
    (bernoulli, "inverse_tree_series"): ("bernoulli.inverse_tree_series", None),
    (bernoulli, "genocchi_oracle"): ("bernoulli.genocchi_oracle", None),
    (parametric, "solve_parametric_f"): ("parametric.solve_f", None),
    (parametric, "verify_functional_equation"): ("parametric.functional_equation", None),
    (parametric, "parametric_inverse_series"): ("parametric.inverse_series", None),
    (parametric, "specialize_k2"): ("parametric.specialize_k2", None),
    (parametric, "beta_series_identity"): ("parametric.beta_identity", None),
    (parametric, "beta_rhs_table"): ("parametric.beta_rhs_table", None),
    (trees, "count_alternating_trees"): ("trees.count", count_prufer_decodes),
}

# factories of PhiSpec; the ``apply`` of every spec they return is traced
PHI_FACTORIES = ((fixpoint, "am_phi"), (parametric, "parametric_phi"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                # the hook's own time is a span of its own, so it is charged
                # to the tracer and not to the caller
                hook_span = ["trace.hook", stack[-1], clock(), 0.0]
                spans.append(hook_span)
                hook(counts, args, result)
                hook_span[3] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every listed function and method, rebinding the wrapper under
        every name that holds the original: the ``from ... import`` copies in
        each ``hurwitz`` module and the operator aliases in each class."""
        modules = [
            m for name, m in sys.modules.items()
            if name == "hurwitz" or name.startswith("hurwitz.")
        ]
        for (cls, attr), (name, hook) in METHODS.items():
            original = vars(cls)[attr]
            rebind([cls], original, self.wrap(name, original, hook))
        for (module, attr), (name, hook) in FUNCTIONS.items():
            original = getattr(module, attr)
            rebind(modules, original, self.wrap(name, original, hook))
        # the full-size list names each check function; the quick list's
        # lambdas call the same module-level functions
        for check_name, original in verify.all_checks():
            rebind(modules, original, self.wrap(f"verify.{check_name}", original))
        for module, attr in PHI_FACTORIES:
            rebind(modules, getattr(module, attr), self.trace_phi(getattr(module, attr)))

    def trace_phi(self, factory):
        def make(*args, **kwargs):
            spec = factory(*args, **kwargs)
            return replace(spec, apply=self.wrap("fixpoint.phi", spec.apply))

        return make

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced pass whose timed region took
        ``wall_s``: name -> (value, unit)."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()  # outermost spans of each name only
        layer_self: Counter = Counter()
        layer_under: Counter = Counter()  # outermost spans of each layer only
        for i, (name, parent, start, end) in enumerate(spans):
            layer = name.split(".", 1)[0]
            own = end - start - child_s[i]
            calls[name] += 1
            self_s[name] += own
            layer_self[layer] += own
            ancestors = []
            while parent >= 0:
                ancestors.append(spans[parent][0])
                parent = spans[parent][1]
            if name not in ancestors:
                total_s[name] += end - start
            if not any(a.split(".", 1)[0] == layer for a in ancestors):
                layer_under[layer] += end - start

        out: dict[str, tuple[float, str]] = {}
        for name, kinds in REPORTED.items():
            for kind in kinds:
                if kind == "calls":
                    out[f"{name}.calls"] = (calls[name], "count")
                else:
                    out[f"{name}.{kind}"] = ((self_s if kind == "self_s" else total_s)[name], "s")
        for check_name, _ in verify.all_checks():
            out[f"verify.{check_name}.total_s"] = (total_s[f"verify.{check_name}"], "s")
        out["series.mul.coeff_ops"] = (self.counts["series.mul.coeff_ops"], "count")
        out["rings.coeff_bits_max"] = (self.counts["rings.coeff_bits_max"], "bit")
        out["rings.multipoly_mul.term_pairs"] = (self.counts["rings.multipoly_mul.term_pairs"], "count")
        out["fixpoint.phi_applications"] = (calls["fixpoint.phi"], "count")
        out["trees.prufer_decodes"] = (self.counts["trees.prufer_decodes"], "count")
        cache = bernoulli.bernoulli_factor.cache_info()
        lookups = cache.hits + cache.misses
        out["bernoulli.factor_cache_hits"] = (cache.hits, "count")
        out["bernoulli.factor_cache_misses"] = (cache.misses, "count")
        out["bernoulli.factor_cache_hit_ratio"] = (cache.hits / lookups if lookups else 0.0, "ratio")
        for layer in LAYERS:
            out[f"{layer}.self_share"] = (layer_self[layer] / wall_s, "ratio")
            out[f"{layer}.under_share"] = (layer_under[layer] / wall_s, "ratio")
        out["trace.hook_s"] = (self_s["trace.hook"], "s")
        out["trace.spans"] = (len(spans), "count")
        return out

    def write(self, path) -> None:
        """All spans as JSON: a list of [name, parent index, start, end]."""
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def rebind(namespaces, original, wrapper) -> None:
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, wrapper)
