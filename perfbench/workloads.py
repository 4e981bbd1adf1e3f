"""The benchmark's workloads: items drawn from a seed, each with a check of its
output against an independent oracle.

Items call ``hurwitz`` only through module attributes looked up at call time
(``bernoulli.m_series``), so the tracer's wrappers, once installed, see every
call.  Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import oracles
from hurwitz import bernoulli, parametric, verify
from hurwitz.rings import POLY
from hurwitz.series import EgfSeries

AM_ORDER = 40
AM_H = 16
AM_K = 12
AM_PER_K = 10
CERTIFY_ORDER = 32
CERTIFY_K = 6
PARAMETRIC_ORDER = 7
# The sizes of ``verify.all_checks(quick=True)``'s hurwitz-closure entry,
# repeated here so the seed can be passed to it.
CLOSURE_INSTANCES = 50
CLOSURE_ORDER = 8

CERTIFICATE_STEPS = [
    "reduction-factor",
    "tree-series",
    "comp-inverse",
    "subst-exp",
    "final-equality",
]


@dataclass(frozen=True)
class Item:
    label: str
    k: Optional[int]  # the item's k, for the sharing ratio; None if it has none
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None, or what is wrong


# -- am-grid -----------------------------------------------------------------


class AmOutput(NamedTuple):
    gf: tuple
    q: tuple
    routes_agree: bool
    integral: bool
    reduced: bool


def am_item(h: int, k: int) -> AmOutput:
    gf = bernoulli.m_series(h, k, AM_ORDER)
    direct = bernoulli.m_direct_values(h, k, AM_ORDER)
    q = bernoulli.reduction_factor(h, k, AM_ORDER)
    return AmOutput(
        gf=gf.coeffs,
        q=q.coeffs,
        routes_agree=list(gf.coeffs) == direct,
        integral=gf.integrality_report().integral,
        reduced=q * bernoulli.m_series(1, abs(k), AM_ORDER) == gf,
    )


def check_am(h: int, k: int, out: AmOutput) -> Optional[str]:
    if not (out.routes_agree and out.integral and out.reduced):
        return f"program's own checks failed: {out[2:]}"
    expected = oracles.am_numbers(h, k, AM_ORDER)
    if list(out.gf) != expected:
        return "M_n(h,k) differs from the Bernoulli-number oracle"
    if not oracles.is_integral(out.q):
        return "reduction factor is not integral"
    if oracles.egf_product(out.q, oracles.am_numbers(1, abs(k), AM_ORDER)) != expected:
        return "Q * gf(1,|k|) != gf(h,k) by the oracle's convolution"
    return None


def am_grid(seed: int) -> list[Item]:
    rng = random.Random(seed)
    pairs = [
        (rng.randint(-AM_H, AM_H), ka * rng.choice((1, -1)))
        for ka in range(1, AM_K + 1)
        for _ in range(AM_PER_K)
    ]
    rng.shuffle(pairs)
    return [
        Item(f"am({h},{k})", k, partial(am_item, h, k), partial(check_am, h, k))
        for h, k in pairs
    ]


# -- certify -----------------------------------------------------------------


def certify_item(h: int, k: int):
    cert = bernoulli.certify(h, k, CERTIFY_ORDER)
    return cert, bernoulli.m_series(h, k, CERTIFY_ORDER).coeffs


def check_certify(h: int, k: int, out) -> Optional[str]:
    cert, values = out
    if not cert.valid or [s.name for s in cert.steps] != CERTIFICATE_STEPS:
        return "certificate is not valid:\n" + cert.render()
    if list(values) != oracles.am_numbers(h, k, CERTIFY_ORDER):
        return "certified M_n(h,k) differ from the Bernoulli-number oracle"
    if not oracles.is_integral(values):
        return "certified M_n(h,k) are not integers"
    return None


def certify_cases(seed: int) -> list[Item]:
    rng = random.Random(seed)
    cases = [
        (rng.randint(-AM_H, AM_H), ka * rng.choice((1, -1)))
        for ka in range(1, CERTIFY_K + 1)
    ]
    rng.shuffle(cases)
    return [
        Item(f"certify({h},{k})", k, partial(certify_item, h, k), partial(check_certify, h, k))
        for h, k in cases
    ]


# -- parametric --------------------------------------------------------------


class ParametricOutput(NamedTuple):
    f: tuple
    inverse: tuple
    integral: bool
    functional_equation: bool
    inverts: bool


def parametric_item() -> ParametricOutput:
    f = parametric.solve_parametric_f(PARAMETRIC_ORDER)
    integral = f.integrality_report().integral
    functional_equation = parametric.verify_functional_equation(f)
    inverse = parametric.parametric_inverse_series(PARAMETRIC_ORDER)
    inverts = inverse.compose(f) == EgfSeries.basis(1, PARAMETRIC_ORDER, POLY)
    return ParametricOutput(f.coeffs, inverse.coeffs, integral, functional_equation, inverts)


def check_parametric(out: ParametricOutput) -> Optional[str]:
    if not (out.integral and out.functional_equation and out.inverts):
        return f"program's own checks failed: {out[2:]}"
    if out.f[0].terms or out.inverse[0].terms:
        return "nonzero constant term"
    for n in range(1, PARAMETRIC_ORDER + 1):
        f_terms = out.f[n].terms
        if any(sum(e) != n - 1 for e in f_terms):
            return f"F_{n} is not homogeneous of degree {n - 1}"
        if not oracles.is_integral(f_terms.values()):
            return f"F_{n} has a non-integer coefficient"
        if oracles.k2_specialization(f_terms) != oracles.alternating_trees(n):
            return f"F_{n} at a1=b2=1, a2=b1=0 differs from Postnikov's closed form"
        if out.inverse[n].terms != oracles.parametric_inverse_terms(n):
            return f"inverse coefficient {n} differs from the closed form"
    return None


def parametric_single(seed: int) -> list[Item]:
    del seed  # deterministic workload: the seed is recorded, not used
    return [Item("parametric", None, parametric_item, check_parametric)]


# -- verify-quick -------------------------------------------------------------


def check_passed(passed) -> Optional[str]:
    return None if passed is True else f"check returned {passed!r}"


def hurwitz_closure(seed: int) -> bool:
    return verify.check_hurwitz_closure(CLOSURE_INSTANCES, CLOSURE_ORDER, seed=seed)


def verify_quick(seed: int) -> list[Item]:
    items = []
    for name, check in verify.all_checks(quick=True):
        if name == "hurwitz-closure":
            check = partial(hurwitz_closure, seed)
        items.append(Item(name, None, check, check_passed))
    return items


WORKLOADS: dict[str, Callable[[int], list[Item]]] = {
    "am-grid": am_grid,
    "certify": certify_cases,
    "parametric": parametric_single,
    "verify-quick": verify_quick,
}


def sharing_ratio(items: list[Item]) -> Optional[float]:
    """Items per distinct |k|; None for a workload whose items have no k."""
    ks = [abs(item.k) for item in items if item.k is not None]
    return len(ks) / len(set(ks)) if ks else None
