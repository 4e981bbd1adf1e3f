"""Exact Hurwitz-series toolkit.

Truncated exponential generating functions over exact coefficient rings, the
Almkvist-Meurman numbers M_n(h,k) by two independent routes, fixed-point
solutions of the tree-series functional equations, the four-parameter
generalization, and an end-to-end integrality certificate pipeline.
"""

from .bernoulli import (
    IntegralityCertificate,
    bernoulli_poly_at,
    certify,
    genocchi_oracle,
    inverse_tree_series,
    m_direct,
    m_direct_values,
    m_series,
    reduction_factor,
)
from .bfile import BFileEntry, compare_bfile, parse_bfile
from .fixpoint import (
    PhiSpec,
    am_phi,
    pk_of_series,
    solve_fixed_point,
    solve_tree_series,
    verify_exp_form,
    verify_postnikov_form,
)
from .rings import POLY, QQ, ZZ, MultiPoly, NonDivisibleError
from .series import EgfSeries, IntegralityReport, SeriesError
from .trees import count_alternating_trees

__all__ = [
    "BFileEntry",
    "EgfSeries",
    "IntegralityCertificate",
    "IntegralityReport",
    "MultiPoly",
    "NonDivisibleError",
    "PhiSpec",
    "POLY",
    "QQ",
    "ZZ",
    "SeriesError",
    "am_phi",
    "bernoulli_poly_at",
    "certify",
    "compare_bfile",
    "count_alternating_trees",
    "genocchi_oracle",
    "inverse_tree_series",
    "m_direct",
    "m_direct_values",
    "m_series",
    "parse_bfile",
    "pk_of_series",
    "reduction_factor",
    "solve_fixed_point",
    "solve_tree_series",
    "verify_exp_form",
    "verify_postnikov_form",
]

__version__ = "0.1.0"
