"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The oracles are checked against published values, and the exact work counts
of a traced pass must repeat for a given seed.  Passes run in fresh
interpreters, as in the benchmark, because installing the tracer rebinds
names inside ``hurwitz``.
"""

import json
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402

EXACT_COUNTS = (
    "series.mul.calls",
    "series.mul.coeff_ops",
    "series.reciprocal.calls",
    "rings.coeff_bits_max",
    "rings.multipoly_mul.calls",
    "rings.multipoly_mul.term_pairs",
    "fixpoint.solve.calls",
    "fixpoint.phi_applications",
    "trees.prufer_decodes",
    "bernoulli.factor_cache_hits",
    "bernoulli.factor_cache_misses",
)

# counts each workload must move (nonzero); every other exact count is zero
NONZERO = {
    "am-grid": {
        "series.mul.calls", "series.mul.coeff_ops", "series.reciprocal.calls",
        "rings.coeff_bits_max", "bernoulli.factor_cache_hits",
        "bernoulli.factor_cache_misses",
    },
    "certify": {
        "series.mul.calls", "series.mul.coeff_ops", "series.reciprocal.calls",
        "rings.coeff_bits_max", "fixpoint.solve.calls", "fixpoint.phi_applications",
        "bernoulli.factor_cache_hits", "bernoulli.factor_cache_misses",
    },
    "parametric": {
        "series.mul.calls", "series.mul.coeff_ops", "rings.coeff_bits_max",
        "rings.multipoly_mul.calls", "rings.multipoly_mul.term_pairs",
        "fixpoint.solve.calls", "fixpoint.phi_applications",
    },
    "verify-quick": set(EXACT_COUNTS),
}


def traced_pass(workload: str, seed: int, spans: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(spans)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_am_oracle_gives_genocchi_numbers():
    assert oracles.am_numbers(1, 2, 8) == [0, 1, -1, 0, 1, 0, -3, 0, 17]


def test_bernoulli_oracle():
    b = oracles.bernoulli_numbers(12)
    assert b[:3] == (1, -Fraction(1, 2), Fraction(1, 6))
    assert b[12] == Fraction(-691, 2730)


def test_postnikov_oracle_counts_alternating_trees():
    # OEIS A007889
    assert [oracles.alternating_trees(n) for n in range(1, 7)] == [1, 2, 7, 36, 246, 2104]


def test_parametric_oracle_specializes_to_factorial_sums():
    # at a1 = b2 = 1, a2 = b1 = 0 the inverse is 2 log(1+x)/(2+x)
    sums = [(-1) ** (n - 1) * sum(
        factorial(i) * factorial(n - 1 - i) for i in range(n)
    ) for n in range(1, 8)]
    assert [oracles.k2_specialization(oracles.parametric_inverse_terms(n))
            for n in range(1, 8)] == sums


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_counts_repeat_exactly(workload):
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"test-spans-{workload}.json"
    first = traced_pass(workload, 7, spans)
    second = traced_pass(workload, 7, spans)
    assert first["failures"] == second["failures"] == []
    counts = {name: first["layers"][name][0] for name in EXACT_COUNTS}
    assert counts == {name: second["layers"][name][0] for name in EXACT_COUNTS}
    assert {name for name, value in counts.items() if value} == NONZERO[workload]
    assert len(json.loads(spans.read_text())) == second["layers"]["trace.spans"][0]
