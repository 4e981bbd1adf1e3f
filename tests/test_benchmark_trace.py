"""A traced benchmark pass still reports every per-layer metric.

The tracer in ``perfbench/`` wraps public names of ``hurwitz`` from outside,
so a renamed or bypassed function can leave a traced pass without one of the
layer names that ``BENCHMARK.json`` declares.  One traced ``parametric``,
``am-grid`` and ``certify`` pass (each under a second) run in a fresh
interpreter, as in the benchmark; a failed item, such as a reduction factor
returned over the wrong ring, fails the test.  ``certify`` is the pass whose
tree-series solves go through ``am_phi``, one of the factories whose specs
the tracer wraps.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# added by perfbench/run.py from a traced and an untraced pass, not by a worker
RUN_LEVEL = {"trace.overhead_s"}


@pytest.mark.parametrize("workload", ["parametric", "am-grid", "certify"])
def test_traced_pass_reports_every_layer(tmp_path, workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--trace", str(tmp_path / "spans.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - RUN_LEVEL <= set(result["layers"])
