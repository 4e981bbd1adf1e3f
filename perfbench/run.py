"""The hurwitz benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``hurwitz`` is imported from its ``src/``.
Every pass runs in a fresh interpreter (``worker.py``), so caches, the heap
and the peak RSS start the same in every pass.  Passes repeat for about ``S``
seconds, at least ``MIN_PASSES`` of them; each metric is the median over
passes.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced passes alternate, the metrics are the per-layer ones of
the traced passes, and ``trace.overhead_s`` is traced minus untraced
``wall_s``.  Spans are written to ``perfbench/out/``.

Before the result, one line ``{"run_record": ...}`` records the interpreter,
CPU count, git commit, ``src/`` line count, seed, item sharing, each pass's
``wall_s``, the median pass and item times, and failures.
The last line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_PASSES = 2
SETUP_PROBES = 5
# a run must end within 180 s: no pass starts after LAST_START_S, and a
# worker still running at RUN_LIMIT_S is killed and the run fails
LAST_START_S = 120.0
RUN_LIMIT_S = 170.0
RUN_START = time.perf_counter()
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = RUN_LIMIT_S - (time.perf_counter() - RUN_START)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the run exceeded {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(items_per_pass: int) -> float:
    """The highest percentile with at least ten samples beyond it in the
    fewest samples a run takes, so that every run of a workload reports the
    same percentile; 100 (the maximum) when none of the ladder qualifies."""
    n = items_per_pass * MIN_PASSES
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct / 100 * n) >= 10:
            return pct
    return 100.0


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def src_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src" / "hurwitz").glob("*.py")
    )


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """(untraced passes, traced passes), run until ``seconds`` have gone:
    another pass starts only if it would end nearer to ``seconds`` than
    stopping now, judged by the last pass's length."""
    plain: list[dict] = []
    traced: list[dict] = []
    start = last_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        elapsed, last_s, last_start = now - start, now - last_start, now
        # a traced run needs one pass of each kind: its counts are exact
        enough = len(traced) >= 1 and len(plain) >= 1 if trace else len(plain) >= MIN_PASSES
        if (enough and elapsed + last_s / 2 >= seconds) or (plain and elapsed >= LAST_START_S):
            return plain, traced
        if trace and len(traced) < len(plain):
            spans = OUT / f"spans-{workload}-{seed}-{len(traced)}.json"
            traced.append(worker(workload, seed, "--trace", str(spans)))
        else:
            plain.append(worker(workload, seed))


def end_to_end(setups: list[float], passes: list[dict]) -> tuple[dict, dict]:
    """(the metrics of BENCHMARK.json, the item timings for the run record).

    The median pass time and median item time go to the run record only: on
    a shared 2-core host their spread across runs exceeded the largest bound
    a metric may have, while the tail, set by the slow phases most runs meet,
    mostly stayed within it.
    """
    items = [s for p in passes for s in p["item_s"]]
    pct = tail_percentile(passes[0]["attempted"])
    tail_s = percentile(items, pct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "item_tail_s": (tail_s, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    timings = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_p50_s": statistics.median(items),
        "item_tail_s": tail_s,
        "tail_percentile": pct,
        "samples": len(items),
        "beyond_tail": len(items) - math.ceil(pct / 100 * len(items)),
    }
    return metrics, timings


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    names = traced[0]["layers"]
    metrics = {
        name: (statistics.median(p["layers"][name][0] for p in traced), unit)
        for name, (_, unit) in names.items()
    }
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hurwitz" / "__init__.py").is_file():
        print(f"no hurwitz package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        setups = [worker(args.workload, args.seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    setups += [p["setup_s"] for p in plain]
    if args.trace:
        metrics = per_layer(plain, traced)
        timings = None
    else:
        metrics, timings = end_to_end(setups, plain)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_lines": src_lines(),
        "passes": len(plain),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "traced_passes": len(traced),
        "items_per_pass": plain[0]["attempted"],
        "sharing_ratio": plain[0]["sharing_ratio"],
        "item_timings": timings,
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
