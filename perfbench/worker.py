"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only] [--trace SPANS.json]

Set-up is importing ``hurwitz`` from ``src/`` and drawing the workload's items
from the seed.  The timed region runs every item once; the oracle checks run
after it.  The last line of standard output is one JSON object.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_JSON")
    args = parser.parse_args()

    import hurwitz
    import workloads

    if Path(hurwitz.__file__).resolve().parent != ROOT / "src" / "hurwitz":
        print(f"imported hurwitz from {hurwitz.__file__}, not from src/", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    items = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    gc.collect()
    outputs = []
    item_s = []
    clock = time.perf_counter
    pass_start = clock()
    for item in items:
        start = clock()
        try:
            outputs.append((item.run(), None))
        except Exception as exc:  # a raised invariant fails the item, not the run
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        item_s.append(clock() - start)
    wall_s = clock() - pass_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for item, (output, error) in zip(items, outputs):
        problem = error or item.check(output)
        if problem:
            failures.append(f"{item.label}: {problem}")
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "item_s": item_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(items),
        "failures": failures,
        "sharing_ratio": workloads.sharing_ratio(items),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
        tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
