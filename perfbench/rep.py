"""One repetition of one workload, in a fresh interpreter.

Started by run.py, once per repetition, because a `regclass verify` user
pays interpreter start, import and group construction on every invocation.
Prints one JSON line: the monotonic time of the first timed call (run.py
subtracts its spawn time to get set-up time), the wall time from that call
to the last checked verdict, the process's peak RSS, the operation ledger
and, when traced, the raw per-layer record.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 \
        [--phase fill|timed] [--reports PATH]
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("fill", "timed"), default="timed")
    ap.add_argument("--reports")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import regclass
    if Path(regclass.__file__).resolve().parent != ROOT / "src" / "regclass":
        print(f"imported regclass from {regclass.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Ledger, load_frozen, make_plan
    from spans import Tracer

    frozen = load_frozen(args.workload)
    plan = make_plan(args.workload, args.seed)
    ledger = Ledger()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    t_first = time.perf_counter()
    WORKLOADS[args.workload](ledger, plan, frozen, args.phase, args.reports)
    wall = time.perf_counter() - t_first

    print(json.dumps({
        "t_first": t_first, "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "problems": ledger.problems[:20],
        "trace": tracer.raw(wall) if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
