"""regclass benchmark: four workloads through the public harness API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh interpreter (rep.py), until
the next one would end after `--seconds`, and at least MIN_REPS of them.
Every repetition checks its outputs against frozen.json.  Prints one line per
repetition, the median, quartiles and sample count of each metric, and as
the last line one JSON object: with `--trace 0` the end-to-end metrics
(wall_s, setup_s, peak_rss_mb; medians over repetitions), with `--trace 1`
the per-layer metrics of spans.PER_LAYER (medians over the traced
repetitions, which alternate with untraced ones so that the tracing overhead
can be measured).  Exits 1 if any operation failed, 2 if the checkout holds
no regclass sources.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("classes-large", "chartab-mid", "small-sweep", "cache-reload")
MIN_REPS = 3
HARD_LIMIT_S = 165  # the whole run, set-up included, ends within 180 s

sys.path.insert(0, str(HERE))
from spans import PER_LAYER, layer_metrics, merge  # noqa: E402


class RepError(RuntimeError):
    pass


@dataclass
class Rep:
    traced: bool
    wall_s: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    duration_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    raws: list = field(default_factory=list)


def child(workload, seed, traced, env, deadline, phase="timed", reports=None):
    """Run rep.py once; returns (its spawn time, its JSON record)."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--phase", phase]
    if reports:
        cmd += ["--reports", reports]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise RepError("no time left for another process")
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RepError(f"{phase} process exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepError(f"{phase} process exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")
    return t_spawn, json.loads(lines[-1])


def repetition(workload, seed, traced, deadline) -> Rep:
    env = {k: v for k, v in os.environ.items() if k != "REGCLASS_CACHE_DIR"}
    env["PYTHONHASHSEED"] = "0"
    rep = Rep(traced=traced)
    t0 = time.perf_counter()
    records = []
    cache = None
    try:
        if workload == "cache-reload":
            # set-up: a cold run fills a fresh cache directory
            WORK.mkdir(exist_ok=True)
            cache = tempfile.mkdtemp(prefix="cache-", dir=WORK)
            env["REGCLASS_CACHE_DIR"] = cache
            reports = os.path.join(cache, "cold-reports.json")
            _, fill = child(workload, seed, traced, env, deadline, "fill", reports)
            records.append(fill)
            rep.setup_s += time.perf_counter() - t0
            t_spawn, timed = child(workload, seed, traced, env, deadline,
                                   "timed", reports)
        else:
            t_spawn, timed = child(workload, seed, traced, env, deadline)
    finally:
        if cache:
            shutil.rmtree(cache, ignore_errors=True)
    records.append(timed)
    rep.setup_s += timed["t_first"] - t_spawn
    rep.wall_s = timed["wall_s"]
    rep.rss_mb = timed["rss_mb"]
    for rec in records:
        rep.attempted += rec["attempted"]
        rep.failed += rec["failed"]
        rep.problems += rec["problems"]
        if rec["trace"]:
            rep.raws.append(rec["trace"])
    rep.duration_s = time.perf_counter() - t0
    return rep


def summary(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    if not (ROOT / "src" / "regclass" / "__init__.py").is_file():
        print(f"no regclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    reps: list[Rep] = []
    attempted = failed = 0
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        try:
            rep = repetition(args.workload, args.seed, traced, deadline)
        except RepError as exc:
            attempted += 1
            failed += 1
            print(f"rep {len(reps) + 1} failed: {exc}")
            break
        reps.append(rep)
        attempted += rep.attempted
        failed += rep.failed
        print(f"rep {len(reps)} {'traced' if traced else 'untraced'}: "
              f"wall {rep.wall_s:.4f} s, setup {rep.setup_s:.4f} s, "
              f"rss {rep.rss_mb:.1f} MB, {rep.failed} of {rep.attempted} "
              f"operations failed", flush=True)
        for what in rep.problems:
            print(f"  FAILED {what}")
        if rep.failed:
            break
        elapsed = time.perf_counter() - start
        longest = max(r.duration_s for r in reps)
        if elapsed + longest > HARD_LIMIT_S:
            break
        if len(reps) >= MIN_REPS and elapsed + longest > args.seconds:
            break
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()

    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced repetitions")
    end_to_end = {}
    for name, unit, values in (
            ("wall_s", "s", [r.wall_s for r in plain]),
            ("setup_s", "s", [r.setup_s for r in plain]),
            ("peak_rss_mb", "MB", [r.rss_mb for r in plain])):
        if values:
            med, q1, q3 = summary(values)
            print(f"  {name:12} median {med:.4f} {unit}  q1 {q1:.4f}  "
                  f"q3 {q3:.4f}  n={len(values)}")
            end_to_end[name] = {"value": med, "unit": unit}
    print(f"  failed_frac  {failed / max(attempted, 1):.4f} "
          f"({failed} of {attempted} operations)")
    layers = {}
    if traced and plain:
        per_rep = [layer_metrics(merge(r.raws)) for r in traced]
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = (summary([r.wall_s for r in traced])[0]
                         - end_to_end["wall_s"]["value"])
            else:
                value = summary([m[name] for m in per_rep])[0]
            layers[name] = {"value": value, "unit": unit}
            print(f"  {name:42} {value:14.4f} {unit}  n={len(traced)}")
        for reason in sorted({x for r in traced for raw in r.raws
                              for x in raw["rejected"]}):
            print(f"  cache rejected: {reason}")
    metrics = layers if args.trace else end_to_end
    ok = failed == 0 and bool(metrics)
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
