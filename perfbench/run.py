"""Benchmark for the hilb package.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; hilb is imported from its src/ tree.
With --trace 0 the last line of output is the end-to-end result, with
--trace 1 the per-layer result from a traced run. `--workload all` runs
each workload in its own process, one after another, and prints every
metric. See perfbench/METRICS.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from workloads import WORKLOADS, load_hilb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up repeats: at least 3, and cheap set-ups until they add up to 1 s.
SETUP_REPEATS = (3, 25)
SETUP_MIN_S = 1.0
SPANS_DIR = ROOT / ".perfbench_out"


def result_line(passes, metrics, units) -> str:
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units},
        }
    )


def print_summary(passes, metrics, units, raw=None):
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    samples = [t for p in passes for t in p.item_times()]
    _, beyond = harness.percentile(samples, 90)
    factors = ", ".join(f"{statistics.median(p.factors):.3f}" for p in passes)
    print(f"passes: {len(passes)}, item samples: {len(samples)}, beyond p90: {beyond}")
    print(f"median speed factor per pass: {factors}")
    print(f"fail_ratio: {failed / attempted} ({failed}/{attempted})")
    for name, unit in units:
        line = f"{name}: {metrics[name]:.6g} {unit}"
        if raw is not None:
            line += f" (unscaled {raw[name]:.6g})"
        print(line)


def measure(wl, seed: int, seconds: float):
    """Untraced run: repeated set-up, then whole passes for about `seconds`.

    Returns the passes, the scaled metrics and the raw ones.
    """
    speed = harness.SpeedProbe()
    setups, mids = [], []
    while len(setups) < SETUP_REPEATS[0] or (
        sum(setups) < SETUP_MIN_S and len(setups) < SETUP_REPEATS[1]
    ):
        t0 = time.perf_counter()
        state = wl.setup(load_hilb(), seed, harness.NullTracer())
        t1 = time.perf_counter()
        setups.append(t1 - t0)
        mids.append((t0 + t1) / 2)
        speed.tick()
    factors = speed.factors(mids)
    passes = []
    while not passes or harness.keep_going([p.wall_s for p in passes], seconds):
        passes.append(harness.run_pass(wl, state, harness.NullTracer()))
    return (
        passes,
        harness.end_to_end(setups, factors, passes),
        harness.end_to_end(setups, factors, passes, scaled=False),
    )


def measure_traced(wl, seed: int, seconds: float, env):
    """Traced run: one traced set-up, then pairs of untraced and traced passes.

    Per-layer values cover the set-up once plus one pass (pass totals are
    divided by the number of traced passes).
    """
    tracer = harness.Tracer()
    state = wl.setup(load_hilb(), seed, tracer)
    setup_spans = len(tracer.spans)
    plain, traced = [], []
    while not plain or harness.keep_going([p.wall_s for p in plain + traced], seconds):
        pair = [(plain, harness.NullTracer()), (traced, tracer)]
        if len(plain) % 2:
            pair.reverse()
        for runs, tr in pair:
            runs.append(harness.run_pass(wl, state, tr))
    totals = harness.layer_totals(tracer.spans[:setup_spans])
    for k, v in harness.layer_totals(tracer.spans[setup_spans:]).items():
        totals[k] = totals.get(k, 0) + v / len(traced)
    untraced_rate = harness.items_per_s(plain)
    traced_rate = harness.items_per_s(traced)
    totals["trace.untraced_items_per_s"] = untraced_rate
    totals["trace.traced_items_per_s"] = traced_rate
    totals["trace.overhead_pct"] = (untraced_rate / traced_rate - 1) * 100
    write_spans(tracer.spans, env)
    return plain + traced, {name: totals.get(name, 0) for name, _ in harness.LAYER_METRICS}


def write_spans(spans, env):
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{env['workload']}-seed{env['seed']}.jsonl"
    with open(path, "w") as f:
        f.write(json.dumps({"env": env}) + "\n")
        for sid, name, start, end, parent, item, attrs in spans:
            f.write(json.dumps([sid, name, start, end, parent, item, attrs]) + "\n")
    print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        print(lines[0])
        result = json.loads(lines[-1])
        ratio = result["failed"] / result["attempted"]
        print(f"{name:<11} fail_ratio {ratio:.6g} ({result['failed']}/{result['attempted']})")
        for metric, v in result["metrics"].items():
            print(f"{name:<11} {metric:<38} {v['value']:>14.6g} {v['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hilb" / "__init__.py").is_file():
        print(f"no hilb package under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    wl = WORKLOADS[args.workload]()
    env = harness.environment(args.seed, args.workload)
    print(json.dumps({"env": env}))
    raw = None
    if args.trace:
        passes, metrics = measure_traced(wl, args.seed, args.seconds, env)
        units = harness.LAYER_METRICS
    else:
        passes, metrics, raw = measure(wl, args.seed, args.seconds)
        units = harness.END_TO_END_METRICS
    print_summary(passes, metrics, units, raw)
    print(result_line(passes, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
