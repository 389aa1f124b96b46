"""Measurement machinery: spans, self time, percentiles and the pass loop.

Nothing here imports hilb; the workloads hand their library calls to a
tracer, and the harness turns timings and spans into metrics.
"""

from __future__ import annotations

import bisect
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

# Per-layer metrics, in the order they are printed: (name, unit).
LAYER_METRICS: List[Tuple[str, str]] = [
    ("partitions.enumerate.busy_s", "s"),
    ("partitions.enumerate.items", "count"),
    ("partitions.canonicalize.busy_s", "s"),
    ("partitions.ideal.busy_s", "s"),
    ("localeq.cotangent.calls", "count"),
    ("localeq.cotangent.busy_s", "s"),
    ("localeq.haiman.busy_s", "s"),
    ("localeq.haiman.raw_vars", "count"),
    ("localeq.haiman.raw_equations", "count"),
    ("localeq.haiman.raw_terms", "count"),
    ("localeq.eliminate.busy_s", "s"),
    ("localeq.eliminate.vars_out", "count"),
    ("localeq.eliminate.equations_out", "count"),
    ("localeq.eliminate.terms_out", "count"),
    ("multipoly.substitute.calls", "count"),
    ("multipoly.substitute.busy_s", "s"),
    ("multipoly.substitute.terms_out", "count"),
    ("groebner.basis.calls", "count"),
    ("groebner.basis.busy_s", "s"),
    ("groebner.basis.spair_reductions", "count"),
    ("groebner.basis.size", "count"),
    ("groebner.basis.budget_exceeded", "count"),
    ("groebner.initial_ideal.busy_s", "s"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.busy_s", "s"),
    ("groebner.normal_form.nonzero", "count"),
    ("kpoly.kpoly_monomial.calls", "count"),
    ("kpoly.kpoly_monomial.busy_s", "s"),
    ("kpoly.kpoly_monomial.generators_in", "count"),
    ("kpoly.kpoly_monomial.numerator_terms", "count"),
    ("kpoly.reciprocity.busy_s", "s"),
    ("bench.glue.busy_s", "s"),
    ("trace.untraced_items_per_s", "1/s"),
    ("trace.traced_items_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
]

END_TO_END_METRICS: List[Tuple[str, str]] = [
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# The span the harness opens around each item; its self time is the
# benchmark's own glue between library calls.
ITEM_SPAN = "bench.glue"

# Span record: (id, name, start, end, parent id or -1, item label, attrs).
Span = Tuple[int, str, float, float, int, str, Dict[str, int]]


class _ActiveSpan:
    __slots__ = ("tracer", "name", "attrs", "start", "parent", "sid")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.attrs: Dict[str, int] = {}

    def add(self, **counts: int) -> None:
        for k, v in counts.items():
            self.attrs[k] = self.attrs.get(k, 0) + v

    def __enter__(self):
        tr = self.tracer
        tr._next_id += 1
        self.sid = tr._next_id
        self.parent = tr._stack[-1] if tr._stack else -1
        tr._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        if exc_type is not None:
            # BudgetExceeded is counted as attr budget_exceeded
            key = re.sub(r"(?<!^)(?=[A-Z])", "_", exc_type.__name__).lower()
            self.attrs[key] = self.attrs.get(key, 0) + 1
        tr.spans.append((self.sid, self.name, self.start, end, self.parent, tr.item, self.attrs))
        return False


class Tracer:
    """Holds spans in memory; the caller writes them out once at the end."""

    enabled = True

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        self.item = "setup"

    def span(self, name: str) -> _ActiveSpan:
        return _ActiveSpan(self, name)


class _NullSpan:
    __slots__ = ()

    def add(self, **counts: int) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Same interface as Tracer, records nothing: the untraced runs use it."""

    enabled = False
    item = "setup"

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def layer_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: busy_s (self time), calls, and summed attrs."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for sid, name, _, _, _, _, attrs in spans:
        out[name + ".busy_s"] = out.get(name + ".busy_s", 0.0) + selfs[sid]
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        for k, v in attrs.items():
            out[f"{name}.{k}"] = out.get(f"{name}.{k}", 0) + v
    return out


def percentile(values: Sequence[float], p: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    if not values:
        raise ValueError("no samples")
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


# The host's speed drifts by tens of percent within seconds to minutes,
# as other tenants load the machine, and a fixed loop timed between items
# drifts with it. Each timed interval is scaled by PROBE_NOMINAL_S over
# the median of the PROBE_WINDOW probes nearest to it: times are
# reported for a host on which the probe loop takes 6 ms.
PROBE_NOMINAL_S = 0.006
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 5


class SpeedProbe:
    """Times a fixed pure-Python loop between pieces of timed work."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []  # (midpoint, duration)
        self.tick()

    def tick(self) -> None:
        t0 = time.perf_counter()
        x = 0
        for j in range(100_000):
            x += j * j
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))

    def maybe_tick(self) -> None:
        if time.perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S:
            self.tick()

    def factors(self, midpoints: Sequence[float]) -> List[float]:
        """Speed factor at each time; below 1 while the host runs slow."""
        times = [t for t, _ in self.samples]
        w = min(PROBE_WINDOW, len(times))
        out = []
        for m in midpoints:
            lo = max(0, min(bisect.bisect_left(times, m) - w // 2, len(times) - w))
            out.append(PROBE_NOMINAL_S / statistics.median(d for _, d in self.samples[lo : lo + w]))
        return out


@dataclass
class PassResult:
    items: int
    wall_s: float
    timed: List[float]  # raw seconds of the prologue, then of each item
    factors: List[float]  # speed factor of each entry of `timed`
    failed: int = 0

    def item_times(self, scaled: bool = True) -> List[float]:
        if not scaled:
            return self.timed[1:]
        return [t * f for t, f in zip(self.timed[1:], self.factors[1:])]

    def timed_s(self, scaled: bool = True) -> float:
        if not scaled:
            return sum(self.timed)
        return sum(t * f for t, f in zip(self.timed, self.factors))


def items_per_s(passes: Sequence[PassResult], scaled: bool = True) -> float:
    """Items over timed seconds, pooled over the passes.

    Pooling averages the host's short speed jitter over the whole run,
    which a median of a few pass rates does not.
    """
    return sum(p.items for p in passes) / sum(p.timed_s(scaled) for p in passes)


def run_pass(workload, state, tracer) -> PassResult:
    """One pass over the workload's items.

    Only the library work is timed: the pass prologue and each item.
    Output checks and speed probes run between items, untimed; a raised
    exception or a failed check makes the item fail.
    """
    wall0 = time.perf_counter()
    speed = SpeedProbe()
    tracer.item = "prologue"
    t0 = time.perf_counter()
    items = workload.begin_pass(state, tracer)
    t1 = time.perf_counter()
    timed, mids = [t1 - t0], [(t0 + t1) / 2]
    outputs = []
    failed = set()
    for k, item in enumerate(items):
        tracer.item = str(k)
        t0 = time.perf_counter()
        try:
            with tracer.span(ITEM_SPAN):
                out = workload.run_item(state, item, tracer)
        except Exception as exc:  # any library error is an item failure
            t1 = time.perf_counter()
            out = exc
            failed.add(k)
            print(f"item {k} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            t1 = time.perf_counter()
            if not workload.check_item(state, item, out):
                failed.add(k)
                print(f"item {k} failed its output check", file=sys.stderr)
        timed.append(t1 - t0)
        mids.append((t0 + t1) / 2)
        outputs.append(out)
        speed.maybe_tick()
    speed.tick()
    for k in workload.check_pass(state, items, outputs):
        if k not in failed:
            print(f"item {k} failed a whole-pass check", file=sys.stderr)
        failed.add(k)
    return PassResult(
        items=len(items),
        wall_s=time.perf_counter() - wall0,
        timed=timed,
        factors=speed.factors(mids),
        failed=len(failed),
    )


def keep_going(walls: Sequence[float], seconds: float) -> bool:
    """Start another pass while that ends nearer `seconds` than stopping now."""
    done = sum(walls)
    return done + statistics.mean(walls) / 2 < seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cache_sizes() -> Dict[str, str]:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, entry, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(base, entry, "size")) as f:
                out[f"L{level}-{kind}"] = f.read().strip()
    except OSError:
        return {"unknown": "cache sizes not readable"}
    return out


def environment(seed: int, workload: str) -> Dict[str, object]:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": cpus,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "caches": _cache_sizes(),
    }


def end_to_end(
    setups: Sequence[float],
    setup_factors: Sequence[float],
    passes: Sequence[PassResult],
    scaled: bool = True,
) -> Dict[str, float]:
    """The end-to-end metrics; `scaled` applies the speed factors."""
    samples = [t for p in passes for t in p.item_times(scaled)]
    p50, _ = percentile(samples, 50)
    p90, _ = percentile(samples, 90)
    if scaled:
        setups = [t * f for t, f in zip(setups, setup_factors)]
    return {
        "items_per_s": items_per_s(passes, scaled),
        "item_p50_ms": p50 * 1000,
        "item_p90_ms": p90 * 1000,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setups),
    }
