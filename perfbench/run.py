"""copq benchmark: host throughput and exact simulated transfers.

Run from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload pq4-swap --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each one is here):

- ``pq4-swap``: the 4-phase sequence (insert N, pop N/2, insert N/2, pop N),
  N = 2^15, M = 64 KB, B = 4 KB, on the binary, funnel and bucket heaps.
- ``pq4-resident``: the same sequence with M = 16 MB (no capacity misses).
- ``sssp-gnp``: sssp_binary, sssp_funnel and sssp_bucket on G(2^12, 16/(n-1))
  from a seeded source, M = 32 KB for the queues and the graph.

With ``--trace 0`` the run repeats rounds (each variant in turn) for
``--seconds`` seconds and reports the end-to-end metrics as medians over the
rounds, with times in reference-host seconds (see ``Stopwatch``). With ``--trace 1`` it runs one untraced and one traced round and
reports the per-layer metrics. Every output is checked against an oracle;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Progress goes to
standard error.

The benchmark uses only names in ``copq.__all__`` and their public methods,
imported from ``src/`` of the checkout it sits in.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import resource
import statistics
import struct
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# (block_reads, block_writes, evictions) per workload, seed and variant, as
# written by perfbench/record_transfers.py for the seeds in RECORDED_SEEDS.
RECORDED = os.path.join(HERE, "transfers.json")
RECORDED_SEEDS = range(1, 11)

KB = 1024
MB = 1024 * KB
BLOCK_BYTES = 4096
RECORD_BYTES = 16
PQ_N = 1 << 15
GNP_N = 1 << 12
VARIANTS = ("binary", "funnel", "bucket")
# A variant repeats within a round until its samples there cover this long,
# so that the 0.4 s sssp_binary call gets several samples a round, not one.
MIN_SAMPLE_S = 1.0
# Samples are timed in laps: LAP_OPS heap operations of the pq4 sequence, or
# LAP_VERTICES settled vertices of a Dijkstra run. Every sample of a run does
# the same work lap by lap, so the per-lap median over the samples, summed,
# rejects laps that one sample ran slowly. Laps of tens of milliseconds let
# the calibration loop (below) follow the host's speed closely.
LAP_OPS = 1024
LAP_VERTICES = 16
# Record accessors of BlockVector; push and push2 are left out because they
# delegate to set and set2, which count the access.
ACCESSORS = ("get", "set", "get1", "set1", "get2", "set2")
HEAP_LAYERS = {
    # layer: (variant, traced ops, reported stats, ops that count as heap operations)
    "binary_heap": (
        "binary",
        ("insert", "delete_min", "decrease_key", "current_key"),
        ("calls", "self_s", "p99_us"),
        ("insert", "delete_min", "decrease_key"),
    ),
    "funnel_heap": (
        "funnel",
        ("insert", "delete_min"),
        ("calls", "self_s", "p50_us", "p99_us", "max_us"),
        ("insert", "delete_min"),
    ),
    "bucket_heap": (
        "bucket",
        ("update", "delete", "delete_min", "find_min"),
        ("calls", "self_s", "p99_us", "max_us"),
        ("update", "delete", "delete_min"),
    ),
}
_MASK64 = (1 << 64) - 1
PQ4_PHASES = ((True, PQ_N), (False, PQ_N // 2), (True, PQ_N // 2), (False, PQ_N))
# Host-speed calibration. The shared host's speed swings by up to 2x within
# seconds, for every Python program on it alike: a fixed loop in the shape of
# the simulator's hot path (LRU dict bump, struct pack/unpack on a block,
# tuple compare), timed right before and after an interval, tracks the speed
# the interval ran at (correlation 0.84 at 30 ms laps). CAL_REF_S is the
# loop's median time on the reference host, a 2-vCPU VM with Python 3.11.
CAL_ITERS = 1000
CAL_REF_S = 0.0008
_CAL = struct.Struct("<QQ")


def load_copq():
    """Import copq from this checkout's src/, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "copq", "__init__.py")):
        raise SystemExit(f"perfbench: no copq sources at {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    import copq

    if not os.path.abspath(copq.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported copq from {copq.__file__}, not from {src}")
    return copq


def splitmix64(seed: int):
    """SplitMix64 stream; the benchmark's own copy, so inputs do not depend on copq."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def calibrate() -> float:
    """Seconds the calibration loop takes on this host right now; never calls copq."""
    pack, unpack = _CAL.pack_into, _CAL.unpack_from
    lru: dict[int, bool] = {}
    buf = bytearray(BLOCK_BYTES)
    low = 0
    t0 = perf_counter()
    for i in range(CAL_ITERS):
        b = (i * 2654435761) & 511
        if lru.pop(b, None) is None and len(lru) >= 64:
            del lru[next(iter(lru))]
        lru[b] = True
        pack(buf, (i & 255) << 4, i, b)
        x, y = unpack(buf, ((i * 7) & 255) << 4)
        if (x, y) < (low, b):
            low = x
    return perf_counter() - t0


class Stopwatch:
    """Times back-to-back intervals of copq work, in reference-host seconds when calibrated.

    When calibrated, the calibration loop runs right before and right after
    each interval, outside it, and the interval is scaled by CAL_REF_S over
    the mean of the two loop times, so it reads as it would on the reference
    host. An uncalibrated stopwatch gives plain seconds and runs no loop;
    the traced run uses one, so that no span includes the loop.
    """

    def __init__(self, calibrated: bool):
        self.calibrated = calibrated
        self.cal_s = 0.0
        self.t0 = perf_counter()

    def start(self) -> None:
        if self.calibrated:
            self.cal_s = calibrate()
        self.t0 = perf_counter()

    def lap(self) -> float:
        """Time since start() or the last lap(); the next interval starts on return."""
        dt = perf_counter() - self.t0
        if self.calibrated:
            cal_s = calibrate()
            dt *= 2 * CAL_REF_S / (self.cal_s + cal_s)
            self.cal_s = cal_s
        self.t0 = perf_counter()
        return dt


def bound_per_op(cache_bytes: int, n: int) -> float:
    """(1/B) log_{M/B}(N/B) with M, B and N in records."""
    b = BLOCK_BYTES // RECORD_BYTES
    m = cache_bytes // RECORD_BYTES
    if n <= b or m <= b:
        return 0.0
    return math.log(n / b, m / b) / b


# -- workloads ------------------------------------------------------------------


class Pq4:
    """Insert N, pop N/2, insert N/2, pop N. Keys are SplitMix64 >> 16, ids sequential."""

    # Heap construction takes a few microseconds, and one construction timed
    # alone varies by half from run to run. A sample constructs the heap this
    # many times back to back, in one timed interval, and keeps the last heap.
    SETUP_REPEATS = 64

    def __init__(self, copq, seed: int, cache_bytes: int):
        self.copq = copq
        self.cache_bytes = cache_bytes
        self.heaps = {"binary": copq.BinaryHeap, "funnel": copq.FunnelHeap, "bucket": copq.BucketHeap}
        # Made once per run, outside every timed region.
        rng = splitmix64(seed)
        self.keys = [next(rng) >> 16 for _ in range(PQ_N + PQ_N // 2)]

    def expected(self) -> list[tuple[int, int]]:
        keys = self.keys
        h: list[tuple[int, int]] = []
        out = []
        next_id = 0
        for inserting, count in PQ4_PHASES:
            for _ in range(count):
                if inserting:
                    heapq.heappush(h, (keys[next_id], next_id))
                    next_id += 1
                else:
                    k, i = heapq.heappop(h)
                    out.append((i, k))
        return out

    def setup(self, variant: str):
        return self.heaps[variant](self.cache_bytes, BLOCK_BYTES)

    def run(self, variant: str, heap, watch: Stopwatch):
        """Returns the popped pairs and the time of every lap of LAP_OPS operations."""
        keys = self.keys
        insert = heap.update if variant == "bucket" else heap.insert
        pop = heap.delete_min
        out = []
        append = out.append
        laps = []
        next_id = 0
        watch.start()
        for inserting, count in PQ4_PHASES:
            for _ in range(count // LAP_OPS):
                if inserting:
                    for i in range(next_id, next_id + LAP_OPS):
                        insert(i, keys[i])
                    next_id += LAP_OPS
                else:
                    for _ in range(LAP_OPS):
                        append(pop())
                laps.append(watch.lap())
        return out, laps

    def work(self, heap) -> int:
        return 3 * PQ_N

    def io(self, heap, out):
        """Transfers of all of the heap's vectors since construction."""
        return sum((v.stats() for v in heap.vectors().values()), self.copq.IoStats())

    def checks(self, variant: str, heap, out, expected) -> dict[str, bool]:
        empty = heap.find_min() is None if variant == "bucket" else len(heap) == 0
        return {"pop sequence": out == expected, "empty at end": empty}


class SsspGnp:
    """Dijkstra from a seeded source on a fresh G(2^12, 16/(n-1)) per call."""

    SETUP_REPEATS = 1

    def __init__(self, copq, seed: int, cache_bytes: int):
        self.copq = copq
        self.seed = seed
        self.cache_bytes = cache_bytes
        self.source = next(splitmix64(seed ^ 0x5EED)) % GNP_N

    def graph(self):
        return self.copq.gen_gnp(self.copq.GnpSpec(n=GNP_N, seed=self.seed))

    def expected(self) -> list:
        return self.copq.sssp_reference(self.graph(), self.source).dist

    def setup(self, variant: str):
        # A fresh Graph per call, so sssp_bucket's symmetry check is charged every time.
        g = self.graph()
        return g, self.copq.load_csr(g, self.copq.EmConfig(self.cache_bytes, BLOCK_BYTES, RECORD_BYTES))

    def run(self, variant: str, state, watch: Stopwatch):
        """Returns the DistanceResult and the time of every lap of LAP_VERTICES scans.

        Laps end in a thin wrapper on ExternalGraph.arc_range, which every
        variant calls once per settled vertex; it costs about 1 us a call.
        """
        graph_cls = self.copq.ExternalGraph
        arc_range = graph_cls.arc_range
        laps = []
        scans = 0

        def lap_marker(eg, v):
            nonlocal scans
            scans += 1
            if scans % LAP_VERTICES == 0:
                laps.append(watch.lap())
            return arc_range(eg, v)

        graph_cls.arc_range = lap_marker
        watch.start()
        try:
            res = getattr(self.copq, f"sssp_{variant}")(
                state[1],
                self.source,
                pq_cache_bytes=self.cache_bytes,
                graph_cache_bytes=self.cache_bytes,
                block_bytes=BLOCK_BYTES,
            )
        finally:
            graph_cls.arc_range = arc_range
        laps.append(watch.lap())
        return res, laps

    def work(self, state) -> int:
        return state[0].arc_count

    def io(self, state, res):
        return res.stats["pq"] + res.stats["graph"]

    def checks(self, variant: str, state, res, expected) -> dict[str, bool]:
        return {"distances": res.dist == expected}


WORKLOADS = {
    "pq4-swap": (Pq4, 64 * KB),
    "pq4-resident": (Pq4, 16 * MB),
    "sssp-gnp": (SsspGnp, 32 * KB),
}


# -- measuring ------------------------------------------------------------------


class Sample:
    """One call of one variant: timings, exact counters, check outcomes."""

    def __init__(self, variant: str):
        self.variant = variant
        self.setup_s = self.run_s = self.check_s = 0.0
        self.work = 0
        self.laps: list[float] = []
        self.io = None
        self.result = None  # the DistanceResult of a traced sssp sample
        self.checks: dict[str, bool] = {}
        self.setup_aggs: dict = {}
        self.run_aggs: dict = {}

    @property
    def counts(self):
        return (self.io.block_reads, self.io.block_writes, self.io.evictions)


def take_sample(wl, variant: str, expected, watch: Stopwatch, tracer=None) -> Sample:
    s = Sample(variant)
    try:
        if tracer is not None:
            tracer.take()
        watch.start()
        for _ in range(wl.SETUP_REPEATS):
            state = wl.setup(variant)
        s.setup_s = watch.lap() / wl.SETUP_REPEATS
        if tracer is not None:
            s.setup_aggs = tracer.take()
        out, s.laps = wl.run(variant, state, watch)
        t2 = perf_counter()
        if tracer is not None:
            s.run_aggs = tracer.take()
        s.run_s = sum(s.laps)
        s.work = wl.work(state)
        s.io = wl.io(state, out)
        if tracer is not None and isinstance(wl, SsspGnp):
            s.result = out
        s.checks = wl.checks(variant, state, out, expected)
        s.check_s = perf_counter() - t2
    except Exception:  # the run goes on and reports the failure
        traceback.print_exc()
        s.checks["completed"] = False
    return s


class Run:
    """Collects samples and check outcomes for one benchmark invocation."""

    def __init__(self, wl, calibrated: bool):
        self.wl = wl
        self.watch = Stopwatch(calibrated)
        t0 = perf_counter()
        self.expected = wl.expected()
        self.verify_s = perf_counter() - t0
        self.samples: dict[str, list[Sample]] = {v: [] for v in VARIANTS}

    def sample(self, variant: str, tracer=None) -> Sample:
        s = take_sample(self.wl, variant, self.expected, self.watch, tracer)
        self.verify_s += s.check_s
        first = self.samples[variant][0] if self.samples[variant] else None
        if first is not None and first.io is not None and s.io is not None:
            s.checks["transfers repeat"] = s.counts == first.counts
        self.samples[variant].append(s)
        return s

    def outcomes(self) -> list[bool]:
        return [ok for ss in self.samples.values() for s in ss for ok in s.checks.values()]

    def failures(self) -> list[str]:
        return [
            f"{s.variant}: {name}"
            for ss in self.samples.values()
            for s in ss
            for name, ok in s.checks.items()
            if not ok
        ]

    def done(self, variant: str) -> list[Sample]:
        return [s for s in self.samples[variant] if s.io is not None]


def measure(run: Run, seconds: float) -> dict[str, float]:
    """Rounds of every variant in turn until the next round would pass `seconds`."""
    start = perf_counter()
    rounds = 0
    while True:
        r0 = perf_counter()
        for v in VARIANTS:
            v0 = perf_counter()
            while True:
                s = run.sample(v)
                if s.io is None or perf_counter() - v0 >= MIN_SAMPLE_S:
                    break
        rounds += 1
        now = perf_counter()
        if rounds >= 2 and (now - start) + (now - r0) > seconds:
            break
    m: dict[str, float] = {}
    for v in VARIANTS:
        ok = run.done(v)
        lap_s = sum(statistics.median(lap) for lap in zip(*(s.laps for s in ok)))
        m[f"{v}.work_per_s"] = ok[0].work / lap_s if ok else 0.0
        m[f"{v}.transfers"] = ok[0].io.transfers if ok else 0
    # The mean over the variants of each one's median, so that every heap's
    # constructor weighs the same however many samples each variant got.
    setups = [statistics.median(s.setup_s for s in run.done(v)) for v in VARIANTS if run.done(v)]
    m["setup_s"] = statistics.fmean(setups) if setups else 0.0
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = ", ".join(f"{v} {len(run.done(v))}" for v in VARIANTS)
    print(f"perfbench: {rounds} rounds in {perf_counter() - start:.1f} s; samples: {samples}", file=sys.stderr)
    return m


# -- traced run -----------------------------------------------------------------


def install_tracing(t, copq, peak_stored: list[int]) -> None:
    occupancy = copq.BucketHeap.occupancy

    def track_peak(heap) -> None:
        occ = occupancy(heap)
        if occ > peak_stored[0]:
            peak_stored[0] = occ

    t.patch_class(copq.BlockVector, "emcore")
    t.patch_class(copq.BinaryHeap, "binary_heap", keep_samples=True)
    t.patch_class(copq.FunnelHeap, "funnel_heap", keep_samples=True)
    t.patch_class(copq.BucketHeap, "bucket_heap", keep_samples=True, after={"update": track_peak, "delete": track_peak})
    t.patch_class(copq.ExternalGraph, "graphs")
    t.patch(copq.Graph, "is_symmetric", "graphs")
    for name in ("gen_gnp", "load_csr"):
        t.patch(copq, name, "graphs")
    for v in VARIANTS:
        t.patch(copq, f"sssp_{v}", "sssp", op=v)


def percentile(samples, q: float) -> float:
    if not samples:
        return 0.0
    s = sorted(samples)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def agg_stat(agg, stat: str) -> float:
    if agg is None:
        return 0 if stat == "calls" else 0.0
    if stat == "calls":
        return agg.calls
    if stat == "self_s":
        return agg.self_s
    if stat == "max_us":
        return max(agg.samples, default=0.0) * 1e6
    return percentile(agg.samples, int(stat[1:3]) / 100) * 1e6  # p50_us, p99_us


def layer_metrics(run: Run, untraced: dict, traced: dict, peak_stored: int) -> dict[str, float]:
    m: dict[str, float] = {}
    results = {v: traced[v].result for v in VARIANTS}  # all None on pq4
    for v in VARIANTS:
        s = traced[v]
        em = {op: a for (layer, op), a in s.run_aggs.items() if layer == "emcore"}
        accesses = sum(em[op].calls for op in ACCESSORS if op in em)
        self_s = sum(a.self_s for a in em.values())
        m[f"emcore.{v}.accesses"] = accesses
        m[f"emcore.{v}.block_reads"] = s.io.block_reads
        m[f"emcore.{v}.block_writes"] = s.io.block_writes
        m[f"emcore.{v}.evictions"] = s.io.evictions
        m[f"emcore.{v}.hit_ratio"] = 1 - s.io.block_reads / accesses if accesses else 0.0
        m[f"emcore.{v}.self_s"] = self_s
        m[f"emcore.{v}.ns_per_access"] = self_s * 1e9 / accesses if accesses else 0.0

    for layer, (v, ops, stats, mutating) in HEAP_LAYERS.items():
        s = traced[v]
        for op in ops:
            for stat in stats:
                m[f"{layer}.{op}.{stat}"] = agg_stat(s.run_aggs.get((layer, op)), stat)
        if layer != "binary_heap":
            res = results[v]
            n_ops = sum(agg_stat(s.run_aggs.get((layer, op)), "calls") for op in mutating)
            pq_transfers = res.stats["pq"].transfers if res else s.io.transfers
            per_op = pq_transfers / n_ops if n_ops else 0.0
            bound = bound_per_op(run.wl.cache_bytes, res.peak_heap_entries if res else PQ_N)
            m[f"{layer}.transfers_per_op"] = per_op
            m[f"{layer}.bound_per_op"] = bound
            m[f"{layer}.bound_ratio"] = per_op / bound if bound else 0.0
    m["bucket_heap.peak_stored"] = peak_stored

    def graph_aggs(phase: str, op: str) -> list:
        aggs = [getattr(traced[v], phase).get(("graphs", op)) for v in VARIANTS]
        return [a for a in aggs if a is not None]

    for op in ("gen_gnp", "load_csr"):  # mean per call, like setup_s
        aggs = graph_aggs("setup_aggs", op)
        calls = sum(a.calls for a in aggs)
        m[f"graphs.{op}_s"] = sum(a.span_s for a in aggs) / calls if calls else 0.0
    m["graphs.is_symmetric_s"] = sum(a.span_s for a in graph_aggs("run_aggs", "is_symmetric"))
    for op in ("arc", "arc_range", "source_of_arc"):
        m[f"graphs.{op}.calls"] = sum(a.calls for a in graph_aggs("run_aggs", op))
    m["graphs.block_reads"] = sum(res.stats["graph"].block_reads for res in results.values() if res)

    for v, res in results.items():
        run_aggs = traced[v].run_aggs
        pops = agg_stat(run_aggs.get((f"{v}_heap", "delete_min")), "calls") if res else 0
        settled = sum(d is not None for d in res.dist) if res else 0
        m[f"sssp.{v}.self_s"] = agg_stat(run_aggs.get(("sssp", v)), "self_s")
        m[f"sssp.{v}.pops"] = pops
        m[f"sssp.{v}.useful_pop_ratio"] = settled / pops if pops else 0.0
        m[f"sssp.{v}.peak_heap_entries"] = res.peak_heap_entries if res else 0
    fres, bres = results["funnel"], results["bucket"]
    m["sssp.funnel.heap_inserts"] = fres.heap_inserts if fres else 0
    m["sssp.bucket.guard_deletes"] = bres.guard_deletes if bres else 0
    m["sssp.bucket.spurious_kills"] = bres.spurious_kills if bres else 0

    untraced_s = sum(untraced[v].run_s for v in VARIANTS)
    traced_s = sum(traced[v].run_s for v in VARIANTS)
    m["bench.verify_s"] = run.verify_s
    m["bench.untraced_s"] = untraced_s
    m["bench.traced_s"] = traced_s
    m["bench.trace_overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
    return m


def measure_traced(copq, run: Run) -> dict[str, float]:
    """One untraced round, then one traced round of the same inputs."""
    from tracer import Tracer

    untraced = {v: run.sample(v) for v in VARIANTS}
    peak_stored = [0]
    tracer = Tracer()
    try:
        install_tracing(tracer, copq, peak_stored)
        traced = {v: run.sample(v, tracer) for v in VARIANTS}
    finally:
        tracer.restore()
    if any(s.io is None for s in traced.values()):
        raise SystemExit("perfbench: the traced round did not complete")
    return layer_metrics(run, untraced, traced, peak_stored[0])


# -- entry point ----------------------------------------------------------------


def compare_recorded(workload: str, seed: int, run: Run) -> None:
    """Say on standard error whether the transfer counts match the recorded ones.

    A mismatch is a change of behaviour, not a failed check: a change that
    means to alter the counts records them again and says so.
    """
    with open(RECORDED, encoding="utf-8") as f:
        recorded = json.load(f).get(workload, {}).get(str(seed))
    if recorded is None:
        print(f"perfbench: no recorded transfers for {workload} seed {seed}", file=sys.stderr)
        return
    changed = [v for v in VARIANTS if run.done(v) and list(run.done(v)[0].counts) != recorded[v]]
    for v in changed:
        print(
            f"perfbench: behaviour change: {v} made (reads, writes, evictions) {run.done(v)[0].counts},"
            f" recorded {tuple(recorded[v])}",
            file=sys.stderr,
        )
    if not changed:
        print("perfbench: transfers match the recorded counts", file=sys.stderr)


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    end_to_end, per_layer = ({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))
    return end_to_end, per_layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    end_to_end, per_layer = declared_metrics()
    copq = load_copq()
    cls, cache_bytes = WORKLOADS[args.workload]
    run = Run(cls(copq, args.seed, cache_bytes), calibrated=not args.trace)
    if args.trace:
        values, units = measure_traced(copq, run), per_layer
    else:
        values, units = measure(run, args.seconds), end_to_end
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics disagree with BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    compare_recorded(args.workload, args.seed, run)
    outcomes = run.outcomes()
    failed = outcomes.count(False)
    for line in run.failures():
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    for name in sorted(values):
        print(f"  {name:40s} {values[name]:>16.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
