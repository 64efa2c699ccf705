"""Benchmark harness: the four-phase priority-queue workload, Dijkstra runs,
and the memory-size sweep, all reported as CSV rows of exact block-transfer
counts (wall time is recorded but never asserted on).

Counters bracket the measured region only: building a heap makes no access,
and a graph's counters are reset after it is loaded, before the run starts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

from .binary_heap import BinaryHeap
from .bucket_heap import BucketHeap
from .emcore import EmConfig, IoStats, DEFAULT_BLOCK_BYTES, DEFAULT_CACHE_BYTES, MASK64, MB
from .funnel_heap import FunnelHeap
from .graphs import Graph, SplitMix64, load_csr
from .sssp import SSSP, BenchTimeout, sssp_reference

# first columns of the published experiment grids
PQ_SIZES = [1 << e for e in range(16, 26)]
SSSP_RANDOM_SIZES = [65536, 131072, 262144, 524288, 750000, 1048576]
MEM_SWEEP_CACHES = [m * MB for m in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)]

@dataclass
class BenchRecord:
    experiment: str
    structure: str
    size: int
    cache_bytes: int
    block_bytes: int
    seed: int
    wall_seconds: float | str
    pq_reads: float
    pq_writes: float
    graph_reads: float
    graph_writes: float
    peak_heap_entries: float

    def csv_row(self) -> str:
        return ",".join(_cell(f.name, getattr(self, f.name)) for f in fields(self))


CSV_HEADER = ",".join(f.name for f in fields(BenchRecord))


def _cell(name: str, x) -> str:
    """A string as it is, wall time to the millisecond, a whole float as an
    int, any other float to six significant digits."""
    if isinstance(x, str):
        return x
    if name == "wall_seconds":
        return f"{x:.3f}"
    if isinstance(x, float):
        return str(int(x)) if x.is_integer() else f"{x:.6g}"
    return str(x)


def first_mismatch(got: list, want: list) -> int | None:
    """The first vertex whose distances differ, or None when they agree."""
    return next((v for v, (a, b) in enumerate(zip(got, want)) if a != b), None)


def write_csv(records: list[BenchRecord], fh) -> None:
    fh.write(CSV_HEADER + "\n")
    for r in records:
        fh.write(r.csv_row() + "\n")


# -- the heaps share one surface: insert(id, key), delete_min(), find_min()
# (None when empty), occupancy() and vectors() ---------------------------------

HEAPS = {"binary": BinaryHeap, "funnel": FunnelHeap, "bucket": BucketHeap}


def io_stats(heap) -> IoStats:
    """Transfers summed over every vector of a heap."""
    return sum((v.stats() for v in heap.vectors().values()), IoStats())


def pq_workload(
    pq, n: int, seed: int, deadline: float | None = None, peak: list[int] | None = None
) -> int:
    """The four-phase sequence: insert n, pop floor(n/2), insert floor(n/2),
    pop n (heap empty at the end). Returns an order-sensitive checksum of the
    popped (id, key) pairs. When given, peak[0] is raised to the largest
    occupancy() seen after an insert; it holds even if the deadline passes."""
    rng = SplitMix64(seed)
    checksum = 0
    ident = 0
    ops = 0
    if peak is None:
        peak = [0]
    for inserting, count in ((True, n), (False, n // 2), (True, n // 2), (False, n)):
        for _ in range(count):
            if inserting:
                pq.insert(ident, rng.next() >> 16)
                occ = pq.occupancy()
                if occ > peak[0]:
                    peak[0] = occ
                ident += 1
            else:
                i, k = pq.delete_min()
                checksum = ((checksum * 1099511628211) ^ (i * 0x9E3779B97F4A7C15) ^ k) & MASK64
            ops += 1
            if not ops & 1023 and deadline is not None and time.monotonic() > deadline:
                raise BenchTimeout()
    if pq.find_min() is not None:
        raise RuntimeError("workload must leave the heap empty: structural defect")
    return checksum


def _bench_rows(
    experiment, structure, cases, cache_bytes, block_bytes, seed, reps, timeout_secs, run
) -> list[BenchRecord]:
    """One row per (size, case). run(case, seed + rep) returns (timed_out,
    wall, pq IoStats, graph IoStats, peak); a row averages the reps up to the
    first that timed out, which ends the grid with wall_seconds "timeout"."""
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    # NaN fails the test too: a deadline of NaN would never pass
    if timeout_secs is not None and not timeout_secs >= 0:
        raise ValueError(f"timeout_secs must be at least 0, got {timeout_secs}")
    records = []
    for size, case in cases:
        runs = []
        for rep in range(reps):
            timed_out, *result = run(case, seed + rep)
            runs.append(result)
            if timed_out:
                break
        k = len(runs)
        walls, pqs, graphs, peaks = zip(*runs)
        records.append(
            BenchRecord(
                experiment,
                structure,
                size,
                cache_bytes,
                block_bytes,
                seed,
                "timeout" if timed_out else sum(walls) / k,
                sum(s.block_reads for s in pqs) / k,
                sum(s.block_writes for s in pqs) / k,
                sum(s.block_reads for s in graphs) / k,
                sum(s.block_writes for s in graphs) / k,
                sum(peaks) / k,
            )
        )
        if timed_out:
            break
    return records


def run_pq_bench(
    structure: str,
    sizes: list[int] | None = None,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    seed: int = 0,
    reps: int = 3,
    timeout_secs: float | None = None,
) -> list[BenchRecord]:
    sizes = PQ_SIZES if sizes is None else sizes
    if any(n < 1 for n in sizes):
        raise ValueError(f"sizes must be at least 1, got {min(sizes)}")

    def run(n, rep_seed):
        heap = HEAPS[structure](cache_bytes, block_bytes)
        peak = [0]
        deadline = time.monotonic() + timeout_secs if timeout_secs is not None else None
        t0 = time.perf_counter()
        try:
            pq_workload(heap, n, rep_seed, deadline, peak)
            timed_out = False
        except BenchTimeout:
            timed_out = True
        return timed_out, time.perf_counter() - t0, io_stats(heap), IoStats(), peak[0]

    cases = [(n, n) for n in sizes]
    return _bench_rows("pq", structure, cases, cache_bytes, block_bytes, seed, reps, timeout_secs, run)


def run_sssp_bench(
    structure: str,
    graphs: list[tuple[int, Graph]],
    cache_bytes: int = DEFAULT_CACHE_BYTES,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    seed: int = 0,
    reps: int = 1,
    timeout_secs: float | None = None,
    verify_cap: int = 1 << 15,
) -> list[BenchRecord]:
    """Dijkstra to completion from a random start vertex per rep.

    graphs: (size-label, Graph) pairs. Distances are checked against the
    reference solver whenever V <= verify_cap; a mismatch aborts loudly.
    A run stops at its timeout_secs deadline, checked every 1,024 settled
    vertices; its row then holds the counts of the part that ran.
    """
    fn = SSSP[structure]
    if any(g.vertex_count < 1 for _, g in graphs):
        raise ValueError("every graph needs at least one vertex")

    def run(g, rep_seed):
        eg = load_csr(g, EmConfig(cache_bytes, block_bytes, 16))
        source = SplitMix64(rep_seed).next() % g.vertex_count
        deadline = time.monotonic() + timeout_secs if timeout_secs is not None else None
        t0 = time.perf_counter()
        try:
            res = fn(eg, source, pq_cache_bytes=cache_bytes, block_bytes=block_bytes, deadline=deadline)
            timed_out = False
        except BenchTimeout as cut:
            res, timed_out = cut.partial, True
        wall = time.perf_counter() - t0
        if not timed_out and g.vertex_count <= verify_cap:
            want = sssp_reference(g, source).dist
            bad = first_mismatch(res.dist, want)
            if bad is not None:
                raise RuntimeError(
                    f"{structure} SSSP mismatch on V={g.vertex_count} seed={rep_seed}: "
                    f"vertex {bad}: got {res.dist[bad]}, want {want[bad]}"
                )
        return timed_out, wall, res.stats["pq"], res.stats["graph"], res.peak_heap_entries

    return _bench_rows("sssp", structure, graphs, cache_bytes, block_bytes, seed, reps, timeout_secs, run)


def mem_sweep(
    structure: str,
    n: int = 1_000_000,
    cache_list: list[int] | None = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    seed: int = 0,
    reps: int = 1,
    timeout_secs: float | None = None,
) -> list[BenchRecord]:
    """Fix the workload size and vary the per-structure cache size."""
    cache_list = MEM_SWEEP_CACHES if cache_list is None else cache_list
    records = []
    for cache_bytes in cache_list:
        records += run_pq_bench(structure, [n], cache_bytes, block_bytes, seed, reps, timeout_secs)
    for r in records:
        r.experiment = "mem-sweep"
    return records
