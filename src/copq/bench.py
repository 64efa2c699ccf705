"""Benchmark harness: the four-phase priority-queue workload, Dijkstra runs,
and the memory-size sweep, all reported as CSV rows of exact block-transfer
counts (wall time is recorded but never asserted on).

Counters bracket the measured region only: building a heap makes no access,
and a graph's counters are reset after it is loaded, before the run starts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .binary_heap import BinaryHeap
from .bucket_heap import BucketHeap
from .emcore import EmConfig, IoStats, DEFAULT_BLOCK_BYTES, DEFAULT_CACHE_BYTES, MB
from .funnel_heap import FunnelHeap
from .graphs import Graph, SplitMix64, load_csr
from .sssp import SSSP, sssp_reference

CSV_HEADER = (
    "experiment,structure,size,cache_bytes,block_bytes,seed,wall_seconds,"
    "pq_reads,pq_writes,graph_reads,graph_writes,peak_heap_entries"
)

# first columns of the published experiment grids
PQ_SIZES = [1 << e for e in range(16, 26)]
SSSP_RANDOM_SIZES = [65536, 131072, 262144, 524288, 750000, 1048576]
MEM_SWEEP_CACHES = [m * MB for m in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)]

_MASK64 = (1 << 64) - 1


class BenchTimeout(Exception):
    pass


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
        def num(x):
            if isinstance(x, str):
                return x
            if isinstance(x, float):
                return f"{x:.6g}" if x != int(x) else str(int(x))
            return str(x)

        wall = self.wall_seconds if isinstance(self.wall_seconds, str) else f"{self.wall_seconds:.3f}"
        return ",".join(
            [
                self.experiment,
                self.structure,
                str(self.size),
                str(self.cache_bytes),
                str(self.block_bytes),
                str(self.seed),
                wall,
                num(self.pq_reads),
                num(self.pq_writes),
                num(self.graph_reads),
                num(self.graph_writes),
                num(self.peak_heap_entries),
            ]
        )


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

    def check_time():
        if deadline is not None and time.monotonic() > deadline:
            raise BenchTimeout()

    def insert_batch(count):
        nonlocal ident, ops
        for _ in range(count):
            pq.insert(ident, rng.next() >> 16)
            occ = pq.occupancy()
            if occ > peak[0]:
                peak[0] = occ
            ident += 1
            ops += 1
            if not ops & 1023:
                check_time()

    def pop_batch(count):
        nonlocal checksum, ops
        for _ in range(count):
            i, k = pq.delete_min()
            checksum = ((checksum * 1099511628211) ^ (i * 0x9E3779B97F4A7C15) ^ k) & _MASK64
            ops += 1
            if not ops & 1023:
                check_time()

    insert_batch(n)
    pop_batch(n // 2)
    insert_batch(n // 2)
    pop_batch(n)
    if pq.find_min() is not None:
        raise RuntimeError("workload must leave the heap empty: structural defect")
    return checksum


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
    records = []
    for n in sizes:
        walls, stats, peaks = [], [], []
        timed_out = False
        for rep in range(reps):
            heap = HEAPS[structure](cache_bytes, block_bytes)
            peak = [0]
            deadline = time.monotonic() + timeout_secs if timeout_secs is not None else None
            t0 = time.perf_counter()
            try:
                pq_workload(heap, n, seed + rep, deadline, peak)
            except BenchTimeout:
                timed_out = True
            walls.append(time.perf_counter() - t0)
            stats.append(io_stats(heap))
            peaks.append(peak[0])
            if timed_out:
                break
        k = len(stats)
        records.append(
            BenchRecord(
                experiment="pq",
                structure=structure,
                size=n,
                cache_bytes=cache_bytes,
                block_bytes=block_bytes,
                seed=seed,
                wall_seconds="timeout" if timed_out else sum(walls) / k,
                pq_reads=sum(s.block_reads for s in stats) / k,
                pq_writes=sum(s.block_writes for s in stats) / k,
                graph_reads=0,
                graph_writes=0,
                peak_heap_entries=sum(peaks) / k,
            )
        )
        if timed_out:
            break
    return records


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
    """
    fn = SSSP[structure]
    records = []
    for size, g in graphs:
        walls, pq_list, graph_list, peaks = [], [], [], []
        timed_out = False
        for rep in range(reps):
            eg = load_csr(g, EmConfig(cache_bytes, block_bytes, 16))
            rng = SplitMix64(seed + rep)
            source = rng.next() % g.vertex_count
            t0 = time.perf_counter()
            res = fn(eg, source, pq_cache_bytes=cache_bytes, block_bytes=block_bytes)
            walls.append(time.perf_counter() - t0)
            if timeout_secs is not None and walls[-1] > timeout_secs:
                timed_out = True
            if g.vertex_count <= verify_cap:
                want = sssp_reference(g, source).dist
                if res.dist != want:
                    bad = next(i for i in range(len(want)) if res.dist[i] != want[i])
                    raise RuntimeError(
                        f"{structure} SSSP mismatch on V={g.vertex_count} seed={seed + rep}: "
                        f"vertex {bad}: got {res.dist[bad]}, want {want[bad]}"
                    )
            pq_list.append(res.stats["pq"])
            graph_list.append(res.stats["graph"])
            peaks.append(res.peak_heap_entries)
            if timed_out:
                break
        k = len(walls)
        records.append(
            BenchRecord(
                experiment="sssp",
                structure=structure,
                size=size,
                cache_bytes=cache_bytes,
                block_bytes=block_bytes,
                seed=seed,
                wall_seconds="timeout" if timed_out else sum(walls) / k,
                pq_reads=sum(s.block_reads for s in pq_list) / k,
                pq_writes=sum(s.block_writes for s in pq_list) / k,
                graph_reads=sum(s.block_reads for s in graph_list) / k,
                graph_writes=sum(s.block_writes for s in graph_list) / k,
                peak_heap_entries=sum(peaks) / k,
            )
        )
        if timed_out:
            break
    return records


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
        rows = run_pq_bench(
            structure,
            sizes=[n],
            cache_bytes=cache_bytes,
            block_bytes=block_bytes,
            seed=seed,
            reps=reps,
            timeout_secs=timeout_secs,
        )
        for r in rows:
            r.experiment = "mem-sweep"
        records.extend(rows)
    return records
