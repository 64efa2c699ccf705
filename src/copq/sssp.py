"""Single-source shortest paths: a reference oracle plus three variants, one
per priority queue.

- binary: textbook Dijkstra with decrease-key, one update(id, key) per
  relaxed arc (insert, or lower the key); the heap tracks element positions
  in a second vector, and vertex states come from the output distance array
  (settled) and the position array (in-heap).
- funnel: the funnel heap has no decrease-key, so every relaxation inserts a
  fresh entry, and the output distance array (settled) discards stale pops.
  The heap can hold O(E) entries rather than O(V).
- bucket: decrease-only Update replaces insert/decrease-key, but a settled
  vertex can be re-inserted by a later relaxation. A second (guard) heap
  receives one entry per relaxed arc; popping a guard deletes its source
  vertex from the main heap, so every spurious re-insertion dies before it
  can surface. Guards at the extraction key are applied both before the
  extraction and again after its relaxations, which covers both tie cases.
  No pop is stale, so none is dropped.

Binary and funnel run one shared loop and differ only in the relax call,
update or insert.

Distances are exact integers; unreachable vertices are reported as None.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from .binary_heap import BinaryHeap
from .bucket_heap import BucketHeap
from .emcore import BlockVector, EmConfig, IoStats, DEFAULT_BLOCK_BYTES, DEFAULT_CACHE_BYTES, MASK64
from .funnel_heap import FunnelHeap
from .graphs import ExternalGraph, Graph, load_csr


@dataclass
class DistanceResult:
    dist: list[int | None]
    settled_order: list[int] | None = None
    stats: dict[str, IoStats] = field(default_factory=dict)
    peak_heap_entries: int = 0
    heap_inserts: int = 0
    guard_deletes: int = 0
    spurious_kills: int = 0  # candidate minima observed to die to a guard deletion


class BenchTimeout(Exception):
    """A run passed its deadline. partial is a Dijkstra run's result as far
    as it got, its counters included; None for a heap workload."""

    def __init__(self, partial: DistanceResult | None = None):
        super().__init__()
        self.partial = partial


def sssp_reference(g: Graph, source: int) -> DistanceResult:
    """Ground-truth Dijkstra on the in-memory adjacency (no simulated I/O)."""
    n = g.vertex_count
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    dist: list[int | None] = [None] * n
    order: list[int] = []
    h = [(0, source)]
    offsets, targets, weights = g.offsets, g.targets, g.weights
    while h:
        d, u = heapq.heappop(h)
        if dist[u] is not None:
            continue
        dist[u] = d
        order.append(u)
        for a in range(offsets[u], offsets[u + 1]):
            v = targets[a]
            if dist[v] is None:
                heapq.heappush(h, (d + weights[a], v))
    return DistanceResult(dist, order)


def _prepare(g, source: int, graph_cache_bytes: int, block_bytes: int) -> ExternalGraph:
    """The graph as an ExternalGraph with zeroed counters, once the source is checked."""
    eg = g if isinstance(g, ExternalGraph) else load_csr(g, EmConfig(graph_cache_bytes, block_bytes, 16))
    if not 0 <= source < eg.vertex_count:
        raise ValueError(f"source {source} out of range")
    eg.vector.reset_stats()
    return eg


def _result(dist, order, eg: ExternalGraph, pq: dict[str, BlockVector], **counters) -> DistanceResult:
    """Package a run. stats["pq"] sums the queue vectors and stats["pq_<name>"]
    gives each one, when there is more than one; stats["graph"] is the graph's."""
    stats = {"pq": sum((v.stats() for v in pq.values()), IoStats()), "graph": eg.vector.stats()}
    if len(pq) > 1:
        stats.update((f"pq_{name}", v.stats()) for name, v in pq.items())
    return DistanceResult(dist, order, stats=stats, **counters)


def _dijkstra(eg: ExternalGraph, source: int, h, relax, deadline: float | None, count_inserts: bool) -> DistanceResult:
    """The loop binary and funnel share. relax(t, key) is the heap's update or
    insert; a pop of a settled vertex is stale and dropped (only the funnel
    heap, which keeps every insert, makes one). Every funnel insert is popped
    or still held, so heap_inserts is the pops plus len(h), counted when
    count_inserts is set (the funnel run); the binary run reports 0."""
    dist: list[int | None] = [None] * eg.vertex_count
    order: list[int] = []
    relax(source, 0)
    peak = 1
    stale = 0
    while len(h):
        v, d = h.delete_min()
        if dist[v] is not None:
            stale += 1
            continue
        dist[v] = d
        order.append(v)
        if deadline is not None and not len(order) & 1023 and time.monotonic() > deadline:
            inserts = len(order) + stale + len(h) if count_inserts else 0
            raise BenchTimeout(_result(dist, order, eg, h.vectors(), peak_heap_entries=peak, heap_inserts=inserts))
        for arc in eg.arcs(*eg.arc_range(v)):
            t = arc >> 64
            if dist[t] is None:
                relax(t, d + (arc & MASK64))
        # the heap only grows while v's arcs relax
        if len(h) > peak:
            peak = len(h)
    inserts = len(order) + stale if count_inserts else 0
    return _result(dist, order, eg, h.vectors(), peak_heap_entries=peak, heap_inserts=inserts)


def sssp_binary(
    g,
    source: int,
    pq_cache_bytes: int = DEFAULT_CACHE_BYTES,
    graph_cache_bytes: int = DEFAULT_CACHE_BYTES,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    deadline: float | None = None,
) -> DistanceResult:
    eg = _prepare(g, source, graph_cache_bytes, block_bytes)
    h = BinaryHeap(pq_cache_bytes, block_bytes)
    return _dijkstra(eg, source, h, h.update, deadline, False)


def sssp_funnel(
    g,
    source: int,
    pq_cache_bytes: int = DEFAULT_CACHE_BYTES,
    graph_cache_bytes: int = DEFAULT_CACHE_BYTES,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    deadline: float | None = None,
) -> DistanceResult:
    eg = _prepare(g, source, graph_cache_bytes, block_bytes)
    h = FunnelHeap(pq_cache_bytes, block_bytes)
    return _dijkstra(eg, source, h, h.insert, deadline, True)


def sssp_bucket(
    g,
    source: int,
    pq_cache_bytes: int = DEFAULT_CACHE_BYTES,
    graph_cache_bytes: int = DEFAULT_CACHE_BYTES,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    deadline: float | None = None,
) -> DistanceResult:
    eg = _prepare(g, source, graph_cache_bytes, block_bytes)
    if not eg.source.is_symmetric():
        raise ValueError("bucket-heap Dijkstra requires an undirected (symmetric) graph")
    n = eg.vertex_count
    main = BucketHeap(pq_cache_bytes, block_bytes)
    guard = BucketHeap(pq_cache_bytes, block_bytes)
    vectors = {"main": main.vector, "guard": guard.vector}
    dist: list[int | None] = [None] * n
    order: list[int] = []
    peak = 1  # main holds the source
    deletes = 0
    kills = 0
    main_update, main_delete, main_min = main.update, main.delete, main.find_min
    guard_update, guard_min = guard.update, guard.find_min
    source_of_arc = eg.source_of_arc
    main_update(source, 0)
    eq_key: int | None = None
    eq_vertices: list[int] = []
    while True:
        mh = main_min()
        # guards strictly below the main minimum (all guards once main is empty)
        while True:
            mg = guard_min()
            if mg is None:
                break
            if mh is not None and mg[1] >= mh[1]:
                break
            guard.delete_min()
            main_delete(source_of_arc(mg[0]))
            deletes += 1
            mh = main_min()
        if mh is None:
            break  # guard heap was fully drained by the loop above
        k = mh[1]
        if k != eq_key:
            eq_key, eq_vertices = k, []
        # guards tying the main minimum: apply before the extraction, retain
        while True:
            mg = guard_min()
            if mg is None or mg[1] != k:
                break
            guard.delete_min()
            u = source_of_arc(mg[0])
            eq_vertices.append(u)
            main_delete(u)
            deletes += 1
        mh = main_min()
        if mh is None or mh[1] != k:
            kills += 1  # the candidate minimum was spurious and died to a guard
            continue
        v, d = main.delete_min()
        if dist[v] is not None:
            raise RuntimeError(f"vertex {v} settled twice (d={d}, first={dist[v]})")
        dist[v] = d
        order.append(v)
        if deadline is not None and not len(order) & 1023 and time.monotonic() > deadline:
            raise BenchTimeout(
                _result(dist, order, eg, vectors, peak_heap_entries=peak, guard_deletes=deletes, spurious_kills=kills)
            )
        lo, hi = eg.arc_range(v)
        for a, arc in enumerate(eg.arcs(lo, hi), lo):
            nk = d + (arc & MASK64)
            main_update(arc >> 64, nk)
            guard_update(a, nk)  # guard named by arc index; kills v's re-insertions
        # apply the tying guards again, after the relaxations
        for u in eq_vertices:
            main_delete(u)
        occ = main.occupancy() + guard.occupancy()
        if occ > peak:
            peak = occ
    return _result(dist, order, eg, vectors, peak_heap_entries=peak, guard_deletes=deletes, spurious_kills=kills)


SSSP = {"binary": sssp_binary, "funnel": sssp_funnel, "bucket": sssp_bucket}
