"""Single-source shortest paths: a reference oracle plus three variants, one
per priority queue.

- binary: textbook Dijkstra with decrease-key; the heap tracks element
  positions in a second vector, and vertex states come from the output
  distance array (settled) and the position array (in-heap).
- funnel: the funnel heap has no decrease-key, so every relaxation inserts a
  fresh entry and an internal-memory bit vector discards stale pops. The
  heap can hold O(E) entries rather than O(V).
- bucket: decrease-only Update replaces insert/decrease-key, but a settled
  vertex can be re-inserted by a later relaxation. A second (guard) heap
  receives one entry per relaxed arc; popping a guard deletes its source
  vertex from the main heap, so every spurious re-insertion dies before it
  can surface. Guards at the extraction key are applied both before the
  extraction and again after its relaxations, which covers both tie cases.
  No bit vector is used.

Distances are exact integers; unreachable vertices are reported as None.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .binary_heap import BinaryHeap
from .bucket_heap import BucketHeap
from .emcore import BlockVector, EmConfig, IoStats, DEFAULT_BLOCK_BYTES, DEFAULT_CACHE_BYTES
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


def sssp_binary(
    g,
    source: int,
    pq_cache_bytes: int = DEFAULT_CACHE_BYTES,
    graph_cache_bytes: int = DEFAULT_CACHE_BYTES,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> DistanceResult:
    eg = _prepare(g, source, graph_cache_bytes, block_bytes)
    n = eg.vertex_count
    h = BinaryHeap(pq_cache_bytes, block_bytes)
    dist: list[int | None] = [None] * n
    order: list[int] = []
    peak = 0
    h.insert(source, 0)
    while len(h):
        v, d = h.delete_min()
        dist[v] = d
        order.append(v)
        lo, hi = eg.arc_range(v)
        for a in range(lo, hi):
            t, w = eg.arc(a)
            if dist[t] is not None:
                continue
            nk = d + w
            cur = h.current_key(t)
            if cur is None:
                h.insert(t, nk)
                if len(h) > peak:
                    peak = len(h)
            elif nk < cur:
                h.decrease_key(t, nk)
    return _result(dist, order, eg, h.vectors(), peak_heap_entries=peak)


def sssp_funnel(
    g,
    source: int,
    pq_cache_bytes: int = DEFAULT_CACHE_BYTES,
    graph_cache_bytes: int = DEFAULT_CACHE_BYTES,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> DistanceResult:
    eg = _prepare(g, source, graph_cache_bytes, block_bytes)
    n = eg.vertex_count
    h = FunnelHeap(pq_cache_bytes, block_bytes)
    visited = bytearray(n)  # internal memory only: zero simulated transfers
    dist: list[int | None] = [None] * n
    order: list[int] = []
    h.insert(source, 0)
    inserts = 1
    while len(h):
        v, d = h.delete_min()
        if visited[v]:
            continue  # stale duplicate of an already-settled vertex
        visited[v] = 1
        dist[v] = d
        order.append(v)
        lo, hi = eg.arc_range(v)
        for a in range(lo, hi):
            t, w = eg.arc(a)
            if not visited[t]:
                h.insert(t, d + w)
                inserts += 1
    return _result(dist, order, eg, h.vectors(), peak_heap_entries=h.peak_entries, heap_inserts=inserts)


def sssp_bucket(
    g,
    source: int,
    pq_cache_bytes: int = DEFAULT_CACHE_BYTES,
    graph_cache_bytes: int = DEFAULT_CACHE_BYTES,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> DistanceResult:
    eg = _prepare(g, source, graph_cache_bytes, block_bytes)
    if not eg.source.is_symmetric():
        raise ValueError("bucket-heap Dijkstra requires an undirected (symmetric) graph")
    n = eg.vertex_count
    main = BucketHeap(pq_cache_bytes, block_bytes)
    guard = BucketHeap(pq_cache_bytes, block_bytes)
    dist: list[int | None] = [None] * n
    order: list[int] = []
    peak = 0
    guard_deletes = 0
    spurious_kills = 0
    main.update(source, 0)
    eq_key: int | None = None
    eq_vertices: list[int] = []
    while True:
        mh = main.find_min()
        # guards strictly below the main minimum (all guards once main is empty)
        while True:
            mg = guard.find_min()
            if mg is None:
                break
            if mh is not None and mg[1] >= mh[1]:
                break
            guard.delete_min()
            u = eg.source_of_arc(mg[0])
            main.delete(u)
            guard_deletes += 1
            mh = main.find_min()
        if mh is None:
            break  # guard heap was fully drained by the loop above
        k = mh[1]
        if k != eq_key:
            eq_key, eq_vertices = k, []
        # guards tying the main minimum: apply before the extraction, retain
        while True:
            mg = guard.find_min()
            if mg is None or mg[1] != k:
                break
            guard.delete_min()
            u = eg.source_of_arc(mg[0])
            eq_vertices.append(u)
            main.delete(u)
            guard_deletes += 1
        mh = main.find_min()
        if mh is None or mh[1] != k:
            spurious_kills += 1  # the candidate minimum was spurious and died to a guard
            continue
        v, d = main.delete_min()
        if dist[v] is not None:
            raise RuntimeError(f"vertex {v} settled twice (d={d}, first={dist[v]})")
        dist[v] = d
        order.append(v)
        lo, hi = eg.arc_range(v)
        for a in range(lo, hi):
            t, w = eg.arc(a)
            main.update(t, d + w)
            guard.update(a, d + w)  # guard named by arc index; kills v's re-insertions
        # apply the tying guards again, after the relaxations
        for u in eq_vertices:
            main.delete(u)
        occ = main.occupancy() + guard.occupancy()
        if occ > peak:
            peak = occ
    return _result(
        dist,
        order,
        eg,
        {"main": main.vector, "guard": guard.vector},
        peak_heap_entries=peak,
        guard_deletes=guard_deletes,
        spurious_kills=spurious_kills,
    )


SSSP = {"binary": sssp_binary, "funnel": sssp_funnel, "bucket": sssp_bucket}
