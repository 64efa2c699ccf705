"""Independent reference implementations the test suite checks against.

Everything here is deliberately naive and kept separate from the library
code paths it validates.
"""

import heapq
import math
from collections import Counter

from copq.bucket_heap import DELETE, signal_capacity
from copq.emcore import MASK64
from copq.graphs import Graph, SplitMix64


class RefLru:
    """Straightforward list-based LRU over block ids: the fault oracle."""

    def __init__(self, frames):
        self.frames = frames
        self.order = []  # index 0 = least recently used
        self.dirty = set()
        self.faults = 0
        self.evict_writes = 0
        self.evictions = 0

    def access(self, block, write=False):
        if block in self.order:
            self.order.remove(block)
            self.order.append(block)
        else:
            self.faults += 1
            if len(self.order) >= self.frames:
                victim = self.order.pop(0)
                self.evictions += 1
                if victim in self.dirty:
                    self.dirty.discard(victim)
                    self.evict_writes += 1
            self.order.append(block)
        if write:
            self.dirty.add(block)

    def flush(self):
        n = len(self.dirty & set(self.order))
        self.dirty -= set(self.order)
        return n


class MultisetPQ:
    """Sorted-multiset priority queue: ties broken by ascending id."""

    def __init__(self):
        self._h = []

    def insert(self, ident, key):
        heapq.heappush(self._h, (key, ident))

    def delete_min(self):
        key, ident = heapq.heappop(self._h)
        return ident, key

    def find_min(self):
        if not self._h:
            return None
        key, ident = self._h[0]
        return ident, key

    def __len__(self):
        return len(self._h)


class MinMapPQ:
    """Mapping id -> key with decrease-only update, delete, and delete-min.

    update(id, k) inserts id at k, or lowers its key to k if k is smaller
    (a larger k is ignored). This is the abstract model the bucket heap
    must match exactly.
    """

    def __init__(self):
        self.live = {}
        self._h = []  # lazy heap of (key, id); stale entries skipped on pop

    def update(self, ident, key):
        cur = self.live.get(ident)
        if cur is None or key < cur:
            self.live[ident] = key
            heapq.heappush(self._h, (key, ident))

    def delete(self, ident):
        self.live.pop(ident, None)

    def find_min(self):
        while self._h:
            key, ident = self._h[0]
            if self.live.get(ident) == key:
                return ident, key
            heapq.heappop(self._h)
        return None

    def delete_min(self):
        m = self.find_min()
        if m is None:
            raise IndexError("empty")
        del self.live[m[0]]
        heapq.heappop(self._h)
        return m

    def __len__(self):
        return len(self.live)


def dijkstra_plain(graph, source):
    """Textbook heapq Dijkstra over an in-memory adjacency; None = unreachable."""
    n = graph.vertex_count
    dist = [None] * n
    done = [False] * n
    h = [(0, source)]
    while h:
        d, u = heapq.heappop(h)
        if done[u]:
            continue
        done[u] = True
        dist[u] = d
        for v, w in graph.neighbors(u):
            if not done[v]:
                heapq.heappush(h, (d + w, v))
    return dist


def bellman_ford(graph, source):
    """O(V*E) relaxation oracle; None = unreachable."""
    n = graph.vertex_count
    inf = float("inf")
    dist = [inf] * n
    dist[source] = 0
    for _ in range(n - 1):
        changed = False
        for u in range(n):
            du = dist[u]
            if du == inf:
                continue
            for v, w in graph.neighbors(u):
                if du + w < dist[v]:
                    dist[v] = du + w
                    changed = True
        if not changed:
            break
    return [None if d == inf else d for d in dist]


def is_symmetric_reference(graph):
    """Brute force: the multiset of (u, v, w) arcs equals the multiset of
    their reverses (v, u, w)."""
    arcs = Counter((u, v, w) for u in range(graph.vertex_count) for v, w in graph.neighbors(u))
    return arcs == Counter({(v, u, w): c for (u, v, w), c in arcs.items()})


def gen_gnp_reference(spec):
    """G(n, p) built the way the library first built it: every arc as a
    (source, target, weight) triple in generation order, then per-vertex
    (target, weight) lists flattened into CSR. Same stream of SplitMix64
    draws as copq.graphs.gen_gnp, so the two graphs must be equal."""
    rng = SplitMix64(spec.seed)
    n, p = spec.n, spec.p
    arcs = []
    if p >= 1.0:
        for u in range(n):
            for v in range(u + 1, n):
                w = rng.randint(1, spec.weight_max)
                arcs += [(u, v, w), (v, u, w)]
    elif p > 0.0:
        log1mp = math.log1p(-p)
        for u in range(n):
            v = u
            while True:
                v += 1 + int(math.log(1.0 - rng.random()) / log1mp)
                if v >= n:
                    break
                w = rng.randint(1, spec.weight_max)
                arcs += [(u, v, w), (v, u, w)]
    adj = [[] for _ in range(n)]
    for u, v, w in arcs:
        adj[u].append((v, w))
    offsets, targets, weights = [0], [], []
    for u in range(n):
        for v, w in adj[u]:
            targets.append(v)
            weights.append(w)
        offsets.append(len(targets))
    return Graph(offsets, targets, weights)


def reference_fill(merger, vec):
    """The funnel heap's binary merge one record at a time: a get2 for each
    head it moves and a put2 for each output, in stream order, the left side
    winning ties. A drop-in for copq.funnel_heap._Merger.fill; the library's
    block-window merge must count exactly like it."""
    out = merger.out
    lring, rring = merger.left, merger.right
    opos = out.head + out.count
    if opos >= out.cap:
        opos -= out.cap
    lhead = rhead = None
    while out.count < merger.batch:
        if lhead is None:
            if lring.count == 0 and lring.producer is not None:
                lring.producer.fill(vec)
            lhead = vec.get2(lring.start + lring.head) if lring.count else False
        if rhead is None:
            if rring.count == 0 and rring.producer is not None:
                rring.producer.fill(vec)
            rhead = vec.get2(rring.start + rring.head) if rring.count else False
        if lhead is not False and (rhead is False or not rhead < lhead):
            src, item = lring, lhead
            lhead = None
        elif rhead is not False:
            src, item = rring, rhead
            rhead = None
        else:
            break
        vec.put2(out.start + opos, item)
        opos += 1
        if opos == out.cap:
            opos = 0
        out.count += 1
        src.advance()


def reference_sift_up(heap, i, item):
    """The binary heap's sift-up one record at a time: a put2 of item at slot
    i, then a get2 for each parent it reads and a put2 for each slot it
    writes, in path order. A drop-in for copq.binary_heap.BinaryHeap._sift_up;
    the library's windowed sift must count exactly like it."""
    vec, pos = heap.heap, heap.positions
    vec.put2(i, item)
    while i > 0:
        parent = (i - 1) >> 1
        p = vec.get2(parent)
        if p <= item:
            break
        vec.put2(i, p)
        pos.put2(p & MASK64, i + 1)
        i = parent
    vec.put2(i, item)
    pos.put2(item & MASK64, i + 1)


def reference_relax(heap, ident, key):
    """The binary heap's relaxation as it was before update: current_key's
    reads of ident's position record and, if ident is live, its heap record;
    then insert, which reads the position record again, or, for a lower key,
    decrease_key, which reads both records again before the sift. A drop-in
    for copq.binary_heap.BinaryHeap.update on valid ids and keys; update must
    count exactly like it."""
    vec, pos = heap.heap, heap.positions

    def position():
        return pos.get2(ident) if ident < heap._ids else 0

    p = position()
    if not p:
        assert not position()
        i = len(heap)
        heap._n += 1
        vec.extend(1)
        if ident >= heap._ids:
            pos.extend(ident + 1 - heap._ids)
            heap._ids = ident + 1
        pos.put2(ident, i + 1)
        heap._sift_up(i, key << 64 | ident)
    elif key < vec.get2(p - 1) >> 64:
        p = position()
        assert key < vec.get2(p - 1) >> 64
        heap._sift_up(p - 1, key << 64 | ident)


def reference_sift_down(heap, i, item):
    """The binary heap's sift-down one record at a time: a put2 of item at
    slot i, then per step a get2 of the left and then the right child and a
    put2 of the slot it leaves, in path order. A drop-in for
    copq.binary_heap.BinaryHeap._sift_down."""
    vec, pos = heap.heap, heap.positions
    vec.put2(i, item)
    n = len(heap)
    while True:
        left = 2 * i + 1
        if left >= n:
            break
        c = vec.get2(left)
        child = left
        if left + 1 < n:
            r = vec.get2(left + 1)
            if r < c:
                child, c = left + 1, r
        if item <= c:
            break
        vec.put2(i, c)
        pos.put2(c & MASK64, i + 1)
        i = child
    vec.put2(i, item)
    pos.put2(item & MASK64, i + 1)


def reference_flush(self, li):
    """The bucket heap's flush as it was before its signal loop was trimmed:
    every signal through dict membership tests and every bucket through
    sorted(). A drop-in for copq.bucket_heap.BucketHeap._flush; the library's
    flush must count, store and forward exactly like it."""
    lv = self._levels[li]
    vec = self.vector
    signals = vec.read_run2(lv.sstart, lv.sstart + lv.scount)
    self.stored -= lv.scount + lv.bcount
    lv.scount = 0
    lo = lv.bstart + lv.bhead
    # id -> its record; a signal that wins is stored as it is
    d = {rec & MASK64: rec for rec in vec.read_run2(lo, lo + lv.bcount)}
    deepest = li == len(self._levels) - 1
    out: list[int] = []  # signals for the next level
    limit = lv.splitter << 64 | MASK64  # the largest record the bucket accepts
    for sig in signals:
        sid = sig & MASK64
        if sig >= DELETE:
            if sid in d:
                del d[sid]
            elif not deepest:
                out.append(sig)
        else:
            cur = d.get(sid)
            if cur is not None:
                if sig < cur:
                    d[sid] = sig
            elif sig <= limit:
                d[sid] = sig
                if not deepest:
                    # chase a possible stale copy of sid in deeper levels
                    out.append(DELETE | sid)
            else:
                out.append(sig)
    items = sorted(d.values())
    if len(items) > lv.bcap:
        out.extend(items[lv.bcap :])
        del items[lv.bcap :]
        lv.splitter = items[-1] >> 64
    lv.bhead = 0
    lv.bcount = len(items)
    self.stored += len(items) + len(out)
    vec.write_run2(lv.bstart, items)
    if out:
        if li + 1 == len(self._levels):
            self._add_level()
        nxt = self._levels[li + 1]
        if nxt.scount + len(out) > nxt.sroom:
            raise AssertionError(f"signal region overflow at level {nxt.num}")
        vec.write_run2(nxt.sstart + nxt.scount, out)
        nxt.scount += len(out)
        if nxt.scount > signal_capacity(nxt.num):
            self._flush(li + 1)


def reference_source_of_arc(self, a):
    """ExternalGraph.source_of_arc one probe at a time: a binary search over
    the offset records with one get2 per probe. A drop-in for the library's
    method, which must find the same vertex and count exactly like it."""
    lo, hi = 0, self.vertex_count - 1
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if self.vector.get2(mid) <= a:
            lo = mid
        else:
            hi = mid - 1
    return lo
