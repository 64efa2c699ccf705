"""Funnel heap: a cache-oblivious priority queue with Insert and DeleteMin only.

The structure is a chain of links, each holding a k-way merging funnel:
sorted leaf buffers feed a recursively laid out k-merger whose output
buffer is merged (by a binary chain merger) with the next link's output
stream. A small sorted insertion buffer fronts the chain; DeleteMin takes
the smaller of its head and the first link's output head, refilling
buffers by lazy merging as they empty.

When the insertion buffer fills, a sweep drains it together with every
buffer of the shallower links and the target link's own merger state into
one sorted run, written to the target link's next unused leaf. Leaf sizes
and fan-ins grow geometrically from link to link, so a heap of n elements
never has more than O(log n) links.

All records live in one BlockVector as (id, key) pairs; buffer cursors are
plain fields. Duplicate ids are allowed (multiset), ties break by id.
"""

from __future__ import annotations

from bisect import bisect_right

from .emcore import U64, BlockVector, EmConfig, DEFAULT_BLOCK_BYTES, DEFAULT_CACHE_BYTES

_INSERTION_CAP = 8  # s_1; also the insertion buffer capacity


def _next_pow2(x: int) -> int:
    return 1 if x <= 1 else 1 << (x - 1).bit_length()


def _icbrt_ceil(s: int) -> int:
    r = max(1, round(s ** (1.0 / 3.0)))
    while r**3 < s:
        r += 1
    while (r - 1) ** 3 >= s:
        r -= 1
    return r


def _merger_split(k: int) -> tuple[int, int]:
    """Fan-ins (top, bottom) of the recursive split of a k-merger, k = 2^j > 2."""
    j = k.bit_length() - 1
    top = 1 << ((j + 1) // 2)
    return top, k >> ((j + 1) // 2)


def _intsize(k: int) -> int:
    """Total record capacity of a k-merger's internal buffers."""
    if k <= 2:
        return 0
    top, bot = _merger_split(k)
    return _intsize(top) + top * (bot**3) + top * _intsize(bot)


_PARAMS: list[tuple[int, int, int, int, int, int]] = []  # (s, k, acap, bcap, intsz, leafcap)
_PARAMS_T: list[int] = []  # running capacity sum used by the leafcap recurrence


def _link_params(num: int) -> tuple[int, int, int, int, int, int]:
    """Geometry of link `num` (1-based): nominal run size s, fan-in k, chain
    buffer capacity, merger output capacity, internal capacity, leaf capacity.

    A sweep into link i carries at most: the insertion buffer, everything in
    links 1..i-1, and link i's own chain/merger/internal buffer contents.
    leafcap is that worst case, so a swept run always fits one leaf.
    """
    while len(_PARAMS) < num:
        i = len(_PARAMS) + 1
        if i == 1:
            s, k = _INSERTION_CAP, 2
        else:
            ps, pk = _PARAMS[-1][0], _PARAMS[-1][1]
            s = ps * (pk + 1)
            k = _next_pow2(_icbrt_ceil(s))
        acap = s * (k + 1)  # = s_{i+1}
        bcap = k**3
        intsz = _intsize(k)
        prev_total = _PARAMS_T[-1] if _PARAMS_T else 0
        leafcap = _INSERTION_CAP + prev_total + bcap + intsz + s
        _PARAMS.append((s, k, acap, bcap, intsz, leafcap))
        _PARAMS_T.append(prev_total + k * leafcap + bcap + intsz + s)
    return _PARAMS[num - 1]


class _Ring:
    """Circular queue of (id, key) records over a fixed vector region.

    Content is always a sorted run; pops come from the head, appends go to
    the tail. Tuples flowing through the heap are (key, id) so they compare
    directly; storage order is (id, key).
    """

    __slots__ = ("start", "cap", "head", "count")

    def __init__(self, start: int, cap: int):
        self.start = start
        self.cap = cap
        self.head = 0
        self.count = 0

    def peek(self, vec: BlockVector) -> tuple[int, int]:
        ident, key = vec.get2(self.start + self.head)
        return (key, ident)

    def pop(self, vec: BlockVector) -> tuple[int, int]:
        ident, key = vec.get2(self.start + self.head)
        self.head += 1
        if self.head == self.cap:
            self.head = 0
        self.count -= 1
        return (key, ident)

    def advance(self) -> None:
        """Drop the head record (caller already holds its value from peek)."""
        self.head += 1
        if self.head == self.cap:
            self.head = 0
        self.count -= 1

    def append(self, vec: BlockVector, key: int, ident: int) -> None:
        pos = self.head + self.count
        if pos >= self.cap:
            pos -= self.cap
        vec.set2(self.start + pos, ident, key)
        self.count += 1

    def get_at(self, vec: BlockVector, i: int) -> tuple[int, int]:
        pos = self.head + i
        if pos >= self.cap:
            pos -= self.cap
        ident, key = vec.get2(self.start + pos)
        return (key, ident)

    def set_at(self, vec: BlockVector, i: int, item: tuple[int, int]) -> None:
        pos = self.head + i
        if pos >= self.cap:
            pos -= self.cap
        vec.set2(self.start + pos, item[1], item[0])

    def drain(self, vec: BlockVector) -> list[tuple[int, int]]:
        out = [self.get_at(vec, i) for i in range(self.count)]
        self.head = 0
        self.count = 0
        return out

    def write_run(self, vec: BlockVector, run: list[tuple[int, int]]) -> None:
        self.head = 0
        self.count = len(run)
        base = self.start
        for i, (key, ident) in enumerate(run):
            vec.set2(base + i, ident, key)

    def peek_all(self, vec: BlockVector) -> list[tuple[int, int]]:
        out = []
        for i in range(self.count):
            pos = self.head + i
            if pos >= self.cap:
                pos -= self.cap
            ident, key = vec.peek2(self.start + pos)
            out.append((key, ident))
        return out


class _Stream:
    """A merger input: a ring plus the merger that refills it (None for leaves)."""

    __slots__ = ("ring", "producer")

    def __init__(self, ring: _Ring, producer):
        self.ring = ring
        self.producer = producer


_EMPTY_STREAM = _Stream(_Ring(0, 0), None)


class _Merger:
    """Binary merger filling its output ring with up to `batch` records per call."""

    __slots__ = ("out", "left", "right", "batch")

    def __init__(self, out: _Ring, left: _Stream, right: _Stream, batch: int):
        self.out = out
        self.left = left
        self.right = right
        self.batch = batch

    def fill(self, vec: BlockVector) -> None:
        # heads are cached between iterations: one record read per move;
        # False marks a side whose whole subtree is (currently) empty
        out = self.out
        want = self.batch
        lring, rring = self.left.ring, self.right.ring
        lprod, rprod = self.left.producer, self.right.producer
        lhead = rhead = None
        while out.count < want:
            if lhead is None:
                if lring.count == 0 and lprod is not None:
                    lprod.fill(vec)
                lhead = lring.peek(vec) if lring.count else False
            if rhead is None:
                if rring.count == 0 and rprod is not None:
                    rprod.fill(vec)
                rhead = rring.peek(vec) if rring.count else False
            if lhead is not False:
                if rhead is not False and rhead < lhead:
                    out.append(vec, rhead[0], rhead[1])
                    rring.advance()
                    rhead = None
                else:
                    out.append(vec, lhead[0], lhead[1])
                    lring.advance()
                    lhead = None
            elif rhead is not False:
                out.append(vec, rhead[0], rhead[1])
                rring.advance()
                rhead = None
            else:
                break


class _Alloc:
    __slots__ = ("pos",)

    def __init__(self, pos: int):
        self.pos = pos

    def take(self, n: int) -> int:
        r = self.pos
        self.pos += n
        return r


def _build_kmerger(alloc: _Alloc, k: int, inputs: list[_Stream], out: _Ring, internals: list[_Ring]) -> _Merger:
    """Recursively laid-out k-merger: top sub-merger region first, then the
    middle buffers, then the bottom sub-mergers, all contiguous."""
    if k == 2:
        return _Merger(out, inputs[0], inputs[1], out.cap)
    top_f, bot_f = _merger_split(k)
    top_alloc = _Alloc(alloc.take(_intsize(top_f)))
    mids = []
    for _ in range(top_f):
        r = _Ring(alloc.take(bot_f**3), bot_f**3)
        internals.append(r)
        mids.append(r)
    top_inputs = []
    for t in range(top_f):
        bm = _build_kmerger(alloc, bot_f, inputs[t * bot_f : (t + 1) * bot_f], mids[t], internals)
        top_inputs.append(_Stream(mids[t], bm))
    return _build_kmerger(top_alloc, top_f, top_inputs, out, internals)


class _Link:
    __slots__ = ("num", "s", "k", "A", "B", "leaves", "c", "internals", "kroot", "v")

    def __init__(self, num, s, k, A, B, leaves, internals, kroot, v):
        self.num = num
        self.s = s
        self.k = k
        self.A = A
        self.B = B
        self.leaves = leaves
        self.c = 0  # leaves [0, c) are in use or exhausted
        self.internals = internals
        self.kroot = kroot
        self.v = v


class FunnelHeap:
    def __init__(
        self,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ):
        self.vector = BlockVector(EmConfig(cache_bytes, block_bytes, 16))
        self.vector.extend(_INSERTION_CAP)
        self._I = _Ring(0, _INSERTION_CAP)
        # sorted mirror of the insertion buffer: spares re-reading its one hot
        # block on peeks; the vector stays authoritative (all writes go through)
        self._imirror: list[tuple[int, int]] = []
        self._links: list[_Link] = []
        self._n = 0
        self.peak_entries = 0

    def __len__(self) -> int:
        return self._n

    def occupancy(self) -> int:
        return self._n

    def vectors(self) -> dict[str, BlockVector]:
        return {"funnel": self.vector}

    def insert(self, ident: int, key: int) -> None:
        if not (0 <= ident < U64 and 0 <= key < U64):
            raise ValueError(f"id {ident} and key {key} must lie in [0, 2^64)")
        I = self._I
        if I.count == I.cap:
            self._sweep()
        vec = self.vector
        item = (key, ident)
        mirror = self._imirror
        pos = bisect_right(mirror, item)
        mirror.insert(pos, item)
        I.count += 1
        for j in range(pos, I.count):
            I.set_at(vec, j, mirror[j])
        self._n += 1
        if self._n > self.peak_entries:
            self.peak_entries = self._n

    def find_min(self) -> tuple[int, int] | None:
        if self._n == 0:
            return None
        best, _ = self._min_source()
        return (best[1], best[0])

    def delete_min(self) -> tuple[int, int]:
        if self._n == 0:
            raise IndexError("delete_min on empty heap")
        best, ring = self._min_source()
        if ring is self._I:
            self._imirror.pop(0)
        ring.advance()  # head value already read by _min_source
        self._n -= 1
        return (best[1], best[0])

    def _min_source(self) -> tuple[tuple[int, int], _Ring]:
        vec = self.vector
        best = None
        ring = None
        if self._imirror:
            best = self._imirror[0]
            ring = self._I
        if self._links:
            a1 = self._links[0].A
            if a1.count == 0:
                self._links[0].v.fill(vec)
            if a1.count:
                cand = a1.peek(vec)
                if best is None or cand < best:
                    best = cand
                    ring = a1
        if best is None:
            raise AssertionError("live count positive but all buffers empty")
        return best, ring

    # -- growth ----------------------------------------------------------------

    def _build_link(self, num: int) -> None:
        s, k, acap, bcap, intsz, leafcap = _link_params(num)
        base = len(self.vector)
        self.vector.extend(acap + bcap + intsz + k * leafcap)
        A = _Ring(base, acap)
        B = _Ring(base + acap, bcap)
        ialloc = _Alloc(base + acap + bcap)
        leaf_base = base + acap + bcap + intsz
        leaves = [_Ring(leaf_base + t * leafcap, leafcap) for t in range(k)]
        internals: list[_Ring] = []
        kroot = _build_kmerger(ialloc, k, [_Stream(lf, None) for lf in leaves], B, internals)
        v = _Merger(A, _Stream(B, kroot), _EMPTY_STREAM, batch=s)
        link = _Link(num, s, k, A, B, leaves, internals, kroot, v)
        if self._links:
            self._links[-1].v.right = _Stream(A, v)
        self._links.append(link)

    def _sweep(self) -> None:
        """Drain the insertion buffer, all of links 1..i-1, and link i's chain
        and merger buffers into one sorted run stored in link i's next free
        leaf, where i is the shallowest link with a leaf to spare."""
        vec = self.vector
        idx = None
        for t, ln in enumerate(self._links):
            if ln.c < ln.k:
                idx = t
                break
        if idx is None:
            idx = len(self._links)
            self._build_link(idx + 1)
        target = self._links[idx]
        run = self._I.drain(vec)
        self._imirror.clear()
        for j in range(idx):
            ln = self._links[j]
            run.extend(ln.A.drain(vec))
            run.extend(ln.B.drain(vec))
            for r in ln.internals:
                if r.count:
                    run.extend(r.drain(vec))
            for t in range(ln.c):
                if ln.leaves[t].count:
                    run.extend(ln.leaves[t].drain(vec))
            ln.c = 0
        run.extend(target.A.drain(vec))
        run.extend(target.B.drain(vec))
        for r in target.internals:
            if r.count:
                run.extend(r.drain(vec))
        run.sort()
        leaf = target.leaves[target.c]
        if len(run) > leaf.cap:
            raise AssertionError(f"sweep run of {len(run)} exceeds leaf capacity {leaf.cap}")
        leaf.write_run(vec, run)
        target.c += 1

    # -- test hooks --------------------------------------------------------------

    def _all_rings(self):
        yield self._I
        for ln in self._links:
            yield ln.A
            yield ln.B
            yield from ln.internals
            yield from ln.leaves

    def check_invariants(self) -> None:
        """Sortedness of every buffer and conservation of the live count (stat-free)."""
        assert self._imirror == self._I.peek_all(self.vector), "insertion-buffer mirror drifted"
        total = 0
        vec = self.vector
        for ring in self._all_rings():
            items = ring.peek_all(vec)
            total += len(items)
            assert all(items[i] <= items[i + 1] for i in range(len(items) - 1)), "buffer unsorted"
            assert 0 <= ring.count <= ring.cap
        assert total == self._n, f"live count {self._n} != stored {total}"
        for ln in self._links:
            assert 0 <= ln.c <= ln.k

    def _live_items(self) -> list[tuple[int, int]]:
        out = []
        for ring in self._all_rings():
            out.extend(ring.peek_all(self.vector))
        return sorted(out)
