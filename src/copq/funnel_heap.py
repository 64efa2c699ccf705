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

All records live in one BlockVector as key << 64 | id ints, which order like
their (key, id) pairs; buffer cursors are plain fields. Duplicate ids are allowed (multiset),
ties break by id.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache

from .emcore import BlockVector, EmConfig, DEFAULT_BLOCK_BYTES, DEFAULT_CACHE_BYTES, MASK64, u64

_INSERTION_CAP = 8  # s_1; also the insertion buffer capacity


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


@cache
def _link_params(num: int) -> tuple[int, int, int, int, int, int]:
    """Geometry of link `num` (1-based): nominal run size s, fan-in k, chain
    buffer capacity, merger output capacity, internal capacity, leaf capacity.

    s_1 = 8 and s_{i+1} = s_i (k_i + 1), the chain buffer capacity of link i.
    A sweep into link i carries at most: the insertion buffer, everything in
    links 1..i-1, and link i's own chain/merger/internal buffer contents.
    leafcap is that worst case, so a swept run always fits one leaf.
    """
    s = _INSERTION_CAP if num == 1 else _link_params(num - 1)[2]
    k = 1 << -(-(s - 1).bit_length() // 3)  # least power of two with k^3 >= s
    bcap, intsz = k**3, _intsize(k)
    shallower = sum(pk * pleaf + pb + pint + ps for ps, pk, _, pb, pint, pleaf in map(_link_params, range(1, num)))
    return s, k, s * (k + 1), bcap, intsz, _INSERTION_CAP + shallower + bcap + intsz + s


class _Ring:
    """Circular queue of records over a fixed vector region.

    Content is always a sorted run; pops come from the head, appends go to
    the tail. `block` is the block holding the whole region for `rpb`
    records per block, else -1 (always for an empty region).

    A merger's output ring refills itself by merging its `left` and `right`
    input rings, up to `batch` records per fill. The insertion buffer, the
    leaves and the empty ring behind the last link have no inputs and are
    always `dry`. A ring with inputs turns dry when a fill ends with both
    inputs empty and dry: its whole subtree is empty, so a fill would output
    nothing and touch no block, and callers skip it. A sweep clears it on
    every ring with inputs in the links it refills.
    """

    __slots__ = ("start", "cap", "head", "count", "block", "left", "right", "batch", "dry")

    def __init__(self, start: int, cap: int, rpb: int):
        self.start = start
        self.cap = cap
        self.head = 0
        self.count = 0
        b = start // rpb
        self.block = b if cap and (start + cap - 1) // rpb == b else -1
        self.left = self.right = None
        self.batch = 0
        self.dry = True

    def feed(self, left: _Ring, right: _Ring, batch: int) -> None:
        """Make the ring the output of a binary merger of left and right."""
        self.left, self.right, self.batch = left, right, batch
        self.dry = False

    def advance(self) -> None:
        """Drop the head record (the caller has already read it)."""
        self.head += 1
        if self.head == self.cap:
            self.head = 0
        self.count -= 1

    def head_run(self, touch, rpb: int, n: int) -> tuple[int, list[int]]:
        """The head record's block and, from one clean touch of it, the
        records from the head on, in ring order: at most n, none past the
        last, and for a ring over several blocks none past the end of that
        block or of the region. A ring in one block reads on across its wrap,
        in two slices of the block's list."""
        if self.count < n:
            n = self.count
        b, head, cap = self.block, self.head, self.cap
        if b < 0:  # the slice ends at the block's end, where its list ends
            b, off = divmod(self.start + head, rpb)
            if cap - head < n:
                n = cap - head
            return b, touch(b, False)[off : off + n]
        # the region lies in block b; k records precede its end
        data, off, k = touch(b, False), self.start + head - b * rpb, cap - head
        if n <= k:
            return b, data[off : off + n]
        return b, data[off : off + k] + data[off + k - cap : off + n - cap]

    def records(self, read_run2) -> list[int]:
        """The ring's records by read_run2 (a vector's read_run2, or peek_run2
        for a stat-free read): one run up to the end of the region and, if
        the ring wraps, one from its start."""
        first = min(self.count, self.cap - self.head)
        lo = self.start + self.head
        out = read_run2(lo, lo + first)
        if first < self.count:
            out += read_run2(self.start, self.start + self.count - first)
        return out

    def drain(self, vec: BlockVector) -> list[int]:
        """Empty the ring, returning its records, read as runs."""
        out = self.records(vec.read_run2)
        self.head = 0
        self.count = 0
        return out

    def fill(self, vec: BlockVector, rpb: int, wide: bool) -> None:
        """Merge up to `batch` records from the inputs into the ring. `rpb` is
        the vector's records per block and `wide` whether it has the three
        frames a block window needs; the heap reads both once."""
        # Every fill starts on an empty ring: callers fill a ring only when
        # its count is 0, and no input's subtree holds it, so self.count
        # is stored once, at the end. A side L (R) is None until its head is
        # read, () while its whole subtree is empty, else the run that
        # _Ring.head_run returned at the head read, at most what this fill can
        # still output: the records from the head on that the side's current
        # block lb (rb) holds, in ring order; li (ri) indexes the head in it.
        # A head step reads a head, after an input's fill if it ran empty.
        # Then a block window moves at once: the outputs up to the first point
        # where the out ring or a side ring would leave its current block or
        # run empty, or the batch is full; the left side wins ties. A ring
        # over several blocks leaves its last block where it wraps, so its
        # windows end there too. A ring that lies in one block (its `block`
        # field) never leaves it: a window runs on across its wrap, head_run
        # reading the side's records in two slices of the block's list and
        # the out window writing them in two slice assignments.
        #
        # Exactness: per record, a window touches O S O S ... O (O the out
        # block, each S the block of the side the output before it consumed)
        # right after the head step. With at least three frames none of these
        # blocks, nor the block of the head step's last read (mru), can be
        # evicted before the window ends, so only a block's first touch can
        # fault and only its last touch places it in the LRU order. The window
        # is therefore charged by a dirty touch of O that stores its outputs,
        # a touch of each side block read in it other than mru's, then touches
        # that leave the side of output n-1 and O on top; with fewer frames a
        # window is one output, the per-record sequence itself. A window never
        # leaves its blocks, so every touch charges like a get2 (a put2 when
        # dirty) of a record in the block; a wrap inside a block changes no
        # block, so it changes no charge.
        touch = vec.touch
        want = self.batch
        ostart, ocap, oblock, ocount = self.start, self.cap, self.block, self.count
        obase = ostart - oblock * rpb  # the out region's first slot in its block
        opos = self.head + ocount
        lring, rring = self.left, self.right
        L = R = None
        while ocount < want:
            mru = None  # the side whose head read, if any, is the last touch so far
            if L is None:
                if lring.count == 0 and not lring.dry:
                    lring.fill(vec, rpb, wide)
                L, li = (), 0
                if lring.count:
                    mru = lring
                    lb, L = lring.head_run(touch, rpb, want - ocount)
            if R is None:
                if rring.count == 0 and not rring.dry:
                    rring.fill(vec, rpb, wide)
                    mru = None
                R, ri = (), 0
                if rring.count:
                    mru = rring
                    rb, R = rring.head_run(touch, rpb, want - ocount)
            t = want - ocount if wide else 1
            if oblock < 0:
                ob, off = divmod(ostart + opos, rpb)
                if rpb - off < t:
                    t = rpb - off
                if ocap - opos < t:
                    t = ocap - opos
            else:
                ob, off = oblock, obase + opos
            # a side moves as one slice, up to its end or the window's size,
            # when the other side is empty or that whole run comes before the
            # other side's head (the left winning ties); else the sides merge
            if not R or L and not R[ri] < L[li + t - 1 if li + t < len(L) else -1]:
                if not L:
                    break
                i = li + t if li + t < len(L) else len(L)
                merged, j, last_left = L[li:i], ri, True
            elif not L or R[ri + t - 1 if ri + t < len(R) else -1] < L[li]:
                j = ri + t if ri + t < len(R) else len(R)
                merged, i, last_left = R[ri:j], li, False
            else:
                merged = []
                append = merged.append
                i, j, stop = li, ri, li + ri + t
                lend, rend = len(L), len(R)
                x, y = L[i], R[j]
                while True:
                    if y < x:
                        append(y)
                        j += 1
                        if j == rend or i + j == stop:
                            last_left = False
                            break
                        y = R[j]
                    else:
                        append(x)
                        i += 1
                        if i == lend or i + j == stop:
                            last_left = True
                            break
                        x = L[i]
            n = len(merged)
            if opos + n <= ocap:
                touch(ob, True)[off : off + n] = merged  # O: the window's first touch
            else:  # the out ring wraps inside its block
                data, k = touch(ob, True), ocap - opos
                data[off : off + k] = merged[:k]
                data[obase : obase + n - k] = merged[k:]
            # the sides read inside the window are those of outputs 1..n-1
            lread, rread = i - last_left > li, j - (not last_left) > ri
            if lread and rread:
                # the head step read one of them (mru), so mru is not None
                mru_left = mru is lring
                late_left = R[j - 2 + last_left] < L[i - 1 - last_left]  # side of output n-1
                touch(rb if mru_left else lb, False)
                if late_left == mru_left:
                    touch(lb if late_left else rb, False)
                touch(ob, False)
            elif (lread or rread) and mru is not (lring if lread else rring):
                touch(lb if lread else rb, False)
                touch(ob, False)
            opos += n
            if opos >= ocap:
                opos -= ocap
            ocount += n
            if i > li:
                lring.head += i - li
                if lring.head >= lring.cap:
                    lring.head -= lring.cap
                lring.count -= i - li
                li = i
            if j > ri:
                rring.head += j - ri
                if rring.head >= rring.cap:
                    rring.head -= rring.cap
                rring.count -= j - ri
                ri = j
            # the side of output n reads its head again at the next head step
            if last_left:
                L = None
            else:
                R = None
        self.count = ocount
        self.dry = lring.count == rring.count == 0 and lring.dry and rring.dry


def _build_kmerger(
    pos: int, k: int, inputs: list[_Ring], out: _Ring, internals: list[_Ring], rpb: int
) -> int:
    """Recursively laid-out k-merger from record `pos` on: top sub-merger
    region first, then the middle buffers, then the bottom sub-mergers, all
    contiguous. Returns the first record past the region."""
    if k == 2:
        out.feed(inputs[0], inputs[1], out.cap)
        return pos
    top_f, bot_f = _merger_split(k)
    top_pos = pos
    pos += _intsize(top_f)
    mids = [_Ring(pos + t * bot_f**3, bot_f**3, rpb) for t in range(top_f)]
    internals.extend(mids)
    pos += top_f * bot_f**3
    for t in range(top_f):
        pos = _build_kmerger(pos, bot_f, inputs[t * bot_f : (t + 1) * bot_f], mids[t], internals, rpb)
    _build_kmerger(top_pos, top_f, mids, out, internals, rpb)
    return pos


class _Link:
    __slots__ = ("A", "B", "leaves", "c", "internals")

    def __init__(self, A, B, leaves, internals):
        self.A = A  # the chain merger's output: B merged with the next link's A
        self.B = B
        self.leaves = leaves
        self.c = 0  # leaves [0, c) are in use or exhausted
        self.internals = internals


class FunnelHeap:
    def __init__(
        self,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ):
        self.vector = BlockVector(EmConfig(cache_bytes, block_bytes, 16))
        self._rpb = self.vector.config.records_per_block
        self._wide = self.vector.config.frame_count >= 3  # see _Ring.fill
        self.vector.extend(_INSERTION_CAP)
        self._I = _Ring(0, _INSERTION_CAP, self._rpb)
        # sorted mirror of the insertion buffer: spares re-reading its one hot
        # block on peeks; the vector stays authoritative (all writes go through)
        self._imirror: list[int] = []
        self._links: list[_Link] = []
        self._n = 0

    def __len__(self) -> int:
        return self._n

    occupancy = __len__

    def vectors(self) -> dict[str, BlockVector]:
        return {"funnel": self.vector}

    def insert(self, ident: int, key: int) -> None:
        ident, key = u64(ident, "id"), u64(key, "key")
        I = self._I
        if I.count == I.cap:
            self._sweep()
        vec = self.vector
        item = key << 64 | ident
        mirror = self._imirror
        pos = bisect_right(mirror, item)
        mirror.insert(pos, item)
        I.count += 1
        # the shifted tail mirror[pos:] in at most two runs, the ring's order:
        # mirror[split:] wraps round to the start of the ring's region
        split = I.cap - I.head
        if pos < split:
            vec.write_run2(I.start + I.head + pos, mirror[pos:split])
        if I.count > split:
            vec.write_run2(I.start + max(pos - split, 0), mirror[max(pos, split) :])
        self._n += 1

    def find_min(self) -> tuple[int, int] | None:
        if self._n == 0:
            return None
        best, _ = self._min_source()
        return best & MASK64, best >> 64

    def delete_min(self) -> tuple[int, int]:
        if self._n == 0:
            raise IndexError("delete_min on empty heap")
        best, ring = self._min_source()
        if ring is self._I:
            self._imirror.pop(0)
        ring.advance()  # head value already read by _min_source
        self._n -= 1
        return best & MASK64, best >> 64

    def _min_source(self) -> tuple[int, _Ring]:
        vec = self.vector
        best = None
        ring = None
        if self._imirror:
            best = self._imirror[0]
            ring = self._I
        if self._links:
            a1 = self._links[0].A
            if a1.count == 0 and not a1.dry:
                a1.fill(vec, self._rpb, self._wide)
            if a1.count:
                cand = vec.get2(a1.start + a1.head)
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
        rpb = self._rpb
        A = _Ring(base, acap, rpb)
        B = _Ring(base + acap, bcap, rpb)
        leaf_base = base + acap + bcap + intsz
        leaves = [_Ring(leaf_base + t * leafcap, leafcap, rpb) for t in range(k)]
        internals: list[_Ring] = []
        _build_kmerger(base + acap + bcap, k, leaves, B, internals, rpb)
        A.feed(B, _Ring(0, 0, rpb), s)
        if self._links:
            self._links[-1].A.right = A
        self._links.append(_Link(A, B, leaves, internals))

    def _sweep(self) -> None:
        """Drain the insertion buffer, all of links 1..i-1, and link i's chain
        and merger buffers into one sorted run stored in link i's next free
        leaf, where i is the shallowest link with a leaf to spare."""
        vec = self.vector
        idx = next((t for t, ln in enumerate(self._links) if ln.c < len(ln.leaves)), len(self._links))
        if idx == len(self._links):
            self._build_link(idx + 1)
        target = self._links[idx]
        run = self._I.drain(vec)
        self._imirror.clear()
        for ln in self._links[: idx + 1]:
            for r in (ln.A, ln.B, *ln.internals):
                r.dry = False
            run.extend(ln.A.drain(vec))
            run.extend(ln.B.drain(vec))
            for r in ln.internals:
                if r.count:
                    run.extend(r.drain(vec))
            if ln is not target:
                for leaf in ln.leaves[: ln.c]:
                    if leaf.count:
                        run.extend(leaf.drain(vec))
                ln.c = 0
        run.sort()
        leaf = target.leaves[target.c]
        if len(run) > leaf.cap:
            raise AssertionError(f"sweep run of {len(run)} exceeds leaf capacity {leaf.cap}")
        leaf.head = 0
        leaf.count = len(run)
        vec.write_run2(leaf.start, run)
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
        peek_run2 = self.vector.peek_run2
        assert self._imirror == self._I.records(peek_run2), "insertion-buffer mirror drifted"
        total = 0
        for ring in self._all_rings():
            items = ring.records(peek_run2)
            total += len(items)
            assert all(items[i] <= items[i + 1] for i in range(len(items) - 1)), "buffer unsorted"
            assert 0 <= ring.count <= ring.cap
        assert total == self._n, f"live count {self._n} != stored {total}"
        for ln in self._links:
            assert 0 <= ln.c <= len(ln.leaves)

    def _live_items(self) -> list[int]:
        out = []
        for ring in self._all_rings():
            out += ring.records(self.vector.peek_run2)
        return sorted(out)
