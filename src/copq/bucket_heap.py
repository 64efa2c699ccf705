"""Bucket heap: a cache-oblivious priority queue with Update / Delete / DeleteMin.

Update(id, key) inserts id, or lowers its key if already present (a raise
attempt is dropped). Operations are buffered as signals that flow down a
chain of geometrically growing levels; each level pairs an element bucket
with a signal buffer and a splitter key bounding the bucket's contents.

Level i (1-based) holds at most 2^(2i+2) elements and flushes its signal
buffer once it exceeds 2^(2i+1) pending signals, so an element costs a
bounded number of whole-level scans on its way down and back up. Buckets
are kept sorted; all records live in one BlockVector as key << 64 | id
ints, which order like their (key, id) pairs.

Uniqueness of live ids across buckets is preserved by chasing every
mid-chain insertion with a delete signal for the levels below it, which
kills any stale deeper copy before it can surface.
"""

from __future__ import annotations

from .emcore import BlockVector, EmConfig, DEFAULT_BLOCK_BYTES, DEFAULT_CACHE_BYTES, MASK64, u64

DELETE_KEY = (1 << 64) - 1  # signal-key sentinel marking a delete
DELETE = DELETE_KEY << 64  # a signal at or above it is a delete: DELETE | id
INF = (1 << 64) - 1  # splitter value meaning "accepts any key"
_STALE = object()  # BucketHeap._min when no find_min answer is kept


def bucket_capacity(level: int) -> int:
    return 1 << (2 * level + 2)


def signal_capacity(level: int) -> int:
    return 1 << (2 * level + 1)


class _Level:
    __slots__ = ("num", "bstart", "bcap", "bhead", "bcount", "sstart", "sroom", "scap", "scount", "splitter")

    def __init__(self, num: int, bstart: int):
        self.num = num
        self.bstart = bstart
        self.bcap = bucket_capacity(num)
        self.bhead = 0  # bucket content is sorted ascending in [bstart+bhead, +bcount)
        self.bcount = 0
        self.sstart = bstart + self.bcap  # the signal buffer follows the bucket
        self.scap = signal_capacity(num)  # the level flushes past this many signals
        self.sroom = 2 * self.scap + 8
        self.scount = 0
        self.splitter = INF


class BucketHeap:
    def __init__(
        self,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ):
        self.vector = BlockVector(EmConfig(cache_bytes, block_bytes, 16))
        self._levels: list[_Level] = []
        self.stored = 0  # total records held (bucket elements + pending signals)
        self._min = _STALE  # find_min's answer, kept until the next operation

    def vectors(self) -> dict[str, BlockVector]:
        return {"bucket": self.vector}

    def occupancy(self) -> int:
        """Records currently stored (bucket elements + pending signals)."""
        return self.stored

    # -- public operations ----------------------------------------------------

    def update(self, ident: int, key: int) -> None:
        self._signal(u64(key, "key", DELETE_KEY) << 64 | u64(ident, "id"))

    insert = update  # the shared heap surface: insert(id, key)

    def delete(self, ident: int) -> None:
        self._signal(DELETE | u64(ident, "id"))

    def find_min(self) -> tuple[int, int] | None:
        """Resolve pending signals until the top bucket provably holds the global
        minimum, then return it without removing. None if abstractly empty.

        The answer is kept until the next update, delete or delete_min. A
        second call would flush nothing and re-read the record it just read,
        in the block touched last, so skipping it moves no count and no LRU
        place (as long as nothing outside the heap touches its vector)."""
        m = self._min
        if m is not _STALE:
            return m
        levels = self._levels
        if not levels:
            return None
        top = lv = levels[0]
        if top.scount:
            self._flush(0)
        j = 0
        while lv.bcount == 0:
            j += 1
            if j == len(levels):  # re-read: a flush at the deepest level adds one
                self._min = None
                return None
            lv = levels[j]
            if lv.scount:
                self._flush(j)
        if j > 0:
            self._refill(j)
        rec = self.vector.get2(top.bstart + top.bhead)
        m = self._min = rec & MASK64, rec >> 64
        return m

    def delete_min(self) -> tuple[int, int]:
        m = self._min
        if m is _STALE:
            m = self.find_min()
        if m is None:
            raise IndexError("delete_min on empty heap")
        self._min = _STALE
        top = self._levels[0]
        top.bhead += 1
        top.bcount -= 1
        self.stored -= 1
        return m

    # -- signal machinery -----------------------------------------------------

    def _signal(self, sig: int) -> None:
        self._min = _STALE
        levels = self._levels
        if not levels:
            self._add_level()
        top = levels[0]
        self.vector.put2(top.sstart + top.scount, sig)
        top.scount += 1
        self.stored += 1
        if top.scount > top.scap:
            self._flush(0)

    def _add_level(self) -> None:
        lv = _Level(len(self._levels) + 1, len(self.vector))
        self.vector.extend(lv.bcap + lv.sroom)
        self._levels.append(lv)

    def _flush(self, li: int) -> None:
        """Apply every pending signal of level li to its bucket, forwarding
        leftovers (and overflow) down to level li+1.

        It reads the signals, then the bucket, writes the bucket back from
        bstart, then appends the forwarded signals to level li+1, each as one
        read_run2/write_run2 run; the counts depend on that order. An empty
        run touches nothing, so an empty bucket is neither read nor written."""
        levels = self._levels
        lv = levels[li]
        vec = self.vector
        n = lv.scount
        bcount = lv.bcount
        lv.scount = 0
        lo = lv.bstart + lv.bhead
        signals = vec.read_run2(lv.sstart, lv.sstart + n)
        bucket = vec.read_run2(lo, lo + bcount)
        deepest = li == len(levels) - 1
        limit = lv.splitter << 64 | MASK64  # the largest record the bucket accepts
        # An inert batch passes whole: every signal lies above limit (so the
        # splitter is finite and limit < DELETE) and no id is in the bucket,
        # so each one is forwarded in order and the bucket keeps its records
        if (
            not deepest
            and min(signals) > limit
            and (not bucket or {sig & MASK64 for sig in signals}.isdisjoint([rec & MASK64 for rec in bucket]))
        ):
            items, out = bucket, signals
        else:
            # id -> its record; a signal that wins is stored as it is
            d = {rec & MASK64: rec for rec in bucket}
            get, pop = d.get, d.pop
            out = []  # signals for the next level
            put = out.append
            for sig in signals:
                sid = sig & MASK64
                if sig >= DELETE:
                    if pop(sid, None) is None and not deepest:
                        put(sig)
                else:
                    cur = get(sid)
                    if cur is not None:
                        if sig < cur:
                            d[sid] = sig
                    elif sig <= limit:
                        d[sid] = sig
                        if not deepest:
                            # chase a possible stale copy of sid in deeper levels
                            put(DELETE | sid)
                    else:
                        put(sig)
            items = sorted(d.values())
            if len(items) > lv.bcap:
                out.extend(items[lv.bcap :])
                del items[lv.bcap :]
                lv.splitter = items[-1] >> 64
            self.stored += len(items) + len(out) - n - bcount
        lv.bhead = 0
        lv.bcount = len(items)
        if items:
            vec.write_run2(lv.bstart, items)
        if out:
            if li + 1 == len(levels):
                self._add_level()
            nxt = levels[li + 1]
            if nxt.scount + len(out) > nxt.sroom:
                raise AssertionError(f"signal region overflow at level {nxt.num}")
            vec.write_run2(nxt.sstart + nxt.scount, out)
            nxt.scount += len(out)
            if nxt.scount > nxt.scap:
                self._flush(li + 1)

    def _refill(self, j: int) -> None:
        """Migrate the smallest elements of level j up into levels 0..j-1,
        half-filling each and re-establishing the splitters."""
        vec = self.vector
        src = self._levels[j]
        targets = [lv.bcap // 2 for lv in self._levels[:j]]
        m = min(sum(targets), src.bcount)
        lo = src.bstart + src.bhead
        pulled = vec.read_run2(lo, lo + m)
        src.bhead += m
        src.bcount -= m
        pos = 0
        last_key = 0
        for lv, tgt in zip(self._levels[:j], targets):
            chunk = pulled[pos : pos + tgt]
            pos += len(chunk)
            lv.bhead = 0
            lv.bcount = len(chunk)
            vec.write_run2(lv.bstart, chunk)
            if chunk:
                last_key = chunk[-1] >> 64
            lv.splitter = last_key

    # -- test hooks -------------------------------------------------------------

    def check_invariants(self) -> None:
        """Splitter soundness, bucket sortedness, capacity bounds (stat-free).

        Holds at every instant. Per-id uniqueness is a property of the
        resolved state (an insertion's chase-delete reaps a stale deeper copy
        lazily), so it is checked by _live_map instead.
        """
        prev_split = 0
        for lv in self._levels:
            assert 0 <= lv.bcount <= lv.bcap, f"bucket occupancy out of range at level {lv.num}"
            prev = None
            for rec in self.vector.peek_run2(lv.bstart + lv.bhead, lv.bstart + lv.bhead + lv.bcount):
                assert rec >> 64 <= lv.splitter, f"key above splitter at level {lv.num}"
                if prev is not None:
                    assert prev <= rec, f"bucket unsorted at level {lv.num}"
                prev = rec
            assert prev_split <= lv.splitter, "splitters not monotone"
            prev_split = lv.splitter
        assert self.stored == sum(l.bcount + l.scount for l in self._levels), "stored count drifted"

    def _live_map(self) -> dict[int, int]:
        """Abstract mapping after forcing every signal through (test use only).

        A single top-down flush pass carries each pending signal to the level
        it dies at; afterwards every live id sits in exactly one bucket, which
        this asserts."""
        self._min = _STALE  # the flushes move the LRU order
        li = 0
        while li < len(self._levels):
            if self._levels[li].scount:
                self._flush(li)
            li += 1
        out: dict[int, int] = {}
        for lv in self._levels:
            for rec in self.vector.peek_run2(lv.bstart + lv.bhead, lv.bstart + lv.bhead + lv.bcount):
                ident = rec & MASK64
                assert ident not in out, f"id {ident} live in two buckets after resolution"
                out[ident] = rec >> 64
        return out
