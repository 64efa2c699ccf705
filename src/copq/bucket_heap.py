"""Bucket heap: a cache-oblivious priority queue with Update / Delete / DeleteMin.

Update(id, key) inserts id, or lowers its key if already present (a raise
attempt is dropped). Operations are buffered as signals that flow down a
chain of geometrically growing levels; each level pairs an element bucket
with a signal buffer and a splitter key bounding the bucket's contents.

Level i (1-based) holds at most 2^(2i+2) elements and flushes its signal
buffer once it exceeds 2^(2i+1) pending signals, so an element costs a
bounded number of whole-level scans on its way down and back up. Buckets
are kept sorted by (key, id); all records live in one BlockVector as
(id, key) pairs.

Uniqueness of live ids across buckets is preserved by chasing every
mid-chain insertion with a delete signal for the levels below it, which
kills any stale deeper copy before it can surface.
"""

from __future__ import annotations

from .emcore import U64, BlockVector, EmConfig, DEFAULT_BLOCK_BYTES, DEFAULT_CACHE_BYTES

DELETE_KEY = (1 << 64) - 1  # signal-key sentinel marking a delete
INF = (1 << 64) - 1  # splitter value meaning "accepts any key"


def bucket_capacity(level: int) -> int:
    return 1 << (2 * level + 2)


def signal_capacity(level: int) -> int:
    return 1 << (2 * level + 1)


class _Level:
    __slots__ = ("num", "bstart", "bcap", "bhead", "bcount", "sstart", "sroom", "scount", "splitter")

    def __init__(self, num: int, bstart: int, sstart: int):
        self.num = num
        self.bstart = bstart
        self.bcap = bucket_capacity(num)
        self.bhead = 0  # bucket content is sorted ascending in [bstart+bhead, +bcount)
        self.bcount = 0
        self.sstart = sstart
        self.sroom = 2 * signal_capacity(num) + 8
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

    def vectors(self) -> dict[str, BlockVector]:
        return {"bucket": self.vector}

    def occupancy(self) -> int:
        """Records currently stored (bucket elements + pending signals)."""
        return self.stored

    # -- public operations ----------------------------------------------------

    def update(self, ident: int, key: int) -> None:
        if not (0 <= ident < U64 and 0 <= key < DELETE_KEY):
            raise ValueError(f"id {ident} must lie in [0, 2^64) and key {key} in [0, 2^64-2]")
        self._signal(ident, key)

    insert = update  # the shared heap surface: insert(id, key)

    def delete(self, ident: int) -> None:
        if not 0 <= ident < U64:
            raise ValueError(f"id {ident} must lie in [0, 2^64)")
        self._signal(ident, DELETE_KEY)

    def find_min(self) -> tuple[int, int] | None:
        """Resolve pending signals until the top bucket provably holds the global
        minimum, then return it without removing. None if abstractly empty."""
        if not self._levels:
            return None
        if self._levels[0].scount:
            self._flush(0)
        j = 0
        while self._levels[j].bcount == 0:
            j += 1
            if j == len(self._levels):
                return None
            if self._levels[j].scount:
                self._flush(j)
        if j > 0:
            self._refill(j)
        top = self._levels[0]
        return self.vector.get2(top.bstart + top.bhead)

    def delete_min(self) -> tuple[int, int]:
        m = self.find_min()
        if m is None:
            raise IndexError("delete_min on empty heap")
        top = self._levels[0]
        top.bhead += 1
        top.bcount -= 1
        self.stored -= 1
        return m

    # -- signal machinery -----------------------------------------------------

    def _signal(self, ident: int, key: int) -> None:
        if not self._levels:
            self._add_level()
        top = self._levels[0]
        self.vector.set2(top.sstart + top.scount, ident, key)
        top.scount += 1
        self.stored += 1
        if top.scount > signal_capacity(1):
            self._flush(0)

    def _add_level(self) -> _Level:
        num = len(self._levels) + 1
        bstart = len(self.vector)
        self.vector.extend(bucket_capacity(num))
        sstart = len(self.vector)
        self.vector.extend(2 * signal_capacity(num) + 8)
        lv = _Level(num, bstart, sstart)
        self._levels.append(lv)
        return lv

    def _flush(self, li: int) -> None:
        """Apply every pending signal of level li to its bucket, forwarding
        leftovers (and overflow) down to level li+1."""
        lv = self._levels[li]
        vec = self.vector
        signals = [vec.get2(lv.sstart + s) for s in range(lv.scount)]
        self.stored -= lv.scount + lv.bcount
        lv.scount = 0
        d = {}
        for b in range(lv.bcount):
            ident, key = vec.get2(lv.bstart + lv.bhead + b)
            d[ident] = key
        deepest = li == len(self._levels) - 1
        out: list[tuple[int, int]] = []  # (id, key) signals for the next level
        for sid, skey in signals:
            if skey == DELETE_KEY:
                if sid in d:
                    del d[sid]
                elif not deepest:
                    out.append((sid, DELETE_KEY))
            else:
                cur = d.get(sid)
                if cur is not None:
                    if skey < cur:
                        d[sid] = skey
                elif skey <= lv.splitter:
                    d[sid] = skey
                    if not deepest:
                        # chase a possible stale copy of sid in deeper levels
                        out.append((sid, DELETE_KEY))
                else:
                    out.append((sid, skey))
        items = sorted((key, ident) for ident, key in d.items())
        if len(items) > lv.bcap:
            keep = items[: lv.bcap]
            lv.splitter = keep[-1][0]
            out.extend((ident, key) for key, ident in items[lv.bcap :])
            items = keep
        lv.bhead = 0
        lv.bcount = len(items)
        self.stored += len(items) + len(out)
        for b, (key, ident) in enumerate(items):
            vec.set2(lv.bstart + b, ident, key)
        if out:
            if li + 1 == len(self._levels):
                self._add_level()
            nxt = self._levels[li + 1]
            if nxt.scount + len(out) > nxt.sroom:
                raise AssertionError(f"signal region overflow at level {nxt.num}")
            for ident, key in out:
                vec.set2(nxt.sstart + nxt.scount, ident, key)
                nxt.scount += 1
            if nxt.scount > signal_capacity(nxt.num):
                self._flush(li + 1)

    def _refill(self, j: int) -> None:
        """Migrate the smallest elements of level j up into levels 0..j-1,
        half-filling each and re-establishing the splitters."""
        vec = self.vector
        src = self._levels[j]
        targets = [bucket_capacity(l.num) // 2 for l in self._levels[:j]]
        m = min(sum(targets), src.bcount)
        pulled = [vec.get2(src.bstart + src.bhead + b) for b in range(m)]
        src.bhead += m
        src.bcount -= m
        pos = 0
        last_key = 0
        for lv, tgt in zip(self._levels[:j], targets):
            chunk = pulled[pos : pos + tgt]
            pos += len(chunk)
            lv.bhead = 0
            lv.bcount = len(chunk)
            for b, (ident, key) in enumerate(chunk):
                vec.set2(lv.bstart + b, ident, key)
            if chunk:
                last_key = chunk[-1][1]
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
            for b in range(lv.bcount):
                ident, key = self.vector.peek2(lv.bstart + lv.bhead + b)
                assert key <= lv.splitter, f"key above splitter at level {lv.num}"
                if prev is not None:
                    assert prev <= (key, ident), f"bucket unsorted at level {lv.num}"
                prev = (key, ident)
            assert prev_split <= lv.splitter, "splitters not monotone"
            prev_split = lv.splitter
        assert self.stored == sum(l.bcount + l.scount for l in self._levels), "stored count drifted"

    def _live_map(self) -> dict[int, int]:
        """Abstract mapping after forcing every signal through (test use only).

        A single top-down flush pass carries each pending signal to the level
        it dies at; afterwards every live id sits in exactly one bucket, which
        this asserts."""
        li = 0
        while li < len(self._levels):
            if self._levels[li].scount:
                self._flush(li)
            li += 1
        out: dict[int, int] = {}
        for lv in self._levels:
            for b in range(lv.bcount):
                ident, key = self.vector.peek2(lv.bstart + lv.bhead + b)
                assert ident not in out, f"id {ident} live in two buckets after resolution"
                out[ident] = key
        return out
