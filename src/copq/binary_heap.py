"""Array-based binary min-heap stored in a BlockVector.

The baseline structure: an implicit complete binary tree of key << 64 | id
records, plus a second vector mapping id -> heap slot so update can find a
live element. Maintaining that position array costs block transfers on
every sift step, which is exactly what the simulator is there to count.

A record orders like its (key, id) pair: ties always break toward the
smaller id.
"""

from __future__ import annotations

from .emcore import BlockVector, EmConfig, DEFAULT_BLOCK_BYTES, DEFAULT_CACHE_BYTES, MASK64, u64


class BinaryHeap:
    """Min-heap with insert, delete_min and the bucket heap's update(id, key):
    insert, or lower a live id's key; a key that is not lower is dropped.
    find_min and delete_min return (id, key).

    Live ids must be unique. Positions are stored as slot+1 so a zero record
    (the vector's default) means "absent".
    """

    def __init__(
        self,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ):
        self.heap = BlockVector(EmConfig(cache_bytes, block_bytes, 16))
        self.positions = BlockVector(EmConfig(cache_bytes, block_bytes, 8))
        self._rpb = self.heap.config.records_per_block
        self._wide = self.heap.config.frame_count >= 4  # see copq.emcore
        # ids below it have a position record; len(positions) would overflow
        # Py_ssize_t once an id reaches 2^63
        self._ids = 0
        self._n = 0

    def __len__(self) -> int:
        return self._n

    occupancy = __len__

    def vectors(self) -> dict[str, BlockVector]:
        return {"heap": self.heap, "positions": self.positions}

    def _pos_get(self, ident: int) -> int:
        if ident >= self._ids:
            return 0
        return self.positions.get2(ident)

    def _pos_set(self, ident: int, slot_plus1: int) -> None:
        if ident >= self._ids:
            self.positions.extend(ident + 1 - self._ids)
            self._ids = ident + 1
        self.positions.put2(ident, slot_plus1)

    def insert(self, ident: int, key: int) -> None:
        ident, key = u64(ident, "id"), u64(key, "key")
        if self._pos_get(ident):
            raise ValueError(f"id {ident} is already live in the heap")
        self._push(ident, key)

    def update(self, ident: int, key: int) -> None:
        """Insert ident at key, or lower its key to key; a key that is not
        lower is dropped. One position read, and a heap read if ident is live."""
        ident, key = u64(ident, "id"), u64(key, "key")
        p = self._pos_get(ident)
        if not p:
            self._push(ident, key)
        elif key < self.heap.get2(p - 1) >> 64:
            self._sift_up(p - 1, key << 64 | ident)

    def _push(self, ident: int, key: int) -> None:
        """Append the absent ident at key and sift it up."""
        i = self._n
        self._n += 1
        self.heap.extend(1)
        self._pos_set(ident, i + 1)
        self._sift_up(i, key << 64 | ident)

    def find_min(self) -> tuple[int, int] | None:
        if self._n == 0:
            return None
        top = self.heap.get2(0)
        return top & MASK64, top >> 64

    def delete_min(self) -> tuple[int, int]:
        if self._n == 0:
            raise IndexError("delete_min on empty heap")
        top = self.heap.get2(0)
        self._pos_set(top & MASK64, 0)
        last = self.heap.get2(self._n - 1)
        self.heap.truncate(self._n - 1)
        self._n -= 1
        if self._n:
            self._pos_set(last & MASK64, 1)
            self._sift_down(0, last)
        return top & MASK64, top >> 64

    def _sift_up(self, i: int, item: int) -> None:
        """Store item at slot i, then move it up to its place; the heap's
        callers leave the store to the sifts."""
        # Charged by the window rule (see copq.emcore): the store of item,
        # then each path block once, dirty, when the path enters it, and the
        # final block again after reading a parent block the path does not
        # enter. With fewer than four frames every read and write is charged
        # as it happens, like get2 and put2 would.
        touch, pos = self.heap.touch, self.positions
        r, wide = self._rpb, self._wide
        cur = i // r
        data = touch(cur, True)
        while i > 0:
            parent = (i - 1) >> 1
            pb = parent // r
            pdata = data if wide and pb == cur else touch(pb, False)
            p = pdata[parent - pb * r]
            if p <= item:
                break
            if not wide:
                touch(cur, True)
            elif pb != cur:
                touch(pb, True)  # pb is the last block touched: no switch
            data[i - cur * r] = p
            pos.put2(p & MASK64, i + 1)
            i, cur, data = parent, pb, pdata
        touch(cur, True)
        data[i - cur * r] = item
        pos.put2(item & MASK64, i + 1)

    def _sift_down(self, i: int, item: int) -> None:
        """Store item at slot i, then move it down to its place."""
        # Charged like _sift_up. A step whose children share one block
        # touches the path's block again if it is not the last block touched
        # (after a straddling step), then the children's block, which it marks
        # dirty if the path enters it. A step whose children straddle two
        # blocks charges the two reads and the write as they happen.
        touch, pos = self.heap.touch, self.positions
        r, n, wide = self._rpb, self._n, self._wide
        cur = i // r
        data = touch(cur, True)
        top = cur  # the last block touched
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            lb = left // r
            right = left + 1
            rb = right // r if right < n else lb
            if wide and lb == rb:
                if top != cur:
                    touch(cur, True)
                cdata = data if lb == cur else touch(lb, False)
                top = cb = lb
                o = left - lb * r
                c, child = cdata[o], left
                if right < n and cdata[o + 1] < c:
                    c, child = cdata[o + 1], right
                if item <= c:
                    break
                if lb != cur:
                    touch(lb, True)  # lb is the last block touched: no switch
            else:
                cdata = touch(lb, False)
                c, child, cb = cdata[left - lb * r], left, lb
                top = lb
                if right < n:
                    rdata = touch(rb, False)
                    top = rb
                    if rdata[right - rb * r] < c:
                        c, child, cb, cdata = rdata[right - rb * r], right, rb, rdata
                if item <= c:
                    break
                touch(cur, True)
                top = cur
            data[i - cur * r] = c
            pos.put2(c & MASK64, i + 1)
            i, cur, data = child, cb, cdata
        touch(cur, True)
        data[i - cur * r] = item
        pos.put2(item & MASK64, i + 1)

    def check_invariants(self) -> None:
        """Full-scan heap order + position consistency (test mode; stat-free).
        Positions are read one live id at a time: ids reach 2^64 - 1."""
        recs = self.heap.peek_run2(0, self._n)
        for i in range(1, self._n):
            assert recs[(i - 1) >> 1] <= recs[i], f"heap order broken at slot {i}"
        for i, rec in enumerate(recs):
            ident = rec & MASK64
            assert self.positions.peek_run2(ident, ident + 1) == [i + 1], f"position of id {ident} wrong"
