"""Array-based binary min-heap stored in a BlockVector.

The baseline structure: an implicit complete binary tree of (id, key)
records, plus a second vector mapping id -> heap slot so decrease-key can
find its element. Maintaining that position array costs block transfers on
every sift step, which is exactly what the simulator is there to count.

Ordering is by (key, id): ties always break toward the smaller id.
"""

from __future__ import annotations

from .emcore import U64, BlockVector, EmConfig, DEFAULT_BLOCK_BYTES, DEFAULT_CACHE_BYTES


class BinaryHeap:
    """Min-heap of (id, key) pairs with insert, delete_min and decrease_key.

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
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def occupancy(self) -> int:
        return self._n

    def vectors(self) -> dict[str, BlockVector]:
        return {"heap": self.heap, "positions": self.positions}

    def _pos_get(self, ident: int) -> int:
        if ident >= len(self.positions):
            return 0
        return self.positions.get1(ident)

    def _pos_set(self, ident: int, slot_plus1: int) -> None:
        if ident >= len(self.positions):
            self.positions.extend(ident + 1 - len(self.positions))
        self.positions.set1(ident, slot_plus1)

    def insert(self, ident: int, key: int) -> None:
        if not (0 <= ident < U64 and 0 <= key < U64):
            raise ValueError(f"id {ident} and key {key} must lie in [0, 2^64)")
        if self._pos_get(ident):
            raise ValueError(f"id {ident} is already live in the heap")
        i = self._n
        self._n += 1
        self.heap.push2(ident, key)
        self._pos_set(ident, i + 1)
        self._sift_up(i, ident, key)

    def find_min(self) -> tuple[int, int] | None:
        if self._n == 0:
            return None
        return self.heap.get2(0)

    def delete_min(self) -> tuple[int, int]:
        if self._n == 0:
            raise IndexError("delete_min on empty heap")
        root = self.heap.get2(0)
        self._pos_set(root[0], 0)
        last = self.heap.get2(self._n - 1)
        self.heap.truncate(self._n - 1)
        self._n -= 1
        if self._n:
            self.heap.set2(0, last[0], last[1])
            self._pos_set(last[0], 1)
            self._sift_down(0, last[0], last[1])
        return root

    def decrease_key(self, ident: int, new_key: int) -> None:
        if not (0 <= ident < U64 and 0 <= new_key < U64):
            raise ValueError(f"id {ident} and key {new_key} must lie in [0, 2^64)")
        p = self._pos_get(ident)
        if not p:
            raise KeyError(f"id {ident} not live in the heap")
        i = p - 1
        _, cur = self.heap.get2(i)
        if new_key > cur:
            raise ValueError(f"decrease_key to {new_key} would raise key {cur}")
        if new_key == cur:
            return
        self.heap.set2(i, ident, new_key)
        self._sift_up(i, ident, new_key)

    def current_key(self, ident: int) -> int | None:
        """Key of a live id, or None. Costs the position + heap reads."""
        if not 0 <= ident < U64:
            raise ValueError(f"id {ident} must lie in [0, 2^64)")
        p = self._pos_get(ident)
        if not p:
            return None
        return self.heap.get2(p - 1)[1]

    def _sift_up(self, i: int, ident: int, key: int) -> None:
        heap, pos = self.heap, self.positions
        while i > 0:
            parent = (i - 1) >> 1
            pid, pkey = heap.get2(parent)
            if (pkey, pid) <= (key, ident):
                break
            heap.set2(i, pid, pkey)
            pos.set1(pid, i + 1)
            i = parent
        heap.set2(i, ident, key)
        pos.set1(ident, i + 1)

    def _sift_down(self, i: int, ident: int, key: int) -> None:
        heap, pos = self.heap, self.positions
        n = self._n
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            cid, ckey = heap.get2(left)
            child = left
            right = left + 1
            if right < n:
                rid, rkey = heap.get2(right)
                if (rkey, rid) < (ckey, cid):
                    child, cid, ckey = right, rid, rkey
            if (key, ident) <= (ckey, cid):
                break
            heap.set2(i, cid, ckey)
            pos.set1(cid, i + 1)
            i = child
        heap.set2(i, ident, key)
        pos.set1(ident, i + 1)

    def check_invariants(self) -> None:
        """Full-scan heap order + position consistency (test mode; stat-free)."""
        for i in range(1, self._n):
            cid, ckey = self.heap.peek2(i)
            pid, pkey = self.heap.peek2((i - 1) >> 1)
            assert (pkey, pid) <= (ckey, cid), f"heap order broken at slot {i}"
        for i in range(self._n):
            ident, _ = self.heap.peek2(i)
            assert self.positions.peek1(ident) == i + 1, f"position of id {ident} wrong"
