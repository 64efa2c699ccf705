"""Array-based binary min-heap stored in a BlockVector.

The baseline structure: an implicit complete binary tree of (key, id)
records, plus a second vector mapping id -> heap slot so decrease-key can
find its element. Maintaining that position array costs block transfers on
every sift step, which is exactly what the simulator is there to count.

Records are stored in the order they sort in, (key, id): ties always break
toward the smaller id.
"""

from __future__ import annotations

from .emcore import BlockVector, EmConfig, DEFAULT_BLOCK_BYTES, DEFAULT_CACHE_BYTES, u64


class BinaryHeap:
    """Min-heap with insert, delete_min and decrease_key; find_min and
    delete_min return (id, key).

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
        ident, key = u64(ident, "id"), u64(key, "key")
        if self._pos_get(ident):
            raise ValueError(f"id {ident} is already live in the heap")
        i = self._n
        self._n += 1
        self.heap.push2(key, ident)
        self._pos_set(ident, i + 1)
        self._sift_up(i, (key, ident))

    def find_min(self) -> tuple[int, int] | None:
        if self._n == 0:
            return None
        key, ident = self.heap.get2(0)
        return ident, key

    def delete_min(self) -> tuple[int, int]:
        if self._n == 0:
            raise IndexError("delete_min on empty heap")
        key, ident = self.heap.get2(0)
        self._pos_set(ident, 0)
        last = self.heap.get2(self._n - 1)
        self.heap.truncate(self._n - 1)
        self._n -= 1
        if self._n:
            self.heap.put2(0, last)
            self._pos_set(last[1], 1)
            self._sift_down(0, last)
        return ident, key

    def decrease_key(self, ident: int, new_key: int) -> None:
        ident, new_key = u64(ident, "id"), u64(new_key, "key")
        p = self._pos_get(ident)
        if not p:
            raise KeyError(f"id {ident} not live in the heap")
        i = p - 1
        cur, _ = self.heap.get2(i)
        if new_key > cur:
            raise ValueError(f"decrease_key to {new_key} would raise key {cur}")
        if new_key == cur:
            return
        item = (new_key, ident)
        self.heap.put2(i, item)
        self._sift_up(i, item)

    def current_key(self, ident: int) -> int | None:
        """Key of a live id, or None. Costs the position + heap reads."""
        ident = u64(ident, "id")
        p = self._pos_get(ident)
        if not p:
            return None
        return self.heap.get2(p - 1)[0]

    def _sift_up(self, i: int, item: tuple[int, int]) -> None:
        heap, pos = self.heap, self.positions
        while i > 0:
            parent = (i - 1) >> 1
            p = heap.get2(parent)
            if p <= item:
                break
            heap.put2(i, p)
            pos.set1(p[1], i + 1)
            i = parent
        heap.put2(i, item)
        pos.set1(item[1], i + 1)

    def _sift_down(self, i: int, item: tuple[int, int]) -> None:
        heap, pos = self.heap, self.positions
        n = self._n
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            c = heap.get2(left)
            child = left
            right = left + 1
            if right < n:
                r = heap.get2(right)
                if r < c:
                    child, c = right, r
            if item <= c:
                break
            heap.put2(i, c)
            pos.set1(c[1], i + 1)
            i = child
        heap.put2(i, item)
        pos.set1(item[1], i + 1)

    def check_invariants(self) -> None:
        """Full-scan heap order + position consistency (test mode; stat-free)."""
        for i in range(1, self._n):
            assert self.heap.peek2((i - 1) >> 1) <= self.heap.peek2(i), f"heap order broken at slot {i}"
        for i in range(self._n):
            _, ident = self.heap.peek2(i)
            assert self.positions.peek1(ident) == i + 1, f"position of id {ident} wrong"
