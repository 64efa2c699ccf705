"""Deterministic external-memory simulation core.

A :class:`BlockVector` is a fixed-record paged array. Records live in
blocks of ``block_bytes``; a private cache of ``cache_bytes`` holds whole
blocks under exact LRU replacement, and every block moved between the
cache and the backing store is counted. Counters stand in for wall-clock
I/O wait: identical operation sequences always produce identical counts.

A record is one Python int: an 8-byte record is its value, a 16-byte record
with fields a and k is ``a << 64 | k``, so records order like their ``(a, k)``
pairs and compare as whole ints. A block's records live in one table from
block id to a list of ``records_per_block`` ints; ``get2`` returns the int
that ``put2`` stored, and ``set2(i, a, k)`` stores the two fields as one.
The bytes view is ``get``/``set``: a record as little-endian unsigned 64-bit
fields, ``<Q`` for 8 bytes and ``<QQ`` as ``(r >> 64, r & MASK64)`` for 16.
Those are the only record sizes. A block gets the zero record ``0`` in every
slot at its first touch, read or write, and gives its list up when
``truncate`` drops it, so untouched and dropped records read as zero. Which
blocks hold a list decides no count: the counters follow the LRU cache
alone. The vector checks indices and record sizes, not values: the heaps and
``ExternalGraph`` check what they store where values enter the library.

The record accessors are written for throughput: the LRU bump and the
fault bookkeeping live in ``_switch``, which an accessor calls only when it
touches another block than the last one; a repeated touch of the same block
skips it (it cannot change LRU order or fault counts) and only sets the
dirty flag on a write. The run accessors ``read_run2``/``write_run2`` move a
contiguous range of records at once, one list slice per block: they touch
each block of the range once, in ascending order, and count exactly like the
per-record ``get2``/``put2`` loop over the same range. Each takes one path:
it checks the range, returns from an empty run before any touch, switches
to its head block (or dirties it) once, moves a run that ends there as one
slice, and walks on with one ``_switch`` per later block. ``peek_run2``
reads a run one slice per block without touching anything; with ``peek_lru``,
the stat-free view of the cache (the resident blocks and their dirty flags
in LRU order), it is how invariant checkers read a vector.

``touch(b, dirty)`` charges one ``get2`` (``dirty`` false) or ``put2``
(``dirty`` true) of a record in block b and returns that block's live record
list, for callers that move records by list operations and charge the
blocks themselves: the funnel heap's merge and the binary heap's sifts,
both below, and ``ExternalGraph.source_of_arc``.

The window rule, a property of each vector's LRU cache: take a stretch of
consecutive touches whose distinct blocks fit the frames. No block of the
stretch can be evicted after its first touch in it, so only a block's first
touch can fault, evictions take blocks from outside the stretch, and only a
block's last touch sets its place in the LRU order. Any other touch sequence
over the same blocks with the same first-touch order, the same last-touch
order and the same dirty blocks therefore gives the same reads, writes,
evictions, dirty flags and LRU order at the end of the stretch. Since the
state at the end is the same, the rule can be applied stretch after
stretch, each time to the sequence the last rewrite left. It has two users:

- The funnel heap's merge (``_Merger.fill``) moves a block window at a
  time. Per record, a window touches its out block and the blocks of its
  two inputs, interleaved, over at most three blocks; with at least three
  frames it is charged by touching each block once in first-touch order,
  then once in last-touch order. A window ends only where a ring leaves its
  block or runs empty, or the batch is full. A ring that lies in one block
  wraps inside it, which adds no block to the window and so changes no
  charge. A window never leaves its blocks, so it reads its inputs as
  slices of the lists ``touch`` returns and stores its outputs by slice
  assignment to the out block's list (two slices across a wrap).
- The binary heap's sifts (``BinaryHeap._sift_down``, ``_sift_up``) move
  records in the lists ``touch`` returns. Per record, a sift over the path
  blocks b0, b1, ..., bL reads b(j+1) and then writes b(j) at each step:
  b0 b1 b0 b2 b1 ... bL b(L-1) bL. The stretch b(j-1) b(j) b(j-1) b(j+1)
  b(j) holds three blocks and has the first-touch and last-touch orders of
  b(j-1) b(j) b(j+1) b(j), so rewriting step after step leaves b0 b1 ... bL:
  each path block is charged once, dirty, when the path enters it, and a
  sift that stops after reading a block C it does not enter ends with C bL.
  Sift-down children that straddle two blocks are charged read by read,
  and the stretches around them hold at most four blocks. So with at least
  four frames a sift switches blocks about L+2 times instead of 2L; with
  fewer it charges each read and write as it happens.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import index

_PAIR = struct.Struct("<QQ")
_ONE = struct.Struct("<Q")

MB = 1024 * 1024
U64 = 1 << 64  # record fields are unsigned 64-bit: ids and keys lie in [0, U64)
MASK64 = U64 - 1  # the low field k of a 16-byte record a << 64 | k
DEFAULT_CACHE_BYTES = 16 * MB
DEFAULT_BLOCK_BYTES = 4096


def u64(value, what: str, limit: int = U64) -> int:
    """value as an int in [0, limit), else ValueError.

    Takes what a 64-bit record field can hold: ints, bools and objects with
    ``__index__``. The heaps call it on every id and key before any mutation.
    """
    try:
        v = index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None
    if not 0 <= v < limit:
        raise ValueError(f"{what} {v} must lie in [0, {'2^64' if limit == U64 else limit})")
    return v


@dataclass(frozen=True)
class EmConfig:
    """Geometry of one simulated vector: cache size M, block size B, record size."""

    cache_bytes: int
    block_bytes: int = DEFAULT_BLOCK_BYTES
    record_bytes: int = 16

    def __post_init__(self):
        # exact ints: a float passes the checks below and fails at the first
        # touch; the type test keeps the common case as cheap as before
        if not type(self.cache_bytes) is type(self.block_bytes) is type(self.record_bytes) is int:
            for name in ("cache_bytes", "block_bytes", "record_bytes"):
                object.__setattr__(self, name, u64(getattr(self, name), name))
        if self.record_bytes < 1:
            raise ValueError("record_bytes must be positive")
        if self.block_bytes < self.record_bytes:
            raise ValueError(
                f"block_bytes ({self.block_bytes}) must be >= record_bytes ({self.record_bytes})"
            )
        if self.cache_bytes < self.block_bytes:
            raise ValueError(
                f"cache_bytes ({self.cache_bytes}) must hold at least one block ({self.block_bytes})"
            )

    @property
    def records_per_block(self) -> int:
        return self.block_bytes // self.record_bytes

    @property
    def frame_count(self) -> int:
        return self.cache_bytes // self.block_bytes


@dataclass
class IoStats:
    """Monotone transfer counters for one vector."""

    block_reads: int = 0
    block_writes: int = 0
    evictions: int = 0

    @property
    def transfers(self) -> int:
        return self.block_reads + self.block_writes

    def __add__(self, other: "IoStats") -> "IoStats":
        return IoStats(
            self.block_reads + other.block_reads,
            self.block_writes + other.block_writes,
            self.evictions + other.evictions,
        )


class BlockVector:
    """Fixed-record paged array with an LRU block cache and exact fault counting.

    Records never straddle blocks: each block holds exactly
    ``records_per_block`` records, the remainder of the block is padding.
    Every record access touches exactly one block; touching a non-resident
    block costs one block read, and evicting a dirty block costs one block
    write. Logical growth (``extend``) and ``truncate`` cost nothing.
    """

    __slots__ = (
        "config",
        "_rpb",
        "_rb",
        "_frames",
        "_length",
        "_blocks",
        "_resident",
        "_last_block",
        "_last_data",
        "reads",
        "writes",
        "evictions",
    )

    def __init__(self, config: EmConfig):
        if config.record_bytes not in (8, 16):
            raise ValueError(f"record_bytes must be 8 or 16, got {config.record_bytes}")
        self.config = config
        self._rpb = config.records_per_block
        self._rb = config.record_bytes
        self._frames = config.frame_count
        self._length = 0
        self._blocks: dict[int, list[int]] = {}  # block id -> records, touched and not dropped
        self._resident: dict[int, bool] = {}  # block id -> dirty, insertion order = LRU order
        # None, which equals no block id, forces the next access through _switch
        self._last_block: int | None = None
        self._last_data: list[int] = []
        self.reads = 0
        self.writes = 0
        self.evictions = 0

    def __len__(self) -> int:
        return self._length

    # -- block bookkeeping ----------------------------------------------------

    def _switch(self, b: int, dirty: bool) -> None:
        """Make block b the most recently used one, faulting it in if needed,
        and point the fast-path cache (_last_block/_last_data) at it."""
        res = self._resident
        d = res.pop(b, None)
        if d is None:
            self.reads += 1
            if len(res) >= self._frames:
                self.evictions += 1
                if res.pop(next(iter(res))):
                    self.writes += 1
            res[b] = dirty
        else:
            res[b] = d or dirty
        # first touch, or a resident block that truncate dropped: zero records
        data = self._blocks.get(b)
        if data is None:
            data = self._blocks[b] = [0] * self._rpb
        self._last_block = b
        self._last_data = data

    # -- record access ----------------------------------------------------------

    def get(self, i: int) -> bytes:
        """Record i as its bytes: little-endian unsigned 64-bit fields, a
        16-byte record a << 64 | k as a then k."""
        rec = self.get2(i)
        return _PAIR.pack(rec >> 64, rec & MASK64) if self._rb == 16 else _ONE.pack(rec)

    def set(self, i: int, record: bytes) -> None:
        """Store a record given as its bytes (the inverse of get)."""
        if len(record) != self._rb:
            raise ValueError(f"record must be exactly {self._rb} bytes, got {len(record)}")
        a, k = _PAIR.unpack(record) if self._rb == 16 else (0, *_ONE.unpack(record))
        self.put2(i, a << 64 | k)

    # The value accessors: a record is one int, a << 64 | k in a 16-byte
    # vector. Accounting is identical to get/set.

    def get2(self, i: int) -> int:
        if not 0 <= i < self._length:
            raise IndexError(f"record index {i} out of range [0, {self._length})")
        b = i // self._rpb
        if b != self._last_block:
            self._switch(b, False)
        return self._last_data[i - b * self._rpb]

    def put2(self, i: int, rec: int) -> None:
        """Store the record rec at index i."""
        if not 0 <= i < self._length:
            raise IndexError(f"record index {i} out of range [0, {self._length})")
        b = i // self._rpb
        if b != self._last_block:
            self._switch(b, True)
        else:
            self._resident[b] = True
        self._last_data[i - b * self._rpb] = rec

    def set2(self, i: int, a: int, k: int) -> None:
        """Store the 16-byte record with fields a and k at index i."""
        self.put2(i, a << 64 | k)

    def touch(self, b: int, dirty: bool) -> list[int]:
        """Charge one get2 (dirty false) or put2 (dirty true) of a record in
        block b and return the block's live record list: records b * rpb
        onwards, which the caller may read and, after a dirty touch, write
        below the vector's length.
        The list stays the block's until truncate drops the block."""
        if b != self._last_block:
            if not 0 <= b * self._rpb < self._length:
                raise IndexError(f"block {b} holds no record below {self._length}")
            self._switch(b, dirty)
        elif dirty:
            self._resident[b] = True
        return self._last_data

    def read_run2(self, lo: int, hi: int) -> list[int]:
        """Records lo..hi-1, in a new list. Touches and counts exactly like
        get2 over the range, but visits each block once."""
        if not 0 <= lo <= hi <= self._length:
            raise IndexError(f"record run [{lo}, {hi}) out of range [0, {self._length})")
        if lo == hi:
            return []
        rpb, n = self._rpb, hi - lo
        b = lo // rpb
        if b != self._last_block:
            self._switch(b, False)
        off = lo - b * rpb
        if n <= rpb - off:  # the run ends in its head block
            return self._last_data[off : off + n]
        out = self._last_data[off:]
        while True:  # the run goes on into block b + 1
            b += 1
            self._switch(b, False)
            if n - len(out) <= rpb:
                out += self._last_data[: n - len(out)]
                return out
            out += self._last_data

    def write_run2(self, lo: int, recs: list[int]) -> None:
        """Store recs at records lo, lo+1, ... Touches, dirties and counts
        exactly like put2 over the range, but visits each block once. The
        vector keeps the records, not the list."""
        hi = lo + len(recs)
        if not 0 <= lo <= hi <= self._length:
            raise IndexError(f"record run [{lo}, {hi}) out of range [0, {self._length})")
        if lo == hi:
            return
        rpb, n = self._rpb, hi - lo
        b = lo // rpb
        if b != self._last_block:
            self._switch(b, True)
        else:
            self._resident[b] = True
        off = lo - b * rpb
        if n <= rpb - off:  # the run ends in its head block
            self._last_data[off : off + n] = recs
            return
        i = rpb - off  # records stored so far
        self._last_data[off:] = recs[:i]
        while True:  # the run goes on into block b + 1
            b += 1
            self._switch(b, True)
            if n - i <= rpb:
                self._last_data[: n - i] = recs[i:]
                return
            self._last_data[:] = recs[i : i + rpb]
            i += rpb

    def peek_run2(self, lo: int, hi: int) -> list[int]:
        """Records lo..hi-1, in a new list, one slice per block, but
        stat-free: never faults, never counts, leaves the LRU order alone."""
        if not 0 <= lo <= hi <= self._length:
            raise IndexError(f"record run [{lo}, {hi}) out of range [0, {self._length})")
        rpb, out = self._rpb, []
        for b in range(lo // rpb, -(-hi // rpb)):
            data = self._blocks.get(b) or [0] * rpb  # no list yet or any more: zeros
            out += data[max(lo - b * rpb, 0) : hi - b * rpb]
        return out

    def peek_lru(self) -> list[tuple[int, bool]]:
        """The resident blocks as (block, dirty) pairs, least recently used
        first: the cache state the counters follow. Stat-free, like peek_run2."""
        return list(self._resident.items())

    # -- length management --------------------------------------------------------

    def extend(self, n: int) -> None:
        """Grow by n zero records. Pure logical growth: no transfers counted."""
        if n < 0:
            raise ValueError("extend count must be non-negative")
        self._length += n

    def truncate(self, n: int) -> None:
        """Shrink logical length to n records without I/O. A wholly dropped block
        gives up its records and the dropped records of a partial block are
        reset to the zero record, so they read as zero if the vector is later
        re-extended. Only records below the old length are reset: every record
        at or above the length is zero already, since no accessor and no
        caller of touch writes there, and extend only grows over zeros."""
        if n > self._length:
            raise ValueError(f"cannot truncate to {n}: length is {self._length}")
        if n < 0:
            raise ValueError("truncate length must be non-negative")
        old = self._length
        self._length = n
        if old == n:
            return
        b, lo = divmod(n, self._rpb)
        if lo:
            data = self._blocks.get(b)
            if data is not None:
                hi = min(old - b * self._rpb, self._rpb)
                data[lo:hi] = [0] * (hi - lo)
            b += 1
        for d in range(b, (old - 1) // self._rpb + 1):
            self._blocks.pop(d, None)
        # the dropped blocks keep their LRU slot and dirty flag, so counts do
        # not change; only the fast path must stop pointing at their records
        if self._last_block is not None and self._last_block >= b:
            self._last_block = None
            self._last_data = []

    # -- counters ---------------------------------------------------------------------

    def flush(self) -> None:
        """Write every dirty resident block back (one write each); blocks stay resident."""
        for b, dirty in self._resident.items():
            if dirty:
                self.writes += 1
                self._resident[b] = False

    def drop_cache(self) -> None:
        """Flush (counting the write-backs) and empty the cache: next accesses
        start cold. Mainly for tests that need a cold-scan baseline."""
        self.flush()
        self._resident.clear()
        self._last_block = None

    def stats(self) -> IoStats:
        return IoStats(self.reads, self.writes, self.evictions)

    def reset_stats(self) -> None:
        self.reads = 0
        self.writes = 0
        self.evictions = 0
