"""Deterministic external-memory simulation core.

A :class:`BlockVector` is a fixed-record paged array. Records live in
blocks of ``block_bytes``; a private cache of ``cache_bytes`` holds whole
blocks under exact LRU replacement, and every block moved between the
cache and the backing store is counted. Counters stand in for wall-clock
I/O wait: identical operation sequences always produce identical counts.

Backing store is an in-memory arena by default (blocks materialise lazily,
untouched blocks read as zeros). Passing a path gives a file-backed vector:
resident blocks hold real bytes, faults read from the file, evictions and
flushes write back. The on-disk format is a raw little-endian block dump
(block k at byte offset k*block_bytes, final partial block zero-padded)
plus a sidecar header ``<path>.meta`` containing one line::

    emvec v1 <record_bytes> <block_bytes> <length>

The record accessors are written for throughput: the LRU bump is inlined
and repeated touches of the same block skip the bookkeeping entirely (a
repeated touch cannot change LRU order or fault counts).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

_PAIR = struct.Struct("<QQ")
_ONE = struct.Struct("<Q")
_pack_pair = _PAIR.pack_into
_unpack_pair = _PAIR.unpack_from
_pack_one = _ONE.pack_into
_unpack_one = _ONE.unpack_from

MB = 1024 * 1024
U64 = 1 << 64  # record fields are unsigned 64-bit: ids and keys lie in [0, U64)
DEFAULT_CACHE_BYTES = 16 * MB
DEFAULT_BLOCK_BYTES = 4096


@dataclass(frozen=True)
class EmConfig:
    """Geometry of one simulated vector: cache size M, block size B, record size."""

    cache_bytes: int
    block_bytes: int = DEFAULT_BLOCK_BYTES
    record_bytes: int = 16

    def __post_init__(self):
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
    """Monotone transfer counters for one vector (or a snapshot delta)."""

    block_reads: int = 0
    block_writes: int = 0
    evictions: int = 0

    @property
    def transfers(self) -> int:
        return self.block_reads + self.block_writes

    def __sub__(self, other: "IoStats") -> "IoStats":
        return IoStats(
            self.block_reads - other.block_reads,
            self.block_writes - other.block_writes,
            self.evictions - other.evictions,
        )

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
    Every get/set/push touches exactly one block; touching a non-resident
    block costs one block read, and evicting a dirty block costs one block
    write. Logical growth (``extend``) and ``truncate`` cost nothing.
    """

    __slots__ = (
        "config",
        "_rpb",
        "_rb",
        "_bb",
        "_frames",
        "_length",
        "_arena",
        "_resident",
        "_fdata",
        "_file",
        "_path",
        "_last_block",
        "_last_data",
        "reads",
        "writes",
        "evictions",
    )

    def __init__(self, config: EmConfig, path: str | None = None):
        self.config = config
        self._rpb = config.records_per_block
        self._rb = config.record_bytes
        self._bb = config.block_bytes
        self._frames = config.frame_count
        self._length = 0
        self._resident: dict[int, bool] = {}  # block id -> dirty, insertion order = LRU order
        self._last_block = -1
        self._last_data: bytearray | None = None
        self.reads = 0
        self.writes = 0
        self.evictions = 0
        self._path = path
        if path is None:
            self._arena: dict[int, bytearray] | None = {}  # lazily materialised blocks
            self._fdata = None
            self._file = None
        else:
            self._arena = None
            self._fdata: dict[int, bytearray] | None = {}  # resident block id -> frame bytes
            self._file = open(path, "r+b" if os.path.exists(path) else "w+b")

    @classmethod
    def open_file(cls, path: str, cache_bytes: int = DEFAULT_CACHE_BYTES) -> "BlockVector":
        """Reopen a file-backed vector from its data file and .meta sidecar."""
        with open(path + ".meta", "r", encoding="ascii") as f:
            fields = f.readline().split()
        if len(fields) != 5 or fields[0] != "emvec" or fields[1] != "v1":
            raise ValueError(f"bad emvec header in {path}.meta")
        record_bytes, block_bytes, length = int(fields[2]), int(fields[3]), int(fields[4])
        v = cls(EmConfig(cache_bytes, block_bytes, record_bytes), path=path)
        v._length = length
        return v

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
            if self._fdata is not None:
                self._fdata[b] = self._read_file_block(b)
            if len(res) >= self._frames:
                victim = next(iter(res))
                vdirty = res.pop(victim)
                self.evictions += 1
                if vdirty:
                    self.writes += 1
                    if self._fdata is not None:
                        self._write_file_block(victim, self._fdata[victim])
                if self._fdata is not None:
                    del self._fdata[victim]
            res[b] = dirty
        else:
            res[b] = d or dirty
        self._last_block = b
        self._last_data = self._arena.get(b) if self._arena is not None else self._fdata[b]

    def _materialize(self, b: int) -> bytearray:
        buf = bytearray(self._bb)
        self._arena[b] = buf
        self._last_data = buf
        return buf

    def _read_file_block(self, b: int) -> bytearray:
        self._file.seek(b * self._bb)
        data = bytearray(self._file.read(self._bb))
        if len(data) < self._bb:
            data.extend(bytes(self._bb - len(data)))
        return data

    def _write_file_block(self, b: int, data: bytes) -> None:
        self._file.seek(b * self._bb)
        self._file.write(data)

    # -- record access ----------------------------------------------------------

    def get(self, i: int) -> bytes:
        if not 0 <= i < self._length:
            raise IndexError(f"record index {i} out of range [0, {self._length})")
        rb = self._rb
        b = i // self._rpb
        if b != self._last_block:
            self._switch(b, False)
        data = self._last_data
        if data is None:
            return bytes(rb)
        off = (i - b * self._rpb) * rb
        return bytes(data[off : off + rb])

    def set(self, i: int, record: bytes) -> None:
        if not 0 <= i < self._length:
            raise IndexError(f"record index {i} out of range [0, {self._length})")
        rb = self._rb
        if len(record) != rb:
            raise ValueError(f"record must be exactly {rb} bytes, got {len(record)}")
        b = i // self._rpb
        if b != self._last_block:
            self._switch(b, True)
        else:
            self._resident[b] = True
        data = self._last_data
        if data is None:
            data = self._materialize(b)
        off = (i - b * self._rpb) * rb
        data[off : off + rb] = record

    def push(self, record: bytes) -> None:
        self._length += 1
        self.set(self._length - 1, record)

    # Typed accessors for the two record shapes the library itself uses.
    # They skip the bytes round trip; accounting is identical to get/set.

    def get2(self, i: int) -> tuple[int, int]:
        if self._rb != 16:
            raise TypeError("get2/set2 require 16-byte records")
        if not 0 <= i < self._length:
            raise IndexError(f"record index {i} out of range [0, {self._length})")
        b = i // self._rpb
        if b != self._last_block:
            self._switch(b, False)
        data = self._last_data
        if data is None:
            return (0, 0)
        return _unpack_pair(data, (i - b * self._rpb) * 16)

    def set2(self, i: int, a: int, k: int) -> None:
        if self._rb != 16:
            raise TypeError("get2/set2 require 16-byte records")
        if not 0 <= i < self._length:
            raise IndexError(f"record index {i} out of range [0, {self._length})")
        b = i // self._rpb
        if b != self._last_block:
            self._switch(b, True)
        else:
            self._resident[b] = True
        data = self._last_data
        if data is None:
            data = self._materialize(b)
        _pack_pair(data, (i - b * self._rpb) * 16, a, k)

    def push2(self, a: int, k: int) -> None:
        self._length += 1
        self.set2(self._length - 1, a, k)

    def get1(self, i: int) -> int:
        if self._rb != 8:
            raise TypeError("get1/set1 require 8-byte records")
        if not 0 <= i < self._length:
            raise IndexError(f"record index {i} out of range [0, {self._length})")
        b = i // self._rpb
        if b != self._last_block:
            self._switch(b, False)
        data = self._last_data
        if data is None:
            return 0
        return _unpack_one(data, (i - b * self._rpb) * 8)[0]

    def set1(self, i: int, v: int) -> None:
        if self._rb != 8:
            raise TypeError("get1/set1 require 8-byte records")
        if not 0 <= i < self._length:
            raise IndexError(f"record index {i} out of range [0, {self._length})")
        b = i // self._rpb
        if b != self._last_block:
            self._switch(b, True)
        else:
            self._resident[b] = True
        data = self._last_data
        if data is None:
            data = self._materialize(b)
        _pack_one(data, (i - b * self._rpb) * 8, v)

    def peek1(self, i: int) -> int:
        """Stat-free read of an 8-byte record, for invariant checkers."""
        b = i // self._rpb
        data = self._peek_block(b)
        if data is None:
            return 0
        return _unpack_one(data, (i - b * self._rpb) * 8)[0]

    def peek2(self, i: int) -> tuple[int, int]:
        """Stat-free read for invariant checkers; never faults, never counts."""
        b = i // self._rpb
        data = self._peek_block(b)
        if data is None:
            return (0, 0)
        return _unpack_pair(data, (i - b * self._rpb) * 16)

    def _peek_block(self, b: int) -> bytearray | None:
        if self._arena is not None:
            return self._arena.get(b)
        if b in self._fdata:
            return self._fdata[b]
        return self._read_file_block(b)

    # -- length management --------------------------------------------------------

    def extend(self, n: int) -> None:
        """Grow by n zero records. Pure logical growth: no transfers counted."""
        if n < 0:
            raise ValueError("extend count must be non-negative")
        self._length += n

    def truncate(self, n: int) -> None:
        """Shrink logical length to n records without I/O. Dropped tail reads as zero
        if the vector is later re-extended."""
        if n > self._length:
            raise ValueError(f"cannot truncate to {n}: length is {self._length}")
        if n < 0:
            raise ValueError("truncate length must be non-negative")
        old = self._length
        self._length = n
        if old == 0 or old == n:
            return
        # zero the dropped region so extend-after-truncate exposes zeros
        b0, b1 = n // self._rpb, (old - 1) // self._rpb
        for b in range(b0, b1 + 1):
            lo = (n - b * self._rpb) * self._rb if b == b0 else 0
            if self._arena is not None:
                buf = self._arena.get(b)
                if buf is not None:
                    buf[lo:] = bytes(self._bb - lo)
            else:
                buf = self._fdata.get(b)
                if buf is not None:
                    buf[lo:] = bytes(self._bb - lo)
                elif self._file_has_block(b):
                    data = self._read_file_block(b)
                    data[lo:] = bytes(self._bb - lo)
                    self._write_file_block(b, data)

    def _file_has_block(self, b: int) -> bool:
        self._file.seek(0, os.SEEK_END)
        return self._file.tell() > b * self._bb

    # -- persistence / counters -----------------------------------------------------

    def flush(self) -> None:
        """Write every dirty resident block back (one write each); blocks stay resident."""
        for b, dirty in self._resident.items():
            if dirty:
                self.writes += 1
                if self._fdata is not None:
                    self._write_file_block(b, self._fdata[b])
                self._resident[b] = False
        if self._file is not None:
            self._pad_final_block()
            self._write_meta()
            self._file.flush()

    def _pad_final_block(self) -> None:
        # zero-pad the file out to a whole number of blocks
        if self._length == 0:
            return
        nblocks = (self._length + self._rpb - 1) // self._rpb
        want = nblocks * self._bb
        self._file.seek(0, os.SEEK_END)
        have = self._file.tell()
        if have < want:
            self._file.write(bytes(want - have))

    def _write_meta(self) -> None:
        with open(self._path + ".meta", "w", encoding="ascii") as f:
            f.write(f"emvec v1 {self._rb} {self._bb} {self._length}\n")

    def close(self) -> None:
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None

    def drop_cache(self) -> None:
        """Flush (counting the write-backs) and empty the cache: next accesses
        start cold. Mainly for tests that need a cold-scan baseline."""
        self.flush()
        self._resident.clear()
        if self._fdata is not None:
            self._fdata.clear()
        self._last_block = -1
        self._last_data = None

    def stats(self) -> IoStats:
        return IoStats(self.reads, self.writes, self.evictions)

    def reset_stats(self) -> None:
        self.reads = 0
        self.writes = 0
        self.evictions = 0

    def resident_blocks(self) -> int:
        return len(self._resident)
