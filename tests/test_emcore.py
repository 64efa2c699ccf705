import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from copq.binary_heap import BinaryHeap
from copq.emcore import BlockVector, EmConfig, IoStats, MB
from copq.funnel_heap import FunnelHeap

from oracles import RefLru


def make(cache=16 * MB, block=4096, rec=16):
    return BlockVector(EmConfig(cache, block, rec))


class TestConfig:
    def test_frame_and_record_arithmetic(self):
        cfg = EmConfig(16 * MB, 4096, 16)
        assert cfg.frame_count == 4096
        assert cfg.records_per_block == 256

    def test_degenerate_minimum(self):
        cfg = EmConfig(4096, 4096, 4096)
        assert cfg.frame_count == 1
        assert cfg.records_per_block == 1

    def test_cache_smaller_than_block_rejected(self):
        with pytest.raises(ValueError):
            EmConfig(2048, 4096, 16)

    def test_block_smaller_than_record_rejected(self):
        with pytest.raises(ValueError):
            EmConfig(16 * MB, 64, 128)

    def test_geometry_must_be_integers(self):
        # a float passes the size checks: it would fail only at the first
        # touch, or give a float frame count
        with pytest.raises(ValueError):
            BlockVector(EmConfig(65536, 4096.0, 16))
        with pytest.raises(ValueError):
            EmConfig(65536.5, 4096, 16)
        cfg = EmConfig(True * 65536, 4096, 16)
        assert type(cfg.cache_bytes) is int and type(cfg.frame_count) is int


class TestBasicSemantics:
    def test_single_block_scan_costs_one_read(self):
        v = make()
        v.extend(256)
        for i in range(256):
            v.set2(i, i, i * 7)
        v.drop_cache()
        v.reset_stats()
        for i in range(256):
            assert v.get2(i) == i << 64 | i * 7
        assert v.stats().block_reads == 1

    def test_cold_sequential_scan_exact_reads(self):
        # 2**20 records of 16 bytes at B=4096 -> exactly 4096 blocks
        v = make()
        v.extend(1 << 20)
        for i in range(0, 1 << 20, 997):
            v.set2(i, i, 1)
        v.drop_cache()
        v.reset_stats()
        for i in range(1 << 20):
            v.get2(i)
        assert v.stats().block_reads == 4096

    def test_two_frame_lru_forced_eviction(self):
        # 2 frames, access blocks 0,1,2,0 -> 4 faults
        v = make(cache=8192, block=4096, rec=16)
        v.extend(256 * 3)
        for b in (0, 1, 2, 0):
            v.get2(b * 256)
        s = v.stats()
        assert s.block_reads == 4
        assert s.evictions == 2

    def test_set_then_get_resident(self):
        v = make()
        v.extend(10)
        v.set2(0, 42, 7)
        assert v.get2(0) == 42 << 64 | 7
        s = v.stats()
        assert s.block_reads == 1  # the initial fault
        assert s.block_writes == 0  # nothing evicted or flushed yet

    def test_dirty_eviction_writes_back(self):
        v = make(cache=4096, block=4096, rec=16)  # one frame
        v.extend(512)
        v.set2(0, 1, 1)  # block 0 resident+dirty
        v.set2(256, 2, 2)  # faults block 1, evicts dirty block 0
        s = v.stats()
        assert s.block_reads == 2
        assert s.block_writes == 1
        assert s.evictions == 1
        assert v.get2(0) == 1 << 64 | 1  # written-back content survives

    def test_working_set_fits_reads_stop_growing(self):
        v = make(cache=64 * 4096, block=4096, rec=16)
        v.extend(64 * 256)
        for _ in range(3):
            for i in range(0, 64 * 256, 256):
                v.get2(i)
        assert v.stats().block_reads == 64

    def test_push_then_flush_one_block_write(self):
        v = make()
        v.extend(256)
        for i in range(256):
            v.put2(i, i << 64 | i)
        v.flush()
        assert v.stats().block_writes == 1

    def test_flush_clears_dirty_only_once(self):
        v = make()
        v.extend(1)
        v.put2(0, 1 << 64 | 2)
        v.flush()
        v.flush()
        assert v.stats().block_writes == 1

    def test_reset_stats(self):
        v = make()
        v.extend(1)
        v.put2(0, 1 << 64 | 2)
        v.reset_stats()
        s = v.stats()
        assert (s.block_reads, s.block_writes, s.evictions) == (0, 0, 0)

    def test_out_of_range(self):
        v = make()
        v.extend(3)
        with pytest.raises(IndexError):
            v.get(3)
        with pytest.raises(IndexError):
            v.set2(3, 0, 0)
        with pytest.raises(ValueError):
            v.truncate(4)

    def test_bad_record_size(self):
        v = make()
        v.extend(1)
        with pytest.raises(ValueError):
            v.set(0, b"short")

    def test_untouched_records_read_zero(self):
        v = make()
        v.extend(1000)
        assert v.get2(999) == 0
        assert v.get(500) == bytes(16)

    def test_truncate_then_extend_exposes_zeros(self):
        v = make()
        v.extend(10)
        v.set2(7, 9, 9)
        v.truncate(5)
        v.extend(10)
        assert v.get2(7) == 0

    @pytest.mark.parametrize("cut", [9, 5, 8])
    def test_truncate_from_mid_block_then_extend_exposes_zeros(self, cut):
        # four records a block; the old length 11 ends inside block 2, and the
        # cut lands in that block, in an earlier one, or on a block boundary
        v = make(block=64)
        v.extend(11)
        for i in range(11):
            v.put2(i, i + 1 << 64 | i + 1)
        v.truncate(cut)
        v.extend(16 - cut)
        assert v.peek_run2(0, 16) == [i + 1 << 64 | i + 1 for i in range(cut)] + [0] * (16 - cut)
        assert [v.get2(i) for i in range(cut, 16)] == [0] * (16 - cut)

    def test_truncate_frees_dropped_blocks(self):
        # 64 dirty blocks against 8 frames, all dropped, then read back
        nblocks = 64
        tracemalloc.start()
        try:
            v = make(cache=8 * 4096)
            v.extend(nblocks * 256)
            for i in range(nblocks * 256):
                v.put2(i, i << 64 | i + 1)
            held = tracemalloc.get_traced_memory()[0]
            v.truncate(0)
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert freed >= nblocks * 4096  # the bytes of every block
        v.extend(nblocks * 256)
        assert all(v.get2(i) == 0 for i in range(nblocks * 256))
        # the counts of a vector that kept the dropped blocks' bytes: dropping
        # them moves no block in or out of the cache
        assert v.stats() == IoStats(block_reads=128, block_writes=64, evictions=120)


class TestArrayOracle:
    def run_trace(self, v, rng, steps):
        oracle = []

        def pair():
            return rng.getrandbits(64), rng.getrandbits(64)

        for _ in range(steps):
            op = rng.random()
            if op < 0.35 or not oracle:
                a, k = pair()
                v.extend(1)
                v.put2(len(oracle), a << 64 | k)
                oracle.append(a << 64 | k)
            elif op < 0.55:
                i = rng.randrange(len(oracle))
                assert v.peek_run2(i, i + 1) == [oracle[i]]  # first, while the block may be out of cache
                assert v.get2(i) == oracle[i]
            elif op < 0.65:
                i = rng.randrange(len(oracle))
                a, k = pair()
                v.set2(i, a, k)
                oracle[i] = a << 64 | k
            elif op < 0.75:
                i = rng.randrange(len(oracle))
                a, k = pair()
                oracle[i] = a << 64 | k
                v.put2(i, oracle[i])
            elif op < 0.82:
                lo = rng.randrange(len(oracle) + 1)
                hi = rng.randint(lo, min(len(oracle), lo + 12))
                assert v.peek_run2(lo, hi) == oracle[lo:hi]
                assert v.read_run2(lo, hi) == oracle[lo:hi]
            elif op < 0.89:
                lo = rng.randrange(len(oracle) + 1)
                run = [a << 64 | k for a, k in (pair() for _ in range(rng.randint(0, min(len(oracle) - lo, 12))))]
                v.write_run2(lo, run)
                oracle[lo : lo + len(run)] = run
            elif op < 0.95:
                n = rng.randrange(len(oracle) + 1)
                v.truncate(n)
                del oracle[n:]
            else:
                n = rng.randrange(8)
                v.extend(n)
                oracle.extend([0] * n)
        assert len(v) == len(oracle)
        for i, want in enumerate(oracle):
            assert v.get2(i) == want

    @pytest.mark.parametrize("seed", range(5))
    def test_random_traces_match_plain_array(self, seed):
        # four records a block, four frames: the trace keeps about 10-40
        # records, so it evicts a few hundred times
        v = make(cache=4 * 64, block=64, rec=16)
        self.run_trace(v, random.Random(seed), 4000)

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_traces(self, seed):
        rng = random.Random(seed)
        v = make(cache=2 * 64, block=64, rec=16)
        self.run_trace(v, rng, 300)


class TestRunAccessors:
    """read_run2/write_run2 against a twin vector that runs the same trace
    as per-record get2/put2 calls: contents, counters and dirty flags agree."""

    # (lo, hi, write) on 20 records, four a block, three frames: runs from a
    # block's first record or mid-block, to a block's end or the vector's,
    # of one record or over three to five blocks, and empty runs on a block
    # boundary and mid-block; a write after a read of its head block must
    # dirty that block, which the read left last and clean
    EDGE_RUNS = (
        (0, 4, False), (2, 4, True), (4, 5, False), (5, 6, True), (7, 8, False),
        (6, 8, False), (3, 9, True), (4, 16, False), (8, 8, False), (8, 8, True),
        (10, 10, False), (13, 13, True), (16, 20, False), (18, 20, True),
        (12, 13, False), (12, 16, True), (1, 19, True), (0, 20, False), (19, 20, False),
        (17, 18, True), (0, 12, True), (9, 20, False), (15, 16, True), (20, 20, False),
    )

    def run_twin_trace(self, rec, ops):
        """Run ops(v) on v and its twin, the runs record by record on the
        twin, and compare counters, cache and records after every op."""
        v, twin = (make(cache=3 * 4 * rec, block=4 * rec, rec=rec) for _ in range(2))
        for op, x, y in ops(v):
            if op == "read_run2":
                assert v.read_run2(x, y) == [twin.get2(i) for i in range(x, y)]
            elif op == "write_run2":
                v.write_run2(x, y)
                for i, r in enumerate(y):
                    twin.put2(x + i, r)
            elif op == "get2":
                assert v.get2(x) == twin.get2(x)
            elif op == "put2":
                v.put2(x, y)
                twin.put2(x, y)
            else:  # extend or truncate
                getattr(v, op)(x)
                getattr(twin, op)(x)
            assert v.stats() == twin.stats(), (op, x)
            assert v.peek_lru() == twin.peek_lru(), (op, x)
            assert v.peek_run2(0, len(v)) == twin.peek_run2(0, len(twin)), (op, x)
        v.drop_cache()
        twin.drop_cache()
        assert v.stats() == twin.stats()  # equal write-backs: equal dirty flags

    @staticmethod
    def random_ops(rng, steps):
        # runs of up to 12 records cross blocks, and the trace keeps about
        # 10-40 records, so it evicts often
        def record():
            return rng.getrandbits(64) << 64 | rng.getrandbits(64)

        def ops(v):
            yield "extend", 8, None
            last = 0  # last record index touched, to start runs on the last block
            for _ in range(steps):
                n = len(v)
                op = rng.random()
                if op < 0.6 and n:
                    if rng.random() < 0.5:
                        lo = min(n, last // 4 * 4 + rng.randrange(4))
                    else:
                        lo = rng.randrange(n + 1)
                    hi = rng.randint(lo, min(n, lo + 12))
                    if op < 0.3:
                        yield "read_run2", lo, hi
                    else:
                        yield "write_run2", lo, [record() for _ in range(hi - lo)]
                    if hi > lo:
                        last = hi - 1
                elif op < 0.75 and n:
                    last = rng.randrange(n)
                    yield "get2", last, None
                elif op < 0.88 and n:
                    last = rng.randrange(n)
                    yield "put2", last, record()
                elif op < 0.94:
                    yield "truncate", rng.randrange(n + 1), None
                else:
                    yield "extend", rng.randrange(12), None

        return ops

    @pytest.mark.parametrize("seed", range(5))
    def test_runs_count_like_per_record_calls(self, seed):
        self.run_twin_trace(16, self.random_ops(random.Random(seed), 3000))

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_twin_traces(self, seed):
        self.run_twin_trace(16, self.random_ops(random.Random(seed), 300))

    @pytest.mark.parametrize("rec", [16, 8])
    def test_edge_runs_count_like_per_record_calls(self, rec):
        def ops(v):
            yield "extend", 20, None
            for step, (lo, hi, write) in enumerate(self.EDGE_RUNS):
                if write:
                    yield "write_run2", lo, [step << 8 | i for i in range(lo, hi)]
                else:
                    yield "read_run2", lo, hi

        self.run_twin_trace(rec, ops)

    def test_empty_run_touches_nothing(self):
        v = make(cache=64, block=64, rec=16)  # one frame
        v.extend(8)
        v.get2(0)
        assert v.read_run2(4, 4) == []
        v.write_run2(4, [])
        v.get2(0)  # still resident: the empty runs did not fault block 1
        assert v.stats() == IoStats(block_reads=1, block_writes=0, evictions=0)

    def test_out_of_range_run_raises_before_any_touch(self):
        v = make(cache=64, block=64, rec=16)
        v.extend(8)
        v.set2(7, 1, 2)
        before = v.stats()
        for lo, hi in ((0, 9), (-1, 2), (3, 2)):
            with pytest.raises(IndexError):
                v.read_run2(lo, hi)
        for lo, n in ((7, 2), (-1, 1), (9, 0)):
            with pytest.raises(IndexError):
                v.write_run2(lo, [5 << 64 | 5] * n)
        assert v.stats() == before
        assert v.peek_run2(0, 8) == [0] * 7 + [1 << 64 | 2]

    def test_runs_copy_records_in_and_out(self):
        # the vector keeps the records, never the caller's list, and hands
        # out a new list: mutating either list leaves the vector as it was
        v = make(cache=2 * 64, block=64, rec=16)
        v.extend(10)
        recs = [i << 64 | i + 1 for i in range(10)]
        v.write_run2(0, recs)
        recs[3] = 99
        recs.clear()
        got = v.read_run2(2, 7)
        got[0] = 55
        got.append(66)
        want = [i << 64 | i + 1 for i in range(10)]
        assert v.read_run2(0, 10) == want
        assert v.peek_run2(0, 10) == want
        assert v.get(2) == struct.pack("<QQ", 2, 3)
        # and a run inside one block, which takes one slice
        one = [7, 8, 9]
        v.write_run2(5, one)
        one[0] = 99
        got = v.read_run2(5, 8)
        got[1] = 55
        assert v.read_run2(4, 8) == [want[4], 7, 8, 9]

    def test_eight_byte_vector_takes_runs(self):
        v = make(cache=64, block=64, rec=8)  # eight records a block, one frame
        v.extend(12)
        v.write_run2(6, [1, 2**64 - 1, 3])
        assert v.read_run2(5, 10) == [0, 1, 2**64 - 1, 3, 0]
        assert v.get(7) == struct.pack("<Q", 2**64 - 1)
        # blocks 0, 1 written, then 0, 1 read, then 0 read: every touch faults
        assert v.stats() == IoStats(block_reads=5, block_writes=2, evictions=4)


class TestPeekRun:
    """peek_run2 is a stat-free read: it never faults, counts, or moves a
    block in the LRU order."""

    def run_twin_trace(self, rng, steps):
        # v runs its twin's trace with peek_run2 calls interleaved, checked
        # against a plain list; four records a block and three frames, so
        # the trace evicts often
        v, twin = make(cache=3 * 64, block=64, rec=16), make(cache=3 * 64, block=64, rec=16)
        v.extend(8)
        twin.extend(8)
        oracle = [0] * 8
        for _ in range(steps):
            n = len(v)
            op = rng.random()
            if op < 0.3:
                lo = rng.randrange(n + 1)
                hi = rng.randint(lo, min(n, lo + 12))
                assert v.peek_run2(lo, hi) == oracle[lo:hi]
            elif op < 0.55 and n:
                i = rng.randrange(n)
                assert v.get2(i) == twin.get2(i)
            elif op < 0.8 and n:
                i = rng.randrange(n)
                rec = rng.getrandbits(64) << 64 | rng.getrandbits(64)
                v.put2(i, rec)
                twin.put2(i, rec)
                oracle[i] = rec
            elif op < 0.9:
                m = rng.randrange(n + 1)
                v.truncate(m)
                twin.truncate(m)
                del oracle[m:]
            else:
                m = rng.randrange(12)
                v.extend(m)
                twin.extend(m)
                oracle += [0] * m
            assert v.stats() == twin.stats()
            assert v.peek_lru() == twin.peek_lru()
        # equal LRU order: touching one record a block, last block first,
        # faults and writes back alike at every step
        for i in range(len(v) - 1, -1, -4):
            assert v.get2(i) == twin.get2(i)
            assert v.stats() == twin.stats()
        v.drop_cache()
        twin.drop_cache()
        assert v.stats() == twin.stats()

    @pytest.mark.parametrize("seed", range(5))
    def test_peeks_leave_counts_and_lru_order_alone(self, seed):
        self.run_twin_trace(random.Random(seed), 3000)

    def test_untouched_and_truncated_blocks_read_zero(self):
        v = make(cache=2 * 64, block=64, rec=16)
        v.extend(12)
        v.write_run2(0, [i << 64 | i for i in range(1, 11)])
        v.truncate(6)  # drops block 2 whole and the tail of block 1
        v.extend(10)  # block 3 and beyond were never touched
        assert v.peek_run2(0, 16) == [i << 64 | i for i in range(1, 7)] + [0] * 10
        assert v.stats() == IoStats(block_reads=3, block_writes=1, evictions=1)

    def test_out_of_range_and_record_size(self):
        v = make(cache=64, block=64, rec=16)
        v.extend(8)
        for lo, hi in ((0, 9), (-1, 2), (3, 2), (9, 9)):
            with pytest.raises(IndexError):
                v.peek_run2(lo, hi)
        assert v.peek_run2(8, 8) == []
        w = make(rec=8)
        w.extend(4)
        assert w.peek_run2(0, 2) == [0, 0]
        assert v.stats() == w.stats() == IoStats()

    def test_returns_a_copy(self):
        v = make(cache=2 * 64, block=64, rec=16)
        v.extend(10)
        v.write_run2(0, [i << 64 | i + 1 for i in range(10)])
        got = v.peek_run2(2, 7)
        got[0] = 55
        got.append(66)
        assert v.peek_run2(0, 10) == [i << 64 | i + 1 for i in range(10)]


class TestTouch:
    """touch(b, dirty) against a twin vector that makes the same trace with
    get2 (dirty false) and put2 (dirty true) of a record in block b."""

    @pytest.mark.parametrize("seed", range(4))
    def test_touch_counts_like_get2_and_put2(self, seed):
        rng = random.Random(seed)
        v, twin = make(cache=3 * 64, block=64, rec=16), make(cache=3 * 64, block=64, rec=16)
        v.extend(40)
        twin.extend(40)
        for _ in range(3000):
            n = len(v)
            op = rng.random()
            if op < 0.85 and n:
                i = rng.randrange(n)
                b, off = divmod(i, 4)
                if op < 0.45:
                    assert v.touch(b, False)[off] == twin.get2(i)
                else:
                    rec = rng.getrandbits(128)
                    v.touch(b, True)[off] = rec
                    twin.put2(i, rec)
            elif op < 0.93:
                m = rng.randrange(n + 1)
                v.truncate(m)
                twin.truncate(m)
            else:
                m = rng.randrange(12)
                v.extend(m)
                twin.extend(m)
            assert v.stats() == twin.stats()
            assert v.peek_lru() == twin.peek_lru()
            assert v.peek_run2(0, len(v)) == twin.peek_run2(0, len(twin))
        v.drop_cache()
        twin.drop_cache()
        assert v.stats() == twin.stats()  # equal write-backs: equal dirty flags

    def test_block_without_a_record_raises_before_any_touch(self):
        v = make(cache=2 * 64, block=64, rec=16)
        v.extend(5)  # blocks 0 and 1
        v.touch(1, False)
        for b in (2, -1):
            with pytest.raises(IndexError):
                v.touch(b, False)
        assert v.stats() == IoStats(1, 0, 0)

    @pytest.mark.parametrize("state", ["fresh", "truncated", "dropped"])
    def test_no_block_state_matches_no_block_id(self, state):
        # the states in which the vector's fast path points at no block
        v = make(cache=4 * 64, block=64, rec=16)
        v.extend(32)  # blocks 0..7
        if state == "truncated":
            v.touch(7, True)
            v.truncate(20)  # drops blocks 5..7; block 7 keeps its frame, dirty
        elif state == "dropped":
            v.touch(7, True)
            v.drop_cache()
        before = (v.stats(), v.peek_lru())
        for dirty in (False, True):
            with pytest.raises(IndexError):
                v.touch(-1, dirty)
            assert (v.stats(), v.peek_lru()) == before
        # no phantom block -1 took a frame or a dirty flag
        for b in range(len(v) // 4):
            v.touch(b, False)
        assert all(b >= 0 for b, _ in v.peek_lru())
        assert v.stats().block_writes == before[0].block_writes + (state == "truncated")


class TestPeekLru:
    def test_resident_blocks_dirty_flags_in_lru_order(self):
        v = make(cache=3 * 64, block=64, rec=16)
        v.extend(20)  # blocks 0..4
        assert v.peek_lru() == []
        v.get2(0)
        v.put2(5, 7)
        v.get2(9)
        v.get2(1)  # block 0 to the top
        assert v.peek_lru() == [(1, True), (2, False), (0, False)]
        v.put2(12, 3)  # evicts block 1, written back
        v.touch(2, True)
        before = v.stats()
        assert v.peek_lru() == [(0, False), (3, True), (2, True)]
        assert v.stats() == before == IoStats(block_reads=4, block_writes=1, evictions=1)
        v.flush()
        assert v.peek_lru() == [(0, False), (3, False), (2, False)]
        v.drop_cache()
        assert v.peek_lru() == []

    def test_returns_a_copy(self):
        v = make(cache=3 * 64, block=64, rec=16)
        v.extend(4)
        v.get2(0)
        v.peek_lru().append((9, True))
        assert v.peek_lru() == [(0, False)]


class TestBytesBoundary:
    """get/set see a record as its bytes; the vector holds it as an int."""

    @pytest.mark.parametrize("rec", [16, 8])
    def test_set_get_round_trip(self, rec):
        v = make(rec=rec)
        v.extend(3)
        payload = bytes(range(1, rec + 1))
        v.set(1, payload)
        assert v.get(1) == payload
        assert v.get(0) == bytes(rec)

    @pytest.mark.parametrize("rec", [12, 4, 32])
    def test_other_record_sizes_rejected(self, rec):
        with pytest.raises(ValueError):
            make(rec=rec)

    def test_values_and_bytes_agree(self):
        v2, v1 = make(rec=16), make(rec=8)
        v2.extend(2)
        v1.extend(2)
        v2.put2(0, (2**64 - 1) << 64 | 7)
        v1.put2(0, 2**63 + 5)
        assert v2.get(0) == struct.pack("<QQ", 2**64 - 1, 7)
        assert v1.get(0) == struct.pack("<Q", 2**63 + 5)
        v2.set(1, struct.pack("<QQ", 3, 4))
        v1.set(1, struct.pack("<Q", 9))
        assert (v2.get2(1), v1.get2(1)) == (3 << 64 | 4, 9)


class TestRecordMemory:
    """Bytes a heap holds per record, by tracemalloc: a record is an int in a
    block's list (plus, for the binary heap, its position entry). The bounds
    are the values measured when records became values, as two-int tuples
    (binary 167, funnel 126 B/record at N = 2^14, Python 3.11), plus a 25 %
    margin."""

    @pytest.mark.parametrize("heap,bound", [(BinaryHeap, 210), (FunnelHeap, 160)])
    def test_bytes_per_record(self, heap, bound):
        n = 1 << 14
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h = heap(16 * MB, 4096)
            for i in range(n):
                h.insert(i, (i * 0x9E3779B97F4A7C15 >> 16) & (2**48 - 1))
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(h) == n
        assert held / n <= bound


class TestLruOracle:
    @pytest.mark.parametrize(
        "frames,block,rec",
        [(2, 4096, 16), (4, 4096, 16), (16, 512, 16), (7, 4096, 8), (64, 4096, 16)],
    )
    def test_fault_counts_match_reference(self, frames, block, rec):
        cfg = EmConfig(frames * block, block, rec)
        v = BlockVector(cfg)
        ref = RefLru(frames)
        rng = random.Random(frames * 1000 + block)
        nrec = frames * cfg.records_per_block * 8
        v.extend(nrec)
        payload = b"\x5a" * rec
        for _ in range(20000):
            i = rng.randrange(nrec)
            write = rng.random() < 0.4
            if write:
                v.set(i, payload)
            else:
                v.get(i)
            ref.access(i // cfg.records_per_block, write)
        s = v.stats()
        assert s.block_reads == ref.faults
        assert s.evictions == ref.evictions
        assert s.block_writes == ref.evict_writes

    def test_determinism(self):
        def run():
            v = make(cache=8 * 4096)
            rng = random.Random(99)
            v.extend(10000)
            for _ in range(5000):
                i = rng.randrange(10000)
                if rng.random() < 0.5:
                    v.set2(i, i, i)
                else:
                    v.get2(i)
            return v.stats()

        a, b = run(), run()
        assert (a.block_reads, a.block_writes, a.evictions) == (
            b.block_reads,
            b.block_writes,
            b.evictions,
        )
