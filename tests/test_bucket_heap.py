import random
from collections import Counter

import pytest

from copq.bucket_heap import _STALE, DELETE, BucketHeap, bucket_capacity, signal_capacity
from copq.emcore import MASK64, MB

from oracles import MinMapPQ, reference_flush


def make(cache=1 * MB):
    return BucketHeap(cache_bytes=cache)


class TestUpdateSemantics:
    def test_decrease_applies(self):
        h = make()
        h.update(9, 5)
        h.update(9, 3)
        assert h.delete_min() == (9, 3)
        assert h.find_min() is None

    def test_increase_ignored(self):
        h = make()
        h.update(9, 3)
        h.update(9, 5)
        assert h.delete_min() == (9, 3)
        assert h.find_min() is None

    def test_delete_then_empty(self):
        h = make()
        h.update(4, 4)
        h.delete(4)
        assert h.find_min() is None
        with pytest.raises(IndexError):
            h.delete_min()

    def test_delete_absent_then_insert(self):
        h = make()
        h.delete(7)
        h.update(7, 2)
        assert h.delete_min() == (7, 2)

    def test_equal_keys_tie_by_id(self):
        h = make()
        h.update(2, 1)
        h.update(1, 1)
        assert h.delete_min() == (1, 1)
        assert h.delete_min() == (2, 1)

    def test_reinsert_after_delete_min(self):
        h = make()
        h.update(5, 10)
        assert h.delete_min() == (5, 10)
        h.update(5, 20)
        assert h.delete_min() == (5, 20)

    def test_key_validation(self):
        h = make()
        with pytest.raises(ValueError):
            h.update(1, (1 << 64) - 1)  # reserved for delete signals
        with pytest.raises(ValueError):
            h.update(-1, 0)


class TestCascade:
    def test_forced_cascade_creates_level_two(self):
        h = make()
        for i in range(signal_capacity(1) + 1):  # one past S_1 capacity
            h.update(i, 1000 + i)
        assert len(h._levels) >= 1
        # push enough distinct ids through to overflow bucket 1 into level 2
        for i in range(100, 100 + bucket_capacity(1) + signal_capacity(1) + 1):
            h.update(i, 2000 + i)
        assert len(h._levels) >= 2
        assert any(lv.bcount or lv.scount for lv in h._levels[1:])
        h.check_invariants()

    def test_conservation_across_flushes(self):
        h = make()
        want = {}
        rng = random.Random(5)
        for i in range(500):
            k = rng.getrandbits(20)
            h.update(i, k)
            want[i] = min(want.get(i, k), k)
        assert h._live_map() == want
        h.check_invariants()

    def test_level_geometry(self):
        # capacities grow by a factor of 4 per level
        for i in range(1, 12):
            assert bucket_capacity(i + 1) == 4 * bucket_capacity(i)
            assert signal_capacity(i + 1) == 4 * signal_capacity(i)
            assert signal_capacity(i) < bucket_capacity(i)

    def test_level_count_bound_for_2_22_elements(self):
        # level L+1 only materialises when bucket L overflows, so N live
        # elements never need more levels than the first whose bucket holds N
        levels = 1
        while bucket_capacity(levels) < (1 << 22):
            levels += 1
        assert levels + 1 <= 22

    def test_level_count_logarithmic(self):
        h = make(cache=8 * MB)
        n = 1 << 16
        for i in range(n):
            h.update(i, i * 2654435761 % (1 << 30))
        # ceil(log4) levels plus slack
        assert len(h._levels) <= 16
        h.check_invariants()


class TestOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_trace_matches_min_map(self, seed):
        h, oracle = make(), MinMapPQ()
        rng = random.Random(seed)
        for step in range(20_000):
            r = rng.random()
            if r < 0.55:
                i, k = rng.randrange(4000), rng.getrandbits(24)
                h.update(i, k)
                oracle.update(i, k)
            elif r < 0.7:
                i = rng.randrange(4000)
                h.delete(i)
                oracle.delete(i)
            else:
                want = oracle.find_min()
                if want is None:
                    assert h.find_min() is None
                else:
                    assert h.delete_min() == oracle.delete_min()
        while len(oracle):
            assert h.delete_min() == oracle.delete_min()
        assert h.find_min() is None

    def test_same_id_hammering(self):
        # a tiny id space keeps every level fighting over the same ids, so
        # chase-deletes constantly race their stale copies
        h, live = make(), {}
        rng = random.Random(1)
        for step in range(30_000):
            r = rng.random()
            i = rng.randrange(12)
            if r < 0.5:
                k = rng.getrandbits(18)
                h.update(i, k)
                if i not in live or k < live[i]:
                    live[i] = k
            elif r < 0.7:
                h.delete(i)
                live.pop(i, None)
            elif live:
                want = min((k, j) for j, k in live.items())
                assert h.delete_min() == (want[1], want[0]), step
                del live[want[1]]
        assert h._live_map() == live

    def test_invariants_under_trace(self):
        h, oracle = make(), MinMapPQ()
        rng = random.Random(42)
        for step in range(3000):
            r = rng.random()
            if r < 0.6:
                i, k = rng.randrange(300), rng.getrandbits(16)
                h.update(i, k)
                oracle.update(i, k)
            elif r < 0.75:
                i = rng.randrange(300)
                h.delete(i)
                oracle.delete(i)
            elif len(oracle):
                assert h.delete_min() == oracle.delete_min()
            if step % 101 == 0:
                h.check_invariants()
                assert h._live_map() == oracle.live


class TestKeptMin:
    """find_min keeps its answer until the next update, delete or delete_min,
    and delete_min reuses it. Repeated calls must leave every count, the LRU
    order and the later pops as the heap that answers afresh each time, and
    an operation in between must make the next call answer afresh.
    Mutation that fails it: not clearing the kept answer in _signal (the path
    of update and delete) or in delete_min."""

    @staticmethod
    def _trace(seed, block, frames, calls, fresh):
        """Pops, stats() and peek_lru() after each op of a seeded trace that
        calls find_min calls times in a row; fresh drops the kept answer
        before every find_min and delete_min, as a heap that keeps none."""
        h, oracle = BucketHeap(cache_bytes=frames * block, block_bytes=block), MinMapPQ()
        rng = random.Random(seed)
        log = []
        for step in range(3000):
            r = rng.random()
            if r < (0.55 if step < 1500 else 0.3):
                i, k = rng.randrange(400), rng.getrandbits(16)
                h.update(i, k)
                oracle.update(i, k)
                got = None
            elif r < 0.7:
                i = rng.randrange(400)
                h.delete(i)
                oracle.delete(i)
                got = None
            else:
                for _ in range(calls):
                    if fresh:
                        h._min = _STALE
                    got = h.find_min()
                    assert got == oracle.find_min(), step
                if got is not None and r < 0.9:
                    if fresh:
                        h._min = _STALE
                    assert h.delete_min() == oracle.delete_min() == got, step
            log.append((got, h.vector.stats(), h.vector.peek_lru()))
        return log

    @pytest.mark.parametrize("block,frames", [(64, 2), (1024, 2), (4096, 1), (4096, 8)])
    def test_repeated_calls_count_like_one(self, block, frames):
        want = self._trace(7, block, frames, 1, fresh=True)
        for calls in (1, 2, 3):
            got = self._trace(7, block, frames, calls, fresh=False)
            bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
            assert bad is None, f"{calls} calls, op {bad}: kept {got[bad]}, fresh {want[bad]}"
        assert self._trace(7, block, frames, 3, fresh=True) == want

    def test_lowered_key_answers_afresh(self):
        h = make()
        for i in range(40):
            h.update(i, 100 + i)
        assert h.find_min() == (0, 100)
        h.update(30, 5)
        assert h.find_min() == (30, 5)
        h.update(30, 50)  # a raise is dropped
        assert h.find_min() == (30, 5)

    def test_delete_of_the_minimum_answers_afresh(self):
        h = make()
        for i in range(40):
            h.update(i, 100 + i)
        assert h.find_min() == (0, 100)
        h.delete(0)
        assert h.find_min() == (1, 101)
        h.delete(1)
        h.delete(2)
        assert h.delete_min() == (3, 103)

    def test_delete_min_answers_afresh(self):
        h = make()
        h.update(1, 7)
        h.update(2, 8)
        assert h.find_min() == (1, 7)
        assert h.delete_min() == (1, 7)
        assert h.find_min() == (2, 8)
        assert h.delete_min() == (2, 8)
        assert h.find_min() is None
        with pytest.raises(IndexError):
            h.delete_min()
        h.update(3, 9)
        assert h.find_min() == (3, 9)


def _flush_cases(h, li, seen):
    """Tally in seen which branches a flush of level li is about to take,
    replaying its signals over its bucket stat-free (peek_run2)."""
    lv = h._levels[li]
    vec = h.vector
    d = {rec & MASK64: rec for rec in vec.peek_run2(lv.bstart + lv.bhead, lv.bstart + lv.bhead + lv.bcount)}
    deepest = li == len(h._levels) - 1
    limit = lv.splitter << 64 | MASK64
    signals = vec.peek_run2(lv.sstart, lv.sstart + lv.scount)
    rpb = vec.config.records_per_block
    block = lv.bstart // rpb
    one_block = (lv.sstart + lv.sroom - 1) // rpb == block
    seen["single-block level" if one_block else "run level"] += 1
    if not deepest and all(sig > limit and sig & MASK64 not in d for sig in signals):
        seen["inert batch"] += 1
    if not d:
        seen["empty bucket read"] += 1
    forwarded = 0
    for sig in signals:
        sid = sig & MASK64
        if sig >= DELETE:
            if d.pop(sid, None) is not None:
                seen["delete hit"] += 1
            elif deepest:
                seen["delete miss at deepest"] += 1
            else:
                seen["delete miss forwarded"] += 1
                forwarded += 1
        elif sid in d:
            seen["lowered" if sig < d[sid] else "raise dropped"] += 1
            d[sid] = min(d[sid], sig)
        elif sig <= limit:
            if deepest:
                seen["insert at deepest"] += 1
            else:
                seen["insert with chase"] += 1
                forwarded += 1
            d[sid] = sig
        else:
            seen["forward"] += 1
            forwarded += 1
    seen["overflow" if len(d) > lv.bcap else "fits" if d else "empty bucket written"] += 1
    forwarded += max(len(d) - lv.bcap, 0)
    if one_block and forwarded:
        # the next level's signal buffer, or where a new level would put it
        if deepest:
            at = len(vec) + bucket_capacity(lv.num + 1)
        else:
            nxt = h._levels[li + 1]
            at = nxt.sstart + nxt.scount
        last = (at + forwarded - 1) // rpb
        seen["forward into the level's block" if last == block else "forward out of the level's block"] += 1


FLUSH_CASES = {
    "delete hit",
    "delete miss forwarded",
    "delete miss at deepest",
    "lowered",
    "raise dropped",
    "insert with chase",
    "insert at deepest",
    "forward",
    "overflow",
    "fits",
    "empty bucket read",
    "empty bucket written",
    "single-block level",
    "run level",
    "inert batch",
    "forward into the level's block",
    "forward out of the level's block",
}
# cases only a level inside one block reaches
ONE_BLOCK_CASES = {"single-block level", "forward into the level's block", "forward out of the level's block"}


def _flush_trace(seed, block, frames, seen=None, ops=2500):
    """Pops, stats(), the LRU state (peek_lru) and check_invariants() after
    each op of a seeded update/delete/find_min/delete_min trace, then
    _live_map() and stats(). Ids come from a small space so signals meet
    their ids in the buckets; one seed in three draws keys from [0, 40), so
    records tie. The trace grows for its first half and shrinks after. Every
    fifth op ends with the vector's flush(), which leaves its blocks clean, so
    a flush that fails to dirty a block it writes shows in the counts."""
    h = BucketHeap(cache_bytes=frames * block, block_bytes=block)
    if seen is not None:
        flush = BucketHeap._flush

        def tallied(self, li):
            _flush_cases(self, li, seen)
            flush(self, li)

        h._flush = tallied.__get__(h)
    rng = random.Random(seed)
    key = (lambda: rng.randrange(40)) if seed % 3 == 0 else (lambda: rng.getrandbits(20))
    log = []
    for step in range(ops):
        r = rng.random()
        grow = step < ops // 2
        if r < (0.6 if grow else 0.35):
            got = h.update(rng.randrange(300), key())
        elif r < 0.75:
            got = h.delete(rng.randrange(300))
        elif r < 0.85:
            got = h.find_min()
        else:
            got = h.delete_min() if h.find_min() is not None else None
        if step % 5 == 4:
            h.vector.flush()
        h.check_invariants()
        log.append((got, h.vector.stats(), h.vector.peek_lru()))
    log.append((h._live_map(), h.vector.stats(), h.vector.peek_lru()))
    return log


# At 1,024 and 2,048 bytes level 1 fits one block and level 2 does not, and
# level 1's forwarded signals can land outside its block or straddle two.
# Levels 1 and 2 fit one 4,096-byte block; no level fits a 32- or 64-byte one.
FLUSH_GRID = [(block, frames) for block in (32, 64, 4096, 1024, 2048) for frames in (1, 2, 8)]


class TestLeanFlush:
    """_flush binds its dict and list methods, neither reads nor writes an
    empty bucket, passes an inert batch whole and charges every level, in one
    block or in many, by read_run2/write_run2 runs, the bucket written before
    the forwarded signals; it must count, store and forward exactly like the
    flush it replaced, oracles.reference_flush.
    Mutations that fail it: the forwarded signals written before the bucket,
    which moves the LRU order; list(d.values()) in place of the sort, which
    leaves a bucket unsorted; an inert test without the id check."""

    @pytest.mark.parametrize("block,frames", FLUSH_GRID)
    def test_counts_like_reference_flush(self, block, frames, monkeypatch):
        seed = FLUSH_GRID.index((block, frames))
        with monkeypatch.context() as m:
            m.setattr(BucketHeap, "_flush", reference_flush)
            want = _flush_trace(seed, block, frames)
        seen = Counter()
        got = _flush_trace(seed, block, frames, seen)
        bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
        assert bad is None, f"op {bad}: lean flush {got[bad]}, reference flush {want[bad]}"
        assert len(got) == len(want)
        cases = FLUSH_CASES if block >= 1024 else FLUSH_CASES - ONE_BLOCK_CASES
        if block == 1024:  # level 2's signal buffer starts in block 1
            cases = cases - {"forward into the level's block"}
        assert cases <= set(seen), f"no flush took {sorted(cases - set(seen))}"
