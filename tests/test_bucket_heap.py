import random
from collections import Counter

import pytest

from copq.bucket_heap import DELETE, BucketHeap, bucket_capacity, signal_capacity
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


def _flush_cases(h, li, seen):
    """Tally in seen which branches a flush of level li is about to take,
    replaying its signals over its bucket stat-free (peek_run2)."""
    lv = h._levels[li]
    vec = h.vector
    d = {rec & MASK64: rec for rec in vec.peek_run2(lv.bstart + lv.bhead, lv.bstart + lv.bhead + lv.bcount)}
    deepest = li == len(h._levels) - 1
    limit = lv.splitter << 64 | MASK64
    if not d:
        seen["empty bucket read"] += 1
    for sig in vec.peek_run2(lv.sstart, lv.sstart + lv.scount):
        sid = sig & MASK64
        if sig >= DELETE:
            if d.pop(sid, None) is not None:
                seen["delete hit"] += 1
            else:
                seen["delete miss at deepest" if deepest else "delete miss forwarded"] += 1
        elif sid in d:
            seen["lowered" if sig < d[sid] else "raise dropped"] += 1
            d[sid] = min(d[sid], sig)
        elif sig <= limit:
            seen["insert at deepest" if deepest else "insert with chase"] += 1
            d[sid] = sig
        else:
            seen["forward"] += 1
    seen["overflow" if len(d) > lv.bcap else "fits" if d else "empty bucket written"] += 1


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
}


def _flush_trace(seed, block, frames, seen=None, ops=2500):
    """Pops, stats(), the LRU state (peek_lru) and check_invariants() after
    each op of a seeded update/delete/find_min/delete_min trace, then
    _live_map() and stats(). Ids come from a small space so signals meet
    their ids in the buckets; one seed in three draws keys from [0, 40), so
    records tie. The trace grows for its first half and shrinks after."""
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
        h.check_invariants()
        log.append((got, h.vector.stats(), h.vector.peek_lru()))
    log.append((h._live_map(), h.vector.stats(), h.vector.peek_lru()))
    return log


FLUSH_GRID = [(block, frames) for block in (32, 64, 4096) for frames in (1, 2, 8)]


class TestLeanFlush:
    """_flush binds its dict and list methods, sorts a bucket only when a
    signal lowered a record or inserted an id, and neither reads nor writes
    an empty bucket; it must count, store and forward exactly like the flush
    it replaced, oracles.reference_flush.
    Mutation that fails it: list(d.values()) after a lowered key (drop the
    resort in the sig < cur branch), which leaves a bucket unsorted."""

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
        assert FLUSH_CASES <= set(seen), f"no flush took {sorted(FLUSH_CASES - set(seen))}"
