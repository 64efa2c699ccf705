import random

import pytest

from copq.binary_heap import BinaryHeap
from copq.emcore import MB, BlockVector

from oracles import MinMapPQ, MultisetPQ, reference_relax, reference_sift_down, reference_sift_up


def make(cache=1 * MB):
    return BinaryHeap(cache_bytes=cache)


class TestBasics:
    def test_insert_into_empty(self):
        h = make()
        h.insert(7, 3)
        assert h.find_min() == (7, 3)

    def test_min_at_root(self):
        h = make()
        for i, k in enumerate([5, 4, 3, 2, 1]):
            h.insert(i, k)
        assert h.find_min() == (4, 1)

    def test_delete_min_single(self):
        h = make()
        h.insert(1, 5)
        assert h.delete_min() == (1, 5)
        assert len(h) == 0
        with pytest.raises(IndexError):
            h.delete_min()

    def test_tie_broken_by_id(self):
        h = make()
        h.insert(2, 4)
        h.insert(1, 4)
        assert h.delete_min() == (1, 4)
        assert h.delete_min() == (2, 4)

    def test_duplicate_live_id_rejected(self):
        h = make()
        h.insert(3, 1)
        with pytest.raises(ValueError):
            h.insert(3, 9)
        h.delete_min()
        h.insert(3, 9)  # fine once dead

    def test_update_inserts_an_absent_id(self):
        h = make()
        h.insert(1, 5)
        h.update(2, 3)
        assert len(h) == 2
        assert h.delete_min() == (2, 3)
        assert h.delete_min() == (1, 5)

    def test_update_lowers_a_live_key_to_the_root(self):
        h = make()
        h.insert(1, 9)
        h.insert(2, 5)
        h.update(1, 2)
        assert len(h) == 2
        assert h.delete_min() == (1, 2)
        assert h.delete_min() == (2, 5)

    @pytest.mark.parametrize("key", [9, 10], ids=["equal", "higher"])
    def test_update_drops_a_key_that_is_not_lower(self, key):
        h = make()
        h.insert(1, 9)
        h.insert(2, 5)
        before = [(v.stats(), v.peek_lru()) for v in h.vectors().values()]
        h.update(1, key)
        # the position and heap reads hit the blocks they touched last
        assert [(v.stats(), v.peek_lru()) for v in h.vectors().values()] == before
        assert h.delete_min() == (2, 5)
        assert h.delete_min() == (1, 9)


class TestOracle:
    def test_random_inserts_match_multiset(self):
        h, oracle = make(), MultisetPQ()
        rng = random.Random(1)
        for i in range(10_000):
            k = rng.getrandbits(32)
            h.insert(i, k)
            oracle.insert(i, k)
        while len(oracle):
            assert h.delete_min() == oracle.delete_min()

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_trace_matches_oracle(self, seed):
        h, oracle = make(), MultisetPQ()
        rng = random.Random(seed)
        ident = 0
        for _ in range(10_000):
            if not len(oracle) or rng.random() < 0.55:
                k = rng.getrandbits(20)
                h.insert(ident, k)
                oracle.insert(ident, k)
                ident += 1
            else:
                assert h.delete_min() == oracle.delete_min()
        while len(oracle):
            assert h.delete_min() == oracle.delete_min()

    def test_update_trace_matches_map_oracle(self):
        rng = random.Random(7)
        h, oracle = make(), MinMapPQ()
        for _ in range(8_000):
            if not len(oracle) or rng.random() < 0.75:
                # ids repeat, so an update inserts, lowers, or is dropped
                ident, key = rng.randrange(3_000), rng.getrandbits(12)
                h.update(ident, key)
                oracle.update(ident, key)
            else:
                assert h.delete_min() == oracle.delete_min()
        h.check_invariants()
        while len(oracle):
            assert h.delete_min() == oracle.delete_min()
        assert h.find_min() is None

    def test_invariants_hold_during_trace(self):
        h = make()
        rng = random.Random(3)
        ident = 0
        for step in range(600):
            if not len(h) or rng.random() < 0.6:
                h.insert(ident, rng.getrandbits(16))
                ident += 1
            else:
                h.delete_min()
            if step % 37 == 0:
                h.check_invariants()


class TestIoAccounting:
    def test_positions_vector_is_charged(self):
        h = make(cache=1 * MB)
        for i in range(5000):
            h.insert(i, (i * 2654435761) % 100000)
        assert h.positions.stats().block_reads > 0
        assert h.heap.stats().block_reads > 0

    def test_transfers_per_op_grow_when_cache_shrinks(self):
        def run(cache):
            h = BinaryHeap(cache_bytes=cache, block_bytes=4096)
            rng = random.Random(11)
            n = 1 << 13
            for i in range(n):
                h.insert(i, rng.getrandbits(40))
            for _ in range(n):
                h.delete_min()
            s = h.heap.stats() + h.positions.stats()
            return s.transfers

        assert run(64 * 1024) > run(16 * MB)

    def test_transfers_per_op_grow_with_n_at_64kb(self):
        # at a fixed 64KB cache the resident fraction shrinks as N grows, so
        # the per-operation transfer count must rise between 2^14 and 2^18
        def per_op(n):
            h = BinaryHeap(cache_bytes=64 * 1024, block_bytes=4096)
            rng = random.Random(7)
            for i in range(n):
                h.insert(i, rng.getrandbits(40))
            for _ in range(n):
                h.delete_min()
            s = h.heap.stats() + h.positions.stats()
            return s.transfers / (2 * n)

        assert per_op(1 << 14) < per_op(1 << 18)


def _counted_trace(seed, block, frames, ops=6000):
    """Pops and both vectors' stats() and LRU state (peek_lru) after each op
    of a seeded insert, delete_min and key-lowering update trace, then stats() after
    a final drop_cache(). One seed in three draws keys from [0, 20), so many
    records tie."""
    h = BinaryHeap(cache_bytes=frames * block, block_bytes=block)
    rng = random.Random(seed)
    key = (lambda: rng.randrange(20)) if seed % 3 == 0 else (lambda: rng.getrandbits(24))
    live = {}
    log = []
    ident = 0
    for step in range(ops):
        # grow for the first half, shrink in the second
        x = rng.random()
        if not live or x < (0.6 if step < ops // 2 else 0.2):
            k = key()
            h.insert(ident, k)
            live[ident] = k
            ident += 1
            out = None
        elif x < (0.75 if step < ops // 2 else 0.35):
            i = rng.choice(list(live))
            live[i] = rng.randrange(live[i] + 1)
            h.update(i, live[i])
            out = None
        else:
            out = h.delete_min()
            del live[out[0]]
        log.append((out, h.heap.stats(), h.positions.stats(), h.heap.peek_lru(), h.positions.peek_lru()))
    for vec in h.vectors().values():
        vec.drop_cache()
    log.append((None, h.heap.stats(), h.positions.stats()))
    return log


SIFT_GRID = [(block, frames) for block in (16, 32, 64, 256) for frames in (1, 2, 3, 4, 8)]


class TestWindowSift:
    """The sifts charge the heap vector a block window at a time; they must
    count exactly like the per-record sifts, oracles.reference_sift_down and
    reference_sift_up, and leave the same LRU state. At B = 32, 64 and 256
    the children of the last slot of a block straddle two blocks, and block
    1 is read again one level further down when the path stays in block 0."""

    @pytest.mark.parametrize("block,frames", SIFT_GRID)
    def test_counts_like_per_record_sift(self, block, frames, monkeypatch):
        seed = SIFT_GRID.index((block, frames))
        with monkeypatch.context() as m:
            m.setattr(BinaryHeap, "_sift_down", reference_sift_down)
            m.setattr(BinaryHeap, "_sift_up", reference_sift_up)
            want = _counted_trace(seed, block, frames)
        got = _counted_trace(seed, block, frames)
        bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
        assert bad is None, f"op {bad}: windowed sift {got[bad]}, per-record sift {want[bad]}"
        assert len(got) == len(want)

    def test_delete_min_switches_per_path_block(self, monkeypatch):
        # N = 2^12, B = 4 KB (256 records), 16 frames: a delete_min's sift
        # runs through block 0 and then one block per level, four levels.
        # The per-record sifts make 11,271 switches over these 1,000
        # delete_mins, about two per level below block 0; the window charge
        # makes about one. Pinned so a refactor cannot fall back silently.
        h = BinaryHeap(cache_bytes=64 * 1024, block_bytes=4096)
        rng = random.Random(5)
        for i in range(1 << 12):
            h.insert(i, rng.getrandbits(40))
        switches = []
        switch = BlockVector._switch

        def counted(vec, b, dirty):
            if vec is h.heap:
                switches.append(b)
            switch(vec, b, dirty)

        monkeypatch.setattr(BlockVector, "_switch", counted)
        for _ in range(1000):
            h.delete_min()
        assert len(switches) == 6965


def _relax_trace(relax, seed, block, frames, ops=3000):
    """Pops and both vectors' stats() and LRU state after each op of a seeded
    trace of relaxations, relax(heap, id, key), and delete_mins, then stats()
    after a final drop_cache(). Ids repeat, so a relaxation inserts, lowers,
    or meets a key that is not lower; one seed in three draws keys from
    [0, 20), so many keys tie."""
    h = BinaryHeap(cache_bytes=frames * block, block_bytes=block)
    rng = random.Random(seed)
    key = (lambda: rng.randrange(20)) if seed % 3 == 0 else (lambda: rng.getrandbits(16))
    log = []
    for step in range(ops):
        # grow for the first half, shrink in the second
        if not len(h) or rng.random() < (0.7 if step < ops // 2 else 0.3):
            relax(h, rng.randrange(600), key())
            out = None
        else:
            out = h.delete_min()
        log.append((out, h.heap.stats(), h.positions.stats(), h.heap.peek_lru(), h.positions.peek_lru()))
    h.check_invariants()
    for vec in h.vectors().values():
        vec.drop_cache()
    log.append((None, h.heap.stats(), h.positions.stats()))
    return log


@pytest.mark.parametrize("block,frames", SIFT_GRID)
def test_update_counts_like_current_key_then_insert_or_decrease_key(block, frames):
    """update makes one position read and at most one heap read; the
    relaxation it replaces (oracles.reference_relax) read the same records
    twice. The second reads hit the block their vector touched last, so both
    must leave the same counts, LRU order and dirty flags after every op."""
    seed = SIFT_GRID.index((block, frames))
    want = _relax_trace(reference_relax, seed, block, frames)
    got = _relax_trace(BinaryHeap.update, seed, block, frames)
    bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, f"op {bad}: update {got[bad]}, reference relaxation {want[bad]}"
    assert len(got) == len(want)
