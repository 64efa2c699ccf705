import random

import pytest

from copq.funnel_heap import FunnelHeap, _Merger, _Ring, _link_params
from copq.emcore import MB, BlockVector, EmConfig
from copq.graphs import GnpSpec, gen_gnp
from copq.sssp import sssp_funnel

from oracles import MultisetPQ, reference_fill


def make(cache=1 * MB):
    return FunnelHeap(cache_bytes=cache)


class TestBasics:
    def test_insert_then_delete_min(self):
        h = make()
        h.insert(1, 1)
        assert h.delete_min() == (1, 1)
        assert len(h) == 0
        with pytest.raises(IndexError):
            h.delete_min()

    def test_sorted_output(self):
        h = make()
        for i, k in enumerate([3, 1, 2]):
            h.insert(i, k)
        assert [h.delete_min()[1] for _ in range(3)] == [1, 2, 3]

    def test_tie_by_id(self):
        h = make()
        h.insert(2, 7)
        h.insert(1, 7)
        assert h.delete_min() == (1, 7)
        assert h.delete_min() == (2, 7)

    def test_duplicate_ids_are_multiset(self):
        h = make()
        h.insert(5, 10)
        h.insert(5, 10)
        h.insert(5, 3)
        assert h.delete_min() == (5, 3)
        assert h.delete_min() == (5, 10)
        assert h.delete_min() == (5, 10)


class TestSweep:
    def test_first_overflow_builds_link_one_with_eight_records(self):
        h = make()
        for i in range(9):  # capacity of the insertion buffer is 8
            h.insert(i, 100 - i)
        assert len(h._links) == 1
        link = h._links[0]
        assert link.c == 1
        assert link.leaves[0].count == 8
        run = link.leaves[0].records(h.vector.peek_run2)
        assert run == sorted(run)
        assert h._I.count == 1  # the insert that triggered the sweep
        h.check_invariants()

    def test_sweep_preserves_multiset(self):
        h = make()
        rng = random.Random(2)
        inserted = []
        for i in range(200):
            k = rng.getrandbits(16)
            h.insert(i, k)
            inserted.append(k << 64 | i)
        assert h._live_items() == sorted(inserted)

    def test_layout_tiles_the_vector_and_producers_wire_the_funnel(self):
        h = make()
        rng = random.Random(4)
        i = 0
        while len(h._links) < 4:
            h.insert(i, rng.getrandbits(20))
            i += 1
            if i % 3 == 0:
                h.delete_min()
        # the insertion buffer and every link's A, B, internals and leaves
        # cover [0, len(vector)) with no gap and no overlap
        pos = 0
        for start, cap in sorted((r.start, r.cap) for r in h._all_rings()):
            assert start == pos
            pos += cap
        assert pos == len(h.vector)

        def inputs(ring):  # the producer-less rings a merger tree reads
            m = ring.producer
            return [ring] if m is None else inputs(m.left) + inputs(m.right)

        assert h._I.producer is None
        for j, ln in enumerate(h._links):
            for r in [ln.A, ln.B, *ln.internals]:
                assert r.producer.out is r
            assert all(leaf.producer is None for leaf in ln.leaves)
            assert inputs(ln.B) == ln.leaves
            assert ln.A.producer.left is ln.B
            right = ln.A.producer.right
            if j + 1 < len(h._links):
                assert right is h._links[j + 1].A
            else:
                assert right.cap == 0 and right.producer is None
        h.check_invariants()

    def test_link_growth_is_geometric(self):
        prev_total = 0
        for num in range(1, 7):
            s, k, acap, bcap, intsz, leafcap = _link_params(num)
            link_total = acap + bcap + intsz + k * leafcap
            assert link_total > prev_total, f"link {num} not bigger than all shallower"
            prev_total += link_total

    def test_link_run_sizes_and_fan_ins_pinned(self):
        # s_{i+1} = s_i (k_i + 1), and k_i is the least power of two whose
        # cube is at least s_i, in exact integer arithmetic
        assert [_link_params(i)[:2] for i in range(1, 12)] == [
            (8, 2),
            (24, 4),
            (120, 8),
            (1080, 16),
            (18360, 32),
            (605880, 128),
            (78158520, 512),
            (40095320760, 4096),
            (164270529153720, 65536),
            (10765797669147347640, 4194304),
            (45155038992693065943190200, 536870912),
        ]

    def test_link_geometry_pinned(self):
        # (s, k, acap, bcap, intsz, leafcap): acap = s (k + 1) is the next
        # link's s, bcap = k^3, and leafcap = 8 + (capacity of the shallower
        # links) + bcap + intsz + s, the largest run a sweep can carry
        assert [_link_params(i) for i in range(1, 11)] == [
            (8, 2, 24, 8, 0, 24),
            (24, 4, 120, 64, 16, 176),
            (120, 8, 1080, 512, 48, 1560),
            (1080, 16, 18360, 4096, 336, 19552),
            (18360, 32, 605880, 32768, 688, 384200),
            (605880, 128, 78158520, 2097152, 9296, 15390928),
            (78158520, 512, 40095320760, 134217728, 142512, 2197948472),
            (40095320760, 4096, 164270529153720, 68719476736, 17071536, 1236379435168),
            (164270529153720, 65536, 10765797669147347640, 281474976710656, 4313278032, 5511196365025704),
            (
                10765797669147347640,
                4194304,
                45155038992693065943190200,
                73786976294838206464,
                17596582608304,
                445740067735257725456,
            ),
        ]

    def test_link_count_bound_for_2_22_inserts(self):
        # a new link L+1 is only built once every leaf of links 1..L has been
        # used, which takes at least 8 * prod(k_j) inserts; show 2^22 inserts
        # cannot build more than log2(2^22) links
        inserts_needed = 8
        links = 0
        while inserts_needed <= (1 << 22):
            links += 1
            inserts_needed *= _link_params(links)[1]
        assert links + 1 <= 22

    def test_link_count_logarithmic(self):
        h = make(cache=4 * MB)
        n = 1 << 15
        for i in range(n):
            h.insert(i, (i * 2654435761) & 0xFFFFF)
        # far fewer links than log2(n); 15 is a generous ceiling
        assert len(h._links) <= 15
        h.check_invariants()


class TestOracle:
    def test_bulk_sort_2_16(self):
        # 2^16 random inserts then 2^16 pops must reproduce the sorted input
        h, rng = make(cache=4 * MB), random.Random(3)
        n = 1 << 16
        keys = [rng.getrandbits(30) for _ in range(n)]
        for i, k in enumerate(keys):
            h.insert(i, k)
        got = [h.delete_min() for _ in range(n)]
        assert got == [(i, k) for (k, i) in sorted((k, i) for i, k in enumerate(keys))]

    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_trace_matches_multiset(self, seed):
        h, oracle = make(), MultisetPQ()
        rng = random.Random(seed)
        ident = 0
        for _ in range(20_000):
            if not len(oracle) or rng.random() < 0.55:
                k = rng.getrandbits(24)
                h.insert(ident, k)
                oracle.insert(ident, k)
                ident += 1
            else:
                assert h.delete_min() == oracle.delete_min()
        while len(oracle):
            assert h.delete_min() == oracle.delete_min()

    def test_monotone_output_between_inserts(self):
        h = make()
        rng = random.Random(9)
        for i in range(5000):
            h.insert(i, rng.getrandbits(20))
        last = -1
        for _ in range(2500):
            _, k = h.delete_min()
            assert k >= last
            last = k

    def test_invariants_hold_during_trace(self):
        h = make()
        rng = random.Random(13)
        oracle = MultisetPQ()
        ident = 0
        for step in range(4000):
            if not len(oracle) or rng.random() < 0.6:
                k = rng.getrandbits(16)
                h.insert(ident, k)
                oracle.insert(ident, k)
                ident += 1
            else:
                assert h.delete_min() == oracle.delete_min()
            if step % 97 == 0:
                h.check_invariants()

    def test_burst_cycles_reuse_links(self):
        # grow deep, drain to empty, regrow: leaf counters reset and links
        # must come back clean each cycle
        h, oracle = make(), MultisetPQ()
        rng = random.Random(0)
        ident = 0
        for cycle in range(6):
            for _ in range(rng.randrange(200, 3000)):
                k = rng.getrandbits(20)
                h.insert(ident, k)
                oracle.insert(ident, k)
                ident += 1
            drain = len(oracle) if cycle % 2 else len(oracle) // 2
            for _ in range(drain):
                assert h.delete_min() == oracle.delete_min()
            h.check_invariants()


def _ring_at(rpb, start, cap, head, count):
    """A ring over records start..start+cap-1 of a cold vector of 16-byte
    records, rpb to a block, whose record i is 100 + i."""
    vec = BlockVector(EmConfig(4 * rpb * 16, rpb * 16, 16))
    vec.extend(3 * rpb)
    vec.write_run2(0, [100 + i for i in range(3 * rpb)])
    vec.drop_cache()
    vec.reset_stats()
    ring = _Ring(start, cap, rpb)
    ring.head, ring.count = head, count
    return vec, ring


class TestHeadRun:
    """_Ring.head_run: the head's block and, from one clean touch of it, the
    records from the head on in ring order, clamped to n and the count, and
    for a ring over several blocks to its block's end and its region's end."""

    def read(self, vec, ring, n):
        got = ring.head_run(vec.touch, vec.config.records_per_block, n)
        # one clean touch, of the block returned: one cold read, not dirty
        assert vec.stats().block_reads == 1 and vec.peek_lru() == [(got[0], False)]
        return got

    def test_one_block_ring_reads_across_its_wrap(self):
        # slots 2..6 of block 0; ring positions 3, 4 then 0, 1 after the wrap
        vec, ring = _ring_at(8, 2, 5, 3, 4)
        assert ring.block == 0
        assert self.read(vec, ring, 10) == (0, [105, 106, 102, 103])

    def test_one_block_ring_clamped_to_n(self):
        vec, ring = _ring_at(8, 2, 5, 3, 4)
        assert self.read(vec, ring, 3) == (0, [105, 106, 102])
        vec, ring = _ring_at(8, 2, 5, 3, 4)
        assert self.read(vec, ring, 2) == (0, [105, 106])

    def test_multi_block_ring_stops_at_its_blocks_end(self):
        # slots 2..10 over blocks 0, 1 and 2 of 4 records each
        vec, ring = _ring_at(4, 2, 9, 1, 7)
        assert ring.block == -1
        assert self.read(vec, ring, 10) == (0, [103])
        vec, ring = _ring_at(4, 2, 9, 2, 7)
        assert self.read(vec, ring, 10) == (1, [104, 105, 106, 107])

    def test_multi_block_ring_stops_at_its_regions_end(self):
        # the head at slot 9; the region ends at slot 10, its block at 11,
        # and the ring's last two records wrap to slots 2 and 3
        vec, ring = _ring_at(4, 2, 9, 7, 4)
        assert self.read(vec, ring, 10) == (2, [109, 110])

    def test_multi_block_ring_clamped_to_n_and_count(self):
        vec, ring = _ring_at(4, 2, 9, 2, 7)
        assert self.read(vec, ring, 2) == (1, [104, 105])
        vec, ring = _ring_at(4, 2, 9, 2, 3)
        assert self.read(vec, ring, 10) == (1, [104, 105, 106])


def _counted_trace(seed, block, frames, ops=6000):
    """Pops, stats() and the LRU state (peek_lru) after each op of a seeded
    insert/delete_min trace, then stats() after a final drop_cache(). One
    seed in three draws keys from [0, 50), so many records tie."""
    h = FunnelHeap(cache_bytes=frames * block, block_bytes=block)
    rng = random.Random(seed)
    key = (lambda: rng.randrange(50)) if seed % 3 == 0 else (lambda: rng.getrandbits(24))
    log = []
    ident = 0
    for step in range(ops):
        # grow for the first half, shrink in the second, so links fill and drain
        if not len(h) or rng.random() < (0.6 if step < ops // 2 else 0.45):
            h.insert(ident, key())
            ident += 1
            log.append((None, h.vector.stats(), h.vector.peek_lru()))
        else:
            log.append((h.delete_min(), h.vector.stats(), h.vector.peek_lru()))
    h.vector.drop_cache()
    log.append((None, h.vector.stats()))
    return log


# blocks of 1024 and 4096 bytes (64 and 256 records) hold whole insertion
# buffers, A, B and merger rings, so windows run across wraps inside a block
WINDOW_GRID = [(block, frames) for block in (16, 32, 48, 64, 256) for frames in (1, 2, 3, 4, 5, 8)] + [
    (block, frames) for block in (1024, 4096) for frames in (3, 4, 8)
]


class TestWindowMerge:
    """_Merger.fill moves a block window at a time; it must count exactly
    like the per-record merge, oracles.reference_fill, and leave the same
    blocks resident in the same LRU order with the same dirty flags."""

    @pytest.mark.parametrize("block,frames", WINDOW_GRID)
    def test_counts_like_per_record_merge(self, block, frames, monkeypatch):
        seed = WINDOW_GRID.index((block, frames))
        with monkeypatch.context() as m:
            m.setattr(_Merger, "fill", reference_fill)
            want = _counted_trace(seed, block, frames)
        got = _counted_trace(seed, block, frames)
        bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
        assert bad is None, f"op {bad}: window merge {got[bad]}, per-record merge {want[bad]}"
        assert len(got) == len(want)

    def test_sssp_counts_like_per_record_merge(self, monkeypatch):
        # Dijkstra's insert/delete_min mix at M = 32 KB, B = 4 KB: 256 records
        # per block, so most rings lie in one block and windows cross wraps
        g = gen_gnp(GnpSpec(n=1 << 10, seed=5))

        def run():
            res = sssp_funnel(g, 7, pq_cache_bytes=32 * 1024, graph_cache_bytes=32 * 1024, block_bytes=4096)
            return res.dist, res.stats, res.heap_inserts, res.peak_heap_entries

        with monkeypatch.context() as m:
            m.setattr(_Merger, "fill", reference_fill)
            want = run()
        assert run() == want
