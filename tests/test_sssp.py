import random
import time
from pathlib import Path

import pytest

from copq import sssp
from copq.emcore import MB
from copq.funnel_heap import FunnelHeap
from copq.graphs import GnpSpec, Graph, gen_gnp, load_csr, parse_dimacs
from copq.sssp import BenchTimeout, sssp_binary, sssp_bucket, sssp_funnel, sssp_reference

from oracles import bellman_ford

VARIANTS = list(sssp.SSSP.items())


def undirected(n, edges):
    arcs = []
    for u, v, w in edges:
        arcs.append((u, v, w))
        arcs.append((v, u, w))
    return Graph.from_arcs(n, arcs)


def path_graph(n, w=1):
    return undirected(n, [(i, i + 1, w) for i in range(n - 1)])


def cycle_graph(n, w=1):
    return undirected(n, [(i, (i + 1) % n, w) for i in range(n)])


def star_graph(n):
    return undirected(n, [(0, i, i) for i in range(1, n)])


def complete_graph(n, w=1):
    return undirected(n, [(u, v, w) for u in range(n) for v in range(u + 1, n)])


def disconnected_graph():
    return undirected(7, [(0, 1, 2), (1, 2, 2), (4, 5, 1), (5, 6, 3)])


def random_undirected(n, rng, extra_density=2.0):
    edges = set()
    m = int(n * extra_density)
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return undirected(n, [(u, v, rng.randint(1, 50)) for u, v in edges])


class TestReference:
    def test_single_arc(self):
        g = Graph.from_arcs(2, [(0, 1, 7)])  # directed is fine for the reference
        assert sssp_reference(g, 0).dist == [0, 7]

    def test_disconnected_unreachable(self):
        g = disconnected_graph()
        res = sssp_reference(g, 0)
        assert res.dist == [0, 2, 4, None, None, None, None]

    def test_against_bellman_ford_100_random_graphs(self):
        rng = random.Random(0)
        for trial in range(100):
            g = random_undirected(200, rng)
            s = rng.randrange(200)
            assert sssp_reference(g, s).dist == bellman_ford(g, s)


class TestBinaryVariant:
    def test_path(self):
        res = sssp_binary(path_graph(3), 0, pq_cache_bytes=1 * MB)
        assert res.dist == [0, 1, 2]

    def test_triangle_forces_decrease_key(self):
        g = undirected(3, [(0, 1, 1), (0, 2, 5), (1, 2, 1)])
        res = sssp_binary(g, 0, pq_cache_bytes=1 * MB)
        assert res.dist == [0, 1, 2]

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            sssp_binary(path_graph(3), 5)

    def test_peak_bounded_by_v(self):
        g = gen_gnp(GnpSpec(n=256, seed=1))
        res = sssp_binary(g, 0, pq_cache_bytes=1 * MB)
        assert res.peak_heap_entries <= g.vertex_count


class TestFunnelVariant:
    def test_path_with_duplicates_discarded(self):
        res = sssp_funnel(path_graph(3), 0, pq_cache_bytes=1 * MB)
        assert res.dist == [0, 1, 2]

    def test_complete_k4(self):
        g = complete_graph(4)
        res = sssp_funnel(g, 0, pq_cache_bytes=1 * MB)
        assert res.dist == [0, 1, 1, 1]
        assert res.heap_inserts <= g.arc_count + 1

    def test_insert_bound_and_peak(self):
        g = gen_gnp(GnpSpec(n=512, seed=3))
        res = sssp_funnel(g, 0, pq_cache_bytes=1 * MB)
        assert res.heap_inserts <= g.arc_count + 1
        assert res.peak_heap_entries <= g.arc_count + 1

    def test_peak_matches_a_per_insert_tracker(self, monkeypatch):
        # the peak is taken once per settled vertex; the heap only grows while
        # its arcs relax, so that is the peak over the sizes after every insert
        sizes = []

        class Tracked(FunnelHeap):
            def insert(self, ident, key):
                super().insert(ident, key)
                sizes.append(len(self))

        monkeypatch.setattr(sssp, "FunnelHeap", Tracked)
        g = parse_dimacs((Path(__file__).parent / "data" / "sample_10k.gr").read_text(encoding="ascii"))
        res = sssp_funnel(g, 0, pq_cache_bytes=64 * 1024)
        assert res.dist == sssp_reference(g, 0).dist
        assert res.heap_inserts == len(sizes)
        assert res.peak_heap_entries == max(sizes)

    def test_cut_run_counts_its_inserts(self, monkeypatch):
        # a run cut by its deadline still holds inserts it never popped
        calls = []

        class Tracked(FunnelHeap):
            def insert(self, ident, key):
                super().insert(ident, key)
                calls.append(ident)

        monkeypatch.setattr(sssp, "FunnelHeap", Tracked)
        with pytest.raises(BenchTimeout) as cut:
            sssp_funnel(gen_gnp(GnpSpec(n=4096, seed=2)), 0, deadline=time.monotonic())
        assert cut.value.partial.heap_inserts == len(calls)


class TestBucketVariant:
    def test_path_no_spurious_settle(self):
        res = sssp_bucket(path_graph(3), 0, pq_cache_bytes=1 * MB)
        assert res.dist == [0, 1, 2]
        assert sorted(res.settled_order) == [0, 1, 2]
        assert len(set(res.settled_order)) == 3

    def test_triangle_guard_kills_spurious(self):
        # settling b re-updates the already-settled a with key 4; the guard
        # entry (a, 1+2=3) deletes it before it can surface
        g = undirected(3, [(0, 1, 1), (0, 2, 2), (1, 2, 2)])
        res = sssp_bucket(g, 0, pq_cache_bytes=1 * MB)
        assert res.dist == [0, 1, 2]
        assert len(res.settled_order) == len(set(res.settled_order)) == 3
        assert res.guard_deletes > 0

    def test_directed_input_rejected(self):
        g = Graph.from_arcs(2, [(0, 1, 7)])
        with pytest.raises(ValueError):
            sssp_bucket(g, 0)

    def test_no_bit_vector_effect_on_unreachable(self):
        res = sssp_bucket(disconnected_graph(), 4, pq_cache_bytes=1 * MB)
        assert res.dist == [None, None, None, None, 0, 1, 4]


class TestStructuredSuiteAllVariants:
    @pytest.mark.parametrize("name,fn", VARIANTS)
    def test_structured_graphs(self, name, fn):
        cases = [
            (path_graph(17), 0),
            (path_graph(17, w=3), 16),
            (cycle_graph(12), 5),
            (star_graph(20), 0),
            (star_graph(20), 7),
            (complete_graph(24, w=2), 3),
            (disconnected_graph(), 0),
            (disconnected_graph(), 4),
        ]
        for g, s in cases:
            want = sssp_reference(g, s).dist
            got = fn(g, s, pq_cache_bytes=1 * MB).dist
            assert got == want, f"{name} wrong on structured graph V={g.vertex_count} s={s}"

    @pytest.mark.parametrize("name,fn", VARIANTS)
    def test_random_gnp_small_sweep(self, name, fn):
        for n in (64, 128, 256):
            for seed in range(4):
                g = gen_gnp(GnpSpec(n=n, seed=seed, weight_max=100))
                eg = load_csr(g)
                s = (seed * 31) % n
                want = sssp_reference(g, s).dist
                got = fn(eg, s, pq_cache_bytes=1 * MB).dist
                assert got == want, f"{name} wrong on G({n}) seed={seed}"

    def test_settled_order_unique_bucket_random(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_undirected(100, rng)
            res = sssp_bucket(g, rng.randrange(100), pq_cache_bytes=1 * MB)
            assert len(res.settled_order) == len(set(res.settled_order))


class TestTieStress:
    @pytest.mark.parametrize("name,fn", VARIANTS)
    def test_unit_weights_maximal_ties(self, name, fn):
        # unit weights make whole frontier layers share one key, the hardest
        # case for the bucket variant's equal-key guard handling
        for n in (32, 64, 128, 256):
            for seed in range(4):
                g = gen_gnp(GnpSpec(n=n, seed=seed, weight_max=1))
                s = seed % n
                want = sssp_reference(g, s).dist
                res = fn(g, s, pq_cache_bytes=1 * MB)
                assert res.dist == want, f"{name} unit-weight n={n} seed={seed}"
                assert len(res.settled_order) == len(set(res.settled_order))

    @pytest.mark.parametrize("name,fn", VARIANTS)
    def test_two_weights_near_ties(self, name, fn):
        for seed in range(4):
            g = gen_gnp(GnpSpec(n=256, seed=100 + seed, weight_max=2))
            s = (seed * 13) % 256
            want = sssp_reference(g, s).dist
            assert fn(g, s, pq_cache_bytes=1 * MB).dist == want, f"{name} w<=2 seed={seed}"


class TestStatsSeparation:
    def test_graph_and_pq_counters_are_separate(self):
        g = gen_gnp(GnpSpec(n=512, seed=2))
        eg = load_csr(g)
        eg.vector.drop_cache()  # cold graph cache: the run must fault it back in
        res = sssp_funnel(eg, 0, pq_cache_bytes=1 * MB)
        assert res.stats["graph"].block_reads > 0
        assert res.stats["graph"].block_writes == 0  # the run never writes the graph
        assert res.stats["pq"].block_reads >= 0
        assert res.stats["pq"] is not res.stats["graph"]


@pytest.mark.parametrize("name,fn", VARIANTS, ids=[v[0] for v in VARIANTS])
def test_deadline_stops_a_run_after_1024_settled_vertices(name, fn):
    g = gen_gnp(GnpSpec(n=4096, seed=2))
    with pytest.raises(BenchTimeout) as cut:
        fn(load_csr(g), 0, deadline=time.monotonic())
    part, want = cut.value.partial, sssp_reference(g, 0)
    assert len(part.settled_order) == 1024
    assert [v for v, d in enumerate(part.dist) if d is not None] == sorted(part.settled_order)
    assert all(part.dist[v] == want.dist[v] for v in part.settled_order)
    assert part.stats["pq"].block_reads > 0


@pytest.mark.parametrize("name,fn", VARIANTS, ids=[v[0] for v in VARIANTS])
@pytest.mark.parametrize(
    "g", [Graph([0, 0], [], []), Graph([0, 0, 1, 2], [2, 1], [5, 5])], ids=["one vertex", "source without arcs"]
)
def test_peak_counts_the_source_entry(name, fn, g):
    # the heap held the source before it was settled, though no arc relaxed
    res = fn(g, 0, pq_cache_bytes=1 * MB)
    assert res.dist[0] == 0
    assert res.peak_heap_entries == 1
