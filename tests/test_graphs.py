import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from copq.emcore import EmConfig, MB
from copq.graphs import (
    DimacsError,
    ExternalGraph,
    GnpSpec,
    Graph,
    SplitMix64,
    gen_gnp,
    load_csr,
    parse_dimacs,
    write_dimacs,
)

from oracles import gen_gnp_reference, is_symmetric_reference, reference_source_of_arc


@st.composite
def multigraphs(draw):
    """n <= 8 vertices with parallel arcs, self-loops and weights in [1, 3]:
    often mirrored, so symmetric, then perhaps given a few stray arcs; every
    vertex's arcs arrive in a scrambled order."""
    n = draw(st.integers(1, 8))
    arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3))
    arcs = draw(st.lists(arc, max_size=12))
    if draw(st.booleans()):
        arcs += [(v, u, w) for u, v, w in arcs]
    arcs += draw(st.lists(arc, max_size=2))
    return Graph.from_arcs(n, draw(st.permutations(arcs)))


class TestGnp:
    def test_p_one_single_edge(self):
        g = gen_gnp(GnpSpec(n=2, p=1.0, weight_max=1))
        assert g.vertex_count == 2
        assert sorted(zip(g.targets, g.weights)) == [(0, 1), (1, 1)]
        assert list(g.neighbors(0)) == [(1, 1)]
        assert list(g.neighbors(1)) == [(0, 1)]

    @pytest.mark.parametrize("field", ["n", "weight_max", "seed"])
    @pytest.mark.parametrize("value", [2.5, 8.0, "8", None])
    def test_non_integer_fields_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            GnpSpec(**{"n": 8, field: value})

    @pytest.mark.parametrize("value", ["0.5", [1], 0.5j, b"1"])
    def test_non_real_p_rejected_naming_p(self, value):
        with pytest.raises(ValueError, match="^p must be a real number"):
            GnpSpec(n=8, p=value)

    def test_real_p_stored_as_float(self):
        for value, want in ((1, 1.0), (True, 1.0), (Fraction(1, 4), 0.25)):
            spec = GnpSpec(n=8, p=value)
            assert type(spec.p) is float and spec.p == want

    def test_integer_like_fields_stored_as_ints(self):
        class Index:
            def __index__(self):
                return 6

        spec = GnpSpec(n=Index(), weight_max=True, seed=Index())
        assert (spec.n, spec.weight_max, spec.seed) == (6, 1, 6)
        assert all(type(f) is int for f in (spec.n, spec.weight_max, spec.seed))
        assert set(gen_gnp(spec).weights) <= {1}

    def test_p_zero_no_arcs(self):
        g = gen_gnp(GnpSpec(n=100, p=0.0))
        assert g.arc_count == 0

    def test_deterministic_per_seed(self):
        a = gen_gnp(GnpSpec(n=500, seed=42))
        b = gen_gnp(GnpSpec(n=500, seed=42))
        c = gen_gnp(GnpSpec(n=500, seed=43))
        assert a == b
        assert a != c

    def test_symmetry_and_no_self_loops(self):
        g = gen_gnp(GnpSpec(n=300, seed=7))
        assert g.is_symmetric()
        for u in range(g.vertex_count):
            for v, _ in g.neighbors(u):
                assert v != u

    def test_edge_count_within_three_sigma(self):
        # binomial: mean = C(n,2) p, var = C(n,2) p (1-p); averaged over seeds
        n, seeds = 10_000, 30
        p = 16.0 / (n - 1)
        pairs = n * (n - 1) / 2
        mean_edges = pairs * p
        sigma_one = math.sqrt(pairs * p * (1 - p))
        sigma_mean = sigma_one / math.sqrt(seeds)
        got = 0
        for s in range(seeds):
            g = gen_gnp(GnpSpec(n=n, seed=s))
            got += g.arc_count / 2
        got /= seeds
        assert abs(got - mean_edges) < 3 * sigma_mean

    def test_weights_in_range(self):
        g = gen_gnp(GnpSpec(n=200, weight_max=17, seed=3))
        assert g.weights
        assert all(1 <= w <= 17 for w in g.weights)

    # n = 4096 only at the sparse densities: p = 0.3 or 1.0 would mean 5 to
    # 17 million arcs there, far more than a unit test should build
    @pytest.mark.parametrize(
        "n,p",
        [(n, p) for n in (1, 2, 50) for p in (None, 0.0, 0.3, 1.0)] + [(4096, None), (4096, 0.0)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_csr_equals_triple_list_construction(self, n, p, seed):
        spec = GnpSpec(n=n, p=p, seed=seed)
        assert gen_gnp(spec) == gen_gnp_reference(GnpSpec(n=n, p=p, seed=seed))

    def test_arcs_share_one_int_per_vertex_and_weight(self):
        g = gen_gnp(GnpSpec(n=2000, weight_max=1000, seed=3))
        assert g.arc_count > 10 * 2000
        assert len({id(v) for v in g.targets}) == len(set(g.targets))
        assert len({id(w) for w in g.weights}) == len(set(g.weights))

    def test_splitmix_reference_values(self):
        # first outputs for seed 0 of the published splitmix64 constants
        r = SplitMix64(0)
        assert r.next() == 0xE220A8397B1DCDAF
        assert r.next() == 0x6E789E6AA1B965F4
        assert r.next() == 0x06C45D188009454F


class TestSymmetry:
    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_matches_the_brute_force_oracle(self, g):
        assert g.is_symmetric() == is_symmetric_reference(g)

    @pytest.mark.parametrize(
        "n,arcs,symmetric",
        [
            (3, [(0, 1, 2), (2, 0, 1), (0, 2, 1), (0, 1, 3), (1, 0, 3), (1, 0, 2), (1, 1, 5)], True),
            (2, [(0, 1, 4), (1, 0, 4), (0, 1, 4)], False),
            (2, [(0, 1, 4), (1, 0, 5)], False),
            # every in-degree equals its out-degree and every arc has a reverse,
            # but the cycle 0→1→2→0 runs twice and its reverse once
            (3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)] * 2 + [(0, 2, 1), (2, 1, 1), (1, 0, 1)], False),
            (3, [], True),
        ],
        ids=[
            "scrambled-parallel-and-loop",
            "u-to-v-twice-v-to-u-once",
            "unequal-weights",
            "balanced-degrees-unequal-multiplicity",
            "no-arcs",
        ],
    )
    def test_named_cases(self, n, arcs, symmetric):
        g = Graph.from_arcs(n, arcs)
        assert is_symmetric_reference(g) == symmetric
        assert g.is_symmetric() == symmetric

    @pytest.mark.parametrize("target", [2, 5, -1])
    def test_target_outside_the_vertices_has_no_reverse(self, target):
        assert not Graph([0, 1, 2], [1, target], [4, 4]).is_symmetric()

    @staticmethod
    def _reverse(g):
        # the graph is_symmetric compares with: each arc reversed, in CSR order
        n = g.vertex_count
        return Graph.from_arcs(n, [(v, u, w) for u in range(n) for v, w in g.neighbors(u)])

    def test_gnp_columns_equal_the_reverse_graphs(self):
        # the early out: both lists of each vertex run by ascending target
        g = gen_gnp(GnpSpec(n=200, seed=4))
        rev = self._reverse(g)
        assert (rev.targets, rev.weights) == (g.targets, g.weights)
        assert g.is_symmetric()

    def test_scrambled_symmetric_graph_is_symmetric(self):
        # per-vertex arc order differs from the reverse graph's, so the
        # columns differ and the per-vertex comparison decides
        g0 = gen_gnp(GnpSpec(n=60, seed=5))
        arcs = [(u, v, w) for u in range(g0.vertex_count) for v, w in g0.neighbors(u)]
        random.Random(5).shuffle(arcs)
        g = Graph.from_arcs(g0.vertex_count, arcs)
        assert self._reverse(g).targets != g.targets
        assert g.is_symmetric()

    @pytest.mark.parametrize("scrambled", [False, True], ids=["gnp-order", "scrambled"])
    def test_one_mismatched_weight_is_not_symmetric(self, scrambled):
        g0 = gen_gnp(GnpSpec(n=60, seed=6))
        arcs = [(u, v, w) for u in range(g0.vertex_count) for v, w in g0.neighbors(u)]
        if scrambled:
            random.Random(6).shuffle(arcs)
        u, v, w = arcs[17]
        arcs[17] = (u, v, w + 1)
        assert not Graph.from_arcs(g0.vertex_count, arcs).is_symmetric()


class TestFromArcs:
    def test_arrival_order_kept_per_vertex(self):
        g = Graph.from_arcs(3, [(2, 0, 1), (0, 2, 7), (2, 1, 3), (0, 1, 9), (2, 0, 2)])
        assert g == Graph([0, 2, 2, 5], [2, 1, 0, 1, 0], [7, 9, 1, 3, 2])

    @pytest.mark.parametrize("arc", [(-1, 0, 3), (2, 0, 3), (0, -1, 3), (0, 2, 3)])
    def test_endpoint_outside_the_vertex_range_raises_value_error(self, arc):
        with pytest.raises(ValueError, match="outside \\[0, 2\\)"):
            Graph.from_arcs(2, [(0, 1, 1), arc])

    @pytest.mark.parametrize("arcs,bad", [([(0, 1, 3), (0, 1)], 1), ([(0, 1, 3, 4)], 0), ([(0, 1)], 0)])
    def test_arc_that_is_not_a_triple_names_its_index(self, arcs, bad):
        with pytest.raises(ValueError, match=f"^arc {bad} is .*not a \\(source, target, weight\\) triple"):
            Graph.from_arcs(2, arcs)


class TestDimacs:
    def test_parse_basic(self):
        g = parse_dimacs("c tiny\np sp 2 2\na 1 2 7\na 2 1 7\n")
        assert g.vertex_count == 2
        assert list(g.neighbors(0)) == [(1, 7)]
        assert list(g.neighbors(1)) == [(0, 7)]

    def test_id_out_of_range_with_line_number(self):
        with pytest.raises(DimacsError) as e:
            parse_dimacs("p sp 2 2\na 3 1 5\na 1 2 5\n")
        assert "line 2" in str(e.value)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("a 1 2 3\np sp 2 1\n", "before problem line"),
            ("p sp 2 1\np sp 2 1\na 1 2 3\n", "duplicate problem"),
            ("p sp 2 1\na 1 2 0\n", "non-positive weight"),
            ("p sp 2 1\na 1 2 18446744073709551616\n", "weight 18446744073709551616 does not fit 64 bits"),
            ("p sp 2 1\na 1 2\n", "malformed arc"),
            ("p sp 2 1\nq 1 2 3\n", "unrecognized"),
            ("p sp 2 2\na 1 2 3\n", "promised 2 arcs"),
            ("p sp x 1\na 1 2 3\n", "non-integer"),
            ("", "missing problem line"),
        ],
    )
    def test_malformed_inputs_diagnosed(self, text, fragment):
        with pytest.raises(DimacsError) as e:
            parse_dimacs(text)
        assert fragment in str(e.value)
        assert "line" in str(e.value)

    def test_largest_64_bit_weight_accepted(self):
        assert parse_dimacs("p sp 2 1\na 1 2 18446744073709551615\n").weights == [(1 << 64) - 1]

    def test_write_empty_graph(self):
        g = Graph([0, 0, 0, 0], [], [])
        assert write_dimacs(g) == "p sp 3 0\n"

    def test_write_single_edge(self):
        g = gen_gnp(GnpSpec(n=2, p=1.0, weight_max=1))
        text = write_dimacs(g)
        assert text.splitlines() == ["p sp 2 2", "a 1 2 1", "a 2 1 1"]

    def test_roundtrip_identity(self):
        g = gen_gnp(GnpSpec(n=150, seed=5))
        g2 = parse_dimacs(write_dimacs(g))
        assert g2 == g

    def test_roundtrip_via_lines_iterable(self):
        g = gen_gnp(GnpSpec(n=40, seed=1))
        lines = write_dimacs(g).splitlines(keepends=True)
        assert parse_dimacs(iter(lines)) == g

    def test_equal_weights_share_one_int(self):
        g = parse_dimacs("p sp 3 3\na 1 2 100000\na 2 3 100000\na 3 1 100001\n")
        assert g.weights == [100000, 100000, 100001]
        assert g.weights[0] is g.weights[1]

    def test_arcs_naming_one_vertex_share_one_int(self):
        # ids above 257: CPython caches the ints up to 256 whatever the parser does
        g = parse_dimacs("p sp 1000 4\na 1 900 5\na 2 900 7\na 900 1 3\na 3 1000 4\n")
        assert g.targets == [899, 899, 999, 0]  # the arcs of vertices 0, 1, 2, 899
        assert g.targets[0] is g.targets[1]
        assert len({id(v) for v in g.targets}) == 3

    def test_arcs_out_of_vertex_order_parse_like_from_arcs(self):
        arcs = [(3, 0, 5), (0, 1, 2), (3, 2, 9), (1, 0, 2), (0, 3, 5), (2, 3, 9), (0, 1, 7), (3, 0, 4)]
        text = f"p sp 4 {len(arcs)}\n" + "".join(f"a {u + 1} {v + 1} {w}\n" for u, v, w in arcs)
        g = parse_dimacs(text)
        assert g == Graph.from_arcs(4, arcs)
        assert list(g.neighbors(3)) == [(0, 5), (2, 9), (0, 4)]

    def test_parallel_arcs_tolerated(self):
        g = parse_dimacs("p sp 2 4\na 1 2 7\na 1 2 9\na 2 1 7\na 2 1 9\n")
        assert g.arc_count == 4


class TestExternalGraph:
    def test_single_vertex_offsets(self):
        eg = load_csr(Graph([0, 0], [], []))
        assert eg.vertex_count == 1
        assert eg.arc_range(0) == (0, 0)

    def test_adjacency_matches_in_memory(self):
        g = gen_gnp(GnpSpec(n=120, seed=9))
        eg = load_csr(g)
        for v in range(g.vertex_count):
            assert eg.arcs(*eg.arc_range(v)) == [t << 64 | w for t, w in g.neighbors(v)]

    def test_cold_arc_scan_read_count(self):
        g = gen_gnp(GnpSpec(n=400, seed=11))
        cfg = EmConfig(1 * MB, 4096, 16)
        eg = ExternalGraph(g, cfg)
        eg.vector.drop_cache()
        eg.vector.reset_stats()
        base = g.vertex_count + 1
        assert len(eg.arcs(0, g.arc_count)) == g.arc_count
        rpb = cfg.records_per_block
        first_block = base // rpb
        last_block = (base + g.arc_count - 1) // rpb
        assert eg.vector.stats().block_reads == last_block - first_block + 1

    def test_arcs_count_like_per_record_reads(self):
        # every neighbourhood in ascending, then in scrambled order, through a
        # 3-block cache: the scan faults and evicts, and its counts depend on
        # the order in which each run's blocks are touched
        g = gen_gnp(GnpSpec(n=300, seed=5))
        n = g.vertex_count
        order = list(range(n)) + random.Random(5).sample(range(n), n)
        run_eg, rec_eg = (ExternalGraph(g, EmConfig(3 * 256, 256, 16)) for _ in range(2))
        base = n + 1
        for v in order:
            lo, hi = run_eg.arc_range(v)
            assert run_eg.arcs(lo, hi) == [rec_eg.vector.get2(base + a) for a in range(*rec_eg.arc_range(v))]
        assert rec_eg.vector.stats().evictions > 0
        assert run_eg.vector.stats() == rec_eg.vector.stats()

    @pytest.mark.parametrize("targets,weights", [([1 << 64], [5]), ([1], [1 << 64]), ([1], [-1])])
    def test_record_overflow_raises_value_error(self, targets, weights):
        with pytest.raises(ValueError, match="2\\^64"):
            load_csr(Graph([0, 1, 1], targets, weights))

    @pytest.mark.parametrize(
        "offsets,targets,weights,fragment",
        [
            ([0, 1], [5], [1], "not below the vertex count 1"),
            ([0, 2, 1], [1, 0], [1, 1], "never decrease"),
            ([1, 1, 1], [0], [1], "start at 0"),
            ([0, 1, 1], [1, 0], [1, 1], "end at len\\(targets\\)"),
            ([0, 2, 2], [1], [1], "end at len\\(targets\\)"),
            ([], [], [], "start at 0"),
            ([0, 2, 2], [1, 1], [1], "1 weights for 2 targets"),
            ([0, 1, 1], [1], [1, 1], "2 weights for 1 targets"),
        ],
        ids=[
            "target-not-below-V",
            "offsets-decrease",
            "offsets-start-above-0",
            "offsets-end-short",
            "offsets-end-long",
            "no-offsets",
            "weights-short",
            "weights-long",
        ],
    )
    def test_malformed_structure_raises_value_error(self, offsets, targets, weights, fragment):
        with pytest.raises(ValueError, match=fragment):
            load_csr(Graph(offsets, targets, weights))

    @pytest.mark.parametrize(
        "offsets,targets,weights",
        [
            ([0, 1, 1], [1], [2.5]),
            ([0, 1, 1], [1], [3.0]),
            ([0, 1, 1], [1], [True]),
            ([0, 1, 1], ["1"], [5]),
            ([0, 1, 1], [None], [5]),
            ([0, 1.0, 1], [1], [5]),
        ],
    )
    def test_non_integer_values_raise_value_error(self, offsets, targets, weights):
        with pytest.raises(ValueError, match="2\\^64"):
            load_csr(Graph(offsets, targets, weights))

    def test_source_of_arc(self):
        g = gen_gnp(GnpSpec(n=64, seed=2))
        eg = load_csr(g)
        for u in range(g.vertex_count):
            for a in range(g.offsets[u], g.offsets[u + 1]):
                assert eg.source_of_arc(a) == u

    @pytest.mark.parametrize("block,frames", [(b, f) for b in (32, 64, 256) for f in (1, 2, 4)])
    @pytest.mark.parametrize("shape", ["inner-gaps", "empty-ends"])
    def test_source_of_arc_counts_like_one_get2_per_probe(self, block, frames, shape, monkeypatch):
        # 40 vertices, so the 41 offsets span 21, 11 and 3 blocks: probes
        # cross blocks before the search settles in one. Vertices 1, 4, 7, ...
        # have no arcs (repeated offsets); "empty-ends" also leaves the first
        # and the last vertex without arcs.
        rng = random.Random(block + frames)
        n = 40
        sources = [u for u in range(n) if u % 3 != 1 and (shape == "inner-gaps" or 0 < u < n - 1)]
        arcs = [(u, rng.randrange(n), rng.randint(1, 9)) for u in sources for _ in range(rng.randint(1, 4))]
        g = Graph.from_arcs(n, arcs)
        order = list(range(g.arc_count))
        rng.shuffle(order)
        order = [0, g.arc_count - 1, *order, g.arc_count - 1, 0]
        config = EmConfig(frames * block, block, 16)

        def trace():
            eg = load_csr(g, config)
            eg.vector.drop_cache()
            log = []
            for a in order:
                log.append((eg.source_of_arc(a), eg.vector.stats(), eg.vector.peek_lru()))
            return log

        with monkeypatch.context() as m:
            m.setattr(ExternalGraph, "source_of_arc", reference_source_of_arc)
            want = trace()
        got = trace()
        owner = [u for u in range(n) for _ in range(g.offsets[u], g.offsets[u + 1])]
        assert [u for u, _, _ in want] == [owner[a] for a in order]
        bad = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), None)
        assert bad is None, f"call {bad} (arc {order[bad]}): bisect {got[bad]}, get2 per probe {want[bad]}"
