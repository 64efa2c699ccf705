"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 2's full
20-seeds-at-every-size matrix is expensive at the two largest sizes in
pure CPython; set COPQ_ACCEPT_FULL=1 to run it in full (the default keeps
every size covered with the seed budget shifted toward the cheap sizes).
"""

import heapq
import os
import random
import time

import pytest

from copq.bench import HEAPS, io_stats, pq_workload
from copq.binary_heap import BinaryHeap
from copq.bucket_heap import BucketHeap
from copq.emcore import BlockVector, EmConfig, MB
from copq.funnel_heap import FunnelHeap
from copq.graphs import DimacsError, GnpSpec, SplitMix64, gen_gnp, load_csr, parse_dimacs, write_dimacs
from copq.sssp import sssp_binary, sssp_bucket, sssp_funnel, sssp_reference

from oracles import MinMapPQ, RefLru, bellman_ford

FULL = os.environ.get("COPQ_ACCEPT_FULL") == "1"


def report(num, ok, detail, t0):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail} ({time.perf_counter() - t0:.1f}s)"
    print("\n" + line)
    assert ok, line


# -- 1. heap oracle equivalence ---------------------------------------------------


def _multiset_trace(heap, nops, seed, p_insert):
    rng = SplitMix64(seed)
    oracle = []
    ident = 0
    live = 0
    for _ in range(nops):
        if live == 0 or rng.random() < p_insert:
            k = rng.next() >> 40
            heap.insert(ident, k)
            heapq.heappush(oracle, (k, ident))
            ident += 1
            live += 1
        else:
            want = heapq.heappop(oracle)
            if heap.delete_min() != (want[1], want[0]):
                return False
            live -= 1
    while oracle:
        want = heapq.heappop(oracle)
        if heap.delete_min() != (want[1], want[0]):
            return False
    return True


def _minmap_trace(heap, nops, seed, p_update):
    rng = SplitMix64(seed)
    oracle = MinMapPQ()
    for _ in range(nops):
        r = rng.random()
        if r < p_update:
            i, k = rng.next() % 3000, rng.next() >> 40
            heap.update(i, k)
            oracle.update(i, k)
        elif r < p_update + 0.1:
            i = rng.next() % 3000
            heap.delete(i)
            oracle.delete(i)
        else:
            want = oracle.find_min()
            if want is None:
                if heap.find_min() is not None:
                    return False
            else:
                oracle.delete_min()
                if heap.delete_min() != want:
                    return False
    while len(oracle):
        if heap.delete_min() != oracle.delete_min():
            return False
    return heap.find_min() is None


def _trace_mix(seed):
    # most traces random-walk around empty (boundary heavy), the rest grow deep
    if seed < 40:
        return 0.5
    return 0.55 if seed < 45 else 0.6


def test_criterion_1_heap_oracle_equivalence():
    t0 = time.perf_counter()
    traces, nops = 50, 100_000
    for seed in range(traces):
        p = _trace_mix(seed)
        assert _multiset_trace(BinaryHeap(cache_bytes=1 * MB), nops, seed, p), f"binary seed {seed}"
        assert _multiset_trace(FunnelHeap(cache_bytes=1 * MB), nops, seed, p), f"funnel seed {seed}"
        assert _minmap_trace(BucketHeap(cache_bytes=1 * MB), nops, seed, p), f"bucket seed {seed}"
    report(1, True, f"3 heaps x {traces} traces x {nops} ops match their oracles exactly", t0)


# -- 2. SSSP exactness ---------------------------------------------------------------


def _structured_cases():
    def undirected(n, edges):
        arcs = []
        for u, v, w in edges:
            arcs.append((u, v, w))
            arcs.append((v, u, w))
        from copq.graphs import Graph

        return Graph.from_arcs(n, arcs)

    path = undirected(16, [(i, i + 1, 1 + (i % 3)) for i in range(15)])
    cycle = undirected(12, [(i, (i + 1) % 12, 2) for i in range(12)])
    star = undirected(20, [(0, i, i) for i in range(1, 20)])
    complete = undirected(16, [(u, v, 1 + ((u * v) % 5)) for u in range(16) for v in range(u + 1, 16)])
    disconnected = undirected(9, [(0, 1, 3), (1, 2, 4), (5, 6, 1), (6, 7, 2)])
    return [(path, 0), (cycle, 7), (star, 0), (star, 3), (complete, 5), (disconnected, 0), (disconnected, 5)]


def test_criterion_2_sssp_exactness():
    t0 = time.perf_counter()
    # reference itself is cross-checked against an independent relaxation oracle
    rng = random.Random(0)
    for _ in range(100):
        n = 200
        arcs = []
        for _ in range(2 * n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                w = rng.randint(1, 40)
                arcs.append((u, v, w))
                arcs.append((v, u, w))
        from copq.graphs import Graph

        g = Graph.from_arcs(n, arcs)
        s = rng.randrange(n)
        assert sssp_reference(g, s).dist == bellman_ford(g, s)

    variants = [("binary", sssp_binary), ("funnel", sssp_funnel), ("bucket", sssp_bucket)]
    for g, s in _structured_cases():
        want = sssp_reference(g, s).dist
        for name, fn in variants:
            assert fn(g, s, pq_cache_bytes=1 * MB).dist == want, f"{name} structured V={g.vertex_count}"

    if FULL:
        seeds_for = {n: 20 for n in (64, 128, 256, 512, 1024, 2048, 4096, 8192)}
    else:
        seeds_for = {64: 20, 128: 20, 256: 20, 512: 20, 1024: 20, 2048: 20, 4096: 4, 8192: 2}
    runs = 0
    for n, seeds in seeds_for.items():
        for seed in range(seeds):
            g = gen_gnp(GnpSpec(n=n, seed=seed))
            s = SplitMix64(seed * 7 + n).next() % n
            want = sssp_reference(g, s).dist
            for name, fn in variants:
                eg = load_csr(g)
                got = fn(eg, s, pq_cache_bytes=4 * MB).dist
                assert got == want, f"{name} G({n}) seed={seed} source={s}"
            runs += 1
    report(2, True, f"3 variants exact on structured suite + {runs} G(n,p) instances (n in 2^6..2^13)", t0)


# -- 3. simulator exactness ------------------------------------------------------------


def test_criterion_3_lru_exactness():
    t0 = time.perf_counter()
    configs = [(4, 4096, 16), (16, 4096, 16), (64, 4096, 16), (8, 512, 16), (32, 4096, 8)]
    for frames, block, rec in configs:
        cfg = EmConfig(frames * block, block, rec)
        v = BlockVector(cfg)
        ref = RefLru(frames)
        rng = SplitMix64(frames * 31 + block)
        nrec = frames * cfg.records_per_block * 6
        v.extend(nrec)
        payload = b"\xa5" * rec
        rpb = cfg.records_per_block
        for _ in range(1_000_000):
            i = rng.next() % nrec
            write = rng.next() & 1
            if write:
                v.set(i, payload)
            else:
                v.get(i)
            ref.access(i // rpb, bool(write))
        s = v.stats()
        assert (s.block_reads, s.evictions, s.block_writes) == (
            ref.faults,
            ref.evictions,
            ref.evict_writes,
        ), f"LRU divergence at frames={frames} B={block} rec={rec}"
    # cold sequential scan: 2^20 16-byte records at B=4096 -> exactly 4096 reads
    v = BlockVector(EmConfig(16 * MB, 4096, 16))
    v.extend(1 << 20)
    for i in range(0, 1 << 20, 509):
        v.set2(i, i, 1)
    v.drop_cache()
    v.reset_stats()
    for i in range(1 << 20):
        v.get2(i)
    assert v.stats().block_reads == 4096
    report(3, True, "faults equal reference LRU on 5x10^6 accesses; cold scan = 4096 reads exactly", t0)


# -- 4/5. transfer-count regimes -----------------------------------------------------------


def _workload_transfers(structure, n, cache_bytes, block_bytes=4096, seed=3):
    heap = HEAPS[structure](cache_bytes, block_bytes)
    pq_workload(heap, n, seed=seed)
    return io_stats(heap).transfers


def test_criterion_4_swapping_regime_ordering():
    t0 = time.perf_counter()
    n = 1 << 18
    ops = 3 * n
    per_op = {s: _workload_transfers(s, n, 64 * 1024) / ops for s in ("funnel", "bucket", "binary")}
    ok = per_op["funnel"] < per_op["bucket"] < per_op["binary"] and per_op["binary"] >= 4 * per_op["funnel"]
    report(
        4,
        ok,
        "per-op transfers at M=64KB, N=2^18: funnel {funnel:.4f} < bucket {bucket:.4f} < binary {binary:.4f}"
        " (binary/funnel = {r:.0f}x >= 4x)".format(r=per_op["binary"] / per_op["funnel"], **per_op),
        t0,
    )


def test_criterion_5_in_cache_regime():
    t0 = time.perf_counter()
    n = 1 << 16
    total = {s: _workload_transfers(s, n, 16 * MB) for s in ("funnel", "bucket", "binary")}
    ok = total["binary"] <= total["funnel"] and total["binary"] <= total["bucket"]
    report(
        5,
        ok,
        "total transfers at M=16MB, N=2^16: binary {binary} <= funnel {funnel} and <= bucket {bucket}".format(
            **total
        ),
        t0,
    )


# -- 6. O(E)-elements effect ------------------------------------------------------------------


def test_criterion_6_funnel_holds_order_e_entries():
    t0 = time.perf_counter()
    n = 1 << 12
    for seed in range(10):
        g = gen_gnp(GnpSpec(n=n, seed=seed))
        s = seed % n
        f = sssp_funnel(load_csr(g), s, pq_cache_bytes=2 * MB)
        b = sssp_binary(load_csr(g), s, pq_cache_bytes=2 * MB)
        assert f.peak_heap_entries > 2 * n, f"funnel peak {f.peak_heap_entries} <= 2V seed={seed}"
        assert b.peak_heap_entries <= n, f"binary peak {b.peak_heap_entries} > V seed={seed}"
    report(6, True, f"on G(2^12): funnel peak > 2V while binary peak <= V, all 10 seeds", t0)


# -- 7. memory-sweep direction ------------------------------------------------------------------


def test_criterion_7_memory_sweep_direction():
    t0 = time.perf_counter()
    n = 1 << 18
    funnel_small = _workload_transfers("funnel", n, 256 * 1024, seed=2)
    bucket_large = _workload_transfers("bucket", n, 16 * MB, seed=2)
    ok = funnel_small < bucket_large
    report(
        7,
        ok,
        f"funnel total transfers at M=256KB ({funnel_small}) < bucket at M=16MB ({bucket_large})"
        " -- KNOWN-RED: the bucket heap is fully cache-resident at 16MB for N=2^18"
        " (~11MB structure), so its transfer count is just its compulsory cold faults;"
        " the published direction holds for wall-clock, not for transfer counts, once one"
        " side stops swapping. The equal-memory transfer direction is covered by"
        " test_supplementary_equal_memory_direction.",
        t0,
    )


def test_supplementary_equal_memory_direction():
    # the transfer-space analog of the sweep claim that is measurable: at the
    # same small memory, the funnel heap moves fewer blocks than the bucket heap
    t0 = time.perf_counter()
    n = 1 << 18
    funnel = _workload_transfers("funnel", n, 256 * 1024, seed=2)
    bucket = _workload_transfers("bucket", n, 256 * 1024, seed=2)
    ok = funnel < bucket
    print(f"\n[supplementary] funnel@256KB {funnel} < bucket@256KB {bucket}: {ok} ({time.perf_counter()-t0:.1f}s)")
    assert ok


# -- 8. guarded-deletion integrity ------------------------------------------------------------------


def test_criterion_8_guarded_dijkstra_integrity():
    t0 = time.perf_counter()
    rng = random.Random(99)
    total_deletes = 0
    instances_with_kills = 0
    observed_spurious_kills = 0
    for trial in range(500):
        n = rng.randrange(8, 193) if trial % 25 else rng.randrange(256, 1025)
        g = gen_gnp(GnpSpec(n=n, seed=10_000 + trial, weight_max=30))
        s = rng.randrange(n)
        res = sssp_bucket(g, s, pq_cache_bytes=1 * MB)
        assert len(res.settled_order) == len(set(res.settled_order)), f"double settle, trial {trial}"
        assert res.dist == sssp_reference(g, s).dist, f"distance mismatch, trial {trial}"
        total_deletes += res.guard_deletes
        instances_with_kills += res.guard_deletes > 0
        observed_spurious_kills += res.spurious_kills
    assert instances_with_kills >= 1
    assert observed_spurious_kills >= 1, "no spurious minimum was ever observed to die to a guard"
    report(
        8,
        True,
        f"500 graphs (V<=2^10): no vertex settled twice; {total_deletes} guard deletions issued, "
        f"{observed_spurious_kills} candidate minima observed killed by guards",
        t0,
    )


# -- 9. DIMACS round-trip ------------------------------------------------------------------


def test_criterion_9_dimacs_round_trip():
    t0 = time.perf_counter()
    here = os.path.dirname(__file__)
    with open(os.path.join(here, "data", "sample_10k.gr"), encoding="ascii") as fh:
        text = fh.read()
    g1 = parse_dimacs(text)
    assert g1.arc_count >= 10_000
    g2 = parse_dimacs(write_dimacs(g1))
    assert g1 == g2
    malformed = [
        "a 1 2 3\np sp 2 1\n",  # arc before problem line
        "p sp 2 1\np sp 2 1\na 1 2 3\n",  # duplicate problem line
        "p sp 2 2\na 3 1 5\na 1 2 5\n",  # id out of range
        "p sp 2 1\na 1 2 0\n",  # non-positive weight
        "p sp 2 1\na 1 2\n",  # malformed token count
        "p sp 2 2\na 1 2 3\n",  # arc count mismatch
    ]
    for text in malformed:
        with pytest.raises(DimacsError) as e:
            parse_dimacs(text)
        assert "line" in str(e.value)
    report(9, True, f"parse-write-parse identity on {g1.arc_count}-arc sample; 6 malformed inputs diagnosed", t0)
