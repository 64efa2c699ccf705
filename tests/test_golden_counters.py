"""Golden transfer counters: exact (block_reads, block_writes, evictions) for a
fixed grid of priority-queue and Dijkstra runs, pinned in
``data/golden_counters.json``.

A change that only restructures the code or speeds up the host must leave
every row unchanged. A change that moves a row is a behaviour change: it says
so, and re-records the file with ``python tests/test_golden_counters.py``.
"""

import json
import os

import pytest

from copq.bench import HEAPS, io_stats, pq_workload
from copq.emcore import MB
from copq.graphs import GnpSpec, gen_gnp, parse_dimacs
from copq.sssp import SSSP

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden_counters.json")
KB = 1024
SEED = 1

# the 4-phase workload across both regimes: M = one block (every miss evicts),
# 64 KB (swapping at N = 2^14), 16 MB (cache-resident)
PQ_GRID = [
    (structure, n, cache_bytes, block_bytes)
    for structure in HEAPS
    for n in (1 << 10, 1 << 14)
    for block_bytes in (256, 4096)
    for cache_bytes in (block_bytes, 64 * KB, 16 * MB)
]
GRAPHS = ("sample_10k", "gnp_2048")
SSSP_CACHE = 64 * KB


def pq_key(structure, n, cache_bytes, block_bytes):
    return f"{structure}/N={n}/M={cache_bytes}/B={block_bytes}"


def pq_row(structure, n, cache_bytes, block_bytes):
    heap = HEAPS[structure](cache_bytes, block_bytes)
    pq_workload(heap, n, seed=SEED)
    s = io_stats(heap)
    return [s.block_reads, s.block_writes, s.evictions]


def load_graph(name):
    if name == "sample_10k":
        with open(os.path.join(DATA, "sample_10k.gr"), encoding="ascii") as fh:
            return parse_dimacs(fh)
    return gen_gnp(GnpSpec(n=2048, seed=SEED))


def sssp_row(variant, graph_name):
    res = SSSP[variant](
        load_graph(graph_name), 0, pq_cache_bytes=SSSP_CACHE, graph_cache_bytes=SSSP_CACHE
    )
    row = {name: [s.block_reads, s.block_writes, s.evictions] for name, s in res.stats.items()}
    row["peak_heap_entries"] = res.peak_heap_entries
    row["heap_inserts"] = res.heap_inserts
    row["guard_deletes"] = res.guard_deletes
    row["spurious_kills"] = res.spurious_kills
    return row


def record():
    return {
        "pq": {pq_key(*p): pq_row(*p) for p in PQ_GRID},
        "sssp": {f"{v}/{g}": sssp_row(v, g) for v in SSSP for g in GRAPHS},
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


def test_grid_is_fully_recorded(golden):
    assert sorted(golden["pq"]) == sorted(pq_key(*p) for p in PQ_GRID)
    assert sorted(golden["sssp"]) == sorted(f"{v}/{g}" for v in SSSP for g in GRAPHS)


@pytest.mark.parametrize("params", PQ_GRID, ids=lambda p: pq_key(*p))
def test_pq_workload_counters(golden, params):
    assert pq_row(*params) == golden["pq"][pq_key(*params)]


@pytest.mark.parametrize("variant", list(SSSP))
@pytest.mark.parametrize("graph_name", GRAPHS)
def test_sssp_counters(golden, variant, graph_name):
    assert sssp_row(variant, graph_name) == golden["sssp"][f"{variant}/{graph_name}"]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="ascii") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
