import io
import subprocess
import sys

import pytest

from copq.bench import (
    CSV_HEADER,
    HEAPS,
    BenchRecord,
    mem_sweep,
    pq_workload,
    run_pq_bench,
    run_sssp_bench,
    write_csv,
)
from copq.emcore import MB
from copq.graphs import GnpSpec, SplitMix64, gen_gnp

from oracles import MultisetPQ

_MASK64 = (1 << 64) - 1


class _OraclePq:
    """Drives the workload against the sorted-multiset oracle."""

    def __init__(self):
        self.h = MultisetPQ()

    def insert(self, i, k):
        self.h.insert(i, k)

    def delete_min(self):
        return self.h.delete_min()

    def find_min(self):
        return self.h.find_min()

    def occupancy(self):
        return len(self.h)


class TestWorkload:
    def test_n1_floor_semantics(self):
        heap = HEAPS["binary"](1 * MB, 4096)
        pq_workload(heap, 1, seed=0)  # insert 1, pop 0, insert 0, pop 1
        assert heap.find_min() is None

    def test_checksum_equal_across_heaps_and_oracle(self):
        want = pq_workload(_OraclePq(), 8, seed=5)
        for structure in ("binary", "funnel", "bucket"):
            heap = HEAPS[structure](1 * MB, 4096)
            assert pq_workload(heap, 8, seed=5) == want, structure

    @pytest.mark.parametrize("structure", ["binary", "funnel", "bucket"])
    def test_checksum_matches_oracle_at_2_12(self, structure):
        want = pq_workload(_OraclePq(), 1 << 12, seed=9)
        heap = HEAPS[structure](1 * MB, 4096)
        assert pq_workload(heap, 1 << 12, seed=9) == want

    def test_heap_left_empty(self):
        heap = HEAPS["funnel"](1 * MB, 4096)
        pq_workload(heap, 100, seed=1)
        assert heap.find_min() is None


class TestRunners:
    def test_pq_bench_rows_and_determinism(self):
        a = run_pq_bench("binary", sizes=[256, 512], cache_bytes=1 * MB, seed=3, reps=2)
        b = run_pq_bench("binary", sizes=[256, 512], cache_bytes=1 * MB, seed=3, reps=2)
        assert len(a) == 2
        for ra, rb in zip(a, b):
            assert (ra.pq_reads, ra.pq_writes, ra.peak_heap_entries) == (
                rb.pq_reads,
                rb.pq_writes,
                rb.peak_heap_entries,
            )

    def test_timeout_row_flagged(self):
        rows = run_pq_bench("bucket", sizes=[1 << 14], cache_bytes=1 * MB, seed=0, reps=1, timeout_secs=0.0)
        assert rows[0].wall_seconds == "timeout"

    def test_sssp_bench_verifies_and_counts(self):
        g = gen_gnp(GnpSpec(n=256, seed=4))
        rows = run_sssp_bench("funnel", [(256, g)], cache_bytes=1 * MB, seed=1, reps=2)
        assert len(rows) == 1
        assert rows[0].graph_reads >= 0
        assert rows[0].peak_heap_entries > 0

    def test_mem_sweep_rows(self):
        rows = mem_sweep("funnel", n=2048, cache_list=[64 * 1024, 1 * MB], seed=0, reps=1)
        assert [r.cache_bytes for r in rows] == [64 * 1024, 1 * MB]
        assert all(r.experiment == "mem-sweep" for r in rows)

    def test_default_sweep_range_doubles_2mb_to_1gb(self):
        from copq.bench import MEM_SWEEP_CACHES

        assert MEM_SWEEP_CACHES == [m * MB for m in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)]

    def test_repetition_changes_only_averaging(self):
        one = run_pq_bench("binary", sizes=[512], cache_bytes=1 * MB, seed=7, reps=1)[0]
        three = run_pq_bench("binary", sizes=[512], cache_bytes=1 * MB, seed=7, reps=3)[0]
        assert one.size == three.size == 512
        # rep seeds differ, so counters may differ slightly; both must be near one rep's value
        assert abs(one.pq_reads - three.pq_reads) <= max(4.0, 0.2 * (one.pq_reads + 1))


class TestCsv:
    def test_rows_reparse_under_schema(self):
        g = gen_gnp(GnpSpec(n=128, seed=2))
        records = run_pq_bench("funnel", sizes=[128], cache_bytes=1 * MB, seed=0, reps=1)
        records += run_sssp_bench("binary", [(128, g)], cache_bytes=1 * MB, seed=0)
        buf = io.StringIO()
        write_csv(records, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == CSV_HEADER
        header = lines[0].split(",")
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(header)
            row = dict(zip(header, fields))
            assert row["structure"] in ("binary", "funnel", "bucket")
            int(row["size"]), int(row["cache_bytes"]), int(row["block_bytes"]), int(row["seed"])
            if row["wall_seconds"] != "timeout":
                float(row["wall_seconds"])
            for col in ("pq_reads", "pq_writes", "graph_reads", "graph_writes", "peak_heap_entries"):
                float(row[col])

    def test_timeout_renders_as_timeout(self):
        rec = BenchRecord("pq", "binary", 1, 2, 3, 4, "timeout", 0, 0, 0, 0, 0)
        assert ",timeout," in rec.csv_row()


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "copq.cli", *args],
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_pq_bench_stdout_csv(self):
        r = self.run_cli("pq-bench", "--heap", "funnel", "--sizes", "256", "--cache-mb", "1", "--reps", "1")
        assert r.returncode == 0, r.stderr
        lines = r.stdout.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("pq,funnel,256,")

    def test_gen_graph_and_verify_roundtrip(self, tmp_path):
        out = str(tmp_path / "g.gr")
        r = self.run_cli("gen-graph", "--n", "128", "--seed", "9", "--out", out)
        assert r.returncode == 0, r.stderr
        r = self.run_cli("verify", "--heap", "bucket", "--dimacs", out, "--cache-mb", "1", "--source", "3")
        assert r.returncode == 0, r.stderr + r.stdout
        assert "OK" in r.stdout

    def test_gen_graph_config_file(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("n=64, p=0.5\nwmax=7, seed=2\n")
        out = str(tmp_path / "g.gr")
        r = self.run_cli("gen-graph", "--config", str(cfg), "--out", out)
        assert r.returncode == 0, r.stderr
        text = open(out).read()
        assert text.startswith("p sp 64 ")

    def test_verify_gnp(self):
        r = self.run_cli("verify", "--heap", "funnel", "--gnp-n", "200", "--cache-mb", "1")
        assert r.returncode == 0, r.stderr + r.stdout

    def test_mem_sweep_cli(self):
        r = self.run_cli(
            "mem-sweep", "--heap", "binary", "--n", "512", "--cache-mb-list", "1 2", "--reps", "1"
        )
        assert r.returncode == 0, r.stderr
        assert len(r.stdout.strip().splitlines()) == 3
