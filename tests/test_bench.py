import io
import subprocess
import sys
from pathlib import Path

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
from copq.cli import main
from copq.emcore import MB
from copq.graphs import GnpSpec, SplitMix64, gen_gnp

from oracles import MultisetPQ

JSON_FILE = Path(__file__).parent / "data" / "golden_counters.json"

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

    @pytest.mark.parametrize("structure", ["binary", "funnel"])
    def test_occupancy_is_len_throughout(self, structure):
        heap = HEAPS[structure](1 * MB, 4096)
        checked = []

        class Probe:
            """Passes each workload call to the heap, then compares its two sizes."""

            def __getattr__(self, name):
                def call(*args):
                    out = getattr(heap, name)(*args)
                    assert heap.occupancy() == len(heap)
                    checked.append(name)
                    return out

                return call

        pq_workload(Probe(), 300, seed=4)
        assert checked.count("delete_min") == 450 and checked.count("insert") == 450


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

    @pytest.mark.parametrize("timeout", [float("nan"), -1.0])
    def test_timeout_that_cannot_pass_is_rejected(self, timeout):
        # a NaN deadline never passes, so it would run unbounded, not time out
        g = gen_gnp(GnpSpec(n=16, seed=0))
        for runner in (
            lambda: run_pq_bench("funnel", sizes=[16], reps=1, timeout_secs=timeout),
            lambda: run_sssp_bench("funnel", [(16, g)], reps=1, timeout_secs=timeout),
            lambda: mem_sweep("funnel", 16, [1 * MB], reps=1, timeout_secs=timeout),
        ):
            with pytest.raises(ValueError, match="timeout_secs must be at least 0"):
                runner()

    @pytest.mark.parametrize("heap", ["binary", "funnel", "bucket"])
    def test_sssp_timeout_row_flagged(self, heap):
        # the run stops at 1,024 settled vertices and its row keeps their counts
        g = gen_gnp(GnpSpec(n=4096, seed=0))
        rows = run_sssp_bench(heap, [(4096, g)], cache_bytes=64 * 1024, seed=0, reps=2, timeout_secs=0.0)
        assert len(rows) == 1
        assert rows[0].wall_seconds == "timeout"
        assert rows[0].pq_reads > 0 and rows[0].graph_reads > 0

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

    @pytest.mark.parametrize(
        "run",
        [
            lambda reps: run_pq_bench("funnel", sizes=[256], reps=reps),
            lambda reps: run_sssp_bench("funnel", [(64, gen_gnp(GnpSpec(n=64)))], reps=reps),
            lambda reps: mem_sweep("funnel", n=256, cache_list=[1 * MB], reps=reps),
        ],
        ids=["pq", "sssp", "mem-sweep"],
    )
    def test_reps_below_one_rejected(self, run):
        for reps in (0, -1):
            with pytest.raises(ValueError, match="reps"):
                run(reps)

    @pytest.mark.parametrize(
        "run",
        [
            lambda n: run_pq_bench("funnel", sizes=[256, n], reps=1),
            lambda n: mem_sweep("funnel", n=n, cache_list=[1 * MB], reps=1),
        ],
        ids=["pq", "mem-sweep"],
    )
    def test_sizes_below_one_rejected(self, run):
        for n in (0, -5):
            with pytest.raises(ValueError, match="sizes must be at least 1"):
                run(n)

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

    def test_csv_row_cell_formats(self):
        # whole floats print as ints, other floats to six significant digits,
        # ints as they are, wall time to the millisecond or as "timeout"
        rec = BenchRecord("sssp", "funnel", 630, 65536, 4096, 1, "timeout", 297.5, 246.0, 189, 1 / 3, 1234567.5)
        assert rec.csv_row() == "sssp,funnel,630,65536,4096,1,timeout,297.5,246,189,0.333333,1.23457e+06"
        rec = BenchRecord("pq", "binary", 256, 1024, 64, 0, 2.0, 0, 0.0, 0, 0, 3)
        assert rec.csv_row() == "pq,binary,256,1024,64,0,2.000,0,0,0,0,3"


class TestCli:
    def run_cli(self, *args, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "copq.cli", *args],
            capture_output=True,
            text=True,
            timeout=300,
            cwd=cwd,
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

    def test_sssp_bench_dimacs(self):
        gr = str(Path(__file__).parent / "data" / "sample_10k.gr")
        r = self.run_cli("sssp-bench", "--heap", "binary", "--dimacs", gr, "--cache-mb", "0.0625", "--reps", "1")
        assert r.returncode == 0, r.stderr
        lines = r.stdout.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("sssp,binary,630,65536,4096,0,")

    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "--heap", "funnel", "--gnp-n", "16", "--csv", "x.csv"),
            ("verify", "--heap", "funnel", "--gnp-n", "16", "--reps", "1"),
            ("verify", "--heap", "funnel", "--gnp-n", "16", "--timeout-secs", "1"),
            ("mem-sweep", "--heap", "binary", "--n", "16", "--cache-mb", "1"),
            ("mem-sweep", "--heap", "binary", "--n", "16", "--cache-bytes", "65536"),
        ],
        ids=["verify-csv", "verify-reps", "verify-timeout", "mem-sweep-cache-mb", "mem-sweep-cache-bytes"],
    )
    def test_flags_a_subcommand_does_not_read_are_rejected(self, args, tmp_path):
        r = self.run_cli(*args, cwd=tmp_path)
        assert r.returncode == 2, r.stdout
        assert "unrecognized arguments" in r.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ("pq-bench", "--heap", "funnel", "--sizes", "256", "--reps", "0"),
            ("pq-bench", "--heap", "binary", "--sizes", "256", "--cache-bytes", "100"),
            ("gen-graph", "--n", "-3", "--out", "g.gr"),
            ("verify", "--heap", "funnel", "--gnp-n", "64", "--source", "99"),
            ("pq-bench", "--heap", "funnel", "--sizes", "-5", "--reps", "1"),
            ("pq-bench", "--heap", "funnel", "--sizes", "256 0", "--reps", "1"),
            ("mem-sweep", "--heap", "funnel", "--n", "-3", "--cache-mb-list", "1", "--reps", "1"),
            ("pq-bench", "--heap", "funnel", "--sizes", "abc", "--reps", "1"),
            ("sssp-bench", "--heap", "funnel", "--gnp-sizes", "12x", "--reps", "1"),
            ("mem-sweep", "--heap", "funnel", "--n", "16", "--cache-mb-list", "two", "--reps", "1"),
            ("pq-bench", "--heap", "funnel", "--sizes", "16", "--reps", "1", "--cache-mb", "inf"),
            ("pq-bench", "--heap", "funnel", "--sizes", "16", "--reps", "1", "--cache-mb", "nan"),
            ("mem-sweep", "--heap", "funnel", "--n", "16", "--cache-mb-list", "inf", "--reps", "1"),
            ("mem-sweep", "--heap", "funnel", "--n", "16", "--cache-mb-list", "1 nan", "--reps", "1"),
            # an empty list is an error, not the default grid; the zero timeout
            # would end such a grid at its first run
            ("pq-bench", "--heap", "funnel", "--sizes", "", "--reps", "1", "--timeout-secs", "0"),
            ("pq-bench", "--heap", "funnel", "--sizes", " ", "--reps", "1", "--timeout-secs", "0"),
            ("sssp-bench", "--heap", "funnel", "--gnp-sizes", "", "--reps", "1", "--timeout-secs", "0"),
            ("sssp-bench", "--heap", "funnel", "--dimacs", "--reps", "1", "--timeout-secs", "0"),
            ("mem-sweep", "--heap", "funnel", "--n", "16", "--cache-mb-list", "", "--reps", "1", "--timeout-secs", "0"),
            ("gen-graph", "--config", "unknown.cfg", "--out", "g.gr"),
            ("gen-graph", "--config", "junk.cfg", "--out", "g.gr"),
            ("gen-graph", "--out", "g.gr"),
            ("gen-graph", "--n", "0", "--out", "g.gr"),
            ("verify", "--heap", "funnel"),
            ("verify", "--heap", "funnel", "--gnp-n", "0"),
            ("pq-bench", "--heap", "funnel", "--sizes", "4096", "--reps", "1", "--timeout-secs", "nan"),
            ("pq-bench", "--heap", "funnel", "--sizes", "16", "--reps", "1", "--timeout-secs", "-1"),
            ("sssp-bench", "--heap", "funnel", "--gnp-sizes", "64", "--reps", "1", "--timeout-secs", "nan"),
            ("mem-sweep", "--heap", "funnel", "--n", "16", "--cache-mb-list", "1", "--timeout-secs", "nan"),
        ],
        ids=[
            "reps-0",
            "cache-below-block",
            "gen-graph-negative-n",
            "verify-source-out-of-range",
            "pq-bench-negative-size",
            "pq-bench-zero-size",
            "mem-sweep-negative-n",
            "pq-bench-sizes-not-numbers",
            "sssp-bench-gnp-sizes-not-numbers",
            "mem-sweep-cache-mb-list-not-numbers",
            "pq-bench-cache-mb-inf",
            "pq-bench-cache-mb-nan",
            "mem-sweep-cache-mb-list-inf",
            "mem-sweep-cache-mb-list-nan",
            "pq-bench-sizes-empty",
            "pq-bench-sizes-blank",
            "sssp-bench-gnp-sizes-empty",
            "sssp-bench-dimacs-no-file",
            "mem-sweep-cache-mb-list-empty",
            "gen-graph-config-unknown-key",
            "gen-graph-config-value-not-a-number",
            "gen-graph-no-n",
            "gen-graph-zero-n",
            "verify-no-graph",
            "verify-zero-gnp-n",
            "pq-bench-timeout-nan",
            "pq-bench-timeout-negative",
            "sssp-bench-timeout-nan",
            "mem-sweep-timeout-nan",
        ],
    )
    def test_bad_values_exit_2_with_one_error_line(self, args, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "unknown.cfg").write_text("n=8 q=3\n")
        (tmp_path / "junk.cfg").write_text("n=eight\n")
        with pytest.raises(SystemExit) as exit_:
            main(list(args))
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert [line for line in err.splitlines() if line.startswith("copq: error: ")] == [err.splitlines()[-1]]
        assert "Traceback" not in err and out == ""
        assert not (tmp_path / "g.gr").exists()

    @pytest.mark.parametrize(
        "args,message",
        [
            (("gen-graph", "--n", "0", "--out", "g.gr"), "n must be at least 1"),
            (("verify", "--heap", "funnel", "--gnp-n", "0"), "n must be at least 1"),
            (
                ("gen-graph", "--config", "g.cfg", "--out", "g.gr"),
                "g.cfg: bad config entry 'q=3' (want n|p|wmax|seed=value)",
            ),
            (("mem-sweep", "--heap", "funnel", "--n", "0", "--cache-mb-list", "1"), "--n must be at least 1, got 0"),
            (
                ("pq-bench", "--heap", "funnel", "--sizes", "16", "--timeout-secs", "nan"),
                "--timeout-secs must be at least 0, got nan",
            ),
            (
                ("pq-bench", "--heap", "funnel", "--sizes", "16", "--timeout-secs", "-1"),
                "--timeout-secs must be at least 0, got -1.0",
            ),
            (
                ("sssp-bench", "--heap", "bucket", "--gnp-sizes", "16", "--timeout-secs", "nan"),
                "--timeout-secs must be at least 0, got nan",
            ),
            (
                ("sssp-bench", "--heap", "bucket", "--gnp-sizes", "16", "--timeout-secs", "-1"),
                "--timeout-secs must be at least 0, got -1.0",
            ),
            # a size below 1 is rejected before --csv is opened
            (
                ("pq-bench", "--heap", "funnel", "--sizes", "256 0", "--reps", "1", "--csv", "bad.csv"),
                "--sizes must be at least 1, got 0",
            ),
            (
                ("sssp-bench", "--heap", "funnel", "--gnp-sizes", "16 -3", "--reps", "1", "--csv", "bad.csv"),
                "--gnp-sizes must be at least 1, got -3",
            ),
            # the G(n, p) flags and --dimacs exclude each other
            (
                ("sssp-bench", "--heap", "funnel", "--dimacs", "g.gr", "--gnp-sizes", "junk", "--csv", "bad.csv"),
                "--gnp-sizes: not allowed with --dimacs",
            ),
            (
                ("sssp-bench", "--heap", "funnel", "--dimacs", "g.gr", "--wmax", "5", "--csv", "bad.csv"),
                "--wmax: not allowed with --dimacs",
            ),
            (("verify", "--heap", "funnel", "--dimacs", "g.gr", "--gnp-n", "5"), "--gnp-n: not allowed with --dimacs"),
            (("verify", "--heap", "funnel", "--dimacs", "g.gr", "--wmax", "5"), "--wmax: not allowed with --dimacs"),
        ],
        ids=[
            "gen-graph-zero-n",
            "verify-zero-gnp-n",
            "gen-graph-config-unknown-key",
            "mem-sweep-zero-n",
            "pq-bench-timeout-nan",
            "pq-bench-timeout-negative",
            "sssp-bench-timeout-nan",
            "sssp-bench-timeout-negative",
            "pq-bench-zero-size",
            "sssp-bench-negative-gnp-size",
            "sssp-bench-dimacs-and-gnp-sizes",
            "sssp-bench-dimacs-and-wmax",
            "verify-dimacs-and-gnp-n",
            "verify-dimacs-and-wmax",
        ],
    )
    def test_usage_error_says_what_is_wrong(self, args, message, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.cfg").write_text("n=8, q=3\n")
        (tmp_path / "g.gr").write_text("p sp 2 2\na 1 2 5\na 2 1 5\n")
        with pytest.raises(SystemExit) as exit_:
            main(list(args))
        assert exit_.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"copq: error: {message}"
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize(
        "cmd,flag,text",
        [("pq-bench", "--sizes", "abc"), ("sssp-bench", "--gnp-sizes", "12x"), ("mem-sweep", "--cache-mb-list", "two")],
    )
    def test_list_flag_that_is_not_numbers_is_named(self, cmd, flag, text, capsys):
        with pytest.raises(SystemExit):
            main([cmd, "--heap", "funnel", flag, text, "--reps", "1"])
        assert capsys.readouterr().err.splitlines()[-1] == f"copq: error: {flag}: not a list of numbers: {text!r}"

    @pytest.mark.parametrize(
        "args,path",
        [
            (("verify", "--heap", "funnel", "--dimacs", JSON_FILE), JSON_FILE),
            (("verify", "--heap", "funnel", "--dimacs", "missing.gr"), "missing.gr"),
            (("sssp-bench", "--heap", "funnel", "--dimacs", "missing.gr"), "missing.gr"),
            (("gen-graph", "--n", "8", "--out", "no/such/dir/g.gr"), "no/such/dir/g.gr"),
            (("gen-graph", "--config", "missing.cfg", "--out", "g.gr"), "missing.cfg"),
            (("pq-bench", "--heap", "funnel", "--sizes", "16", "--reps", "1", "--csv", "no/x.csv"), "no/x.csv"),
            (("sssp-bench", "--heap", "funnel", "--gnp-sizes", "16", "--reps", "1", "--csv", "no/x.csv"), "no/x.csv"),
            (("mem-sweep", "--heap", "funnel", "--n", "16", "--cache-mb-list", "1", "--csv", "no/x.csv"), "no/x.csv"),
        ],
        ids=[
            "verify-not-dimacs",
            "verify-missing-file",
            "sssp-bench-missing-file",
            "gen-graph-out-dir-missing",
            "gen-graph-config-missing",
            "pq-bench-csv-dir-missing",
            "sssp-bench-csv-dir-missing",
            "mem-sweep-csv-dir-missing",
        ],
    )
    def test_unusable_files_exit_2_naming_the_path(self, args, path, capsys, tmp_path, monkeypatch):
        # an output is opened before the work that fills it, so the work a
        # command would run must not start when a file is unusable
        def no_work(*a, **kw):
            pytest.fail(f"{args[0]} ran its work before the open failed")

        work = {
            "pq-bench": "run_pq_bench",
            "sssp-bench": "run_sssp_bench",
            "mem-sweep": "mem_sweep",
            "gen-graph": "gen_gnp",
        }.get(args[0])
        if work is not None:  # verify reads files only
            monkeypatch.setattr(f"copq.cli.{work}", no_work)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main([str(a) for a in args])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert [line for line in err.splitlines() if line.startswith("copq: error: ")] == [err.splitlines()[-1]]
        assert err.splitlines()[-1].startswith(f"copq: error: {path}: ")
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize(
        "cmd,heap,text,message",
        [
            ("sssp-bench", "binary", "p sp 0 0\n", "every graph needs at least one vertex"),
            ("sssp-bench", "bucket", "p sp 2 1\na 1 2 5\n", "requires an undirected (symmetric) graph"),
            ("verify", "bucket", "p sp 2 1\na 1 2 5\n", "requires an undirected (symmetric) graph"),
        ],
        ids=["sssp-bench-no-vertices", "sssp-bench-bucket-directed", "verify-bucket-directed"],
    )
    def test_graph_a_run_cannot_take_exits_2(self, cmd, heap, text, message, capsys, tmp_path):
        gr = tmp_path / "g.gr"
        gr.write_text(text)
        with pytest.raises(SystemExit) as exit_:
            main([cmd, "--heap", heap, "--dimacs", str(gr)])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert err.splitlines()[-1].startswith("copq: error: ") and message in err.splitlines()[-1]
        assert "Traceback" not in err and out == ""

    def test_gen_graph_config_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("n=64, wmx=3\n")
        out = tmp_path / "g.gr"
        r = self.run_cli("gen-graph", "--config", str(cfg), "--out", str(out))
        assert r.returncode != 0
        assert "'wmx=3'" in r.stderr
        assert not out.exists()

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
