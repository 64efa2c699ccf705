"""Command-line harness: pq-bench, sssp-bench, mem-sweep, gen-graph, verify."""

from __future__ import annotations

import argparse
import sys

from .bench import (
    MEM_SWEEP_CACHES,
    PQ_SIZES,
    SSSP_RANDOM_SIZES,
    mem_sweep,
    run_pq_bench,
    run_sssp_bench,
    write_csv,
)
from .emcore import MB
from .graphs import GnpSpec, gen_gnp, parse_dimacs, write_dimacs
from .sssp import SSSP, sssp_reference


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--heap", choices=tuple(SSSP), required=True)
    p.add_argument("--cache-mb", type=float, default=16.0, help="per-structure cache size in MB")
    p.add_argument("--cache-bytes", type=int, default=None, help="overrides --cache-mb exactly")
    p.add_argument("--block-bytes", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--timeout-secs", type=float, default=None)
    p.add_argument("--csv", type=str, default=None, help="write results to this file (default stdout)")


def _cache_bytes(args) -> int:
    return args.cache_bytes if args.cache_bytes is not None else int(args.cache_mb * MB)


def _emit(records, args) -> None:
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            write_csv(records, fh)
    else:
        write_csv(records, sys.stdout)


def _parse_sizes(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _load_gen_config(path: str) -> dict:
    """key=value graph spec file: n, p, wmax, seed (commas or newlines between)."""
    vals: dict[str, str] = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            for item in line.replace(",", " ").split():
                if "=" not in item:
                    raise ValueError(f"bad config entry {item!r} (want key=value)")
                k, v = item.split("=", 1)
                vals[k.strip()] = v.strip()
    return vals


def _gnp_spec_from(args) -> GnpSpec:
    n, p, wmax, seed = args.n, args.p, args.wmax, args.seed
    if getattr(args, "config", None):
        vals = _load_gen_config(args.config)
        n = int(vals.get("n", n if n is not None else 0)) or n
        if "p" in vals:
            p = float(vals["p"])
        if "wmax" in vals:
            wmax = int(vals["wmax"])
        if "seed" in vals:
            seed = int(vals["seed"])
    if not n:
        raise SystemExit("gen-graph: need n (flag or config file)")
    return GnpSpec(n=n, p=p, weight_max=wmax, seed=seed)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="copq", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("pq-bench", help="4-phase insert/delete-min workload over a size grid")
    _add_common(p)
    p.add_argument("--sizes", type=str, default=None, help=f"element counts (default {PQ_SIZES[0]}..{PQ_SIZES[-1]})")

    p = sub.add_parser("sssp-bench", help="Dijkstra to completion on random or DIMACS graphs")
    _add_common(p)
    p.add_argument("--gnp-sizes", type=str, default=None, help=f"vertex counts (default {SSSP_RANDOM_SIZES})")
    p.add_argument("--wmax", type=int, default=1000)
    p.add_argument("--dimacs", type=str, nargs="*", default=None, help=".gr files to run instead of random graphs")
    p.add_argument("--verify-cap", type=int, default=1 << 15, help="verify against the reference up to this V")

    p = sub.add_parser("mem-sweep", help="fixed-size workload across cache sizes")
    _add_common(p)
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument(
        "--cache-mb-list",
        type=str,
        default=None,
        help="cache sizes in MB (default 2 4 8 ... 1024)",
    )

    p = sub.add_parser("gen-graph", help="write a G(n,p) graph as a DIMACS .gr file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None, help="edge probability (default 16/(n-1))")
    p.add_argument("--wmax", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", type=str, default=None, help="key=value file: n=..., p=..., wmax=..., seed=...")
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("verify", help="run one variant and compare against the reference solver")
    _add_common(p)
    p.add_argument("--gnp-n", type=int, default=None)
    p.add_argument("--wmax", type=int, default=1000)
    p.add_argument("--dimacs", type=str, default=None)
    p.add_argument("--source", type=int, default=0)

    args = ap.parse_args(argv)

    if args.cmd == "pq-bench":
        sizes = _parse_sizes(args.sizes) if args.sizes else None
        records = run_pq_bench(
            args.heap,
            sizes=sizes,
            cache_bytes=_cache_bytes(args),
            block_bytes=args.block_bytes,
            seed=args.seed,
            reps=args.reps,
            timeout_secs=args.timeout_secs,
        )
        _emit(records, args)
        return 0

    if args.cmd == "sssp-bench":
        if args.dimacs:
            graphs = []
            for path in args.dimacs:
                with open(path, encoding="ascii") as fh:
                    g = parse_dimacs(fh)
                graphs.append((g.vertex_count, g))
        else:
            sizes = _parse_sizes(args.gnp_sizes) if args.gnp_sizes else SSSP_RANDOM_SIZES
            graphs = [
                (n, gen_gnp(GnpSpec(n=n, weight_max=args.wmax, seed=args.seed))) for n in sizes
            ]
        records = run_sssp_bench(
            args.heap,
            graphs,
            cache_bytes=_cache_bytes(args),
            block_bytes=args.block_bytes,
            seed=args.seed,
            reps=args.reps,
            timeout_secs=args.timeout_secs,
            verify_cap=args.verify_cap,
        )
        _emit(records, args)
        return 0

    if args.cmd == "mem-sweep":
        caches = (
            [int(float(m) * MB) for m in args.cache_mb_list.replace(",", " ").split()]
            if args.cache_mb_list
            else MEM_SWEEP_CACHES
        )
        records = mem_sweep(
            args.heap,
            n=args.n,
            cache_list=caches,
            block_bytes=args.block_bytes,
            seed=args.seed,
            reps=args.reps,
            timeout_secs=args.timeout_secs,
        )
        _emit(records, args)
        return 0

    if args.cmd == "gen-graph":
        spec = _gnp_spec_from(args)
        g = gen_gnp(spec)
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(write_dimacs(g))
        print(f"wrote {args.out}: V={g.vertex_count} arcs={g.arc_count}", file=sys.stderr)
        return 0

    if args.cmd == "verify":
        if args.dimacs:
            with open(args.dimacs, encoding="ascii") as fh:
                g = parse_dimacs(fh)
        elif args.gnp_n:
            g = gen_gnp(GnpSpec(n=args.gnp_n, weight_max=args.wmax, seed=args.seed))
        else:
            raise SystemExit("verify: need --gnp-n or --dimacs")
        res = SSSP[args.heap](
            g, args.source, pq_cache_bytes=_cache_bytes(args), block_bytes=args.block_bytes
        )
        want = sssp_reference(g, args.source).dist
        if res.dist == want:
            reach = sum(d is not None for d in want)
            print(f"OK: {args.heap} matches reference on V={g.vertex_count} ({reach} reachable)")
            return 0
        bad = next(i for i in range(len(want)) if res.dist[i] != want[i])
        print(
            f"MISMATCH at vertex {bad}: {args.heap}={res.dist[bad]} reference={want[bad]}",
            file=sys.stderr,
        )
        return 1

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
