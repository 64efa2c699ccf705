"""Command-line harness: pq-bench, sssp-bench, mem-sweep, gen-graph, verify."""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys

from .bench import (
    MEM_SWEEP_CACHES,
    PQ_SIZES,
    SSSP_RANDOM_SIZES,
    first_mismatch,
    mem_sweep,
    run_pq_bench,
    run_sssp_bench,
    write_csv,
)
from .emcore import EmConfig, MB
from .graphs import Graph, GnpSpec, gen_gnp, parse_dimacs, write_dimacs
from .sssp import SSSP, sssp_reference

# gen-graph's spec, read from flags of these names or from a config file
_GNP_KEYS = {"n": int, "p": float, "wmax": int, "seed": int}
_WMAX = 1000  # largest G(n, p) edge weight unless --wmax says otherwise


def _add_heap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--heap", choices=tuple(SSSP), required=True)
    p.add_argument("--block-bytes", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)


def _add_cache(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache-mb", type=float, default=16.0, help="per-structure cache size in MB")
    p.add_argument("--cache-bytes", type=int, default=None, help="overrides --cache-mb exactly")


def _add_runs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--timeout-secs", type=float, default=None)
    p.add_argument("--csv", type=str, default=None, help="write results to this file (default stdout)")


def _mb_bytes(flag: str, mb: float) -> int:
    """mb MB in whole bytes; a size that is not finite is a ValueError naming flag."""
    size = mb * MB
    if not math.isfinite(size):
        raise ValueError(f"{flag}: {mb} MB is not a finite number of bytes")
    return int(size)


def _cache_bytes(args) -> int:
    return args.cache_bytes if args.cache_bytes is not None else _mb_bytes("--cache-mb", args.cache_mb)


def _parse_list(flag: str, text: str, kind=int) -> list:
    """The numbers in text, split at commas or spaces; a ValueError names flag,
    also for an empty list, which would otherwise run the default grid, and
    for an int below 1 (every int list is of sizes)."""
    try:
        values = [kind(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"{flag}: not a list of numbers: {text!r}") from None
    if not values:
        raise ValueError(f"{flag}: empty list: {text!r}")
    if kind is int and min(values) < 1:
        raise ValueError(f"{flag} must be at least 1, got {min(values)}")
    return values


def _read_dimacs(path: str) -> Graph:
    """The graph in a DIMACS file; one that does not parse is a ValueError naming it."""
    with open(path, encoding="ascii") as fh:
        try:
            return parse_dimacs(fh)
        except ValueError as e:  # a DimacsError, or bytes that are not ASCII
            raise ValueError(f"{path}: {e}") from None


def _graphs(args, paths: list[str] | None, sizes: list[int]) -> list[Graph]:
    """The graphs in the DIMACS files at paths, or if paths is None, G(n, p) for each n in sizes.
    A G(n, p) flag given next to --dimacs (its value not None) is a ValueError naming it."""
    if paths is None:
        wmax = _WMAX if args.wmax is None else args.wmax
        return [gen_gnp(GnpSpec(n=n, weight_max=wmax, seed=args.seed)) for n in sizes]
    for dest in ("gnp_n", "gnp_sizes", "wmax"):  # verify has no gnp_sizes, sssp-bench no gnp_n
        if getattr(args, dest, None) is not None:
            raise ValueError(f"--{dest.replace('_', '-')}: not allowed with --dimacs")
    if not paths:
        raise ValueError("--dimacs: no file given")
    return [_read_dimacs(path) for path in paths]


def _load_gen_config(path: str) -> dict:
    """key=value graph spec file: n, p, wmax, seed (commas or newlines between)."""
    vals = {}
    with open(path, encoding="ascii") as fh:
        for item in fh.read().replace(",", " ").split():
            key, _, value = item.partition("=")
            try:
                vals[key] = _GNP_KEYS[key](value)
            except (KeyError, ValueError):
                raise ValueError(f"{path}: bad config entry {item!r} (want n|p|wmax|seed=value)") from None
    return vals


def _gnp_spec_from(args) -> GnpSpec:
    vals = {key: getattr(args, key) for key in _GNP_KEYS}
    if args.config is not None:
        vals.update(_load_gen_config(args.config))
    if vals["n"] is None:
        raise ValueError("need --n or an n= entry in --config")
    return GnpSpec(n=vals["n"], p=vals["p"], weight_max=vals["wmax"], seed=vals["seed"])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="copq", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    # no abbreviations: mem-sweep would otherwise take --cache-mb as --cache-mb-list
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("pq-bench", help="4-phase insert/delete-min workload over a size grid")
    _add_heap(p)
    _add_cache(p)
    _add_runs(p)
    p.add_argument("--sizes", type=str, default=None, help=f"element counts (default {PQ_SIZES[0]}..{PQ_SIZES[-1]})")

    p = add("sssp-bench", help="Dijkstra to completion on random or DIMACS graphs")
    _add_heap(p)
    _add_cache(p)
    _add_runs(p)
    p.add_argument("--gnp-sizes", type=str, default=None, help=f"vertex counts (default {SSSP_RANDOM_SIZES})")
    p.add_argument("--wmax", type=int, default=None, help=f"largest edge weight (default {_WMAX})")
    p.add_argument("--dimacs", type=str, nargs="*", default=None, help=".gr files to run instead of random graphs")
    p.add_argument("--verify-cap", type=int, default=1 << 15, help="verify against the reference up to this V")

    p = add("mem-sweep", help="fixed-size workload across cache sizes")
    _add_heap(p)
    _add_runs(p)
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument(
        "--cache-mb-list",
        type=str,
        default=None,
        help="cache sizes in MB (default 2 4 8 ... 1024)",
    )

    p = add("gen-graph", help="write a G(n,p) graph as a DIMACS .gr file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None, help="edge probability (default 16/(n-1))")
    p.add_argument("--wmax", type=int, default=_WMAX)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", type=str, default=None, help="key=value file: n=..., p=..., wmax=..., seed=...")
    p.add_argument("--out", type=str, required=True)

    p = add("verify", help="run one variant and compare against the reference solver")
    _add_heap(p)
    _add_cache(p)
    p.add_argument("--gnp-n", type=int, default=None)
    p.add_argument("--wmax", type=int, default=None, help=f"largest edge weight (default {_WMAX})")
    p.add_argument("--dimacs", type=str, default=None)
    p.add_argument("--source", type=int, default=0)

    args = ap.parse_args(argv)
    # the one place a bad value or an unusable file becomes a usage error
    try:
        return _run(args)
    except ValueError as e:
        ap.error(str(e))
    except OSError as e:
        if e.filename is None:
            raise
        ap.error(f"{e.filename}: {e.strerror}")


def _run(args) -> int:
    """Run the parsed command. A value the command cannot take raises a
    ValueError; an output file is opened before the work that fills it."""
    if args.cmd == "gen-graph":
        spec = _gnp_spec_from(args)
        with open(args.out, "w", encoding="ascii") as fh:
            g = gen_gnp(spec)
            fh.write(write_dimacs(g))
        print(f"wrote {args.out}: V={g.vertex_count} arcs={g.arc_count}", file=sys.stderr)
        return 0

    if args.cmd == "verify":
        if args.dimacs is None and args.gnp_n is None:
            raise ValueError("need --gnp-n or --dimacs")
        (g,) = _graphs(args, None if args.dimacs is None else [args.dimacs], [args.gnp_n])
        cache = _cache_bytes(args)
        EmConfig(cache, args.block_bytes)
        if not 0 <= args.source < g.vertex_count:
            raise ValueError(f"--source {args.source} out of range [0, {g.vertex_count})")
        res = SSSP[args.heap](
            g, args.source, pq_cache_bytes=cache, graph_cache_bytes=cache, block_bytes=args.block_bytes
        )
        want = sssp_reference(g, args.source).dist
        bad = first_mismatch(res.dist, want)
        if bad is None:
            reach = sum(d is not None for d in want)
            print(f"OK: {args.heap} matches reference on V={g.vertex_count} ({reach} reachable)")
            return 0
        print(f"MISMATCH at vertex {bad}: {args.heap}={res.dist[bad]} reference={want[bad]}", file=sys.stderr)
        return 1

    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    if args.timeout_secs is not None and not args.timeout_secs >= 0:
        raise ValueError(f"--timeout-secs must be at least 0, got {args.timeout_secs}")
    if args.cmd == "mem-sweep":
        if args.n < 1:
            raise ValueError(f"--n must be at least 1, got {args.n}")
        caches = MEM_SWEEP_CACHES
        if args.cache_mb_list is not None:
            listed = _parse_list("--cache-mb-list", args.cache_mb_list, float)
            caches = [_mb_bytes("--cache-mb-list", m) for m in listed]
    else:
        caches = [_cache_bytes(args)]
    for cache in caches:
        EmConfig(cache, args.block_bytes)
    if args.cmd == "pq-bench":
        sizes = _parse_list("--sizes", args.sizes) if args.sizes is not None else None
        work = functools.partial(run_pq_bench, args.heap, sizes, caches[0])
    elif args.cmd == "sssp-bench":
        sizes = SSSP_RANDOM_SIZES
        if args.dimacs is None and args.gnp_sizes is not None:
            sizes = _parse_list("--gnp-sizes", args.gnp_sizes)
        graphs = [(g.vertex_count, g) for g in _graphs(args, args.dimacs, sizes)]
        work = functools.partial(run_sssp_bench, args.heap, graphs, caches[0], verify_cap=args.verify_cap)
    else:
        work = functools.partial(mem_sweep, args.heap, args.n, caches)
    runs = dict(block_bytes=args.block_bytes, seed=args.seed, reps=args.reps, timeout_secs=args.timeout_secs)
    with open(args.csv, "w", encoding="ascii") if args.csv else contextlib.nullcontext(sys.stdout) as fh:
        write_csv(work(**runs), fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
