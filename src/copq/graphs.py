"""Graph generation and I/O: G(n,p) random graphs, DIMACS .gr files, and a
CSR adjacency stored in a BlockVector.

Random generation uses SplitMix64, a named portable 64-bit generator, so a
(spec, seed) pair regenerates the identical graph on any platform. G(n,p)
sampling skips geometrically between kept pairs, giving O(n + E) expected
work instead of enumerating all n(n-1)/2 pairs.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from numbers import Real
from operator import index, le, sub

from .emcore import BlockVector, EmConfig, DEFAULT_BLOCK_BYTES, DEFAULT_CACHE_BYTES, MASK64


class SplitMix64:
    """Deterministic 64-bit stream: z = golden-gamma counter, xor-shift mixed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform in [0, 1), 53-bit resolution."""
        return (self.next() >> 11) * (1.0 / (1 << 53))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform in [lo, hi] (modulo reduction; bias negligible for small ranges)."""
        return lo + self.next() % (hi - lo + 1)


@dataclass
class Graph:
    """Compact adjacency: offsets[v]..offsets[v+1] indexes the (target, weight)
    arc arrays. An undirected edge appears as two arcs."""

    offsets: list[int]
    targets: list[int]
    weights: list[int]

    @property
    def vertex_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def arc_count(self) -> int:
        return len(self.targets)

    def neighbors(self, v: int):
        for a in range(self.offsets[v], self.offsets[v + 1]):
            yield self.targets[a], self.weights[a]

    def is_symmetric(self) -> bool:
        """True when every arc (u,v,w) has a matching reverse arc (v,u,w), with
        multiplicity: each vertex's arcs permute its arcs in the reverse graph."""
        n, offsets, targets, weights = self.vertex_count, self.offsets, self.targets, self.weights
        sources = list(chain.from_iterable(map(repeat, range(n), map(sub, offsets[1:], offsets))))
        try:
            rev = _csr(n, targets, sources, weights)
        except IndexError:  # a target at or above n, which no arc can mirror
            return False
        if rev.offsets != offsets:
            return False
        if rev.targets == targets and rev.weights == weights:
            return True  # every vertex lists its arcs in the reverse graph's order
        for lo, hi in zip(offsets, offsets[1:]):
            if sorted(zip(targets[lo:hi], weights[lo:hi])) != sorted(zip(rev.targets[lo:hi], rev.weights[lo:hi])):
                return False
        return True

    @classmethod
    def from_arcs(cls, n: int, arcs: list[tuple[int, int, int]]) -> "Graph":
        """Build CSR from (source, target, weight) triples, preserving the
        per-vertex arrival order of arcs. A source or target outside [0, n)
        is a ValueError, and so is an arc that is not a triple."""
        try:
            sources, targets, weights = zip(*arcs, strict=True) if arcs else ((), (), ())
        except ValueError:
            a, arc = next((a, arc) for a, arc in enumerate(arcs) if len(arc) != 3)
            raise ValueError(f"arc {a} is {arc!r}, not a (source, target, weight) triple") from None
        for ends in (sources, targets):
            if ends and not 0 <= min(ends) <= max(ends) < n:
                raise ValueError(f"an arc's source or target is outside [0, {n})")
        return _csr(n, sources, targets, weights)


def _csr(n: int, sources, targets, weights) -> Graph:
    """The CSR of arcs (sources[i], targets[i], weights[i]), ends in [0, n): the degrees
    give the offsets, and one pass places each arc at its source's cursor, in arrival order.
    sources is a sequence, read twice; targets and weights may be iterators."""
    degree = [0] * n
    for u in sources:
        degree[u] += 1
    offsets = [0, *accumulate(degree)]
    cursor = offsets[:-1]
    placed_targets, placed_weights = [0] * len(sources), [0] * len(sources)
    for u, v, w in zip(sources, targets, weights):
        a = cursor[u]
        placed_targets[a] = v
        placed_weights[a] = w
        cursor[u] = a + 1
    return Graph(offsets, placed_targets, placed_weights)


@dataclass
class GnpSpec:
    """Erdos-Renyi G(n,p) parameters. p defaults to 16/(n-1), the density that
    gives an expected eight undirected edges per vertex."""

    n: int
    p: float | None = None
    weight_max: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "weight_max", "seed"):
            try:
                setattr(self, name, index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.p is None:
            # default density; a complete graph once n is too small for it
            self.p = min(1.0, 16.0 / (self.n - 1)) if self.n > 1 else 0.0
        elif not isinstance(self.p, Real):
            raise ValueError(f"p must be a real number, got {self.p!r}")
        self.p = float(self.p)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0,1], got {self.p}")
        if self.weight_max < 1:
            raise ValueError("weight_max must be positive")


def gen_gnp(spec: GnpSpec) -> Graph:
    """Sample an undirected G(n,p) with uniform integer weights in [1, weight_max].

    Each unordered pair {u,v} is kept independently with probability p; a
    kept edge gets one weight and two arcs. Deterministic per seed.

    Kept edge i gives arcs 2i = (u,v) and 2i+1 = (v,u) to the CSR builder, so each
    vertex's arcs keep their generation order. Every arc names one shared int
    object per vertex id and per weight value.
    """
    rng = SplitMix64(spec.seed)
    n, p, wmax = spec.n, spec.p, spec.weight_max
    vertex = list(range(n))
    weight: dict[int, int] = {}
    ends: list[int] = []  # u0, v0, u1, v1, ...: the kept edges in generation order
    wts: list[int] = []
    if p >= 1.0:
        for u in vertex:
            for v in vertex[u + 1 :]:
                w = rng.randint(1, wmax)
                ends += (u, v)
                wts.append(weight.setdefault(w, w))
    elif p > 0.0:
        log1mp = math.log1p(-p)
        for u in vertex:
            v = u
            while True:
                u01 = 1.0 - rng.random()  # (0, 1]
                v += 1 + int(math.log(u01) / log1mp)
                if v >= n:
                    break
                w = rng.randint(1, wmax)
                ends += (u, vertex[v])
                wts.append(weight.setdefault(w, w))
    # arc 2i is (u_i, v_i), arc 2i+1 is (v_i, u_i), both with weight wts[i]
    targets = chain.from_iterable(zip(islice(ends, 1, None, 2), islice(ends, 0, None, 2)))
    return _csr(n, ends, targets, chain.from_iterable(zip(wts, wts)))


class DimacsError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_dimacs(source) -> Graph:
    """Parse DIMACS shortest-path .gr text into a Graph.

    Accepts a string or any iterable of lines. Vertex ids are 1-based in the
    format and 0-based in the result. Every malformed line raises a
    DimacsError carrying its line number.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source
    n = m = None
    sources, targets, weights = [], [], []  # arc columns, in file order
    weight: dict[int, int] = {}  # one shared int object per weight value
    vertex: dict[int, int] = {}  # file id -> one shared 0-based int per vertex named
    line_no = 0
    for raw in lines:
        line_no += 1
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise DimacsError("duplicate problem line", line_no)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "sp":
                raise DimacsError(f"malformed problem line {line!r}", line_no)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"non-integer counts in problem line {line!r}", line_no) from None
            if n < 0 or m < 0:
                raise DimacsError("negative counts in problem line", line_no)
        elif line.startswith("a"):
            if n is None:
                raise DimacsError("arc line before problem line", line_no)
            parts = line.split()
            if len(parts) != 4:
                raise DimacsError(f"malformed arc line {line!r}", line_no)
            try:
                u, v, w = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"non-integer field in arc line {line!r}", line_no) from None
            if not 1 <= u <= n:
                raise DimacsError(f"source id {u} out of range [1,{n}]", line_no)
            if not 1 <= v <= n:
                raise DimacsError(f"target id {v} out of range [1,{n}]", line_no)
            if w <= 0:
                raise DimacsError(f"non-positive weight {w}", line_no)
            if w > MASK64:
                raise DimacsError(f"weight {w} does not fit 64 bits", line_no)
            sources.append(vertex.setdefault(u, u - 1))
            targets.append(vertex.setdefault(v, v - 1))
            weights.append(weight.setdefault(w, w))
        else:
            raise DimacsError(f"unrecognized line {line!r}", line_no)
    if n is None:
        raise DimacsError("missing problem line", line_no)
    if len(sources) != m:
        raise DimacsError(f"problem line promised {m} arcs, found {len(sources)}", line_no)
    return _csr(n, sources, targets, weights)


def write_dimacs(g: Graph) -> str:
    """Inverse of parse_dimacs up to comments: problem line plus one arc line
    per stored arc, 1-based."""
    out = [f"p sp {g.vertex_count} {g.arc_count}"]
    for u in range(g.vertex_count):
        for a in range(g.offsets[u], g.offsets[u + 1]):
            out.append(f"a {u + 1} {g.targets[a] + 1} {g.weights[a]}")
    return "\n".join(out) + "\n"


class ExternalGraph:
    """CSR adjacency serialized into one BlockVector with its own cache.

    Records 0..V hold the offsets, one per record, each the offset itself;
    records V+1.. hold the arcs as target << 64 | weight records. A vertex's
    neighborhood scan touches only its contiguous arc range.
    """

    def __init__(self, g: Graph, config: EmConfig):
        if config.record_bytes != 16:
            raise ValueError("ExternalGraph needs 16-byte records")
        offsets, targets, weights = g.offsets, g.targets, g.weights
        for xs in (offsets, targets, weights):
            # the vector stores the values as they are, so each list is
            # checked here in two C-speed passes: in [0, 2^64), and ints only
            try:
                array("Q", xs)
                ok = set(map(type, xs)) <= {int}  # no bool, no __index__ object
            except (TypeError, OverflowError):
                ok = False
            if not ok:
                raise ValueError("offsets, targets and weights must be integers in [0, 2^64)")
        # and the structure, in C-speed passes too
        if not offsets or offsets[0] != 0 or offsets[-1] != len(targets) or not all(map(le, offsets, offsets[1:])):
            raise ValueError("offsets must start at 0, never decrease and end at len(targets)")
        if len(weights) != len(targets):
            raise ValueError(f"{len(weights)} weights for {len(targets)} targets")
        if targets and max(targets) >= g.vertex_count:
            raise ValueError(f"a target is not below the vertex count {g.vertex_count}")
        self.vector = BlockVector(config)
        self.vertex_count = g.vertex_count
        self.arc_count = g.arc_count
        self.source = g
        self._rpb = config.records_per_block
        vec = self.vector
        vec.extend(g.vertex_count + 1 + g.arc_count)
        # written one block's worth of records at a time, so no list of all
        # the graph's records is built beside the vector's own block lists
        step = config.records_per_block
        for lo in range(0, len(offsets), step):
            vec.write_run2(lo, offsets[lo : lo + step])
        base = len(offsets)
        for lo in range(0, g.arc_count, step):
            arcs = zip(targets[lo : lo + step], weights[lo : lo + step])
            vec.write_run2(base + lo, [t << 64 | w for t, w in arcs])

    def arc_range(self, v: int) -> tuple[int, int]:
        return self.vector.get2(v), self.vector.get2(v + 1)

    def arcs(self, lo: int, hi: int) -> list[int]:
        """Arcs lo..hi-1 as target << 64 | weight records, in one run read."""
        base = self.vertex_count + 1
        return self.vector.read_run2(base + lo, base + hi)

    def source_of_arc(self, a: int) -> int:
        """Vertex whose arc list contains arc index a (binary search on offsets).

        Charged like one get2 per probe. A probe outside the block of lo is
        made as it comes; once lo and hi share a block, every later probe
        touches that block and only the first can switch, so one touch and a
        bisect of the block's records finish the search."""
        lo, hi = 0, self.vertex_count - 1
        rpb, touch = self._rpb, self.vector.touch
        while lo < hi:
            b = lo // rpb
            base = b * rpb
            if hi < base + rpb:
                return bisect_right(touch(b, False), a, lo - base + 1, hi - base + 1) - 1 + base
            mid = (lo + hi + 1) >> 1
            b = mid // rpb
            if touch(b, False)[mid - b * rpb] <= a:
                lo = mid
            else:
                hi = mid - 1
        return lo


def load_csr(g: Graph, config: EmConfig | None = None) -> ExternalGraph:
    """Serialize a Graph into a BlockVector-backed adjacency (16 MB cache default)."""
    if config is None:
        config = EmConfig(DEFAULT_CACHE_BYTES, DEFAULT_BLOCK_BYTES, 16)
    return ExternalGraph(g, config)
