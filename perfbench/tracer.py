"""Span tracer for the copq benchmark.

The tracer wraps copq's public functions and methods from outside the
library: ``patch`` replaces attributes on the classes and on the ``copq``
package, and ``restore`` puts the originals back. Every wrapped call
records one span. A call's self time is its span minus the spans of the
wrapped calls it made, so time spent in ``BlockVector`` accessors is
charged to ``emcore`` and not to the heap method that called them.

Memory stays bounded: each (layer, op) pair keeps running totals. Only the
layers asked to keep samples (the heaps, a few hundred thousand calls per
run) also keep every span duration, for latency percentiles; the millions
of ``emcore`` calls are aggregated only.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter


class Agg:
    """Running totals for one (layer, op): calls, inclusive span, self time."""

    __slots__ = ("calls", "span_s", "self_s", "samples")

    def __init__(self, keep_samples: bool):
        self.calls = 0
        self.span_s = 0.0
        self.self_s = 0.0
        self.samples = array("d") if keep_samples else None

    def snapshot(self) -> "Agg":
        out = Agg(False)
        out.calls, out.span_s, out.self_s = self.calls, self.span_s, self.self_s
        out.samples = array("d", self.samples) if self.samples is not None else None
        return out

    def clear(self) -> None:
        self.calls = 0
        self.span_s = 0.0
        self.self_s = 0.0
        if self.samples is not None:
            del self.samples[:]


def public_methods(cls) -> list[str]:
    """Names of the plain public methods a class defines itself, plus __len__."""
    return [
        name
        for name, attr in vars(cls).items()
        if (name == "__len__" or not name.startswith("_"))
        and inspect.isfunction(attr)
        and not inspect.isgeneratorfunction(attr)
    ]


class Tracer:
    def __init__(self):
        self._aggs: dict[tuple[str, str], Agg] = {}
        self._stack = [0.0]  # child-span time accumulated by each open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, agg: Agg, after=None):
        stack = self._stack
        samples = agg.samples

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                agg.calls += 1
                agg.span_s += dt
                agg.self_s += dt - child
                if samples is not None:
                    samples.append(dt)
                if after is not None:
                    after(args[0])

        return traced

    def patch(self, owner, name: str, layer: str, op: str | None = None, keep_samples=False, after=None):
        """Replace owner.name by a traced wrapper recorded as (layer, op)."""
        key = (layer, op or name)
        agg = self._aggs.get(key)
        if agg is None:
            agg = self._aggs[key] = Agg(keep_samples)
        fn = getattr(owner, name) if not inspect.isclass(owner) else vars(owner)[name]
        self._saved.append((owner, name, fn))
        setattr(owner, name, self._wrap(fn, agg, after))

    def patch_class(self, cls, layer: str, keep_samples=False, after: dict | None = None):
        for name in public_methods(cls):
            self.patch(cls, name, layer, keep_samples=keep_samples, after=(after or {}).get(name))

    def restore(self) -> None:
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)

    def take(self) -> dict[tuple[str, str], Agg]:
        """Return the totals since the last take() and start new ones."""
        out = {key: agg.snapshot() for key, agg in self._aggs.items()}
        for agg in self._aggs.values():
            agg.clear()
        return out
