"""Every heap rejects an id or key outside its range, or one that is not an
integer, with ValueError, before any mutation: after each rejection the
structure still passes check_invariants() and holds exactly what the oracle
holds. What a 64-bit field takes is accepted and stored as a plain int:
ints, bools and objects with __index__."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from copq.binary_heap import BinaryHeap
from copq.bucket_heap import BucketHeap
from copq.emcore import MASK64, U64
from copq.funnel_heap import FunnelHeap

from oracles import MinMapPQ, MultisetPQ

BAD = [-1, -(1 << 70), U64, U64 + 12345, 2.5, 3.0, "7", None]  # outside [0, 2^64), or no integer


def trace(nops):
    """(op selector in [0, nops), id, key, bad value) lists; small ids force
    repeats, small blocks force faults."""
    return st.lists(
        st.tuples(st.integers(0, nops - 1), st.integers(0, 40), st.integers(0, 1000), st.sampled_from(BAD)),
        max_size=200,
    )


def rejected(call, *args):
    with pytest.raises(ValueError):
        call(*args)


def binary_contents(h):
    return {rec & MASK64: rec >> 64 for rec in h.heap.peek_run2(0, len(h))}


@given(trace(7))
@settings(max_examples=60, deadline=None)
def test_binary_heap_rejects_without_change(ops):
    h = BinaryHeap(cache_bytes=4 * 256, block_bytes=256)
    oracle = MinMapPQ()
    for op, ident, key, bad in ops:
        if op == 0:
            h.update(ident, key)
            oracle.update(ident, key)
            continue
        if op == 1:
            if len(oracle):
                assert h.delete_min() == oracle.delete_min()
            continue
        invalid = [
            (h.insert, bad, key),
            (h.insert, ident, bad),
            (h.update, bad, key),
            (h.update, ident, bad),
            (h.update, bad, bad),
        ]
        rejected(*invalid[op - 2])
        h.check_invariants()
        assert binary_contents(h) == oracle.live
    while len(oracle):
        assert h.delete_min() == oracle.delete_min()
    assert h.find_min() is None


@given(trace(6))
@settings(max_examples=60, deadline=None)
def test_funnel_heap_rejects_without_change(ops):
    h = FunnelHeap(cache_bytes=4 * 256, block_bytes=256)
    live = []  # (key, id) multiset
    for op, ident, key, bad in ops:
        if op in (0, 1):
            h.insert(ident, key)
            live.append((key, ident))
        elif op == 2:
            if live:
                want = min(live)
                live.remove(want)
                assert h.delete_min() == (want[1], want[0])
        else:
            rejected(*[(h.insert, bad, key), (h.insert, ident, bad), (h.insert, bad, bad)][op - 3])
            h.check_invariants()
            assert h._live_items() == sorted(key << 64 | ident for key, ident in live)
    for key, ident in sorted(live):
        assert h.delete_min() == (ident, key)
    assert h.find_min() is None


@given(trace(6))
@settings(max_examples=60, deadline=None)
def test_bucket_heap_rejects_without_change(ops):
    h = BucketHeap(cache_bytes=4 * 256, block_bytes=256)
    oracle = MinMapPQ()
    for op, ident, key, bad in ops:
        if op == 0:
            h.update(ident, key)
            oracle.update(ident, key)
        elif op == 1:
            h.delete(ident)
            oracle.delete(ident)
        elif op == 2:
            if len(oracle):
                assert h.delete_min() == oracle.delete_min()
        else:
            rejected(*[(h.update, bad, key), (h.update, ident, bad), (h.delete, bad)][op - 3])
            rejected(h.update, ident, U64 - 1)  # the delete-signal sentinel is no key
            h.check_invariants()
            assert h._live_map() == oracle.live
    while len(oracle):
        assert h.delete_min() == oracle.delete_min()
    assert h.find_min() is None


class Index:
    """Not an int, but usable as one through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("heap", [BinaryHeap, FunnelHeap, BucketHeap])
def test_index_objects_and_bools_stored_as_ints(heap):
    h = heap(cache_bytes=4 * 256, block_bytes=256)
    h.insert(Index(3), Index(70))
    h.insert(True, 50)
    h.insert(7, Index(60))
    h.check_invariants()
    popped = [h.delete_min() for _ in range(3)]
    assert popped == [(1, 50), (7, 60), (3, 70)]
    assert all(type(field) is int for record in popped for field in record)
    assert h.find_min() is None


def test_index_objects_in_the_keyed_operations():
    b = BinaryHeap(cache_bytes=4 * 256, block_bytes=256)
    b.insert(3, 70)
    b.update(Index(3), Index(40))
    b.update(Index(4), Index(50))
    b.update(Index(4), Index(60))
    assert [b.delete_min() for _ in range(2)] == [(3, 40), (4, 50)]
    u = BucketHeap(cache_bytes=4 * 256, block_bytes=256)
    u.update(3, 70)
    u.update(Index(3), Index(40))
    u.update(5, 90)
    u.delete(Index(5))
    assert u._live_map() == {3: 40}


EDGES = [0, 1, 1 << 63, U64 - 2, U64 - 1]  # where a mask, shift or sentinel slip shows


def min_record_bytes(h):
    """The bytes of the record a heap holding one element stores for it."""
    if isinstance(h, BinaryHeap):
        return h.heap.get(0)
    if isinstance(h, FunnelHeap):
        return h.vector.get(h._I.start + h._I.head)
    top = h._levels[0]  # find_min has moved the element into the top bucket
    return h.vector.get(top.bstart + top.bhead)


@pytest.mark.parametrize("heap", [BinaryHeap, FunnelHeap, BucketHeap])
def test_extreme_fields_through_the_record_packing(heap):
    keys = EDGES[:-1] if heap is BucketHeap else EDGES  # 2^64 - 1 is the bucket heap's delete key
    for ident in EDGES:
        for key in keys:
            h = heap(cache_bytes=4 * 256, block_bytes=256)
            h.insert(ident, key)
            assert h.find_min() == (ident, key)
            assert min_record_bytes(h) == struct.pack("<QQ", key, ident)
            assert h.delete_min() == (ident, key)
            if heap is BinaryHeap:  # update: an absent id, a key that is not lower, a lower one
                h.update(ident, MASK64)
                h.update(ident, MASK64)
                h.update(ident, key)
                assert min_record_bytes(h) == struct.pack("<QQ", key, ident)
                assert h.delete_min() == (ident, key)
    # every id with each key in turn; the binary heap's live ids are unique,
    # so it empties after each round, the others hold all rounds at once
    h = heap(cache_bytes=4 * 256, block_bytes=256)
    oracle = MinMapPQ() if heap is BucketHeap else MultisetPQ()
    add = oracle.update if heap is BucketHeap else oracle.insert

    def pop_all():
        while len(oracle):
            assert h.delete_min() == oracle.delete_min()
            h.check_invariants()

    for r in range(len(keys)):
        for j, ident in enumerate(EDGES):
            key = keys[(j + r) % len(keys)]
            h.insert(ident, key)
            add(ident, key)
            h.check_invariants()
        if heap is BinaryHeap:
            pop_all()
    if heap is BucketHeap:
        h.delete(U64 - 1)
        oracle.delete(U64 - 1)
    pop_all()
    assert h.find_min() is None
