"""Every heap rejects an id or key outside its range with ValueError, before
any mutation: after each rejection the structure still passes
check_invariants() and holds exactly what the oracle holds."""

import pytest
from hypothesis import given, settings, strategies as st

from copq.binary_heap import BinaryHeap
from copq.bucket_heap import BucketHeap
from copq.emcore import U64
from copq.funnel_heap import FunnelHeap

from oracles import MinMapPQ

BAD = [-1, -(1 << 70), U64, U64 + 12345]  # outside [0, 2^64)

# (op selector, id, key, bad value); small ids force repeats, small blocks force faults
trace = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 40), st.integers(0, 1000), st.sampled_from(BAD)),
    max_size=200,
)


def rejected(call, *args):
    with pytest.raises(ValueError):
        call(*args)


def binary_contents(h):
    return dict(h.heap.peek2(slot) for slot in range(len(h)))


@given(trace)
@settings(max_examples=60, deadline=None)
def test_binary_heap_rejects_without_change(ops):
    h = BinaryHeap(cache_bytes=4 * 256, block_bytes=256)
    oracle = MinMapPQ()
    for op, ident, key, bad in ops:
        if op == 0:
            cur = oracle.live.get(ident)
            if cur is None:
                h.insert(ident, key)
            elif key < cur:
                h.decrease_key(ident, key)
            oracle.update(ident, key)
            continue
        if op == 1:
            if len(oracle):
                assert h.delete_min() == oracle.delete_min()
            continue
        invalid = [
            (h.insert, bad, key),
            (h.insert, ident, bad),
            (h.decrease_key, bad, key),
            (h.decrease_key, ident, bad),
        ]
        rejected(*invalid[op - 2])
        h.check_invariants()
        assert binary_contents(h) == oracle.live
    while len(oracle):
        assert h.delete_min() == oracle.delete_min()
    assert h.find_min() is None


@given(trace)
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
            assert h._live_items() == sorted(live)
    for key, ident in sorted(live):
        assert h.delete_min() == (ident, key)
    assert h.find_min() is None


@given(trace)
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
