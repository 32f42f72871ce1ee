"""Unit tests for the sorted-index-set primitives every kernel builds on."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro as grb
from repro import _sparseutil as su
from repro.algebra import predefined

SETTINGS = dict(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

sorted_unique = st.lists(
    st.integers(0, 60), max_size=30, unique=True
).map(lambda xs: np.array(sorted(xs), dtype=np.int64))


@st.composite
def lookups(draw):
    """``(keys, table)``: unique keys, in order or shuffled, and a
    sorted-unique table, at sizes and ranges that reach both lookup paths
    (a direct-address table and ``searchsorted``), with keys outside the
    table's range and empty tables."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.sampled_from([0, 1, 40, 1500]))
    k = draw(st.sampled_from([0, 3, 40, 1500]))
    span = draw(st.sampled_from([60, 5_000, 2**20, 2**40]))
    lo = draw(st.integers(0, 2**20))
    table = np.unique(lo + rng.integers(0, span, m))
    near = rng.integers(max(lo - span, 0), lo + 2 * span, k)
    hits = rng.choice(table, min(k, len(table)), replace=False)
    keys = np.unique(np.concatenate([near, hits]).astype(np.int64))
    if draw(st.booleans()):
        rng.shuffle(keys)
    return keys, table


class TestFlatKeys:
    def test_round_trip(self):
        rows = np.array([0, 1, 2], dtype=np.int64)
        cols = np.array([5, 0, 3], dtype=np.int64)
        keys = su.flatten_keys(rows, cols, 7)
        r, c = su.unflatten_keys(keys, 7)
        assert r.tolist() == rows.tolist()
        assert c.tolist() == cols.tolist()

    def test_row_major_ordering(self):
        # flattening preserves (row, col) lexicographic order
        keys = su.flatten_keys(
            np.array([0, 0, 1]), np.array([0, 6, 0]), 7
        )
        assert (np.diff(keys) > 0).all()

    def test_capacity_guard(self):
        with pytest.raises(grb.info.InsufficientSpace):
            su.check_flat_capacity(2**31, 2**31)
        su.check_flat_capacity(2**30, 2**30)  # fine


class TestMembership:
    @given(ab=lookups())
    @settings(**SETTINGS)
    def test_membership_matches_python_sets(self, ab):
        a, b = ab
        got = su.membership(a, b)
        want = [int(x) in set(b.tolist()) for x in a]
        assert got.tolist() == want

    @given(ab=lookups())
    @settings(**SETTINGS)
    def test_intersect_indices(self, ab):
        a, b = ab
        ia, ib = su.intersect_indices(a, b)
        assert a[ia].tolist() == b[ib].tolist()
        assert set(a[ia].tolist()) == set(a.tolist()) & set(b.tolist())
        where = {int(x): i for i, x in enumerate(b)}
        got = su.positions(a, b)
        assert got.tolist() == [where.get(int(x), -1) for x in a]

    @given(ab=lookups())
    @settings(**SETTINGS)
    def test_setdiff_mask(self, ab):
        a, b = ab
        keep = su.setdiff_mask(a, b)
        assert set(a[keep].tolist()) == set(a.tolist()) - set(b.tolist())

    def test_empty_edge_cases(self):
        e = np.empty(0, dtype=np.int64)
        x = np.array([1, 2], dtype=np.int64)
        assert su.membership(x, e).tolist() == [False, False]
        assert su.membership(e, x).tolist() == []
        assert su.positions(x, e).tolist() == [-1, -1]
        assert su.positions(e, x).tolist() == []
        ia, ib = su.intersect_indices(e, x)
        assert len(ia) == 0 and len(ib) == 0
        # the direct table exists only while the range is within bound
        assert su.bitmap(e, 2000) is None
        assert su.bitmap(np.arange(0, 4000, 2), 2000) is not None
        assert su.bitmap(np.array([0, 10**9]), 2000) is None
        # ... and for enough keys to pay for its build
        assert su.bitmap(np.arange(0, 4000, 2), 3) is None
        assert su.bitmap(np.arange(0, 10**5, 2), 2000) is None


class TestUnionKeys:
    @given(a=sorted_unique, b=sorted_unique)
    @settings(**SETTINGS)
    def test_union_semantics(self, a, b):
        av = np.arange(1, len(a) + 1, dtype=np.int64)
        bv = -np.arange(1, len(b) + 1, dtype=np.int64)
        keys, vals = su.union_keys(
            a, av, b, bv, np.dtype(np.int64), lambda x, y: x + y
        )
        expect = {}
        for k, v in zip(a.tolist(), av.tolist()):
            expect[k] = v
        for k, v in zip(b.tolist(), bv.tolist()):
            expect[k] = expect.get(k, 0) + v if k in expect else v
        assert dict(zip(keys.tolist(), vals.tolist())) == expect
        assert (np.diff(keys) > 0).all() if len(keys) > 1 else True

    def test_result_never_aliases_inputs(self):
        a = np.array([1], dtype=np.int64)
        av = np.array([5], dtype=np.int64)
        e = np.empty(0, dtype=np.int64)
        keys, vals = su.union_keys(
            e, e.astype(np.int64), a, av, np.dtype(np.int64), lambda x, y: x
        )
        vals[0] = 99
        assert av[0] == 5  # defensive copy held


class TestSegmentReduce:
    def test_ufunc_path(self):
        vals = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        starts = np.array([0, 2], dtype=np.int64)
        out = su.segment_reduce(vals, starts, predefined.PLUS_MONOID[grb.INT64])
        assert out.tolist() == [3, 12]

    def test_generic_path_matches_ufunc(self, rng):
        vals = rng.integers(-5, 5, 30)
        starts = np.array([0, 7, 8, 20], dtype=np.int64)
        fast = su.segment_reduce(
            vals, starts, predefined.PLUS_MONOID[grb.INT64]
        )
        slow_monoid = grb.monoid_new(
            grb.binary_op_new(
                lambda a, b: a + b, grb.INT64, grb.INT64, grb.INT64,
                associative=True, commutative=True,
            ),
            0,
        )
        slow = su.segment_reduce(vals, starts, slow_monoid)
        assert fast.tolist() == slow.tolist()

    def test_min_reduce(self):
        vals = np.array([3.0, 1.0, 7.0, -2.0])
        starts = np.array([0, 2], dtype=np.int64)
        out = su.segment_reduce(vals, starts, predefined.MIN_MONOID[grb.FP64])
        assert out.tolist() == [1.0, -2.0]

    def test_empty(self):
        out = su.segment_reduce(
            np.empty(0), np.empty(0, dtype=np.int64),
            predefined.PLUS_MONOID[grb.FP64],
        )
        assert len(out) == 0


class TestRangesConcat:
    def test_basic(self):
        starts = np.array([10, 20], dtype=np.int64)
        counts = np.array([3, 2], dtype=np.int64)
        assert su.ranges_concat(starts, counts).tolist() == [10, 11, 12, 20, 21]

    def test_zero_counts_skipped(self):
        starts = np.array([5, 9, 100], dtype=np.int64)
        counts = np.array([2, 0, 1], dtype=np.int64)
        assert su.ranges_concat(starts, counts).tolist() == [5, 6, 100]

    def test_all_empty(self):
        assert len(su.ranges_concat(
            np.array([1, 2], dtype=np.int64), np.zeros(2, dtype=np.int64)
        )) == 0

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_matches_naive(self, data):
        n = data.draw(st.integers(0, 10))
        starts = np.array(
            data.draw(st.lists(st.integers(0, 50), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        counts = np.array(
            data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        want = []
        for s, c in zip(starts, counts):
            want.extend(range(s, s + c))
        assert su.ranges_concat(starts, counts).tolist() == want


class TestGroupStarts:
    def test_runs(self):
        keys = np.array([2, 2, 5, 7, 7, 7], dtype=np.int64)
        uniq, starts = su.group_starts(keys)
        assert uniq.tolist() == [2, 5, 7]
        assert starts.tolist() == [0, 2, 3]

    def test_all_unique(self):
        keys = np.array([1, 2, 3], dtype=np.int64)
        uniq, starts = su.group_starts(keys)
        assert uniq.tolist() == [1, 2, 3]
        assert starts.tolist() == [0, 1, 2]

    def test_empty(self):
        uniq, starts = su.group_starts(np.empty(0, dtype=np.int64))
        assert len(uniq) == 0 and len(starts) == 0
