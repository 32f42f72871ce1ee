"""Unit tests for the storage-format helpers and the sequence queue."""

import numpy as np
import pytest

import repro as grb
from repro import planner
from repro.containers.formats import (
    assemble,
    check_indices,
    csr_from_keys,
    transpose_permutation,
)
from repro.execution.sequence import DeferredOp, SequenceQueue
from repro.ops import binary


class TestAssemble:
    def test_sorts(self):
        keys = np.array([7, 1, 4], dtype=np.int64)
        vals = np.array([70, 10, 40], dtype=np.int64)
        k, v = assemble(keys, vals, None, np.dtype(np.int64))
        assert k.tolist() == [1, 4, 7]
        assert v.tolist() == [10, 40, 70]

    def test_dedup_with_ufunc_op(self):
        keys = np.array([3, 3, 3, 1], dtype=np.int64)
        vals = np.array([1, 2, 4, 9], dtype=np.int64)
        k, v = assemble(keys, vals, binary.PLUS[grb.INT64], np.dtype(np.int64))
        assert dict(zip(k.tolist(), v.tolist())) == {1: 9, 3: 7}

    def test_dedup_generic_op_in_order(self):
        # non-commutative dup: combination must run in index order
        op = grb.binary_op_new(
            lambda a, b: a * 10 + b, grb.INT64, grb.INT64, grb.INT64
        )
        keys = np.array([5, 5, 5], dtype=np.int64)
        vals = np.array([1, 2, 3], dtype=np.int64)
        k, v = assemble(keys, vals, op, np.dtype(np.int64))
        assert v.tolist() == [123]

    def test_duplicates_without_dup_raise(self):
        with pytest.raises(grb.InvalidValue):
            assemble(
                np.array([1, 1], dtype=np.int64),
                np.array([1, 2], dtype=np.int64),
                None,
                np.dtype(np.int64),
            )

    def test_empty(self):
        k, v = assemble(
            np.empty(0, dtype=np.int64), np.empty(0), None, np.dtype(np.float64)
        )
        assert len(k) == 0 and v.dtype == np.float64

    def test_check_indices(self):
        assert check_indices([1, 2], 5, "x").dtype == np.int64
        with pytest.raises(grb.IndexOutOfBounds):
            check_indices([5], 5, "x")
        with pytest.raises(grb.InvalidValue):
            check_indices([[1]], 5, "x")


class TestCSRViews:
    def test_csr_from_keys(self):
        # 2x3 matrix with (0,1)=a, (1,0)=b, (1,2)=c
        keys = np.array([1, 3, 5], dtype=np.int64)
        vals = np.array([10, 20, 30])
        view = csr_from_keys(keys, vals, 2, 3)
        assert view.indptr.tolist() == [0, 1, 3]
        assert view.indices.tolist() == [1, 0, 2]
        assert view.row_ids().tolist() == [0, 1, 1]
        assert view.row_counts().tolist() == [1, 2]
        assert view.nnz == 3

    def test_row_slice(self):
        keys = np.array([1, 3, 5], dtype=np.int64)
        view = csr_from_keys(keys, np.zeros(3), 2, 3)
        assert view.row_slice(1) == slice(1, 3)

    def test_transpose_permutation(self):
        # (0,1) and (1,0): transpose swaps them
        keys = np.array([1, 2], dtype=np.int64)  # 2x2: (0,1), (1,0)
        t_keys, perm = transpose_permutation(keys, 2, 2)
        assert t_keys.tolist() == [1, 2]
        assert perm.tolist() == [1, 0]

    def test_transpose_sortedness(self, rng):
        n = 12
        keys = np.sort(
            rng.choice(n * n, size=30, replace=False).astype(np.int64)
        )
        t_keys, perm = transpose_permutation(keys, n, n)
        assert (np.diff(t_keys) > 0).all()
        assert len(perm) == len(keys)


class TestSequenceQueue:
    def _op(self, log, name, reads=(), writes=None, overwrites=False):
        return DeferredOp(
            thunk=lambda: log.append(name),
            reads=reads,
            writes=writes if writes is not None else object(),
            label=name,
            overwrites_output=overwrites,
        )

    def test_fifo_order(self):
        q = SequenceQueue()
        log = []
        for name in "abc":
            q.push(self._op(log, name))
        q.drain()
        assert log == ["a", "b", "c"]

    def test_dead_op_elimination_chain(self):
        q = SequenceQueue()
        log = []
        x = object()
        q.push(self._op(log, "dead1", writes=x, overwrites=True))
        q.push(self._op(log, "dead2", writes=x, overwrites=True))
        q.push(self._op(log, "live", writes=x, overwrites=True))
        q.drain()
        assert log == ["live"]
        assert q.stats.elided == 2

    def test_read_blocks_elimination(self):
        q = SequenceQueue()
        log = []
        x, y = object(), object()
        q.push(self._op(log, "produce", writes=x, overwrites=True))
        q.push(self._op(log, "consume", reads=(x,), writes=y, overwrites=True))
        q.push(self._op(log, "overwrite", writes=x, overwrites=True))
        q.drain()
        assert log == ["produce", "consume", "overwrite"]

    def test_elided_ops_reads_do_not_protect(self):
        # a dead op's reads never happen: the object it read can itself be
        # dead for even earlier writers
        q = SequenceQueue()
        log = []
        x, y = object(), object()
        q.push(self._op(log, "w_y_early", writes=y, overwrites=True))
        q.push(self._op(log, "dead_reads_y", reads=(y,), writes=x, overwrites=True))
        q.push(self._op(log, "w_x", writes=x, overwrites=True))
        q.push(self._op(log, "w_y_late", writes=y, overwrites=True))
        q.drain()
        assert log == ["w_x", "w_y_late"]
        assert q.stats.elided == 2

    def test_non_overwriting_op_protects_earlier_writes(self):
        q = SequenceQueue()
        log = []
        x = object()
        q.push(self._op(log, "base", writes=x, overwrites=True))
        q.push(self._op(log, "accum", reads=(x,), writes=x, overwrites=False))
        q.drain()
        assert log == ["base", "accum"]

    def test_optimization_can_be_disabled(self):
        q = SequenceQueue()
        log = []
        x = object()
        q.push(self._op(log, "a", writes=x, overwrites=True))
        q.push(self._op(log, "b", writes=x, overwrites=True))
        with planner.override(enabled=False):
            q.drain()
        assert log == ["a", "b"]
        assert q.stats.elided == 0

    def test_failure_exposes_tail(self):
        q = SequenceQueue()
        log = []
        x, y = object(), object()

        def boom():
            raise grb.info.OutOfMemory("x")

        q.push(self._op(log, "ok", writes=x, overwrites=True))
        q.push(
            DeferredOp(thunk=boom, reads=(x,), writes=y, label="fail")
        )
        q.push(self._op(log, "never", writes=x, overwrites=True))
        with pytest.raises(grb.info.OutOfMemory):
            q.drain()
        labels = [op.label for op in q.failed_tail]
        assert labels == ["fail", "never"]
        assert log == ["ok"]
        assert len(q) == 0  # queue consumed even on failure

    def test_involves(self):
        q = SequenceQueue()
        x, y = object(), object()
        q.push(self._op([], "op", reads=(x,), writes=y))
        assert q.involves(x) and q.involves(y)
        assert not q.involves(object())
        assert q.pending_for(y) and not q.pending_for(x)
