"""Streaming ingest: matrix view caching, the EdgeBuffer COO append
buffer with last-writer-wins merge semantics, and the deferred rebuild's
hazard ordering inside the planner DAG (reads submitted before a flush
see pre-flush content; reads after see post-flush content)."""

from __future__ import annotations

import pytest

import repro as grb
from repro.algebra import predefined
from repro.info import InvalidValue
from repro.stream import EdgeBuffer


@pytest.fixture(autouse=True)
def _run_in_both_modes(exec_mode):
    """Every test here runs under blocking AND nonblocking+planner mode."""


def _tuples(m: grb.Matrix) -> list[tuple[int, int, float]]:
    rows, cols, vals = m.extract_tuples()
    return sorted(zip(rows.tolist(), cols.tolist(), vals.tolist()))


class TestDCSRView:
    """A matrix's cached CSR/CSC views (the class keeps its name so its
    test ids stay stable)."""

    def test_view_cached_and_invalidated_on_mutation(self):
        m = grb.Matrix.from_coo(grb.FP64, 20, 20, [1], [1], [1.0])
        for mutate, at_3_4 in (
            (lambda: m.set_element(3, 4, 2.0), [2.0]),     # insert
            (lambda: m.set_element(3, 4, 5.0), [5.0]),     # overwrite in place
            (lambda: m.remove_element(3, 4), []),
        ):
            m.nvals()                   # sequence point before the views
            csr, csc = m.csr(), m.csc()
            assert m.csr() is csr and m.csc() is csc       # cached
            mutate()
            assert m.csr() is not csr and m.csc() is not csc
            row3, col4 = m.csr(), m.csc()
            assert row3.values[row3.indptr[3]:row3.indptr[4]].tolist() == at_3_4
            assert col4.values[col4.indptr[4]:col4.indptr[5]].tolist() == at_3_4


class TestEdgeBuffer:
    def _graph(self) -> grb.Matrix:
        return grb.Matrix.from_coo(
            grb.FP64, 8, 8, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0]
        )

    def test_batched_sets_and_removes(self):
        m = self._graph()
        buf = EdgeBuffer(m)
        buf.set_edges([4, 5], [4, 5], [9.0, 8.0])
        buf.remove_edges([1], [2])
        assert buf.pending == 3
        fr = buf.flush()
        assert buf.pending == 0
        assert _tuples(m) == [
            (0, 1, 1.0), (2, 3, 3.0), (4, 4, 9.0), (5, 5, 8.0)
        ]
        d = fr.delta
        assert d.size == 3
        assert len(d.added) == 2 and len(d.removed) == 1

    def test_last_writer_wins_within_a_batch(self):
        m = self._graph()
        buf = EdgeBuffer(m)
        # set then remove deletes; remove then set stores; two sets keep
        # the newer value
        buf.set_edges([0], [1], [7.0]).remove_edges([0], [1])
        buf.remove_edges([2], [3]).set_edges([2], [3], [5.0])
        buf.set_edges([6], [6], [1.0]).set_edges([6], [6], [2.0])
        buf.flush()
        assert _tuples(m) == [(1, 2, 2.0), (2, 3, 5.0), (6, 6, 2.0)]

    def test_noop_writes_are_filtered_from_the_delta(self):
        m = self._graph()
        buf = EdgeBuffer(m)
        buf.set_edges([0], [1], [1.0])          # rewrite of existing value
        buf.remove_edges([7], [7])              # absent edge
        fr = buf.flush()
        assert fr.delta.is_empty()
        assert _tuples(m) == [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]

    def test_value_change_recorded_as_changed(self):
        m = self._graph()
        fr = EdgeBuffer(m).set_edges([0], [1], [4.5]).flush()
        d = fr.delta
        assert d.size == 1
        assert len(d.changed) == 1
        assert d.old_values[0] == 1.0 and d.new_values[0] == 4.5
        assert d.base_nnz == 3

    def test_scalar_value_broadcasts(self):
        m = grb.Matrix(grb.FP64, 4, 4)
        EdgeBuffer(m).set_edges([0, 1, 2], [1, 2, 3], 6.0).flush()
        assert _tuples(m) == [(0, 1, 6.0), (1, 2, 6.0), (2, 3, 6.0)]

    def test_empty_flush_is_ready_immediately(self):
        m = self._graph()
        fr = EdgeBuffer(m).flush()
        assert fr.ready
        assert fr.delta.is_empty()

    def test_invalid_inputs_raise(self):
        with pytest.raises(InvalidValue):
            EdgeBuffer("not a matrix")
        m = self._graph()
        with pytest.raises(InvalidValue):
            EdgeBuffer(m).set_edges([0, 1], [0], [1.0, 2.0])
        with pytest.raises(InvalidValue):
            EdgeBuffer(m).remove_edges([0], [0, 1])
        with pytest.raises(grb.IndexOutOfBounds):
            EdgeBuffer(m).set_edges([99], [0], [1.0])

    def test_buffer_accumulates_across_flushes(self):
        m = grb.Matrix(grb.FP64, 6, 6)
        buf = EdgeBuffer(m)
        buf.set_edges([0], [0], [1.0]).flush()
        buf.set_edges([1], [1], [2.0]).flush()
        assert _tuples(m) == [(0, 0, 1.0), (1, 1, 2.0)]


class TestHazardOrdering:
    """The rebuild is a planner node: RAW/WAW edges, not wall-clock order,
    decide what each read sees."""

    def test_reads_straddling_a_flush_see_their_side(self, exec_mode):
        m = grb.Matrix.from_coo(grb.FP64, 4, 4, [0], [0], [1.0])
        u = grb.Vector.from_coo(grb.FP64, 4, [0, 1, 2, 3], [1.0] * 4)
        ring = predefined.PLUS_TIMES[grb.FP64]

        before = grb.Vector(grb.FP64, 4)
        after = grb.Vector(grb.FP64, 4)
        grb.mxv(before, None, None, ring, m, u)     # reads pre-flush m
        fr = EdgeBuffer(m).set_edges([1], [1], [5.0]).flush()
        grb.mxv(after, None, None, ring, m, u)      # reads post-flush m
        if exec_mode == "nonblocking_planner":
            # nothing forced yet: the rebuild is still a deferred node
            assert not fr.ready

        assert after.to_dense(0.0).tolist() == [1.0, 5.0, 0.0, 0.0]
        assert before.to_dense(0.0).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert fr.ready

    def test_flush_orders_against_point_updates(self):
        # WAW: set_element, flush, set_element — last writer must win in
        # program order even when every write is deferred
        m = grb.Matrix(grb.FP64, 4, 4)
        m.set_element(0, 0, 1.0)
        EdgeBuffer(m).set_edges([0], [0], [2.0]).set_edges(
            [1], [1], [7.0]
        ).flush()
        m.set_element(0, 0, 3.0)
        assert _tuples(m) == [(0, 0, 3.0), (1, 1, 7.0)]

    def test_two_flushes_apply_in_order(self):
        m = grb.Matrix(grb.FP64, 4, 4)
        buf = EdgeBuffer(m)
        buf.set_edges([2], [2], [1.0]).flush()
        buf.set_edges([2], [2], [9.0]).remove_edges([3], [3]).flush()
        assert _tuples(m) == [(2, 2, 9.0)]

    def test_delta_is_exact_after_hazard_predecessors(self):
        # the first flush's write is still deferred when the second flush
        # is submitted; the second delta must still be computed against
        # the post-first-flush content
        m = grb.Matrix(grb.FP64, 4, 4)
        buf = EdgeBuffer(m)
        buf.set_edges([1], [1], [4.0]).flush()
        fr2 = buf.set_edges([1], [1], [4.0]).flush()   # rewrite, same value
        assert fr2.delta.is_empty()
