"""Directed planner edge cases (ISSUE satellite): scenarios the fuzzer's
random walk visits rarely but whose hazards live exactly where
``execution/planner/passes.py`` makes its calls — fusion with a still-live
intermediate, CSE across a mutating ``assign``, and REPLACE+mask riding on
a fused pair.  Each scenario is checked for bit-equality against the
blocking-mode result."""

import numpy as np
import pytest

import repro as grb
from repro import context, obs, parallel, planner
from repro.obs.diag import explain as diag_explain

from tests.conftest import random_matrix


def _snap(obj):
    return obj.extract_tuples()


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g, w), f"{g!r} != {w!r}"
        assert g.dtype == w.dtype


class TestFusionIntermediateIsLaterOperand:
    """Producer→consumer pair where the consumer's in-place output is read
    again by a *later* op: fusing must preserve the intermediate's final
    value for that reader."""

    def _build(self):
        rng = np.random.default_rng(21)
        A = random_matrix(rng, 8, 8, 0.5)
        B = random_matrix(rng, 8, 8, 0.5)
        T = grb.Matrix(grb.INT64, 8, 8)
        D = grb.Matrix(grb.INT64, 8, 8)
        # candidate pair: mxm into fresh T, then in-place apply on T
        grb.mxm(T, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
        grb.apply(T, None, None, grb.AINV[grb.INT64], T)
        # ...but T is also a later operand: its post-apply value must be
        # materialized, fused or not
        grb.ewise_add(D, None, None, grb.PLUS[grb.INT64], T, B)
        return T, D

    def test_matches_blocking(self):
        context._reset()
        want = tuple(_snap(o) for o in self._build())
        context._reset()
        grb.init(grb.Mode.NONBLOCKING)
        objs = self._build()
        grb.wait()
        for o, w in zip(objs, want):
            _assert_same(_snap(o), w)


class TestCseAcrossMutatingAssign:
    """Two textually identical ``mxm`` calls separated by an ``assign``
    that mutates an input: the second is NOT a common subexpression."""

    def _build(self):
        rng = np.random.default_rng(22)
        A = random_matrix(rng, 6, 6, 0.6)
        C1 = grb.Matrix(grb.INT64, 6, 6)
        C2 = grb.Matrix(grb.INT64, 6, 6)
        grb.mxm(C1, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
        # mutate A between the twins: overwrite one region with a scalar
        grb.matrix_assign_scalar(A, None, None, 9, [0, 1], [0, 1], None)
        grb.mxm(C2, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
        return C1, C2

    def test_no_cse_and_matches_blocking(self):
        context._reset()
        want = tuple(_snap(o) for o in self._build())
        context._reset()
        grb.init(grb.Mode.NONBLOCKING)
        with obs.capture() as cap:
            objs = self._build()
            grb.wait()
        assert cap.queue_delta()["cse"] == 0, "CSE merged across a mutated input"
        for o, w in zip(objs, want):
            _assert_same(_snap(o), w)

    def test_control_without_assign_does_cse(self):
        # the same twin mxm with no interleaved write IS deduplicated —
        # proving the mutation, not luck, is what blocked CSE above
        context._reset()
        grb.init(grb.Mode.NONBLOCKING)
        rng = np.random.default_rng(22)
        A = random_matrix(rng, 6, 6, 0.6)
        C1 = grb.Matrix(grb.INT64, 6, 6)
        C2 = grb.Matrix(grb.INT64, 6, 6)
        with obs.capture() as cap:
            grb.mxm(C1, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            grb.mxm(C2, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            grb.wait()
        assert cap.queue_delta()["cse"] == 1
        _assert_same(_snap(C2), _snap(C1))


class TestReplaceMaskOnFusedPair:
    """A masked REPLACE consumer riding on a fusion candidate: the fused
    kernel must still clear the unmasked region of the output."""

    def _build(self):
        rng = np.random.default_rng(23)
        A = random_matrix(rng, 8, 8, 0.5)
        M = random_matrix(rng, 8, 8, 0.4, domain=grb.BOOL)
        C = grb.Matrix(grb.INT64, 8, 8)
        desc = grb.Descriptor().set(grb.OUTP, grb.REPLACE)
        grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
        # in-place masked REPLACE apply: C⟨M,replace⟩ = -C
        grb.apply(C, M, None, grb.AINV[grb.INT64], C, desc)
        return C

    def test_matches_blocking(self):
        context._reset()
        want = _snap(self._build())
        context._reset()
        grb.init(grb.Mode.NONBLOCKING)
        C = self._build()
        grb.wait()
        _assert_same(_snap(C), want)

    def test_matches_blocking_under_all_pass_ablation(self):
        context._reset()
        want = _snap(self._build())
        for knobs in (
            dict(fusion=False),
            dict(cse=False),
            dict(dead_op=False),
            dict(enabled=False),
        ):
            context._reset()
            grb.init(grb.Mode.NONBLOCKING)
            planner.configure(**knobs)
            C = self._build()
            grb.wait()
            _assert_same(_snap(C), want)


class TestOneExecutor:
    """Planner-on, planner-off, CSE reuses and shard completions all run
    ``ExecutionPlan`` nodes through ``execute_standard``: what differs is
    where T comes from, never the failure contract or the accounting."""

    def _failing_chain(self):
        def boom(x, y):
            raise grb.info.OutOfMemory("simulated allocation failure")

        bad = grb.binary_op_new(boom, grb.INT64, grb.INT64, grb.INT64)
        A = random_matrix(np.random.default_rng(29), 6, 6, 0.5)
        outs = [grb.Matrix(grb.INT64, 6, 6) for _ in range(4)]
        grb.mxm(outs[0], None, None, grb.PLUS_TIMES[grb.INT64], A, A)
        grb.ewise_mult(outs[1], None, None, bad, outs[0], A)  # fails
        grb.apply(outs[2], None, None, grb.AINV[grb.INT64], outs[1])
        grb.ewise_add(outs[3], None, None, grb.PLUS[grb.INT64], outs[2], A)
        return outs

    def _drain_failing(self, **knobs):
        context._reset()
        grb.init(grb.Mode.NONBLOCKING)
        planner.configure(**knobs)
        outs = self._failing_chain()
        with pytest.raises(grb.GraphBLASError) as raised:
            grb.wait()
        failed = context.current_context().queue.failed_tail
        poisoned = []
        for C in outs:
            try:
                C.nvals()
                poisoned.append(False)
            except grb.InvalidObject:
                poisoned.append(True)
        return (
            type(raised.value),
            [op.label for op in failed],
            [outs.index(op.writes) for op in failed],
            poisoned,
            context.queue_stats()["executed"],
        )

    def test_failure_contract_same_with_planner_on_and_off(self):
        on = self._drain_failing()
        off = self._drain_failing(enabled=False)
        assert on == off
        info, labels, written, poisoned, executed = off
        assert info is grb.info.OutOfMemory
        # the failing op first, then everything after it in program order
        assert labels == ["eWiseMult", "apply", "eWiseAdd"]
        assert written == [1, 2, 3]
        assert poisoned == [False, True, True, True]
        assert executed == 1

    def test_cse_reuse_counts_and_sharded_completion_does_not(self, rng):
        s = grb.PLUS_TIMES[grb.INT64]
        A = random_matrix(rng, 24, 24, 0.3)
        B = random_matrix(rng, 24, 24, 0.3)
        grb.init(grb.Mode.NONBLOCKING)

        C1, C2 = (grb.Matrix(grb.INT64, 24, 24) for _ in range(2))
        with obs.capture() as cap:
            grb.mxm(C1, None, None, s, A, B)
            grb.mxm(C2, None, None, s, A, B)
            grb.wait()
        assert cap.queue_delta()["cse"] == 1
        assert cap.counters["op.cse_reuses"] == 1

        # a shard completion also hands execute_standard a precomputed T,
        # but nothing was reused: the counter belongs to the CSE runner
        parallel.set_backend("processes")
        parallel.set_parallel_threshold(0)
        parallel.set_shard_workers(2)
        C3 = grb.Matrix(grb.INT64, 24, 24)
        with obs.capture() as cap:
            grb.mxm(C3, None, None, s, A, B)
            grb.wait()
        (sp,) = cap.spans_of("op")
        assert sp.label == "mxm" and sp.attrs["sharded"] is True
        assert sp.attrs["shard"]["tasks"] == 2
        # the pool call and one backdated lane span per stripe stand where
        # the spgemm kernel span would
        assert sorted(k.label for k in cap.spans_of("kernel")) == [
            "shard", "shard:0", "shard:1",
        ]
        assert sp.attrs["kind"] == "mxm" and "nnz_out" in sp.attrs
        assert cap.counters.get("op.cse_reuses", 0) == 0
        _assert_same(_snap(C3), _snap(C1))

        # a CSE source goes through execute_standard like everyone else:
        # it ships once, and its duplicate reuses the captured T
        C4, C5 = (grb.Matrix(grb.INT64, 24, 24) for _ in range(2))
        with obs.capture() as cap:
            grb.mxm(C4, None, None, s, A, B)
            grb.mxm(C5, None, None, s, A, B)
            grb.wait()
        src, dup = cap.spans_of("op")
        assert src.label == "mxm" and src.attrs["shard"]["tasks"] == 2
        assert dup.label == "mxm[cse]" and "sharded" not in dup.attrs
        assert cap.counters["op.cse_reuses"] == 1
        assert cap.counters["shard.tasks"] == 2
        _assert_same(_snap(C4), _snap(C1))
        _assert_same(_snap(C5), _snap(C1))

    def test_planner_off_explain_is_one_plain_node_per_op(self, rng):
        grb.init(grb.Mode.NONBLOCKING)
        planner.configure(enabled=False)
        A = random_matrix(rng, 6, 6, 0.5)
        C = grb.Matrix(grb.INT64, 6, 6)
        with diag_explain.collect() as col:
            # a dead op, a fusable pair and a CSE duplicate: all survive
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            grb.apply(C, None, None, grb.AINV[grb.INT64], C)
            grb.wait()
        (plan,) = col.record()["plans"]
        assert plan["optimize"] is False
        assert plan["levels"] == 3 and plan["elided"] == 0
        assert plan["fused_chains"] == 0 and plan["cse_merged"] == 0
        assert [n["label"] for n in plan["nodes"]] == ["mxm", "mxm", "apply"]
        assert [n["kind"] for n in plan["nodes"]] == ["plain"] * 3
        assert [n["level"] for n in plan["nodes"]] == [0, 1, 2]
        assert [n["preds"] for n in plan["nodes"]] == [[], [0], [1]]
        assert context.queue_stats()["max_width"] == 0  # no DAG was built
