"""The sequence planner: dead-op hazard rule, fusion, CSE, the DAG
scheduler, the per-pass knobs, and blocking-equivalence guarantees."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import repro as grb
from repro import context, obs, parallel, planner
from repro.execution.planner.passes import dead_op_pass
from repro.execution.sequence import DeferredOp, SequenceQueue

from tests.conftest import op_count, random_matrix, random_vector


def _op(log, name, reads=(), writes=None, overwrites=False):
    return DeferredOp(
        thunk=lambda: log.append(name),
        reads=reads,
        writes=writes if writes is not None else object(),
        label=name,
        overwrites_output=overwrites,
    )


class TestDeadOpHazardRule:
    """Satellite: an op whose ``writes`` appears in its own ``reads`` is a
    read barrier, never a license to elide earlier writers."""

    def test_self_reading_overwrite_is_a_read_barrier(self):
        q = SequenceQueue()
        log = []
        x = object()
        q.push(_op(log, "produce", writes=x, overwrites=True))
        # accum/merge-style op that *claims* to overwrite but reads its own
        # output: the produce op's value is consumed, so both must run
        q.push(_op(log, "merge", reads=(x,), writes=x, overwrites=True))
        q.drain()
        assert log == ["produce", "merge"]
        assert q.stats.elided == 0

    def test_pass_level_rule(self):
        x = object()
        produce = _op([], "produce", writes=x, overwrites=True)
        merge = _op([], "merge", reads=(x,), writes=x, overwrites=True)
        live, elided = dead_op_pass([produce, merge])
        assert live == [produce, merge] and elided == []

    def test_true_overwrite_still_elides(self):
        x = object()
        produce = _op([], "produce", writes=x, overwrites=True)
        clobber = _op([], "clobber", writes=x, overwrites=True)
        live, elided = dead_op_pass([produce, clobber])
        assert live == [clobber] and elided == [produce]


class TestFusion:
    def _blocking_result(self, build):
        context._reset()
        return build()

    def test_mxm_apply_in_place_fuses(self):
        s = grb.PLUS_TIMES[grb.INT64]

        def build():
            A = random_matrix(np.random.default_rng(7), 8, 8, 0.4)
            C = grb.Matrix(grb.INT64, 8, 8)
            grb.mxm(C, None, None, s, A, A)
            grb.apply(C, None, None, grb.AINV[grb.INT64], C)
            return C

        rows, cols, vals = self._blocking_result(build).extract_tuples()

        context._reset()
        grb.init(grb.Mode.NONBLOCKING)
        with obs.capture() as cap:
            C = build()
            grb.wait()
        assert cap.queue_delta()["fused"] == 1
        assert op_count(cap, "mxm+apply[fused]") == 1
        assert op_count(cap, "mxm") == 0 and op_count(cap, "apply") == 0
        r2, c2, v2 = C.extract_tuples()
        assert np.array_equal(rows, r2) and np.array_equal(cols, c2)
        assert np.array_equal(vals, v2) and vals.dtype == v2.dtype

    def test_ewise_mult_reduce_fuses_when_temp_dies(self):
        def build():
            rng = np.random.default_rng(11)
            A = random_matrix(rng, 8, 8, 0.5)
            B = random_matrix(rng, 8, 8, 0.5)
            T = grb.Matrix(grb.INT64, 8, 8)
            delta = grb.Vector(grb.INT64, 8)
            grb.ewise_mult(T, None, None, grb.TIMES[grb.INT64], A, B)
            grb.reduce(delta, None, None, grb.PLUS[grb.INT64], T)
            # T is overwritten before any further read: its eWiseMult value
            # is dead, so the pair above may skip materializing it
            grb.ewise_add(T, None, None, grb.PLUS[grb.INT64], A, B)
            return T, delta

        T_b, delta_b = self._blocking_result(build)
        snap_b = (T_b.extract_tuples(), delta_b.extract_tuples())

        context._reset()
        grb.init(grb.Mode.NONBLOCKING)
        with obs.capture() as cap:
            T, delta = build()
            grb.wait()
        assert cap.queue_delta()["fused"] == 1
        assert op_count(cap, "eWiseMult+reduce[fused]") == 1
        assert op_count(cap, "eWiseAdd") == 1
        for got, want in zip((T.extract_tuples(), delta.extract_tuples()), snap_b):
            for g, w in zip(got, want):
                assert np.array_equal(g, w) and g.dtype == w.dtype

    def test_no_fusion_when_intermediate_survives(self, rng):
        # delta reads T, but T's value is still live at the end of the
        # sequence — skipping its store would be observable
        grb.init(grb.Mode.NONBLOCKING)
        A = random_matrix(rng, 8, 8, 0.5)
        T = grb.Matrix(grb.INT64, 8, 8)
        delta = grb.Vector(grb.INT64, 8)
        with obs.capture() as cap:
            grb.mxm(T, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            grb.reduce(delta, None, None, grb.PLUS[grb.INT64], T)
            grb.wait()
        assert cap.queue_delta()["fused"] == 0
        assert op_count(cap, "mxm") == 1 and op_count(cap, "reduce") == 1

    def test_no_fusion_with_second_reader(self, rng):
        grb.init(grb.Mode.NONBLOCKING)
        A = random_matrix(rng, 8, 8, 0.5)
        T = grb.Matrix(grb.INT64, 8, 8)
        C2 = grb.Matrix(grb.INT64, 8, 8)
        with obs.capture() as cap:
            grb.mxm(T, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            grb.apply(T, None, None, grb.AINV[grb.INT64], T)
            grb.apply(C2, None, None, grb.ABS[grb.INT64], T)
            grb.wait()
        # first apply rewrites T in place, but T is then read again — the
        # in-place pair is still fusable (case a: readers see apply's result)
        assert cap.queue_delta()["fused"] == 1

    def test_fusion_knob_disables(self, rng):
        grb.init(grb.Mode.NONBLOCKING)
        planner.configure(fusion=False)
        A = random_matrix(rng, 8, 8, 0.4)
        C = grb.Matrix(grb.INT64, 8, 8)
        with obs.capture() as cap:
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            grb.apply(C, None, None, grb.AINV[grb.INT64], C)
            grb.wait()
        assert cap.queue_delta()["fused"] == 0
        assert op_count(cap, "mxm") == 1 and op_count(cap, "apply") == 1


class TestCSE:
    def test_identical_products_share_one_kernel(self):
        s = grb.PLUS_TIMES[grb.INT64]

        def build():
            rng = np.random.default_rng(13)
            A = random_matrix(rng, 8, 8, 0.4)
            B = random_matrix(rng, 8, 8, 0.4)
            C1 = grb.Matrix(grb.INT64, 8, 8)
            C2 = grb.Matrix(grb.INT64, 8, 8)
            grb.mxm(C1, None, None, s, A, B)
            grb.mxm(C2, None, None, s, A, B)
            return C1, C2

        context._reset()
        C1_b, C2_b = build()
        want = C1_b.extract_tuples()

        context._reset()
        grb.init(grb.Mode.NONBLOCKING)
        with obs.capture() as cap:
            C1, C2 = build()
            grb.wait()
        assert cap.queue_delta()["cse"] == 1
        assert op_count(cap, "mxm") == 1 and op_count(cap, "mxm[cse]") == 1
        for M in (C1, C2):
            got = M.extract_tuples()
            for g, w in zip(got, want):
                assert np.array_equal(g, w) and g.dtype == w.dtype

    def test_input_write_invalidates(self, rng):
        grb.init(grb.Mode.NONBLOCKING)
        s = grb.PLUS_TIMES[grb.INT64]
        A = random_matrix(rng, 8, 8, 0.4)
        B = random_matrix(rng, 8, 8, 0.4)
        C1 = grb.Matrix(grb.INT64, 8, 8)
        C2 = grb.Matrix(grb.INT64, 8, 8)
        with obs.capture() as cap:
            grb.mxm(C1, None, None, s, A, B)
            grb.apply(B, None, None, grb.AINV[grb.INT64], B)  # B changes
            grb.mxm(C2, None, None, s, A, B)
            grb.wait()
        assert cap.queue_delta()["cse"] == 0
        assert op_count(cap, "mxm") == 2

    def test_different_accum_still_shares_kernel(self, rng):
        # CSE reuses T; each duplicate runs its own write pipeline, so the
        # accumulated copy differs from the plain one
        grb.init(grb.Mode.NONBLOCKING)
        s = grb.PLUS_TIMES[grb.INT64]
        A = random_matrix(rng, 8, 8, 0.4)
        C1 = grb.Matrix(grb.INT64, 8, 8)
        C2 = grb.Matrix.from_coo(grb.INT64, 8, 8, [0], [0], [100])
        with obs.capture() as cap:
            grb.mxm(C1, None, None, s, A, A)
            grb.mxm(C2, None, grb.PLUS[grb.INT64], s, A, A)
            grb.wait()
        assert cap.queue_delta()["cse"] == 1
        # blocking oracle
        context._reset()
        A2 = grb.Matrix.from_coo(grb.INT64, 8, 8, *A.extract_tuples())
        D2 = grb.Matrix.from_coo(grb.INT64, 8, 8, [0], [0], [100])
        grb.mxm(D2, None, grb.PLUS[grb.INT64], s, A2, A2)
        for g, w in zip(C2.extract_tuples(), D2.extract_tuples()):
            assert np.array_equal(g, w)

    def test_cse_knob_disables(self, rng):
        grb.init(grb.Mode.NONBLOCKING)
        planner.configure(cse=False)
        s = grb.PLUS_TIMES[grb.INT64]
        A = random_matrix(rng, 8, 8, 0.4)
        C1 = grb.Matrix(grb.INT64, 8, 8)
        C2 = grb.Matrix(grb.INT64, 8, 8)
        with obs.capture() as cap:
            grb.mxm(C1, None, None, s, A, A)
            grb.mxm(C2, None, None, s, A, A)
            grb.wait()
        assert cap.queue_delta()["cse"] == 0 and op_count(cap, "mxm") == 2


class TestScheduler:
    def test_independent_ops_report_width(self, rng):
        grb.init(grb.Mode.NONBLOCKING)
        s = grb.PLUS_TIMES[grb.INT64]
        A = random_matrix(rng, 8, 8, 0.4)
        B = random_matrix(rng, 8, 8, 0.4)
        C1 = grb.Matrix(grb.INT64, 8, 8)
        C2 = grb.Matrix(grb.INT64, 8, 8)
        with obs.capture() as cap:
            grb.mxm(C1, None, None, s, A, B)
            grb.mxm(C2, None, None, s, B, A)
            grb.wait()
        assert cap.queue_delta()["max_width"] >= 2

    def test_parallel_dispatch_matches_serial(self):
        s = grb.PLUS_TIMES[grb.INT64]

        def build():
            rng = np.random.default_rng(17)
            A = random_matrix(rng, 10, 10, 0.5)
            B = random_matrix(rng, 10, 10, 0.5)
            outs = [grb.Matrix(grb.INT64, 10, 10) for _ in range(4)]
            grb.mxm(outs[0], None, None, s, A, B)
            grb.mxm(outs[1], None, None, s, B, A)
            grb.ewise_add(outs[2], None, None, grb.PLUS[grb.INT64], A, B)
            grb.ewise_mult(outs[3], None, None, grb.TIMES[grb.INT64], A, B)
            return outs

        context._reset()
        want = [M.extract_tuples() for M in build()]

        context._reset()
        grb.init(grb.Mode.NONBLOCKING)
        parallel.set_num_threads(2)
        # tiny threshold: prove scheduler workers stay serial inside kernels
        parallel.set_parallel_threshold(1)
        try:
            outs = build()
            grb.wait()
        finally:
            parallel.set_num_threads(1)
            parallel.set_parallel_threshold(200_000)
        for M, w in zip(outs, want):
            for g, ww in zip(M.extract_tuples(), w):
                assert np.array_equal(g, ww) and g.dtype == ww.dtype


class TestKnobs:
    def test_unknown_knob_rejected(self):
        with pytest.raises(grb.InvalidValue):
            planner.configure(vectorize=True)

    def test_override_restores(self):
        planner.configure(fusion=False)
        with planner.override(fusion=True, cse=False):
            assert planner.options().fusion and not planner.options().cse
        assert not planner.options().fusion and planner.options().cse
        planner.reset_options()
        assert planner.options().fusion

    def test_disabled_planner_runs_program_order(self, rng):
        grb.init(grb.Mode.NONBLOCKING)
        planner.configure(enabled=False)
        A = random_matrix(rng, 6, 6, 0.5)
        C = grb.Matrix(grb.INT64, 6, 6)
        with obs.capture() as cap:
            # dead op: would be elided with the planner on
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            grb.ewise_add(C, None, None, grb.PLUS[grb.INT64], A, A)
            grb.wait()
        assert cap.queue_delta()["elided"] == 0
        assert op_count(cap, "mxm") == 1 and op_count(cap, "eWiseAdd") == 1


# --------------------------------------------------------------------------
# Property-style equivalence: randomized sequences, blocking vs planner
# --------------------------------------------------------------------------

_N = 8


def _random_program(seed: int):
    """A data-only program: list of (op-name, argument indexes/choices)."""
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(12):
        kind = rng.choice(
            ["mxm", "ewise_add", "ewise_mult", "apply", "reduce",
             "mxv", "vec_apply", "transpose"]
        )
        m = lambda: int(rng.integers(0, 4))
        v = lambda: int(rng.integers(0, 2))
        mask = int(rng.integers(0, 5)) - 1  # -1 = no mask
        accum = bool(rng.integers(0, 2))
        desc = int(rng.integers(0, 4))  # None / R / SC / RSC
        steps.append((str(kind), m(), m(), m(), v(), v(), mask, accum, desc))
    return steps


def _run_program(steps, seed: int, nonblocking: bool):
    context._reset()
    if nonblocking:
        grb.init(grb.Mode.NONBLOCKING)
    Ms, Vs = _queue_program(steps, seed)
    if nonblocking:
        grb.wait()
    return [o.extract_tuples() for o in Ms + Vs]


def _queue_program(steps, seed: int):
    """Call *steps* on seeded operands in the current context; returns the
    (matrices, vectors) they write."""
    rng = np.random.default_rng(seed + 10_000)
    Ms = [random_matrix(rng, _N, _N, 0.4) for _ in range(4)]
    Vs = [random_vector(rng, _N, 0.5) for _ in range(2)]
    descs = [None, grb.DESC_R, grb.DESC_SC, grb.DESC_RSC]
    PLUS, TIMES = grb.PLUS[grb.INT64], grb.TIMES[grb.INT64]
    s = grb.PLUS_TIMES[grb.INT64]
    for kind, c, a, b, w, u, mask, accum, di in steps:
        acc = PLUS if accum else None
        mmask = Ms[mask] if 0 <= mask < 4 else None
        vmask = Vs[mask % 2] if mask >= 0 else None
        d = descs[di] if (mmask is not None or vmask is not None) else None
        if kind == "mxm":
            grb.mxm(Ms[c], mmask, acc, s, Ms[a], Ms[b], d)
        elif kind == "ewise_add":
            grb.ewise_add(Ms[c], mmask, acc, PLUS, Ms[a], Ms[b], d)
        elif kind == "ewise_mult":
            grb.ewise_mult(Ms[c], mmask, acc, TIMES, Ms[a], Ms[b], d)
        elif kind == "apply":
            grb.apply(Ms[c], mmask, acc, grb.AINV[grb.INT64], Ms[a], d)
        elif kind == "reduce":
            grb.reduce(Vs[w], vmask, acc, PLUS, Ms[a], d)
        elif kind == "mxv":
            grb.mxv(Vs[w], vmask, acc, s, Ms[a], Vs[u], d)
        elif kind == "vec_apply":
            grb.apply(Vs[w], vmask, acc, grb.AINV[grb.INT64], Vs[u], d)
        elif kind == "transpose":
            grb.transpose(Ms[c], mmask, acc, Ms[a], d)
    return Ms, Vs


@pytest.mark.parametrize("seed", range(20))
def test_randomized_sequences_bit_identical(seed):
    """~20 randomized sequences (masked, accumulated, REPLACE included):
    nonblocking with every planner pass on must equal blocking bit-for-bit."""
    steps = _random_program(seed)
    want = _run_program(steps, seed, nonblocking=False)
    got = _run_program(steps, seed, nonblocking=True)
    assert context.queue_stats()["drains"] >= 1
    for w_t, g_t in zip(want, got):
        for w_arr, g_arr in zip(w_t, g_t):
            assert np.array_equal(w_arr, g_arr), f"seed {seed} diverged"
            assert w_arr.dtype == g_arr.dtype


def test_bc_example_bit_identical():
    """Fig. 3's BC_update produces identical deltas in both modes."""
    spec = importlib.util.spec_from_file_location(
        "bc_c_style",
        Path(__file__).resolve().parent.parent / "examples" / "bc_c_style.py",
    )
    bc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bc)
    import repro.io
    from repro.capi import Ref

    s = np.arange(6)

    def run(nonblocking):
        context._reset()
        if nonblocking:
            grb.init(grb.Mode.NONBLOCKING)
        A = repro.io.rmat(6, 4, seed=7, domain=grb.INT32)
        delta = Ref()
        info = bc.BC_update(delta, A, s, len(s))
        assert info == bc.GrB_SUCCESS
        if nonblocking:
            grb.wait()
        return delta.value.to_dense(0.0)

    want = run(False)
    got = run(True)
    assert np.array_equal(want, got)


# --------------------------------------------------------------------------
# The touch index: edges and def-use equal a per-op scan of the survivors
# --------------------------------------------------------------------------


def _scan_preds(ops):
    """Hazard predecessors by a per-op walk (the reference for the index)."""
    preds = [set() for _ in ops]
    last_writer, readers_since = {}, {}
    for i, op in enumerate(ops):
        for r in op.reads:
            if id(r) in last_writer:
                preds[i].add(last_writer[id(r)])  # RAW
            readers_since.setdefault(id(r), []).append(i)
        out = id(op.writes)
        preds[i].update(k for k in readers_since.get(out, ()) if k != i)
        if out in last_writer:
            preds[i].add(last_writer[out])  # WAW
        last_writer[out] = i
        readers_since[out] = []
    return preds


def _scan_def_use(ops, t):
    """The ops reading op *t*'s value before the next write, and that write."""
    X, readers = ops[t].writes, []
    for k in range(t + 1, len(ops)):
        if any(r is X for r in ops[k].reads):
            readers.append(k)
        if ops[k].writes is X:
            return readers, k
    return readers, None


def test_index_graph_matches_a_scan_of_the_survivors():
    from repro.execution.planner.graph import build_graph
    from repro.execution.planner.passes import dead_positions
    from repro.execution.sequence import Touches

    rng = np.random.default_rng(42)
    for _ in range(2000):
        objs = [object() for _ in range(int(rng.integers(1, 6)))]
        pick = lambda n: [objs[j] for j in rng.integers(0, len(objs), n)]
        ops = [
            DeferredOp(
                thunk=None,
                reads=tuple(pick(rng.integers(0, 4))),
                writes=pick(1)[0],
                overwrites_output=bool(rng.random() < 0.6),
            )
            for _ in range(int(rng.integers(1, 11)))
        ]
        touches = Touches.of(ops)
        gone = dead_positions(ops, touches)
        kept = [p for p in range(len(ops)) if p not in gone]
        live = [ops[p] for p in kept]
        assert live == dead_op_pass(ops)[0]
        g = build_graph(live, touches, kept)
        for node, want in zip(g.nodes, _scan_preds(live)):
            assert node.preds == want
            assert all(node.index in g.nodes[p].succs for p in want)
        for t in range(len(live)):
            readers, nw = _scan_def_use(live, t)
            assert g.next_writer.get(t) == nw
            assert g.sole_reader.get(t) == (readers[0] if len(readers) == 1 else None)
