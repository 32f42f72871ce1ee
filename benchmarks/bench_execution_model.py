"""Section IV — blocking vs nonblocking execution.

Measures (a) the method-call overhead the deferred queue removes from the
issuing thread, (b) end-to-end cost of the same sequence in both modes —
identical results guaranteed by section IV's equivalence — and (c) the
sequence planner's optimizations, ablated pass by pass on a BC-shaped
sequence: dead-op elimination, producer→consumer fusion, CSE, and the
parallel DAG schedule.
"""

import numpy as np
import pytest

import repro as grb
from repro import context, parallel, planner
from repro.algebra import predefined
from repro.io import erdos_renyi
from repro.ops import binary

from conftest import header, row

S = predefined.PLUS_TIMES[grb.INT64]


def _sequence(A, reps=4):
    """A chain with dead intermediates: only the last product is observed."""
    C = grb.Matrix(grb.INT64, A.nrows, A.ncols)
    for _ in range(reps):
        grb.mxm(C, None, None, S, A, A)  # each overwrites the previous
    return C


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(700, 9000, seed=41, domain=grb.INT64)


class BenchModes:
    def bench_blocking_sequence(self, benchmark, graph):
        def run():
            context._reset()
            C = _sequence(graph)
            return C.nvals()

        n = benchmark(run)
        header("Section IV: blocking vs nonblocking (4x overwritten mxm)")
        row("blocking: executes all 4 products", f"nvals={n}")

    def bench_nonblocking_sequence(self, benchmark, graph):
        def run():
            context._reset()
            grb.init(grb.Mode.NONBLOCKING)
            C = _sequence(graph)
            n = C.nvals()  # forces completion
            return n, grb.queue_stats()

        n, stats = benchmark(run)
        row(
            "nonblocking: dead-op elimination",
            f"executed={stats['executed']}, elided={stats['elided']}",
        )

    def bench_issue_latency_blocking(self, benchmark, graph):
        # time to *issue* one mxm (blocking: includes the whole product)
        C = grb.Matrix(grb.INT64, graph.nrows, graph.ncols)

        def run():
            grb.mxm(C, None, None, S, graph, graph)

        benchmark(run)
        row("blocking issue latency", "includes computation")

    def bench_issue_latency_nonblocking(self, benchmark, graph):
        def setup():
            context._reset()
            grb.init(grb.Mode.NONBLOCKING)
            return (grb.Matrix(grb.INT64, graph.nrows, graph.ncols),), {}

        def run(C):
            grb.mxm(C, None, None, S, graph, graph)

        benchmark.pedantic(run, setup=setup, rounds=200, iterations=1)
        row("nonblocking issue latency", "validation only (section IV)")


class BenchEquivalence:
    def bench_results_identical(self, benchmark, graph):
        def run():
            context._reset()
            b = _sequence(graph).extract_tuples()
            context._reset()
            grb.init(grb.Mode.NONBLOCKING)
            nb = _sequence(graph).extract_tuples()
            assert np.array_equal(b[0], nb[0])
            assert np.array_equal(b[2], nb[2])
            return len(b[0])

        n = benchmark.pedantic(run, rounds=3, iterations=1)
        row("blocking == nonblocking result", f"verified on {n} tuples")


class BenchWaitGranularity:
    """The paper's 'wait after every op' equivalence, as a cost series."""

    @pytest.mark.parametrize("wait_every", [1, 2, 8])
    def bench_wait_every(self, benchmark, graph, wait_every):
        def run():
            context._reset()
            grb.init(grb.Mode.NONBLOCKING)
            C = grb.Matrix(grb.INT64, graph.nrows, graph.ncols)
            for k in range(8):
                grb.mxm(C, None, None, S, graph, graph)
                if (k + 1) % wait_every == 0:
                    grb.wait()
            grb.wait()
            return grb.queue_stats()

        stats = benchmark.pedantic(run, rounds=3, iterations=1)
        row(
            f"wait() every {wait_every} ops",
            f"executed={stats['executed']}, elided={stats['elided']}",
        )


class BenchPlannerAblation:
    """Planner passes ablated one at a time on a BC-shaped batched tail.

    The sequence mirrors the tail of the paper's Fig. 3 BC kernel: per
    batch, a frontier product, an in-place ``apply`` on it, an ``eWiseMult``
    into a shared temporary, and an accumulating row-``reduce`` of that
    temporary — plus a dead leading write (overwritten before any read) and
    one product repeated every batch, so each planner pass has work to do.
    """

    NBATCH = 4
    NSRC = 32

    CONFIGS = [
        ("planner off", dict(enabled=False), 1),
        ("dead-op only", dict(fusion=False, cse=False), 1),
        ("+fusion", dict(cse=False), 1),
        ("+cse", dict(), 1),
        ("+parallel(2)", dict(), 2),
    ]

    @staticmethod
    def _random_block(rng, nrows, ncols, nnz):
        flat = rng.choice(nrows * ncols, size=nnz, replace=False)
        rows, cols = np.divmod(flat, ncols)
        vals = rng.integers(1, 5, size=nnz, dtype=np.int64)
        return grb.Matrix.from_coo(grb.INT64, nrows, ncols, rows, cols, vals)

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(5)
        A = erdos_renyi(600, 9000, seed=5, domain=grb.INT64)
        F = [
            self._random_block(rng, 600, self.NSRC, 2400)
            for _ in range(self.NBATCH)
        ]
        NS = self._random_block(rng, 600, self.NSRC, 6000)
        return A, F, NS

    def _bc_tail(self, A, F, NS):
        times = binary.TIMES[grb.INT64]
        plus = binary.PLUS[grb.INT64]
        T = grb.Matrix(grb.INT64, A.nrows, self.NSRC)
        delta = grb.Vector(grb.INT64, A.nrows)
        # dead head: batch 0 overwrites T before anything reads it
        grb.ewise_mult(T, None, None, times, NS, NS)
        for b in range(self.NBATCH):
            P = grb.Matrix(grb.INT64, A.nrows, self.NSRC)
            G = grb.Matrix(grb.INT64, A.nrows, self.NSRC)
            grb.mxm(P, None, None, S, A, F[b])  # fuses with the apply
            grb.apply(P, None, None, grb.AINV[grb.INT64], P)
            grb.ewise_mult(T, None, None, times, P, NS)  # fuses w/ reduce
            grb.reduce(delta, None, plus, plus, T)  # batch b+1 overwrites T
            grb.mxm(G, None, None, S, A, F[0])  # same product each batch
            grb.reduce(delta, None, plus, plus, G)
        return delta

    @pytest.mark.parametrize(
        "label,knobs,nthreads", CONFIGS, ids=[c[0] for c in CONFIGS]
    )
    def bench_ablation(self, benchmark, workload, label, knobs, nthreads):
        A, F, NS = workload

        def run():
            context._reset()
            grb.init(grb.Mode.NONBLOCKING)
            parallel.set_num_threads(nthreads)
            try:
                with planner.override(**knobs):
                    delta = self._bc_tail(A, F, NS)
                    grb.wait()
                return delta.extract_tuples(), grb.queue_stats()
            finally:
                parallel.set_num_threads(1)

        (idx, vals), stats = benchmark.pedantic(run, rounds=3, iterations=1)

        context._reset()  # blocking oracle: planner never sees these ops
        want_idx, want_vals = self._bc_tail(A, F, NS).extract_tuples()
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(vals, want_vals) and vals.dtype == want_vals.dtype
        if knobs.get("enabled", True) and knobs.get("fusion", True):
            assert stats["fused"] >= 1 and stats["elided"] >= 1

        if label == "planner off":
            header(
                f"Planner ablation: BC-shaped tail, {self.NBATCH} batches "
                f"x {self.NSRC} sources"
            )
        row(
            label,
            f"executed={stats['executed']}, elided={stats['elided']}, "
            f"fused={stats['fused']}, cse={stats['cse']}, "
            f"width={stats['max_width']}",
        )
