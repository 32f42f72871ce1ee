"""Ablation — masked SpMV directions (direction optimization).

With a selective, non-complemented mask the SpMV kernel gathers only the
masked output rows (``mask_rows``) instead of intersecting every stored
element of the matrix with the vector (``rows``).  Section VIII of the
paper points at GPU backends (Gunrock) where exactly this choice
dominates BFS performance.  (The third direction, the ``columns`` walk,
needs the transpose view cached; these matrices never build it.)

Expected shape: ``mask_rows`` wins when the mask selects a small fraction
of rows and the win shrinks toward parity as the mask grows.
"""

import numpy as np
import pytest

import repro as grb
from repro.algebra import PLUS_TIMES
from repro.io import erdos_renyi, random_vector
from repro.operations import _kernels
from repro.types import FP64, INT64

from conftest import header, row


@pytest.fixture(scope="module")
def workload():
    A = erdos_renyi(4000, 120_000, seed=91, domain=INT64)
    u = random_vector(4000, 0.5, seed=92, domain=FP64)
    return A, u


def _mask_of(n, k, seed=93):
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=k, replace=False))
    return grb.Vector.from_coo(grb.BOOL, n, idx, np.ones(k, dtype=bool))


class BenchPushPull:
    @pytest.mark.parametrize("frac", [0.01, 0.1, 0.45])
    def bench_masked_mxv_auto(self, benchmark, workload, frac):
        """The kernel's automatic choice (mask_rows for frac <= 0.5)."""
        A, u = workload
        m = _mask_of(4000, int(4000 * frac))

        def run():
            w = grb.Vector(FP64, 4000)
            grb.mxv(w, m, None, PLUS_TIMES[FP64], A, u, grb.DESC_R)
            return w

        w = benchmark(run)
        if frac == 0.01:
            header("Ablation: rows vs mask_rows masked SpMV (n=4000, m=120k)")
        row(f"auto (mask_rows), mask {frac:.0%} of rows", f"nvals={w.nvals()}")

    @pytest.mark.parametrize("frac", [0.01, 0.1])
    def bench_masked_mxv_forced_push(self, benchmark, workload, frac):
        """Force the full row path by calling the kernel without the mask
        and filtering afterwards — what the kernel would do without the
        direction optimization."""
        A, u = workload
        m = _mask_of(4000, int(4000 * frac))

        def run():
            view = A.csr()
            u_keys, u_raw = u._content()
            keys, vals = _kernels.spmv(
                view, view.values.astype(np.float64), u_keys, u_raw,
                PLUS_TIMES[FP64], mask_view=None,
            )
            from repro.containers.mask import build_mask_view

            mv = build_mask_view(m, False, False)
            keep = mv.allows(keys)
            return keys[keep], vals[keep]

        keys, _ = benchmark(run)
        row(f"forced rows, mask {frac:.0%} of rows", f"nvals={len(keys)}")

    def bench_unmasked_reference_point(self, benchmark, workload):
        A, u = workload

        def run():
            w = grb.Vector(FP64, 4000)
            grb.mxv(w, None, None, PLUS_TIMES[FP64], A, u)
            return w

        w = benchmark(run)
        row("no mask (rows)", f"nvals={w.nvals()}")
