"""Thread-parallel kernels: identical results, balanced partitioning."""

import sys

import numpy as np
import pytest

import repro as grb
from repro import _sparseutil as su
from repro import parallel
from repro.algebra import predefined
from repro.io import erdos_renyi
from repro.parallel.config import row_blocks

from tests.conftest import random_matrix


@pytest.fixture(autouse=True)
def restore_parallel_config():
    yield
    parallel.set_num_threads(1)
    parallel.set_parallel_threshold(200_000)


class TestConfig:
    def test_default_single_thread(self):
        assert parallel.get_num_threads() == 1

    def test_set_threads_validates(self):
        with pytest.raises(grb.InvalidValue):
            parallel.set_num_threads(0)

    def test_threshold_validates(self):
        with pytest.raises(grb.InvalidValue):
            parallel.set_parallel_threshold(-1)

    def test_threads_capped_at_cpu_count(self):
        import os

        parallel.set_num_threads(10_000)
        assert parallel.get_num_threads() <= (os.cpu_count() or 1)


class TestRowBlocks:
    def test_covers_all_rows_contiguously(self):
        work = np.array([5, 1, 1, 1, 10, 1, 1, 1])
        blocks = row_blocks(work, 3)
        covered = []
        for b in blocks:
            covered.extend(range(b.start, b.stop))
        assert covered == list(range(8))

    def test_single_block_for_one_thread(self):
        assert row_blocks(np.ones(10, dtype=np.int64), 1) == [slice(0, 10)]

    def test_empty_work(self):
        assert row_blocks(np.empty(0, dtype=np.int64), 4) == [slice(0, 0)]

    def test_zero_work(self):
        assert row_blocks(np.zeros(5, dtype=np.int64), 4) == [slice(0, 5)]

    def test_balanced_split(self):
        work = np.ones(100, dtype=np.int64)
        blocks = row_blocks(work, 4)
        sizes = [b.stop - b.start for b in blocks]
        assert len(blocks) == 4
        assert max(sizes) - min(sizes) <= 1


class TestParallelSpGEMM:
    def test_parallel_equals_serial(self, rng):
        A = erdos_renyi(300, 6000, seed=17, domain=grb.INT64)
        B = erdos_renyi(300, 6000, seed=18, domain=grb.INT64)
        s = predefined.PLUS_TIMES[grb.INT64]

        C_serial = grb.Matrix(grb.INT64, 300, 300)
        grb.mxm(C_serial, None, None, s, A, B)

        parallel.set_num_threads(4)
        parallel.set_parallel_threshold(1)
        C_par = grb.Matrix(grb.INT64, 300, 300)
        grb.mxm(C_par, None, None, s, A, B)

        i1, j1, v1 = C_serial.extract_tuples()
        i2, j2, v2 = C_par.extract_tuples()
        assert i1.tolist() == i2.tolist()
        assert j1.tolist() == j2.tolist()
        assert v1.tolist() == v2.tolist()

    def test_parallel_with_mask_equals_serial(self, rng):
        A = erdos_renyi(200, 4000, seed=19, domain=grb.INT64)
        M = erdos_renyi(200, 2000, seed=20, domain=grb.BOOL)
        s = predefined.PLUS_TIMES[grb.INT64]
        # the blocks share the op's mask view, and with it the bitmap the
        # first of them builds: this mask is within the bitmap's bound
        assert su.bitmap(M._content()[0], 4000) is not None

        serial = []
        for desc in (grb.DESC_R, grb.DESC_RSC):
            C = grb.Matrix(grb.INT64, 200, 200)
            grb.mxm(C, M, None, s, A, A, desc)
            serial.append(C.extract_tuples())

        parallel.set_num_threads(4)
        parallel.set_parallel_threshold(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the blocks' first lookups
        try:
            for _ in range(5):
                for desc, want in zip((grb.DESC_R, grb.DESC_RSC), serial):
                    C = grb.Matrix(grb.INT64, 200, 200)
                    grb.mxm(C, M, None, s, A, A, desc)
                    got = C.extract_tuples()
                    for g, w in zip(got, want):
                        assert g.tolist() == w.tolist()
        finally:
            sys.setswitchinterval(interval)

    def test_below_threshold_stays_serial(self, rng):
        # tiny product with a huge threshold: must not crash or differ
        parallel.set_num_threads(4)
        parallel.set_parallel_threshold(10**9)
        A = random_matrix(rng, 10, 10, 0.5)
        C = grb.Matrix(grb.INT64, 10, 10)
        grb.mxm(C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)
        assert (C.to_dense(0) == A.to_dense(0) @ A.to_dense(0)).all()
