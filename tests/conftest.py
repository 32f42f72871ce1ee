"""Shared fixtures: context isolation, random collection builders, and
oracle-comparison helpers against the reference implementation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

import repro as grb
from repro import context, parallel, validation
from repro.reference import RefMatrix, RefVector


@pytest.fixture(autouse=True)
def fresh_context():
    """Every test starts from the pristine default (blocking) context."""
    context._reset()
    yield
    context._reset()
    # shard-backend tests flip process-global execution knobs; restore the
    # defaults so ordering between test modules can never matter
    parallel.set_backend("threads")
    parallel.set_parallel_threshold(parallel.config.DEFAULT_THRESHOLD)
    parallel.set_kernel_backend("interpreter")


@pytest.fixture
def rng():
    return np.random.default_rng(20170529)  # the paper's publication date


#: execution modes the algorithm suites run under (see exec_mode below)
EXEC_MODES = ("blocking", "nonblocking_planner")


@pytest.fixture
def exec_mode(request, fresh_context):
    """Execution mode for a test: ``blocking`` (the default context) or
    ``nonblocking_planner`` (nonblocking mode, full drain-time planner).

    Modules opt in by declaring a module-level autouse fixture that depends
    on ``exec_mode``; ``pytest_generate_tests`` then runs every test of the
    module once per mode.  Results must be identical in both — mode is an
    execution strategy, never a semantic (section III-B).
    """
    mode = getattr(request, "param", "blocking")
    if mode == "nonblocking_planner":
        context.init(context.Mode.NONBLOCKING)
    yield mode


def pytest_generate_tests(metafunc):
    if "exec_mode" in metafunc.fixturenames:
        metafunc.parametrize("exec_mode", list(EXEC_MODES), indirect=True)


def op_count(cap, label: str | None = None) -> int:
    """Op-body spans an ``obs.capture()`` recorded (all, or under *label*)."""
    ops = cap.spans_of("op")
    return len(ops) if label is None else sum(sp.label == label for sp in ops)


def random_matrix(
    rng,
    nrows: int,
    ncols: int,
    density: float = 0.3,
    domain=grb.INT64,
    low: int = -4,
    high: int = 5,
):
    """A random matrix with ~density*nrows*ncols stored elements.

    Integer values stay small so cross-backend comparisons avoid overflow
    except where a test exercises wrap-around deliberately.
    """
    nnz = int(round(density * nrows * ncols))
    keys = rng.choice(nrows * ncols, size=min(nnz, nrows * ncols), replace=False)
    rows, cols = np.divmod(keys, ncols)
    if domain.is_bool:
        vals = rng.integers(0, 2, len(keys)).astype(bool)
    elif domain.is_integral:
        vals = rng.integers(low, high, len(keys))
    else:
        vals = rng.uniform(-2.0, 2.0, len(keys))
    return grb.Matrix.from_coo(domain, nrows, ncols, rows, cols, vals)


def random_vector(rng, size: int, density: float = 0.4, domain=grb.INT64):
    nnz = max(0, int(round(density * size)))
    idx = rng.choice(size, size=min(nnz, size), replace=False)
    if domain.is_bool:
        vals = rng.integers(0, 2, len(idx)).astype(bool)
    elif domain.is_integral:
        vals = rng.integers(-4, 5, len(idx))
    else:
        vals = rng.uniform(-2.0, 2.0, len(idx))
    return grb.Vector.from_coo(domain, size, idx, vals)


def assert_matrix_equals_ref(M: grb.Matrix, R: RefMatrix, approx=False):
    validation.check(M, deep=False)  # sorted-unique keys, right dtypes
    got = RefMatrix.from_grb(M)
    assert (got.nrows, got.ncols) == (R.nrows, R.ncols)
    assert set(got.content) == set(R.content), (
        f"patterns differ: extra={set(got.content) - set(R.content)}, "
        f"missing={set(R.content) - set(got.content)}"
    )
    for k, v in R.content.items():
        if approx:
            assert got.content[k] == pytest.approx(v, rel=1e-12, abs=1e-12), k
        else:
            assert got.content[k] == v, (k, got.content[k], v)


def assert_vector_equals_ref(v: grb.Vector, R: RefVector, approx=False):
    validation.check(v)
    got = RefVector.from_grb(v)
    assert got.size == R.size
    assert set(got.content) == set(R.content), (
        f"patterns differ: extra={set(got.content) - set(R.content)}, "
        f"missing={set(R.content) - set(got.content)}"
    )
    for k, val in R.content.items():
        if approx:
            assert got.content[k] == pytest.approx(val, rel=1e-12, abs=1e-12), k
        else:
            assert got.content[k] == val, (k, got.content[k], val)


def index_list(bound: int, unique: bool = False):
    """Non-empty index lists below *bound*: drawn freely (any order,
    repeats anywhere unless *unique*), plus the shapes extract and assign
    treat apart — strictly increasing (T needs no sort), a shuffle of
    distinct indices and, unless *unique*, a list with a repeat put in."""
    free = st.lists(
        st.integers(0, bound - 1), min_size=1, max_size=bound, unique=unique
    )
    distinct = free.map(lambda xs: sorted(set(xs)))
    shapes = [free, distinct, distinct.flatmap(st.permutations)]
    if not unique:
        shapes.append(_with_repeat(free))
    return st.one_of(shapes)


@st.composite
def _with_repeat(draw, lists):
    xs = draw(lists)
    at = draw(st.integers(0, len(xs)))
    return xs[:at] + [draw(st.sampled_from(xs))] + xs[at:]
