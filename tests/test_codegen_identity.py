"""Bit-identity of the codegen kernel backend against the interpreter.

Twenty seeded pipelines — float dtypes, masks (plain/complement/structural),
accumulators, REPLACE, in-place links, and chains longer than pairs — each
run in both execution modes under both kernel backends.  Every stored key,
every value, and every dtype must match *exactly*: a backend is an
execution strategy, never a semantic (paper section III-B), and codegen's
contract is bit-identity, not tolerance-identity.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as grb
from repro import context, parallel
from repro.kernels import codegen as cg


def _mat(r, dom, n, density=0.35):
    nnz = int(density * n * n)
    keys = r.choice(n * n, size=nnz, replace=False)
    rows, cols = np.divmod(keys, n)
    if dom.is_bool:
        vals = r.integers(0, 2, nnz).astype(bool)
    else:
        vals = r.uniform(-2.0, 2.0, nnz)
    return grb.Matrix.from_coo(dom, n, n, rows, cols, vals)


def _vec(r, dom, n, density=0.5):
    nnz = max(1, int(density * n))
    idx = r.choice(n, size=nnz, replace=False)
    vals = r.uniform(-2.0, 2.0, nnz)
    return grb.Vector.from_coo(dom, n, idx, vals)


def _pipeline(seed: int, backend: str, nonblocking: bool):
    """One seeded pipeline; returns (snapshots, fused-contraction count)."""
    context._reset()
    parallel.set_kernel_backend(backend)
    if nonblocking:
        grb.init(grb.Mode.NONBLOCKING)
    r = np.random.default_rng(1000 + seed)
    dom = grb.FP64 if seed % 2 else grb.FP32
    sfx = "FP64" if seed % 2 else "FP32"
    n = 16 + seed % 5

    A, B = _mat(r, dom, n), _mat(r, dom, n)
    M = _mat(r, grb.BOOL, n, 0.5)
    u = _vec(r, dom, n)
    C = grb.Matrix(dom, n, n)
    E = grb.Matrix(dom, n, n)
    w = grb.Vector(dom, n)
    v = grb.Vector(dom, n)

    sr = grb.PLUS_TIMES[dom]
    ainv, absop, minv = grb.AINV[dom], grb.ABS[dom], grb.MINV[dom]
    gt = grb.index_unary_op(f"GrB_VALUEGT_{sfx}")
    plus = grb.PLUS[dom]
    replace = grb.Descriptor().set(grb.OUTP, grb.REPLACE)
    replace_scmp = (
        grb.Descriptor().set(grb.OUTP, grb.REPLACE).set(grb.MASK, grb.SCMP)
    )

    # head producer (masked for some seeds) ...
    if seed % 3 == 0:
        grb.mxm(C, M, None, sr, A, B, replace)
    else:
        grb.mxm(C, None, None, sr, A, B)
    # ... streamed through in-place links: chains longer than pairs.  A
    # masked+replace link is overwrite-shaped, so it extends the chain too.
    if seed % 4 == 2:
        grb.apply(C, M, None, ainv, C, replace_scmp)
    else:
        grb.apply(C, None, None, ainv, C)
    grb.apply(C, None, None, absop, C)
    if seed % 2 == 0:
        grb.select(C, None, None, gt, C, 0.25)

    # tails with the full write-pipeline surface: mask, accum, REPLACE
    if seed % 5 == 0:
        grb.apply(E, M, plus, minv, C)
    elif seed % 5 == 1:
        grb.apply(E, M, None, minv, C, replace)
    else:
        grb.apply(E, None, None, minv, C)
    monoid = grb.PLUS_MONOID[dom] if seed % 3 else plus  # binop-shim too
    grb.reduce(w, None, plus if seed % 3 == 1 else None, monoid, E)
    # E is overwritten after the reduce, so apply(E)→reduce(w) may chain
    grb.ewise_add(E, None, None, plus, A, B)

    # a vector chain: mxv → in-place apply → in-place select
    grb.mxv(v, None, None, sr, A, u)
    grb.apply(v, None, None, ainv, v)
    if seed % 2:
        grb.select(v, None, None, gt, v, -0.5)
    grb.wait()

    fused = context._current().queue.stats.fused
    snaps = [obj.extract_tuples() for obj in (C, E, w, v)]
    return snaps, fused


def _assert_same(want, got):
    for w_tup, g_tup in zip(want, got):
        for w_arr, g_arr in zip(w_tup, g_tup):
            assert np.array_equal(w_arr, g_arr, equal_nan=True)
            assert w_arr.dtype == g_arr.dtype


@pytest.mark.parametrize(
    "nonblocking", [False, True], ids=["blocking", "nonblocking"]
)
@pytest.mark.parametrize("seed", range(20))
def test_codegen_bit_identity(seed, nonblocking):
    want, fused_i = _pipeline(seed, "interpreter", nonblocking)
    got, fused_c = _pipeline(seed, "codegen", nonblocking)
    # the planner is backend-independent: identical chains must form
    assert fused_i == fused_c
    if nonblocking:
        assert fused_i > 0, "pipeline no longer exercises fusion"
    _assert_same(want, got)


@pytest.fixture
def fresh_kernels():
    """Pristine per-process compiled-kernel state around a test."""
    cg.clear_kernels()
    yield
    cg.clear_kernels()


@pytest.fixture
def compiles(monkeypatch):
    """Counts every source string handed to the compiler."""
    calls = []
    real = cg._compile

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(cg, "_compile", counting)
    return calls


@pytest.fixture
def numba_host(monkeypatch):
    """Make this host look numba-equipped so eligible chains reach the
    compiler; seed 0's ``mxv→apply`` vector chain is ``numba_eligible``."""
    monkeypatch.setattr(cg, "_numba_available", lambda: True)


def test_codegen_compiles_once_and_writes_no_files(
    tmp_path, monkeypatch, fresh_kernels, compiles
):
    # every place a kernel cache could plausibly land points at tmp_path
    for var in ("HOME", "XDG_CACHE_HOME", "REPRO_KERNEL_CACHE"):
        monkeypatch.setenv(var, str(tmp_path))
    # without numba a codegen run is the interpreter: nothing compiles
    monkeypatch.setattr(cg, "_numba_available", lambda: False)
    _pipeline(0, "codegen", nonblocking=True)
    assert compiles == []
    monkeypatch.setattr(cg, "_numba_available", lambda: True)
    _pipeline(0, "codegen", nonblocking=True)
    first = len(compiles)
    assert first > 0, "pipeline no longer reaches the compiler"
    _pipeline(0, "codegen", nonblocking=True)
    assert len(compiles) == first, "a chain shape was compiled twice"
    assert list(tmp_path.iterdir()) == []


def test_uncompilable_source_falls_back_and_is_remembered(
    monkeypatch, fresh_kernels, compiles, numba_host
):
    want, _ = _pipeline(0, "interpreter", nonblocking=True)
    monkeypatch.setattr(
        cg, "build_numba_source", lambda sig: "def fused_chain(:\n"
    )
    got, _ = _pipeline(0, "codegen", nonblocking=True)
    _assert_same(want, got)
    assert compiles, "no chain reached the compiler"
    # every shape is now known-bad: the next run compiles nothing
    assert cg._compiled and not any(cg._compiled.values())
    del compiles[:]
    got, _ = _pipeline(0, "codegen", nonblocking=True)
    _assert_same(want, got)
    assert compiles == []


def test_runtime_exploding_kernel_is_retired(
    monkeypatch, fresh_kernels, numba_host
):
    want, _ = _pipeline(0, "interpreter", nonblocking=True)
    trap = (
        "def fused_chain(keys, vals, masks):\n"
        "    raise RuntimeError('boom')\n"
    )
    # the trap compiles fine, detonates at run time: the chain must still
    # complete (interpreter fallback) and the entry must be retired
    with monkeypatch.context() as m:
        m.setattr(cg, "build_numba_source", lambda sig: trap)
        got, _ = _pipeline(0, "codegen", nonblocking=True)
    _assert_same(want, got)
    assert cg._compiled and not any(cg._compiled.values())
    # retired shapes stay retired even with the real generator back
    got, _ = _pipeline(0, "codegen", nonblocking=True)
    _assert_same(want, got)
    assert not any(cg._compiled.values())
