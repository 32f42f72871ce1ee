"""Stability properties of the compiled-kernel identity.

The key of codegen's in-memory kernel map, ``_freeze(sig)``, must be
*exactly* as discriminating as the chain's structure: programs that differ
only in temporary naming, input data, or the order of independent
operations share a key (alpha-rename/reorder invariance), while any change
that alters what the kernel computes — semiring, link operator,
accumulator, mask kind, REPLACE bit, dtype, select thunk — splits it.  Too
coarse a key serves the wrong kernel; too fine a key compiles the same
kernel twice.  Both directions are pinned here.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as grb
from repro import context, parallel
from repro.kernels import chain_signature
from repro.kernels import codegen as cg
from repro.kernels.codegen import _freeze

_SIGS: list = []


@pytest.fixture(autouse=True)
def record_signatures(monkeypatch):
    """Record every chain's signature on its way into ``codegen.run_chain``."""
    real = cg.run_chain

    def recording(specs):
        _SIGS.append(chain_signature(list(specs)))
        real(specs)

    monkeypatch.setattr(cg, "run_chain", recording)


def _keys_for(program, seed=7) -> list[tuple]:
    """Signatures + kernel-map keys of every chain *program* forms."""
    context._reset()
    parallel.set_kernel_backend("codegen")
    grb.init(grb.Mode.NONBLOCKING)
    _SIGS.clear()
    r = np.random.default_rng(seed)
    program(r)
    grb.wait()
    sigs = [s for s in _SIGS if s is not None]
    assert sigs, "program formed no chain with a signature"
    return [(s, _freeze(s)) for s in sigs]


def _mat(r, dom, n=12, density=0.4):
    nnz = int(density * n * n)
    keys = r.choice(n * n, size=nnz, replace=False)
    rows, cols = np.divmod(keys, n)
    return grb.Matrix.from_coo(dom, n, n, rows, cols, r.uniform(-2, 2, nnz))


def _chain(r, dom=grb.FP64, sr=None, link_op=None, accum=None,
           mask=None, desc=None, thunk=None, n=12):
    """One parameterized producer→apply[→select] chain."""
    A = _mat(r, dom, n)
    C = grb.Matrix(dom, n, n)
    grb.mxm(C, None, None, sr or grb.PLUS_TIMES[dom], A, A)
    grb.apply(C, None, None, grb.AINV[dom], C)
    E = grb.Matrix(dom, n, n)
    M = None
    if mask == "value" or mask == "comp" or mask == "struct":
        M = _mat(r, grb.BOOL, n, 0.5)
    grb.apply(E, M, accum, link_op or grb.ABS[dom], C, desc)
    if thunk is not None:
        sfx = "FP32" if dom is grb.FP32 else "FP64"
        grb.select(E, None, None,
                   grb.index_unary_op(f"GrB_VALUEGT_{sfx}"), E, thunk)
    # overwrite C so the apply-into-E tail may join C's chain (case b):
    # without a later overwriter the planner must materialize C between
    grb.ewise_add(C, None, None, grb.PLUS[dom], A, A)
    return C, E


class TestInvariance:
    def test_alpha_rename_and_fresh_data_share_a_key(self):
        # two structurally identical programs built from different object
        # identities and different random draws: identity is structural
        a = _keys_for(lambda r: _chain(r), seed=1)
        b = _keys_for(lambda r: _chain(r), seed=99)
        assert [k for _, k in a] == [k for _, k in b]

    def test_reordering_independent_programs_preserves_keys(self):
        def fwd(r):
            _chain(r, dom=grb.FP64)
            _chain(r, dom=grb.FP32)

        def rev(r):
            _chain(r, dom=grb.FP32)
            _chain(r, dom=grb.FP64)

        assert sorted(k for _, k in _keys_for(fwd)) == sorted(
            k for _, k in _keys_for(rev)
        )

    def test_signature_never_leaks_live_objects(self):
        # the signature must be pure data (JSON-able) and its key hashable:
        # a live object in either would pin containers in the kernel map
        import json

        for sig, key in _keys_for(lambda r: _chain(r)):
            json.dumps(sig)
            hash(key)


class TestSplitting:
    BASE = staticmethod(lambda r: _chain(r))

    VARIANTS = {
        "semiring": lambda r: _chain(r, sr=grb.MIN_PLUS[grb.FP64]),
        "link-op": lambda r: _chain(r, link_op=grb.MINV[grb.FP64]),
        "accum": lambda r: _chain(r, accum=grb.PLUS[grb.FP64]),
        "mask-value": lambda r: _chain(r, mask="value"),
        "mask-comp": lambda r: _chain(
            r, mask="comp",
            desc=grb.Descriptor().set(grb.MASK, grb.SCMP),
        ),
        "mask-struct": lambda r: _chain(
            r, mask="struct",
            desc=grb.Descriptor().set(grb.MASK, grb.STRUCTURE),
        ),
        "replace": lambda r: _chain(
            r, mask="value",
            desc=grb.Descriptor().set(grb.OUTP, grb.REPLACE),
        ),
        "dtype": lambda r: _chain(r, dom=grb.FP32),
        "thunk": lambda r: _chain(r, thunk=0.25),
    }

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_semantic_change_splits_the_key(self, variant):
        base_keys = {k for _, k in _keys_for(self.BASE)}
        var_keys = {k for _, k in _keys_for(self.VARIANTS[variant])}
        # no chain of the variant may collide with a base chain unless the
        # varied attribute never reached a chain — guard against that first
        assert var_keys != base_keys
        sigs_b = [s for s, _ in _keys_for(self.BASE)]
        sigs_v = [s for s, _ in _keys_for(self.VARIANTS[variant])]
        assert sigs_b != sigs_v, f"{variant} did not alter any signature"

    def test_distinct_thunks_split(self):
        a = {k for _, k in _keys_for(lambda r: _chain(r, thunk=0.25))}
        b = {k for _, k in _keys_for(lambda r: _chain(r, thunk=0.75))}
        assert a != b
        # the key follows the thunk as the source renders it: 1 and 1.0
        # hash alike but print differently; NaN differs from itself but
        # must not file the same chain under a fresh key per dispatch
        one = {k for _, k in _keys_for(lambda r: _chain(r, thunk=1))}
        one_f = {k for _, k in _keys_for(lambda r: _chain(r, thunk=1.0))}
        assert one != one_f
        nan = lambda r: _chain(r, thunk=float("nan"))  # noqa: E731
        assert [k for _, k in _keys_for(nan)] == [k for _, k in _keys_for(nan)]


class TestOpNameSplitting:
    """Operator-name parsing feeding numba eligibility: dtype suffixes
    split off, suffix-less singletons (GrB_LNOT) survive whole."""

    def test_split_op(self):
        from repro.kernels.chain import _split_op

        assert _split_op("GrB_MINV_FP32") == ("GrB_MINV", "FP32")
        assert _split_op("GxB_SQRT_FP64") == ("GxB_SQRT", "FP64")
        assert _split_op("GrB_BNOT_UINT8") == ("GrB_BNOT", "UINT8")
        assert _split_op("GrB_LNOT") == ("GrB_LNOT", "")
        assert _split_op("GrB_FP64") == ("GrB", "FP64")
        assert _split_op("GrB_BOOL") == ("GrB", "BOOL")

    @staticmethod
    def _apply_sig(op, dtype):
        t = f"GrB_{dtype}"
        link = {"role": "apply", "op": op, "in": t, "t": t, "out": t,
                "mask": None, "replace": False, "accum": None}
        return {
            "producer": {"kind": "mxm", "op": "GrB_PLUS_TIMES", "out": t,
                         "mask": None, "replace": False},
            "links": [link],
        }

    def test_numba_eligibility_of_widened_families(self):
        from repro.kernels.chain import numba_eligible

        assert numba_eligible(self._apply_sig("GrB_LNOT", "BOOL"))
        assert numba_eligible(self._apply_sig("GrB_BNOT_INT32", "INT32"))
        assert numba_eligible(self._apply_sig("GxB_SQRT_FP32", "FP32"))
        assert numba_eligible(self._apply_sig("GxB_SQRT_FP64", "FP64"))
        assert numba_eligible(self._apply_sig("GxB_EXP_FP64", "FP64"))
        assert numba_eligible(self._apply_sig("GxB_LOG_FP64", "FP64"))
        assert numba_eligible(self._apply_sig("GrB_IDENTITY_UINT16", "UINT16"))

    def test_precision_and_domain_exclusions(self):
        from repro.kernels.chain import numba_eligible

        # exp/log are FP64-only: float32 libm may differ at the last ulp
        assert not numba_eligible(self._apply_sig("GxB_EXP_FP32", "FP32"))
        assert not numba_eligible(self._apply_sig("GxB_LOG_FP32", "FP32"))
        # LNOT is BOOL-only; BNOT never runs on floats
        assert not numba_eligible(self._apply_sig("GrB_LNOT", "FP64"))
        assert not numba_eligible(self._apply_sig("GrB_BNOT_FP64", "FP64"))
        # op dtype must agree with the pipeline dtype
        assert not numba_eligible(self._apply_sig("GxB_SQRT_FP32", "FP64"))

    def test_generated_source_binds_the_new_exprs(self):
        from repro.kernels.chain import numba_eligible
        from repro.kernels.codegen import build_numba_source

        sig = self._apply_sig("GxB_SQRT_FP64", "FP64")
        assert numba_eligible(sig)
        src = build_numba_source(sig)
        assert "np.sqrt(x)" in src
        sig = self._apply_sig("GrB_LNOT", "BOOL")
        src = build_numba_source(sig)
        assert "not x" in src
