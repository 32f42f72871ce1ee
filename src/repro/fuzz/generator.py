"""Random GraphBLAS program generator.

Emits :class:`~repro.fuzz.program.Program` instances covering the full
Table II surface — ``mxm``/``mxv``/``vxm``/``eWiseAdd``/``eWiseMult``/
``apply``/``reduce``/``transpose``/``extract``/``assign``/``select``/
``kronecker`` — with randomized semirings/monoids from the predefined
registries, mixed built-in dtypes plus the power-set UDT, value/structural/
complemented masks, accumulators, ``REPLACE``/``TRAN`` descriptor bits, and
aliased operands (``C ⊙= A·C``-style, output-as-mask, repeated inputs).

Generation is deterministic per ``(seed, index)`` pair, is pure data flow
(no GraphBLAS objects are built here), and is shape-directed: each call
first picks its operation, then finds or creates operands of compatible
shapes, reusing earlier collections aggressively so programs chain outputs
into later inputs — the access pattern the drain-time planner optimizes and
therefore the one most likely to expose planner bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .program import Call, Decl, Program

__all__ = [
    "GenConfig",
    "generate_program",
    "generate_corpus",
    "generate_error_program",
    "ERROR_KINDS",
]


# --------------------------------------------------------------------------
# Operator token tables (registry names per dtype token)
# --------------------------------------------------------------------------

#: dtype tokens per class; PSET is handled separately.
BUILTIN_DTYPES = (
    "BOOL",
    "INT8", "INT16", "INT32", "INT64",
    "UINT8", "UINT16", "UINT32", "UINT64",
    "FP32", "FP64",
)

_NUMERIC = tuple(t for t in BUILTIN_DTYPES if t != "BOOL")

#: semiring family names safe for differential testing (no DIV/MINUS whose
#: float results leave the dyadic grid; PAIR/FIRST/SECOND stress selection).
_SEMIRING_FAMILIES = (
    "PLUS_TIMES", "MIN_PLUS", "MAX_PLUS", "MIN_TIMES", "MIN_MAX",
    "MAX_MIN", "PLUS_MIN", "PLUS_MAX", "MIN_FIRST", "MAX_SECOND",
    "PLUS_PAIR",
)
_BOOL_SEMIRINGS = (
    "GrB_LOR_LAND_SEMIRING_BOOL",
    "GrB_LAND_LOR_SEMIRING_BOOL",
    "GrB_LXOR_LAND_SEMIRING_BOOL",
    "GrB_PLUS_TIMES_SEMIRING_BOOL",
)

_ACCUM_FAMILIES = ("PLUS", "TIMES", "MIN", "MAX", "SECOND", "FIRST")
_BOOL_ACCUMS = ("GrB_LOR", "GrB_LAND", "GrB_LXOR", "GrB_SECOND_BOOL")

_EWISE_FAMILIES = ("PLUS", "TIMES", "MIN", "MAX", "FIRST", "SECOND")
_MONOID_FAMILIES = ("PLUS", "TIMES", "MIN", "MAX")
_UNARY_FAMILIES = ("IDENTITY", "AINV", "ABS")

_POSITIONAL_IUOPS = (
    "GrB_TRIL", "GrB_TRIU", "GrB_DIAG", "GrB_OFFDIAG",
    "GrB_ROWLE", "GrB_ROWGT", "GrB_COLLE", "GrB_COLGT",
)
_VALUE_IUOP_FAMILIES = ("VALUEEQ", "VALUENE", "VALUELT", "VALUEGT")

#: all concrete call kinds the generator can emit, cycled so every corpus
#: of ≥ len(OP_KINDS) programs reaches every operation row.
OP_KINDS = (
    "mxm", "mxv", "vxm",
    "ewise_add", "ewise_mult",
    "apply", "reduce", "transpose",
    "extract_matrix", "extract_vector",
    "assign_matrix", "assign_vector",
    "assign_scalar_matrix", "assign_scalar_vector",
    "select", "kronecker",
)


def _sr_token(family: str, dtype: str) -> str:
    return f"GrB_{family}_SEMIRING_{dtype}"


def _bop_token(family: str, dtype: str) -> str:
    return f"GrB_{family}_{dtype}"


def _monoid_token(family: str, dtype: str) -> str:
    return f"GrB_{family}_MONOID_{dtype}"


def _unary_token(family: str, dtype: str) -> str:
    return f"GrB_{family}_{dtype}"


@dataclass
class GenConfig:
    """Probabilities and size bounds for program generation."""

    min_ops: int = 3
    max_ops: int = 15
    max_dim: int = 5
    #: kron factors stay tiny so products remain ≤ max_dim * 3
    max_kron_dim: int = 3
    density: float = 0.5
    p_mask: float = 0.45
    p_mask_comp: float = 0.35
    p_mask_struct: float = 0.35
    p_accum: float = 0.40
    p_replace: float = 0.30
    p_tran: float = 0.30
    p_reuse: float = 0.65
    p_alias: float = 0.20
    p_mask_alias: float = 0.15
    p_udt_program: float = 0.12
    p_mixed_dtype: float = 0.20
    p_wait: float = 0.10
    p_reduce_scalar: float = 0.10


#: call kinds valid for power-set (UDT) programs — value-select is excluded
#: (no UDT value predicates), everything else runs through the generic path.
_UDT_KINDS = tuple(k for k in OP_KINDS)


class _Builder:
    """Declaration pool: finds or creates shape/dtype-compatible operands."""

    def __init__(self, rng: np.random.Generator, cfg: GenConfig, udt: bool):
        self.rng = rng
        self.cfg = cfg
        self.udt = udt
        self.decls: list[Decl] = []
        self._n = 0
        # a small dim pool makes shapes collide → operand reuse and aliasing
        pool_size = int(rng.integers(2, 4))
        self.dims = sorted(
            int(d) for d in rng.integers(1, cfg.max_dim + 1, size=pool_size)
        )

    # ---- randomness helpers ---------------------------------------------
    def chance(self, p: float) -> bool:
        return bool(self.rng.random() < p)

    def pick(self, seq):
        return seq[int(self.rng.integers(0, len(seq)))]

    def dim(self) -> int:
        return self.pick(self.dims)

    # ---- dtypes and values ----------------------------------------------
    def dtype(self) -> str:
        if self.udt:
            return "PSET"
        return self.pick(BUILTIN_DTYPES)

    def value(self, dtype: str):
        r = self.rng
        if dtype == "PSET":
            k = int(r.integers(0, 4))
            return sorted(int(x) for x in r.choice(6, size=k, replace=False))
        if dtype == "BOOL":
            return bool(r.integers(0, 2))
        if dtype.startswith("UINT"):
            return int(r.integers(0, 5))
        if dtype.startswith("INT"):
            return int(r.integers(-3, 4))
        # floats on the dyadic grid: sums/products stay exactly representable
        return float(r.integers(-8, 9)) * 0.25

    def _entries_matrix(self, nrows: int, ncols: int, dtype: str) -> list:
        space = nrows * ncols
        nnz = int(self.rng.binomial(space, self.cfg.density))
        keys = self.rng.choice(space, size=nnz, replace=False)
        return [
            [int(k) // ncols, int(k) % ncols, self.value(dtype)] for k in keys
        ]

    def _entries_vector(self, size: int, dtype: str) -> list:
        nnz = int(self.rng.binomial(size, self.cfg.density))
        idx = self.rng.choice(size, size=nnz, replace=False)
        return [[int(i), self.value(dtype)] for i in idx]

    # ---- declaration pool ------------------------------------------------
    def _new(self, kind: str, dtype: str, shape: tuple[int, ...]) -> str:
        name = f"{'M' if kind == 'matrix' else 'V'}{self._n}"
        self._n += 1
        if kind == "matrix":
            entries = self._entries_matrix(shape[0], shape[1], dtype)
        else:
            entries = self._entries_vector(shape[0], dtype)
        self.decls.append(Decl(name, kind, dtype, shape, entries))
        return name

    def _candidates(self, kind: str, shape, dtype: str | None) -> list[str]:
        out = []
        for d in self.decls:
            if d.kind != kind or d.shape != tuple(shape):
                continue
            if dtype is not None and d.dtype != dtype:
                continue
            if dtype is None and (d.dtype == "PSET") != self.udt:
                continue
            out.append(d.name)
        return out

    def matrix(self, nrows: int, ncols: int, dtype: str | None = None) -> str:
        """Find-or-create a matrix operand.  ``dtype=None`` means any
        compatible domain (possibly ≠ the op's, exercising implicit casts)."""
        cands = self._candidates("matrix", (nrows, ncols), dtype)
        if cands and self.chance(self.cfg.p_reuse):
            return self.pick(cands)
        return self._new("matrix", dtype or self.dtype(), (nrows, ncols))

    def vector(self, size: int, dtype: str | None = None) -> str:
        cands = self._candidates("vector", (size,), dtype)
        if cands and self.chance(self.cfg.p_reuse):
            return self.pick(cands)
        return self._new("vector", dtype or self.dtype(), (size,))

    def decl(self, name: str) -> Decl:
        for d in self.decls:
            if d.name == name:
                return d
        raise KeyError(name)

    # ---- shared call trimmings ------------------------------------------
    def out_dtype(self) -> str:
        """Output domains skew toward wide types so casts rarely truncate the
        interesting structure away, but narrow ones still appear."""
        if self.udt:
            return "PSET"
        if self.chance(0.6):
            return self.pick(("INT64", "FP64", "INT32", "UINT64"))
        return self.pick(BUILTIN_DTYPES)

    def mask_for(self, out_name: str) -> dict:
        """Mask name + interpretation bits for the given output, or {}."""
        if not self.chance(self.cfg.p_mask):
            return {}
        out = self.decl(out_name)
        if self.chance(self.cfg.p_mask_alias):
            # any same-shape built-in collection can serve as a value mask —
            # including an operand or the output itself (aliasing stress)
            cands = [
                d.name
                for d in self.decls
                if d.kind == out.kind and d.shape == out.shape
                and d.dtype != "PSET"
            ]
            if cands:
                name = self.pick(cands)
                return {
                    "mask": name,
                    "mask_comp": self.chance(self.cfg.p_mask_comp),
                    "mask_struct": self.chance(self.cfg.p_mask_struct),
                }
        # dedicated masks: BOOL (with explicit False entries, so value vs
        # structural interpretation differs) or a small-int value mask
        dtype = "BOOL" if self.chance(0.7) else "INT64"
        if out.kind == "matrix":
            name = self._new("matrix", dtype, out.shape)
        else:
            name = self._new("vector", dtype, out.shape)
        if dtype == "INT64":
            # sprinkle explicit zeros: stored-but-falsy entries
            d = self.decl(name)
            for e in d.entries:
                if self.chance(0.4):
                    e[-1] = 0
        return {
            "mask": name,
            "mask_comp": self.chance(self.cfg.p_mask_comp),
            "mask_struct": self.chance(self.cfg.p_mask_struct),
        }

    def accum_for(self, out_name: str) -> dict:
        if not self.chance(self.cfg.p_accum):
            return {}
        dtype = self.decl(out_name).dtype
        if dtype == "PSET":
            return {"accum": "PSET_UNION"}
        if dtype == "BOOL":
            return {"accum": self.pick(_BOOL_ACCUMS)}
        return {"accum": _bop_token(self.pick(_ACCUM_FAMILIES), dtype)}

    def semiring_for(self, dtype: str) -> str:
        if dtype == "PSET":
            return "PSET_SR"
        if dtype == "BOOL":
            return self.pick(_BOOL_SEMIRINGS)
        return _sr_token(self.pick(_SEMIRING_FAMILIES), dtype)

    def op_dtype(self) -> str:
        """The domain the operator family is instantiated over."""
        if self.udt:
            return "PSET"
        return self.pick(_NUMERIC) if self.chance(0.85) else "BOOL"

    def operand_dtype(self, op_dtype: str) -> str | None:
        """Operand domain: usually the op's, sometimes any (implicit cast)."""
        if op_dtype == "PSET":
            return "PSET"
        if self.chance(self.cfg.p_mixed_dtype):
            return None
        return op_dtype

    def indices(self, bound: int, n: int | None = None) -> list[int]:
        """Duplicate-free index list into [0, bound) (assign-safe)."""
        if n is None:
            n = int(self.rng.integers(1, bound + 1))
        return [int(i) for i in self.rng.choice(bound, size=n, replace=False)]


# --------------------------------------------------------------------------
# Per-op synthesis
# --------------------------------------------------------------------------

def _flags(b: _Builder, *, tran0=False, tran1=False) -> dict:
    out = {}
    if tran0 and b.chance(b.cfg.p_tran):
        out["tran0"] = True
    if tran1 and b.chance(b.cfg.p_tran):
        out["tran1"] = True
    return out


def _maybe_alias_out(b: _Builder, out: str, operands: dict, keys: tuple) -> dict:
    """With p_alias, rebind one operand name to the output (C ⊙= A·C-style),
    provided shapes and dtype-compatibility allow it."""
    if not b.chance(b.cfg.p_alias):
        return operands
    out_d = b.decl(out)
    for key in keys:
        name = operands.get(key)
        if name is None:
            continue
        d = b.decl(name)
        if d.kind == out_d.kind and d.shape == out_d.shape and (
            (d.dtype == "PSET") == (out_d.dtype == "PSET")
        ):
            operands = dict(operands)
            operands[key] = out
            break
    return operands


def _gen_mxm(b: _Builder) -> Call:
    m, k, n = b.dim(), b.dim(), b.dim()
    dt = b.op_dtype()
    fl = _flags(b, tran0=True, tran1=True)
    a = b.matrix(*((k, m) if fl.get("tran0") else (m, k)), b.operand_dtype(dt))
    bb = b.matrix(*((n, k) if fl.get("tran1") else (k, n)), b.operand_dtype(dt))
    out = b.matrix(m, n, b.out_dtype())
    ops = _maybe_alias_out(b, out, {"a": a, "b": bb}, ("a", "b"))
    args = {**ops, "semiring": b.semiring_for(dt), **fl,
            **b.mask_for(out), **b.accum_for(out)}
    if args.get("mask"):
        args["replace"] = b.chance(b.cfg.p_replace)
    return Call("mxm", out, args)


def _gen_mxv(b: _Builder) -> Call:
    m, k = b.dim(), b.dim()
    dt = b.op_dtype()
    fl = _flags(b, tran0=True)
    a = b.matrix(*((k, m) if fl.get("tran0") else (m, k)), b.operand_dtype(dt))
    u = b.vector(k, b.operand_dtype(dt))
    out = b.vector(m, b.out_dtype())
    ops = _maybe_alias_out(b, out, {"u": u}, ("u",))
    args = {"a": a, **ops, "semiring": b.semiring_for(dt), **fl,
            **b.mask_for(out), **b.accum_for(out)}
    if args.get("mask"):
        args["replace"] = b.chance(b.cfg.p_replace)
    return Call("mxv", out, args)


def _gen_vxm(b: _Builder) -> Call:
    k, n = b.dim(), b.dim()
    dt = b.op_dtype()
    fl = _flags(b, tran1=True)
    a = b.matrix(*((n, k) if fl.get("tran1") else (k, n)), b.operand_dtype(dt))
    u = b.vector(k, b.operand_dtype(dt))
    out = b.vector(n, b.out_dtype())
    ops = _maybe_alias_out(b, out, {"u": u}, ("u",))
    args = {"a": a, **ops, "semiring": b.semiring_for(dt), **fl,
            **b.mask_for(out), **b.accum_for(out)}
    if args.get("mask"):
        args["replace"] = b.chance(b.cfg.p_replace)
    return Call("vxm", out, args)


def _ewise_op_token(b: _Builder, dt: str) -> str:
    if dt == "PSET":
        return b.pick(("PSET_UNION", "PSET_INTERSECT"))
    if dt == "BOOL":
        return b.pick(_BOOL_ACCUMS)
    return _bop_token(b.pick(_EWISE_FAMILIES), dt)


def _gen_ewise(b: _Builder, kind: str) -> Call:
    dt = b.op_dtype()
    if b.chance(0.5):  # matrix form
        m, n = b.dim(), b.dim()
        fl = _flags(b, tran0=True, tran1=True)
        a = b.matrix(*((n, m) if fl.get("tran0") else (m, n)), b.operand_dtype(dt))
        bb = b.matrix(*((n, m) if fl.get("tran1") else (m, n)), b.operand_dtype(dt))
        out = b.matrix(m, n, b.out_dtype())
    else:
        s = b.dim()
        fl = {}
        a = b.vector(s, b.operand_dtype(dt))
        bb = b.vector(s, b.operand_dtype(dt))
        out = b.vector(s, b.out_dtype())
    ops = _maybe_alias_out(b, out, {"a": a, "b": bb}, ("a", "b"))
    args = {**ops, "binop": _ewise_op_token(b, dt), **fl,
            **b.mask_for(out), **b.accum_for(out)}
    if args.get("mask"):
        args["replace"] = b.chance(b.cfg.p_replace)
    return Call(kind, out, args)


def _gen_apply(b: _Builder) -> Call:
    dt = "PSET" if b.udt else b.pick(_NUMERIC)
    token = "PSET_TAG" if b.udt else _unary_token(b.pick(_UNARY_FAMILIES), dt)
    if b.chance(0.5):
        m, n = b.dim(), b.dim()
        fl = _flags(b, tran0=True)
        a = b.matrix(*((n, m) if fl.get("tran0") else (m, n)), b.operand_dtype(dt))
        out = b.matrix(m, n, b.out_dtype())
    else:
        s = b.dim()
        fl = {}
        a = b.vector(s, b.operand_dtype(dt))
        out = b.vector(s, b.out_dtype())
    ops = _maybe_alias_out(b, out, {"a": a}, ("a",))
    args = {**ops, "unary": token, **fl, **b.mask_for(out), **b.accum_for(out)}
    if args.get("mask"):
        args["replace"] = b.chance(b.cfg.p_replace)
    return Call("apply", out, args)


def _gen_reduce(b: _Builder) -> Call:
    m, n = b.dim(), b.dim()
    dt = b.op_dtype()
    fl = _flags(b, tran0=True)
    a = b.matrix(m, n, b.operand_dtype(dt))
    out = b.vector(n if fl.get("tran0") else m, b.out_dtype())
    if dt == "PSET":
        token = "PSET_MONOID"
    elif dt == "BOOL":
        token = "GrB_LOR_MONOID_BOOL"
    else:
        token = _monoid_token(b.pick(_MONOID_FAMILIES), dt)
    args = {"a": a, "monoid": token, **fl, **b.mask_for(out), **b.accum_for(out)}
    if args.get("mask"):
        args["replace"] = b.chance(b.cfg.p_replace)
    return Call("reduce", out, args)


def _gen_reduce_scalar(b: _Builder) -> Call:
    # reduce over any existing collection (forces completion mid-sequence)
    src = b.pick(b.decls)
    if src.dtype == "PSET":
        token = "PSET_MONOID"
    elif src.dtype == "BOOL":
        token = "GrB_LOR_MONOID_BOOL"
    else:
        token = _monoid_token(b.pick(_MONOID_FAMILIES), src.dtype)
    return Call("reduce_scalar", None, {"a": src.name, "monoid": token})


def _gen_transpose(b: _Builder) -> Call:
    m, n = b.dim(), b.dim()
    dt = b.operand_dtype(b.op_dtype()) or b.dtype()
    fl = _flags(b, tran0=True)
    a = b.matrix(m, n, dt)
    # T = A' normally; INP0=TRAN double-transposes, so T has A's own shape
    out = b.matrix(*((m, n) if fl.get("tran0") else (n, m)), b.out_dtype())
    ops = _maybe_alias_out(b, out, {"a": a}, ("a",))
    args = {**ops, **fl, **b.mask_for(out), **b.accum_for(out)}
    if args.get("mask"):
        args["replace"] = b.chance(b.cfg.p_replace)
    return Call("transpose", out, args)


def _gen_extract_matrix(b: _Builder) -> Call:
    m, n = b.dim(), b.dim()
    dt = b.dtype()
    fl = _flags(b, tran0=True)
    a = b.matrix(*((n, m) if fl.get("tran0") else (m, n)), dt)
    rows = b.indices(m)
    cols = b.indices(n)
    out = b.matrix(len(rows), len(cols), b.out_dtype())
    args = {"a": a, "rows": rows, "cols": cols, **fl,
            **b.mask_for(out), **b.accum_for(out)}
    if args.get("mask"):
        args["replace"] = b.chance(b.cfg.p_replace)
    return Call("extract_matrix", out, args)


def _gen_extract_vector(b: _Builder) -> Call:
    s = b.dim()
    u = b.vector(s, b.dtype())
    idx = b.indices(s)
    out = b.vector(len(idx), b.out_dtype())
    ops = _maybe_alias_out(b, out, {"u": u}, ("u",))
    args = {**ops, "indices": idx, **b.mask_for(out), **b.accum_for(out)}
    if args.get("mask"):
        args["replace"] = b.chance(b.cfg.p_replace)
    return Call("extract_vector", out, args)


def _gen_assign_matrix(b: _Builder) -> Call:
    m, n = b.dim(), b.dim()
    out = b.matrix(m, n, b.out_dtype())
    rows = b.indices(m)
    cols = b.indices(n)
    fl = _flags(b, tran0=True)
    src_shape = (len(cols), len(rows)) if fl.get("tran0") else (len(rows), len(cols))
    a = b.matrix(*src_shape, b.operand_dtype(b.decl(out).dtype))
    args = {"a": a, "rows": rows, "cols": cols, **fl,
            **b.mask_for(out), **b.accum_for(out)}
    if args.get("mask"):
        args["replace"] = b.chance(b.cfg.p_replace)
    return Call("assign_matrix", out, args)


def _gen_assign_vector(b: _Builder) -> Call:
    s = b.dim()
    out = b.vector(s, b.out_dtype())
    idx = b.indices(s)
    u = b.vector(len(idx), b.operand_dtype(b.decl(out).dtype))
    args = {"u": u, "indices": idx, **b.mask_for(out), **b.accum_for(out)}
    if args.get("mask"):
        args["replace"] = b.chance(b.cfg.p_replace)
    return Call("assign_vector", out, args)


def _gen_assign_scalar(b: _Builder, kind: str) -> Call:
    if kind == "assign_scalar_matrix":
        m, n = b.dim(), b.dim()
        out = b.matrix(m, n, b.out_dtype())
        region = {"rows": b.indices(m), "cols": b.indices(n)}
    else:
        s = b.dim()
        out = b.vector(s, b.out_dtype())
        region = {"indices": b.indices(s)}
    args = {"value": b.value(b.decl(out).dtype), **region,
            **b.mask_for(out), **b.accum_for(out)}
    if args.get("mask"):
        args["replace"] = b.chance(b.cfg.p_replace)
    return Call(kind, out, args)


def _gen_select(b: _Builder) -> Call:
    dt = "PSET" if b.udt else b.pick(_NUMERIC)
    if b.udt or b.chance(0.6):
        token = b.pick(_POSITIONAL_IUOPS)
        thunk = int(b.rng.integers(-2, 3))
    else:
        token = _bop_token(b.pick(_VALUE_IUOP_FAMILIES), dt)
        thunk = b.value(dt)
    if b.chance(0.6):
        m, n = b.dim(), b.dim()
        fl = _flags(b, tran0=True)
        a = b.matrix(*((n, m) if fl.get("tran0") else (m, n)), dt)
        out = b.matrix(m, n, b.out_dtype() if not b.udt else "PSET")
    else:
        s = b.dim()
        fl = {}
        a = b.vector(s, dt)
        out = b.vector(s, b.out_dtype() if not b.udt else "PSET")
    ops = _maybe_alias_out(b, out, {"a": a}, ("a",))
    args = {**ops, "iuop": token, "thunk": thunk, **fl,
            **b.mask_for(out), **b.accum_for(out)}
    if args.get("mask"):
        args["replace"] = b.chance(b.cfg.p_replace)
    return Call("select", out, args)


def _gen_kronecker(b: _Builder) -> Call:
    lim = b.cfg.max_kron_dim
    m, n = int(b.rng.integers(1, lim + 1)), int(b.rng.integers(1, lim + 1))
    p, q = int(b.rng.integers(1, lim + 1)), int(b.rng.integers(1, lim + 1))
    dt = b.op_dtype()
    fl = _flags(b, tran0=True, tran1=True)
    a = b.matrix(*((n, m) if fl.get("tran0") else (m, n)), b.operand_dtype(dt))
    bb = b.matrix(*((q, p) if fl.get("tran1") else (p, q)), b.operand_dtype(dt))
    out = b.matrix(m * p, n * q, b.out_dtype())
    args = {"a": a, "b": bb, "binop": _ewise_op_token(b, dt), **fl,
            **b.mask_for(out), **b.accum_for(out)}
    if args.get("mask"):
        args["replace"] = b.chance(b.cfg.p_replace)
    return Call("kronecker", out, args)


_GENERATORS = {
    "mxm": _gen_mxm,
    "mxv": _gen_mxv,
    "vxm": _gen_vxm,
    "ewise_add": lambda b: _gen_ewise(b, "ewise_add"),
    "ewise_mult": lambda b: _gen_ewise(b, "ewise_mult"),
    "apply": _gen_apply,
    "reduce": _gen_reduce,
    "transpose": _gen_transpose,
    "extract_matrix": _gen_extract_matrix,
    "extract_vector": _gen_extract_vector,
    "assign_matrix": _gen_assign_matrix,
    "assign_vector": _gen_assign_vector,
    "assign_scalar_matrix": lambda b: _gen_assign_scalar(b, "assign_scalar_matrix"),
    "assign_scalar_vector": lambda b: _gen_assign_scalar(b, "assign_scalar_vector"),
    "select": _gen_select,
    "kronecker": _gen_kronecker,
}


# --------------------------------------------------------------------------
# Program-level drivers
# --------------------------------------------------------------------------

def generate_program(
    seed: int, index: int, cfg: GenConfig | None = None
) -> Program:
    """Deterministically generate program *index* of the corpus for *seed*.

    The first call's kind cycles through :data:`OP_KINDS` by index, so any
    corpus of at least ``len(OP_KINDS)`` programs exercises every operation
    row; masked and accumulated variants follow from the probabilities.
    """
    cfg = cfg or GenConfig()
    rng = np.random.default_rng([seed, index])
    udt = bool(rng.random() < cfg.p_udt_program)
    b = _Builder(rng, cfg, udt)
    n_ops = int(rng.integers(cfg.min_ops, cfg.max_ops + 1))
    calls: list[Call] = []
    kinds = _UDT_KINDS if udt else OP_KINDS
    forced = kinds[index % len(kinds)]
    while len([c for c in calls if c.kind not in ("wait",)]) < n_ops:
        if calls and b.chance(cfg.p_wait):
            calls.append(Call("wait", None, {}))
        if not calls:
            kind = forced
        elif b.decls and b.chance(cfg.p_reduce_scalar):
            calls.append(_gen_reduce_scalar(b))
            continue
        else:
            kind = b.pick(kinds)
        calls.append(_GENERATORS[kind](b))
    return Program(b.decls, calls, seed=[seed, index])


def generate_corpus(
    seed: int, n: int, cfg: GenConfig | None = None
) -> Iterator[Program]:
    for i in range(n):
        yield generate_program(seed, i, cfg)


# --------------------------------------------------------------------------
# Invalid-program generator (error-model conformance, paper section V)
# --------------------------------------------------------------------------

ERROR_KINDS = (
    "dim_mismatch_mxm",
    "dim_mismatch_ewise",
    "mask_shape",
    "bad_index_extract",
    "bad_index_assign",
    "dup_index_assign",
    "udt_domain_mismatch",
    "not_a_semiring",
    "kind_mismatch",
    "region_shape",
)


def generate_error_program(seed: int, index: int) -> tuple[Program, str]:
    """A valid prefix followed by one *invalid* call.

    Returns ``(program, error_kind)``; the executor asserts both backends
    reject the final call with the same error class and ``GrB_Info`` code,
    at call time, under every fuzz mode (the paper's "methods return
    after input arguments have been verified").
    """
    cfg = GenConfig(min_ops=1, max_ops=4, p_wait=0.0, p_reduce_scalar=0.0,
                    p_udt_program=0.0)
    rng = np.random.default_rng([seed, index, 0xE0])
    b = _Builder(rng, cfg, udt=False)
    calls = [_GENERATORS[b.pick(OP_KINDS)](b) for _ in range(int(rng.integers(1, 4)))]
    kind = ERROR_KINDS[index % len(ERROR_KINDS)]

    if kind == "dim_mismatch_mxm":
        a = b.matrix(2, 3, "INT64")
        bb = b.matrix(2, 3, "INT64")  # inner dims 3 vs 2 disagree
        out = b.matrix(2, 3, "INT64")
        calls.append(Call("mxm", out, {
            "a": a, "b": bb, "semiring": "GrB_PLUS_TIMES_SEMIRING_INT64"}))
    elif kind == "dim_mismatch_ewise":
        a = b.matrix(2, 2, "INT64")
        bb = b.matrix(3, 3, "INT64")
        out = b.matrix(2, 2, "INT64")
        calls.append(Call("ewise_add", out, {
            "a": a, "b": bb, "binop": "GrB_PLUS_INT64"}))
    elif kind == "mask_shape":
        a = b.matrix(2, 2, "INT64")
        out = b.matrix(2, 2, "INT64")
        mask = b.matrix(3, 3, "BOOL")
        calls.append(Call("apply", out, {
            "a": a, "unary": "GrB_IDENTITY_INT64", "mask": mask}))
    elif kind == "bad_index_extract":
        u = b.vector(3, "INT64")
        out = b.vector(2, "INT64")
        calls.append(Call("extract_vector", out, {"u": u, "indices": [0, 7]}))
    elif kind == "bad_index_assign":
        out = b.vector(3, "INT64")
        u = b.vector(2, "INT64")
        calls.append(Call("assign_vector", out, {"u": u, "indices": [0, 9]}))
    elif kind == "dup_index_assign":
        out = b.vector(4, "INT64")
        u = b.vector(2, "INT64")
        calls.append(Call("assign_vector", out, {"u": u, "indices": [1, 1]}))
    elif kind == "udt_domain_mismatch":
        # PSET values cannot feed an INT64 semiring: DOMAIN_MISMATCH
        d = Decl(f"MU{len(b.decls)}", "matrix", "PSET", (2, 2), [[0, 0, [1]]])
        b.decls.append(d)
        out = b.matrix(2, 2, "INT64")
        calls.append(Call("mxm", out, {
            "a": d.name, "b": d.name,
            "semiring": "GrB_PLUS_TIMES_SEMIRING_INT64"}))
    elif kind == "not_a_semiring":
        a = b.matrix(2, 2, "INT64")
        out = b.matrix(2, 2, "INT64")
        calls.append(Call("mxm", out, {
            "a": a, "b": a, "semiring": "GrB_PLUS_INT64"}))  # a BinaryOp token
    elif kind == "kind_mismatch":
        # a vector operand where the matrix output needs a matrix:
        # INVALID_VALUE
        a = b.matrix(2, 2, "INT64")
        u = b.vector(2, "INT64")
        out = b.matrix(2, 2, "INT64")
        if b.chance(0.5):
            calls.append(Call("ewise_add", out, {
                "a": a, "b": u, "binop": "GrB_PLUS_INT64"}))
        else:
            calls.append(Call("apply", out, {
                "a": u, "unary": "GrB_IDENTITY_INT64"}))
    elif kind == "region_shape":
        out = b.matrix(3, 3, "INT64")
        a = b.matrix(2, 2, "INT64")  # the region below is 2 x 3
        calls.append(Call("assign_matrix", out, {
            "a": a, "rows": [0, 2], "cols": [0, 1, 2]}))
    return Program(b.decls, calls, seed=[seed, index, "err"]), kind
