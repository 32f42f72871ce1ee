"""Differential executor: one program, every execution strategy.

Each fuzz program runs against

1. the spec-literal **reference oracle** (:mod:`repro.reference` — dict
   content, pointwise pipeline), and
2. the optimized backend under every :class:`ExecMode` of a product of
   axes (:func:`modes`): blocking or nonblocking under a planner-pass
   ablation, one thread or two, the thread or the sharded process
   backend, the interpreter or the codegen kernel suite.

All runs rebuild the program's collections from the declarative form, so
no state leaks between backends; results are compared with dtype-aware
tolerance (exact for bool/integer/UDT values, relative tolerance for
floats whose reductions may legally reassociate).  After every optimized
run the structural invariants of each collection are verified with
:func:`repro.validation.check_all`, so a kernel that produces the right
values in a corrupt representation still fails.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Any

import numpy as np

__all__ = [
    "AXES",
    "ExecMode",
    "modes",
    "mode_named",
    "applied",
    "Snapshot",
    "DivergenceReport",
    "run_reference",
    "run_optimized",
    "run_differential",
    "run_service_cached",
    "check_memo_conformance",
    "check_error_conformance",
    "build_decl",
    "dispatch_call",
]

#: the planner passes a mode can switch off, in name order
_PASSES = ("dead_op", "fusion", "cse")


@dataclass(frozen=True)
class ExecMode:
    """One way to run a check on the optimized backend."""

    nonblocking: bool = False
    #: planner knobs (nonblocking only; blocking calls never plan)
    enabled: bool = True
    dead_op: bool = True
    fusion: bool = True
    cse: bool = True
    #: execution backend: "threads" or the sharded "processes" pool
    backend: str = "threads"
    #: thread count; above 1 the parallel threshold drops to 0, so the
    #: planner's level dispatch and the row-split kernels really fan out
    threads: int = 1
    #: kernel suite: "interpreter" or "codegen"
    kernel_backend: str = "interpreter"

    @property
    def name(self) -> str:
        if not self.nonblocking:
            name = "blocking"
        elif not self.enabled:
            name = "nb-planner-off"
        else:
            off = [k.replace("_", "") for k in _PASSES if not getattr(self, k)]
            name = "nb-planner" if not off else (
                "nb-passes-off" if len(off) == len(_PASSES)
                else "nb-no-" + "-".join(off)
            )
        if self.threads > 1:
            name += f"-{self.threads}threads"
        if self.backend != "threads":
            name += f"-{self.backend}"
        if self.kernel_backend != "interpreter":
            name += f"-{self.kernel_backend}"
        return name


BLOCKING = ExecMode()

#: ``--axes`` names: four mode axes whose values multiply, and two check
#: families (``memo``, ``streaming``) that run under every mode
AXES = ("passes", "threads", "processes", "codegen", "memo", "streaming")


def modes(axes=()) -> list[ExecMode]:
    """The full product of the chosen *axes* (``"all"``: every one).

    No axes: blocking plus six ablations (planner on, off, each pass
    alone off, all off).  ``passes`` takes all 2³ pass combinations;
    ``threads`` and ``processes`` each add a value to one execution axis;
    ``codegen`` adds the codegen kernel suite.  ``threads`` is dropped on
    a one-CPU host, where the thread count clamps to 1 and its modes
    would only repeat the others.
    """
    axes = set(AXES) if "all" in axes else set(axes)
    unknown = axes - set(AXES)
    if unknown:
        raise ValueError(f"unknown axes {sorted(unknown)}; valid: {AXES}")
    if (os.cpu_count() or 1) < 2:
        axes.discard("threads")
    return _product(axes)


def _product(axes) -> list[ExecMode]:
    passes = [BLOCKING, ExecMode(nonblocking=True, enabled=False)]
    for on in product((True, False), repeat=len(_PASSES)):
        # the curated lattice skips the one-pass-on points
        if "passes" in axes or sum(on) != 1:
            passes.append(ExecMode(nonblocking=True, **dict(zip(_PASSES, on))))
    executions = [dict()]
    if "threads" in axes:
        executions.append(dict(threads=2))
    if "processes" in axes:
        executions.append(dict(backend="processes"))
    kernels = ["interpreter"] + (["codegen"] if "codegen" in axes else [])
    return [
        ExecMode(**{**asdict(p), **ex, "kernel_backend": kb})
        for kb, ex, p in product(kernels, executions, passes)
    ]


def mode_named(name: str) -> ExecMode:
    """The mode called *name* (as printed in reports and regressions)."""
    return {m.name: m for m in _product(AXES)}[name]


def _or_default(mode_list):
    return modes() if mode_list is None else list(mode_list)


@contextmanager
def applied(mode: ExecMode):
    """Run the body in a fresh context under *mode*'s execution model,
    planner knobs, backends and thread count; restore every process-wide
    setting and reset the context on exit.  Every check family runs in
    here, so a mode means the same thing to all of them."""
    from .. import context, parallel
    from ..execution import planner

    context._reset()
    restore = [
        (parallel.set_backend, parallel.get_backend()),
        # get_num_threads() reads 1 under a non-thread backend
        (parallel.set_num_threads, parallel.config._num_threads),
        (parallel.set_parallel_threshold, parallel.parallel_threshold()),
        (parallel.set_shard_workers, parallel.shard_workers()),
        (parallel.set_kernel_backend, parallel.get_kernel_backend()),
    ]
    try:
        if mode.nonblocking:
            context.init(context.Mode.NONBLOCKING)
            planner.configure(
                **{k: getattr(mode, k) for k in ("enabled",) + _PASSES}
            )
        parallel.set_backend(mode.backend)
        parallel.set_num_threads(mode.threads)
        parallel.set_kernel_backend(mode.kernel_backend)
        if mode.backend == "processes" or mode.threads > 1:
            # make parallelism bite on fuzz-sized programs
            parallel.set_parallel_threshold(0)
        if mode.backend == "processes":
            parallel.set_shard_workers(2)
        yield
    finally:
        for setter, value in restore:
            setter(value)
        context._reset()


# --------------------------------------------------------------------------
# Operator environment (fresh per run: UDT domains compare by identity)
# --------------------------------------------------------------------------

class Env:
    """Resolves dtype and operator tokens into live objects for one run."""

    def __init__(self):
        from ..algebra.predefined import powerset_semiring, powerset_type
        from ..ops.base import UnaryOp

        self.pset = powerset_type()
        self.pset_sr = powerset_semiring(domain=self.pset)
        self.pset_union = self.pset_sr.add_op
        self.pset_intersect = self.pset_sr.mul
        self.pset_monoid = self.pset_sr.add
        self.pset_tag = UnaryOp(
            "PSET_TAG", self.pset, self.pset,
            scalar_fn=lambda s: s | frozenset((9,)),
        )

    def dtype(self, token: str):
        from ..types import lookup_type

        return self.pset if token == "PSET" else lookup_type(token)

    def semiring(self, token: str):
        from ..algebra.predefined import MONOID_REGISTRY, SEMIRING_REGISTRY
        from ..ops.binary import BINARY_REGISTRY

        if token == "PSET_SR":
            return self.pset_sr
        if token in SEMIRING_REGISTRY:
            return SEMIRING_REGISTRY[token]
        # error-model programs hand a non-semiring operator here on purpose;
        # resolve it so the *library* gets to reject the object
        return MONOID_REGISTRY.get(token) or BINARY_REGISTRY[token]

    def binop(self, token: str):
        from ..ops.binary import BINARY_REGISTRY

        if token == "PSET_UNION":
            return self.pset_union
        if token == "PSET_INTERSECT":
            return self.pset_intersect
        return BINARY_REGISTRY[token]

    def monoid(self, token: str):
        from ..algebra.predefined import MONOID_REGISTRY

        return self.pset_monoid if token == "PSET_MONOID" else MONOID_REGISTRY[token]

    def unary(self, token: str):
        from ..ops.unary import UNARY_REGISTRY

        return self.pset_tag if token == "PSET_TAG" else UNARY_REGISTRY[token]

    def iuop(self, token: str):
        from ..ops.index_unary import INDEXUNARY_REGISTRY

        return INDEXUNARY_REGISTRY[token]

    def accum(self, token: str | None):
        return None if token is None else self.binop(token)

    def value(self, dtype_token: str, raw):
        """Decode a JSON-carried entry value into the domain's scalar."""
        if dtype_token == "PSET":
            return frozenset(raw)
        return self.dtype(dtype_token).np_dtype.type(raw)


# --------------------------------------------------------------------------
# Snapshots and dtype-aware comparison
# --------------------------------------------------------------------------

@dataclass
class Snapshot:
    """Post-run content of every declared object, plus scalar results.

    When the run was made under :func:`repro.obs.capture`
    (``run_optimized(..., obs_capture=True)``) *counters* holds the
    capture window's metric deltas (kernel invocations, realized flops,
    write counts, …) so metrics-mode conformance can assert that the
    instrumented run still computes the same thing — and, for modes that
    execute the same physical schedule, that it does the same *work*.
    """

    objects: dict[str, dict] = field(default_factory=dict)
    scalars: list[Any] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)


_FLOAT_TOL = {"FP32": (1e-4, 1e-6), "FP64": (1e-9, 1e-12)}


def _norm(v):
    if isinstance(v, frozenset):
        return v
    item = getattr(v, "item", None)
    return item() if callable(item) else v


def values_equal(a, b, dtype_token: str) -> bool:
    a, b = _norm(a), _norm(b)
    if isinstance(a, frozenset) or isinstance(b, frozenset):
        return a == b
    if dtype_token in _FLOAT_TOL:
        rtol, atol = _FLOAT_TOL[dtype_token]
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= atol + rtol * max(abs(a), abs(b))
    return bool(a == b)


def _diff_contents(name, dtype_token, ref: dict, got: dict) -> str | None:
    rk, gk = set(ref), set(got)
    if rk != gk:
        return (
            f"{name}: pattern differs — only-reference={sorted(rk - gk)!r} "
            f"only-optimized={sorted(gk - rk)!r}"
        )
    for k in ref:
        if not values_equal(ref[k], got[k], dtype_token):
            return (
                f"{name}: value at {k!r} differs — "
                f"reference={_norm(ref[k])!r} optimized={_norm(got[k])!r}"
            )
    return None


def compare_snapshots(program, ref: Snapshot, got: Snapshot) -> list[str]:
    """Dtype-aware comparison; returns human-readable mismatch strings."""
    out: list[str] = []
    for d in program.decls:
        r = ref.objects.get(d.name, {})
        g = got.objects.get(d.name, {})
        msg = _diff_contents(d.name, d.dtype, r, g)
        if msg:
            out.append(msg)
    if len(ref.scalars) != len(got.scalars):
        out.append(
            f"scalar result count differs: {len(ref.scalars)} vs {len(got.scalars)}"
        )
    else:
        for i, (a, b) in enumerate(zip(ref.scalars, got.scalars)):
            dtype = "FP64" if isinstance(_norm(a), float) else "exact"
            if not values_equal(a, b, dtype):
                out.append(
                    f"scalar #{i}: reference={_norm(a)!r} optimized={_norm(b)!r}"
                )
    return out


# --------------------------------------------------------------------------
# Reference-oracle execution
# --------------------------------------------------------------------------

def _ref_flags(call) -> dict:
    return dict(
        replace=call.flag("replace"),
        mask_comp=call.flag("mask_comp"),
        mask_struct=call.flag("mask_struct"),
    )


def run_reference(program) -> Snapshot:
    """Run a program on the dict-based spec-literal oracle."""
    from ..reference import ref_impl as R

    env = Env()
    objs: dict[str, Any] = {}
    for d in program.decls:
        domain = env.dtype(d.dtype)
        if d.kind == "matrix":
            content = {
                (int(i), int(j)): env.value(d.dtype, v) for i, j, v in d.entries
            }
            objs[d.name] = R.RefMatrix(domain, d.shape[0], d.shape[1], content)
        else:
            content = {int(i): env.value(d.dtype, v) for i, v in d.entries}
            objs[d.name] = R.RefVector(domain, d.shape[0], content)

    scalars: list[Any] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # wrap-around overflow parity noise
        for call in program.calls:
            a = call.args
            mask = objs.get(a.get("mask")) if a.get("mask") else None
            accum = env.accum(a.get("accum"))
            fl = _ref_flags(call)
            k = call.kind
            if k == "wait":
                continue
            C = objs.get(call.out) if call.out else None
            if k == "mxm":
                R.ref_mxm(C, mask, accum, env.semiring(a["semiring"]),
                          objs[a["a"]], objs[a["b"]], **fl,
                          tran0=call.flag("tran0"), tran1=call.flag("tran1"))
            elif k == "mxv":
                R.ref_mxv(C, mask, accum, env.semiring(a["semiring"]),
                          objs[a["a"]], objs[a["u"]], **fl,
                          tran0=call.flag("tran0"))
            elif k == "vxm":
                R.ref_vxm(C, mask, accum, env.semiring(a["semiring"]),
                          objs[a["u"]], objs[a["a"]], **fl,
                          tran1=call.flag("tran1"))
            elif k in ("ewise_add", "ewise_mult"):
                fn = R.ref_ewise_add if k == "ewise_add" else R.ref_ewise_mult
                fn(C, mask, accum, env.binop(a["binop"]),
                   objs[a["a"]], objs[a["b"]], **fl,
                   tran0=call.flag("tran0"), tran1=call.flag("tran1"))
            elif k == "apply":
                R.ref_apply(C, mask, accum, env.unary(a["unary"]),
                            objs[a["a"]], **fl, tran0=call.flag("tran0"))
            elif k == "reduce":
                R.ref_reduce_rows(C, mask, accum, env.monoid(a["monoid"]),
                                  objs[a["a"]], **fl, tran0=call.flag("tran0"))
            elif k == "reduce_scalar":
                scalars.append(
                    R.ref_reduce_scalar(env.monoid(a["monoid"]), objs[a["a"]])
                )
            elif k == "transpose":
                R.ref_transpose(C, mask, accum, objs[a["a"]], **fl,
                                tran0=call.flag("tran0"))
            elif k == "extract_matrix":
                R.ref_extract_matrix(C, mask, accum, objs[a["a"]],
                                     a["rows"], a["cols"], **fl,
                                     tran0=call.flag("tran0"))
            elif k == "extract_vector":
                R.ref_extract_vector(C, mask, accum, objs[a["u"]],
                                     a["indices"], **fl)
            elif k == "assign_matrix":
                R.ref_assign_matrix(C, mask, accum, objs[a["a"]],
                                    a["rows"], a["cols"], **fl,
                                    tran0=call.flag("tran0"))
            elif k == "assign_vector":
                R.ref_assign_vector(C, mask, accum, objs[a["u"]],
                                    a["indices"], **fl)
            elif k == "assign_scalar_matrix":
                value = env.value(program.decl(call.out).dtype, a["value"])
                R.ref_assign_scalar_matrix(C, mask, accum, value,
                                           a["rows"], a["cols"], **fl)
            elif k == "assign_scalar_vector":
                value = env.value(program.decl(call.out).dtype, a["value"])
                R.ref_assign_scalar_vector(C, mask, accum, value,
                                           a["indices"], **fl)
            elif k == "select":
                R.ref_select(C, mask, accum, env.iuop(a["iuop"]),
                             objs[a["a"]], a["thunk"], **fl,
                             tran0=call.flag("tran0"))
            elif k == "kronecker":
                R.ref_kronecker(C, mask, accum, env.binop(a["binop"]),
                                objs[a["a"]], objs[a["b"]], **fl,
                                tran0=call.flag("tran0"), tran1=call.flag("tran1"))
            else:  # pragma: no cover - generator/executor skew
                raise ValueError(f"reference executor: unknown op {k!r}")

    snap = Snapshot(scalars=scalars)
    for d in program.decls:
        snap.objects[d.name] = dict(objs[d.name].content)
    return snap


# --------------------------------------------------------------------------
# Optimized-backend execution
# --------------------------------------------------------------------------

def _build_grb(decl, env):
    import repro as grb

    domain = env.dtype(decl.dtype)
    if decl.kind == "matrix":
        M = grb.Matrix(domain, decl.shape[0], decl.shape[1])
        if decl.entries:
            rows = [int(e[0]) for e in decl.entries]
            cols = [int(e[1]) for e in decl.entries]
            vals = [env.value(decl.dtype, e[2]) for e in decl.entries]
            M.build(rows, cols, vals)
        return M
    v = grb.Vector(domain, decl.shape[0])
    if decl.entries:
        idx = [int(e[0]) for e in decl.entries]
        vals = [env.value(decl.dtype, e[1]) for e in decl.entries]
        v.build(idx, vals)
    return v


def _descriptor(call):
    from .. import descriptor as D

    d = None

    def setd(field, value):
        nonlocal d
        if d is None:
            d = D.Descriptor()
        d.set(field, value)

    if call.flag("replace"):
        setd(D.OUTP, D.REPLACE)
    if call.flag("mask_comp"):
        setd(D.MASK, D.SCMP)
    if call.flag("mask_struct"):
        setd(D.MASK, D.STRUCTURE)
    if call.flag("tran0"):
        setd(D.INP0, D.TRAN)
    if call.flag("tran1"):
        setd(D.INP1, D.TRAN)
    return d


def _dispatch_optimized(call, objs, env, scalars, dtypes):
    """Issue one call; returns the descriptor built for it (or None)."""
    from .. import context, operations as ops

    a = call.args
    k = call.kind
    if k == "wait":
        context.wait()
        return
    mask = objs.get(a.get("mask")) if a.get("mask") else None
    accum = env.accum(a.get("accum"))
    desc = _descriptor(call)
    C = objs.get(call.out) if call.out else None
    if k == "mxm":
        ops.mxm(C, mask, accum, env.semiring(a["semiring"]),
                objs[a["a"]], objs[a["b"]], desc)
    elif k == "mxv":
        ops.mxv(C, mask, accum, env.semiring(a["semiring"]),
                objs[a["a"]], objs[a["u"]], desc)
    elif k == "vxm":
        ops.vxm(C, mask, accum, env.semiring(a["semiring"]),
                objs[a["u"]], objs[a["a"]], desc)
    elif k == "ewise_add":
        ops.ewise_add(C, mask, accum, env.binop(a["binop"]),
                      objs[a["a"]], objs[a["b"]], desc)
    elif k == "ewise_mult":
        ops.ewise_mult(C, mask, accum, env.binop(a["binop"]),
                       objs[a["a"]], objs[a["b"]], desc)
    elif k == "apply":
        ops.apply(C, mask, accum, env.unary(a["unary"]), objs[a["a"]], desc)
    elif k == "reduce":
        ops.reduce_to_vector(C, mask, accum, env.monoid(a["monoid"]),
                             objs[a["a"]], desc)
    elif k == "reduce_scalar":
        scalars.append(
            ops.reduce_to_scalar(env.monoid(a["monoid"]), objs[a["a"]])
        )
    elif k == "transpose":
        ops.transpose(C, mask, accum, objs[a["a"]], desc)
    elif k == "extract_matrix":
        ops.matrix_extract(C, mask, accum, objs[a["a"]],
                           a["rows"], a["cols"], desc)
    elif k == "extract_vector":
        ops.vector_extract(C, mask, accum, objs[a["u"]], a["indices"], desc)
    elif k == "assign_matrix":
        ops.matrix_assign(C, mask, accum, objs[a["a"]],
                          a["rows"], a["cols"], desc)
    elif k == "assign_vector":
        ops.vector_assign(C, mask, accum, objs[a["u"]], a["indices"], desc)
    elif k == "assign_scalar_matrix":
        value = env.value(dtypes[call.out], a["value"])
        ops.matrix_assign_scalar(C, mask, accum, value,
                                 a["rows"], a["cols"], desc)
    elif k == "assign_scalar_vector":
        value = env.value(dtypes[call.out], a["value"])
        ops.vector_assign_scalar(C, mask, accum, value, a["indices"], desc)
    elif k == "select":
        ops.select(C, mask, accum, env.iuop(a["iuop"]),
                   objs[a["a"]], a["thunk"], desc)
    elif k == "kronecker":
        ops.kronecker(C, mask, accum, env.binop(a["binop"]),
                      objs[a["a"]], objs[a["b"]], desc)
    else:  # pragma: no cover - generator/executor skew
        raise ValueError(f"optimized executor: unknown op {k!r}")
    return desc


# Public aliases: the multi-tenant service executes client-submitted
# programs through the exact same declarative path the fuzzer uses, so the
# two surfaces cannot drift apart.
build_decl = _build_grb
dispatch_call = _dispatch_optimized


def _snapshot_obj(decl, obj) -> dict:
    if decl.kind == "matrix":
        rows, cols, vals = obj.extract_tuples()
        return {(int(i), int(j)): v for i, j, v in zip(rows, cols, vals)}
    idx, vals = obj.extract_tuples()
    return {int(i): v for i, v in zip(idx, vals)}


def _with_index_arrays(call):
    """A copy of *call* whose index lists are int64 arrays, and the arrays."""
    call = call.copy()
    arrays = []
    for k in ("rows", "cols", "indices"):
        if k in call.args:
            call.args[k] = np.array(call.args[k], dtype=np.int64)
            arrays.append(call.args[k])
    return call, arrays


def run_optimized(program, mode: ExecMode, *, obs_capture: bool = False) -> Snapshot:
    """Run a program on the optimized backend under *mode*.

    Runs under :func:`applied` (a fresh context, the mode's settings),
    completes the sequence, validates every collection's structural
    invariants, and snapshots.  Like a caller that reuses its buffers, it
    passes index lists as int64 arrays, and overwrites them and frees the
    call's descriptor as soon as each call returns: a call must have read
    its arguments by then (section IV).

    With ``obs_capture=True`` the program's calls (and the final
    ``wait``) execute under :func:`repro.obs.capture`; the capture
    window's counter deltas land in ``Snapshot.counters``.  Object
    snapshotting and validation happen *outside* the window so they
    never perturb the counters.
    """
    from .. import context, obs, validation

    with applied(mode), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        env = Env()
        dtypes = {d.name: d.dtype for d in program.decls}
        scalars: list[Any] = []
        # builds go inside the window too: blocking runs them eagerly,
        # nonblocking drains them at wait() — counting both keeps the
        # counters mode-comparable
        with obs.capture() if obs_capture else nullcontext() as cap:
            objs = {d.name: _build_grb(d, env) for d in program.decls}
            for call in program.calls:
                call, arrays = _with_index_arrays(call)
                desc = _dispatch_optimized(call, objs, env, scalars, dtypes)
                for arr in arrays:
                    arr.fill(-1)
                if desc is not None:
                    desc.free()
            context.wait()
        validation.check_all(objs.values())
        counters = {} if cap is None else dict(cap.counters)
        snap = Snapshot(scalars=scalars, counters=counters)
        for d in program.decls:
            snap.objects[d.name] = _snapshot_obj(d, objs[d.name])
        return snap


# --------------------------------------------------------------------------
# Differential driver
# --------------------------------------------------------------------------

@dataclass
class DivergenceReport:
    """Everything needed to reproduce and triage one oracle divergence."""

    program: Any
    failures: list[tuple[ExecMode, str]]  # (mode, detail)

    def modes(self) -> list[ExecMode]:
        """The failing modes, in run order: shrink and replay under these."""
        return list(dict.fromkeys(m for m, _ in self.failures))

    def signature(self) -> frozenset[str]:
        """Mode-independent failure categories (for shrink-move honesty).

        A shrink move can turn a value divergence into an API error (e.g.
        clearing a ``tran`` bit breaks the program's shapes, which the
        spec-literal oracle does not validate); comparing signatures lets
        the shrinker reject candidates that fail for a *new* reason.
        """
        cats = set()
        for _, detail in self.failures:
            if detail.startswith("raised "):
                cats.add("raised:" + detail.split()[1].rstrip(":"))
            elif "pattern differs" in detail:
                cats.add("pattern")
            elif detail.startswith("scalar"):
                cats.add("scalar")
            else:
                cats.add("value")
        return frozenset(cats)

    def __str__(self) -> str:
        lines = [f"divergence in {self.program!r}:"]
        for mode, detail in self.failures:
            lines.append(f"  [{mode.name}] {detail}")
        return "\n".join(lines)


def run_differential(program, modes=None) -> DivergenceReport | None:
    """Run *program* on the oracle and every mode; None means conformant."""
    ref = run_reference(program)
    failures: list[tuple[ExecMode, str]] = []
    for mode in _or_default(modes):
        try:
            got = run_optimized(program, mode)
        except Exception as exc:  # any escape from a valid program diverges
            failures.append((mode, f"raised {type(exc).__name__}: {exc}"))
            continue
        for msg in compare_snapshots(program, ref, got):
            failures.append((mode, msg))
    return DivergenceReport(program, failures) if failures else None


# --------------------------------------------------------------------------
# Cached-service conformance (the memo differential pair)
# --------------------------------------------------------------------------

def run_service_cached(program, service) -> tuple[Snapshot, str | None]:
    """Run *program* through the multi-tenant service as one ``program``
    request against a fresh session, fetching every declared object.

    Returns ``(snapshot, cache_status)`` where *cache_status* is the
    request's ``timing["cache"]`` field (``"hit"`` / ``"miss"`` /
    ``"bypass"``, or None when the service runs without a cache).
    """
    payload = {
        "declare": [d.to_dict() for d in program.decls],
        "calls": [c.to_dict() for c in program.calls],
        "fetch": [d.name for d in program.decls],
    }
    name = service.open_session()
    resp = service.request(name, "program", payload, timing=True)
    env = Env()
    snap = Snapshot(scalars=list(resp.get("scalars", [])))
    for d in program.decls:
        c = resp["fetched"][d.name]
        if d.kind == "matrix":
            snap.objects[d.name] = {
                (int(i), int(j)): env.value(d.dtype, v)
                for i, j, v in zip(c["rows"], c["cols"], c["values"])
            }
        else:
            snap.objects[d.name] = {
                int(i): env.value(d.dtype, v)
                for i, v in zip(c["indices"], c["values"])
            }
    return snap, resp.get("timing", {}).get("cache")


def check_memo_conformance(program, service) -> str | None:
    """The cache-consistency differential: reference oracle vs the cached
    service, cold (miss/bypass) *and* warm (hit, from a different session).

    A cacheable program must produce identical results on both service
    runs, the warm run must actually hit, and a bypass decision must be
    deterministic.  None means conformant.
    """
    ref = run_reference(program)

    def _normalize(snap: Snapshot) -> Snapshot:
        # the wire response JSON-ifies PSET frozensets into sorted lists;
        # fold them back using the reference scalars as the type guide
        if len(snap.scalars) == len(ref.scalars):
            snap.scalars = [
                frozenset(s)
                if isinstance(r, frozenset) and isinstance(s, list) else s
                for r, s in zip(ref.scalars, snap.scalars)
            ]
        return snap

    try:
        cold, st_cold = run_service_cached(program, service)
    except Exception as exc:
        return f"cold service run raised {type(exc).__name__}: {exc}"
    try:
        warm, st_warm = run_service_cached(program, service)
    except Exception as exc:
        return f"warm service run raised {type(exc).__name__}: {exc}"
    msgs = compare_snapshots(program, ref, _normalize(cold))
    if msgs:
        return f"cold ({st_cold}) vs reference: " + "; ".join(msgs)
    msgs = compare_snapshots(program, ref, _normalize(warm))
    if msgs:
        return f"warm ({st_warm}) vs reference: " + "; ".join(msgs)
    if st_cold == "miss" and st_warm != "hit":
        return (
            "cacheable program missed on identical resubmission "
            f"(cold={st_cold!r}, warm={st_warm!r})"
        )
    if st_cold == "bypass" and st_warm != "bypass":
        return f"bypass decision not deterministic ({st_cold!r} then {st_warm!r})"
    return None


# --------------------------------------------------------------------------
# Error-model conformance (paper section V)
# --------------------------------------------------------------------------

def _error_outcome(program, mode: ExecMode) -> tuple[str, Any, str | None]:
    """Run the program under *mode*, expecting its final call to raise.

    Returns ``(error class name, GrB_Info, complaint-or-None)``.
    """
    from ..info import GraphBLASError, info_of

    with applied(mode), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        env = Env()
        objs = {d.name: _build_grb(d, env) for d in program.decls}
        dtypes = {d.name: d.dtype for d in program.decls}
        scalars: list[Any] = []
        for call in program.calls[:-1]:
            try:
                _dispatch_optimized(call, objs, env, scalars, dtypes)
            except GraphBLASError as exc:
                return type(exc).__name__, info_of(exc), (
                    f"valid prefix call {call.kind} raised {exc!r}"
                )
        try:
            _dispatch_optimized(program.calls[-1], objs, env, scalars, dtypes)
        except GraphBLASError as exc:
            return type(exc).__name__, info_of(exc), None
        return "<none>", None, "invalid final call did not raise"


def check_error_conformance(program, modes=None) -> str | None:
    """API errors must be identical — class and ``GrB_Info`` code, raised at
    call time — under every mode.  None means conformant."""
    first = None
    for mode in _or_default(modes):
        cls, info, complaint = _error_outcome(program, mode)
        if complaint:
            return f"{mode.name}: {complaint}"
        if first is None:
            first = (mode.name, cls, info)
        elif (cls, info) != first[1:]:
            return (
                f"error mismatch: {first[0]} raised {first[1]}/{first[2]!r}, "
                f"{mode.name} raised {cls}/{info!r}"
            )
    return None
