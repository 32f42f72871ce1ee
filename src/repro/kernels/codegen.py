"""The codegen backend: fused chains compiled to generated kernels.

Two flavors, chosen per chain:

* **numba** — a single ``@njit`` scalar loop, generated only for pure
  same-dtype ``apply`` pipelines whose operators have curated scalar
  expressions (:data:`repro.kernels.chain.NUMBA_SCALAR_EXPRS`).  Requires
  ``numba`` to be importable; it is an optional extra, never a dependency.
* **stitch** — always available: a generated module that rebinds the *same*
  live primitives the interpreter uses (registry operators, ``cast_array``,
  ``group_starts``/``segment_reduce``) by name and stitches them into one
  straight-line function, eliminating per-link dispatch.  Bit-identity is
  by construction — each generated statement is the interpreter's own
  statement with the link's bindings inlined.

Each chain shape is generated and compiled once per process and kept in
one in-memory map; nothing is written to disk.  Every failure mode —
ineligible signature, compile error, runtime exception inside a generated
kernel — lands on the interpreter, which is always correct; the codegen
backend can be slower than the interpreter, never wrong.
"""

from __future__ import annotations

from .chain import (
    NUMBA_SCALAR_EXPRS,
    _split_op,
    chain_signature,
    numba_eligible,
)
from .interface import KernelBackend
from .interpreter import interpret_chain

__all__ = [
    "CodegenBackend",
    "build_stitch_source",
    "build_numba_source",
    "load_or_build",
    "clear_kernels",
]

#: (flavor, frozen signature) → compiled fused_chain callable, or False
#: for a chain shape known not to compile or to have failed at run time
_compiled: dict = {}

_numba_probe: bool | None = None


def _numba_available() -> bool:
    global _numba_probe
    if _numba_probe is None:
        try:
            import numba  # noqa: F401

            _numba_probe = True
        except Exception:
            _numba_probe = False
    return _numba_probe


def clear_kernels() -> None:
    """Drop every per-process compiled kernel (test isolation helper)."""
    _compiled.clear()


def _freeze(sig: dict) -> tuple:
    """A hashable flat mirror of a signature — field order is fixed by
    construction in :func:`chain_signature`, so a straight tuple is enough.
    The thunk enters as the ``repr`` the generated source bakes in: ``1``,
    ``1.0`` and ``True`` render differently, and a NaN equals itself."""
    p = sig["producer"]
    return (
        p["kind"], p["op"], p["out"], p["mask"], p["replace"],
        tuple(
            (l["role"], l["op"], l["in"], l["t"], l["out"],
             l["mask"], l["replace"], l["accum"], repr(l.get("thunk")))
            for l in sig["links"]
        ),
    )


# --------------------------------------------------------------------------
# Source generation
# --------------------------------------------------------------------------

_REGISTRY_OF = {
    "apply": "UNARY_REGISTRY",
    "select": "INDEXUNARY_REGISTRY",
    "reduce": "MONOID_REGISTRY",
}

_STITCH_PRELUDE = '''\
"""Generated repro kernel (stitch flavor) — do not edit, regenerate."""
import numpy as np
from repro._sparseutil import group_starts, segment_reduce, unflatten_keys
from repro.types import cast_array, lookup_type
from repro.algebra.predefined import MONOID_REGISTRY
from repro.ops.index_unary import INDEXUNARY_REGISTRY
from repro.ops.unary import UNARY_REGISTRY
'''


def build_stitch_source(sig: dict) -> str:
    """Straight-line numpy source for one chain signature.

    The body is the interpreter's per-link code with each link's operator,
    domains and thunk bound at module top level — the structure (mask
    filter placement, cast points, empty guards) must stay statement-for-
    statement identical to :mod:`repro.kernels.interpreter` and the fused
    kernels in :mod:`repro.operations._kernels`, because bit-identity is
    argued by construction, not by testing alone.
    """
    links = sig["links"]
    last = len(links) - 1
    lines = [_STITCH_PRELUDE]
    for i, link in enumerate(links):
        lines.append(f"_op{i} = {_REGISTRY_OF[link['role']]}[{link['op']!r}]")
        lines.append(f"_in{i} = lookup_type({link['in']!r})")
        lines.append(f"_t{i} = lookup_type({link['t']!r})")
        lines.append(f"_o{i} = lookup_type({link['out']!r})")
        if link["role"] == "select":
            lines.append(f"_thunk{i} = {link['thunk']!r}")
    lines += ["", "", "def fused_chain(keys, vals, masks, dims):"]
    for i, link in enumerate(links):
        role = link["role"]
        lines.append(f"    # link {i}: {role} {link['op']}")
        if role != "reduce":
            # apply/select filter the incoming stream by their mask first
            lines += [
                f"    m = masks[{i}]",
                "    if m is not None and len(keys):",
                "        keep = m.allows(keys)",
                "        keys, vals = keys[keep], vals[keep]",
            ]
        if role == "apply":
            lines += [
                f"    vals = _op{i}.apply_array("
                f"cast_array(vals, _in{i}, _op{i}.d_in))",
                f"    if vals.dtype != _op{i}.d_out.np_dtype:",
                f"        vals = vals.astype(_op{i}.d_out.np_dtype)",
            ]
        elif role == "select":
            lines += [
                "    if len(keys) == 0:",
                "        vals = vals.copy()",
                "    else:",
                f"        if dims[{i}] >= 0:",
                f"            rows, cols = unflatten_keys(keys, dims[{i}])",
                "        else:",
                "            rows = keys",
                "            cols = np.zeros(len(keys), dtype=np.int64)",
                f"        vin = (cast_array(vals, _in{i}, _op{i}.d_in)",
                f"               if _op{i}.d_in is not None else vals)",
                "        verdict = np.asarray(",
                f"            _op{i}.apply_arrays(vin, rows, cols, _thunk{i})",
                "        ).astype(bool)",
                "        keys, vals = keys[verdict], vals[verdict]",
            ]
        else:  # reduce
            lines += [
                f"    vals = cast_array(vals, _in{i}, _t{i})",
                "    if len(keys) == 0:",
                "        keys = np.empty(0, dtype=np.int64)",
                f"        vals = np.empty(0, dtype=_op{i}.domain.np_dtype)",
                "    else:",
                f"        rows = keys // np.int64(dims[{i}])",
                "        keys, starts = group_starts(rows)",
                f"        vals = segment_reduce(vals, starts, _op{i})",
                f"        if vals.dtype != _op{i}.domain.np_dtype:",
                f"            vals = vals.astype(_op{i}.domain.np_dtype)",
            ]
            if i != last:
                # a middle reduce filters its *reduced* vector, exactly
                # where the interpreter's _link_t does
                lines += [
                    f"    m = masks[{i}]",
                    "    if m is not None and len(keys):",
                    "        keep = m.allows(keys)",
                    "        keys, vals = keys[keep], vals[keep]",
                ]
            # a tail reduce leaves the mask to the write pipeline push-down
        if i != last:
            lines.append(f"    vals = cast_array(vals, _t{i}, _o{i})")
        lines.append("")
    lines.append("    return keys, vals")
    lines.append("")
    return "\n".join(lines)


_NP_OF = {
    "BOOL": "bool_",
    "INT8": "int8", "INT16": "int16", "INT32": "int32", "INT64": "int64",
    "UINT8": "uint8", "UINT16": "uint16", "UINT32": "uint32",
    "UINT64": "uint64", "FP32": "float32", "FP64": "float64",
}


def build_numba_source(sig: dict) -> str:
    """A single njit scalar loop for a pure same-dtype apply chain.

    Eligibility (:func:`numba_eligible`) guarantees every cast in the
    interpreter path is the identity and every operator has a curated
    scalar expression, so the whole chain collapses to one pass over the
    values.  ``apply`` never changes keys, so the links' mask filters
    commute with the value maps and combine into one up-front AND.

    The plain ``import numba`` is deliberate: in a process without numba
    the module fails to exec and the chain is marked known-bad.
    """
    dtype = _split_op(sig["links"][0]["in"])[1]
    np_name = _NP_OF[dtype]
    exprs = [
        NUMBA_SCALAR_EXPRS[_split_op(link["op"])[0]][1]
        for link in sig["links"]
    ]
    lines = [
        '"""Generated repro kernel (numba flavor) — do not edit, '
        'regenerate."""',
        "import numpy as np",
        "import numba",
        "",
        f"_ONE = np.{np_name}(1)",
        "",
        "",
        "@numba.njit(cache=False)",
        "def _loop(vals, out):",
        "    one = _ONE",
        "    for i in range(vals.shape[0]):",
        "        x = vals[i]",
    ]
    lines += [f"        x = {expr}" for expr in exprs]
    lines += [
        "        out[i] = x",
        "",
        "",
        "def fused_chain(keys, vals, masks, dims):",
        "    if len(keys):",
        "        keep = None",
        "        for m in masks:",
        "            if m is not None:",
        "                k = m.allows(keys)",
        "                keep = k if keep is None else keep & k",
        "        if keep is not None:",
        "            keys, vals = keys[keep], vals[keep]",
        f"    out = np.empty(len(vals), dtype=np.{np_name})",
        "    _loop(np.ascontiguousarray(vals), out)",
        "    return keys, out",
        "",
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Compile
# --------------------------------------------------------------------------

def _compile(source: str):
    ns: dict = {}
    try:
        exec(compile(source, "<repro-kernel>", "exec"), ns)
    except Exception:
        return None
    fn = ns.get("fused_chain")
    return fn if callable(fn) else None


def load_or_build(sig: dict):
    """``(fused_chain, key)`` for a signature, compiled on first use.
    ``(None, key)`` means this chain cannot compile here (or its kernel
    failed at run time); run the interpreter."""
    if _numba_available() and numba_eligible(sig):
        flavor, build = "numba", build_numba_source
    else:
        flavor, build = "stitch", build_stitch_source
    key = (flavor, _freeze(sig))
    fn = _compiled.get(key)
    if fn is None:
        fn = _compiled[key] = _compile(build(sig)) or False
    return fn or None, key


def _discard(key: tuple) -> None:
    """A generated kernel misbehaved at run time: never run it again in
    this process."""
    _compiled[key] = False


_RT = None


def _runtime():
    """Hot-path collaborators, resolved once (circular-import-safe): chain
    dispatch runs per contracted node, so per-call imports are real cost."""
    global _RT
    if _RT is None:
        from ..containers.mask import build_mask_view
        from ..obs import metrics as _metrics
        from ..obs import spans as _obs_spans
        from ..operations._kernels import _observed_kernel
        from ..operations.common import _producer_result, run_write_pipeline

        _RT = (
            build_mask_view, _metrics, _obs_spans,
            _observed_kernel, _producer_result, run_write_pipeline,
        )
    return _RT


class CodegenBackend(KernelBackend):
    """Compiles eligible chains; interprets everything else."""

    name = "codegen"

    def run_chain(self, specs) -> None:
        _obs_spans = _runtime()[2]
        sig = chain_signature(specs)
        fn = key = None
        if sig is not None:
            fn, key = load_or_build(sig)
        if fn is None:
            if _obs_spans.current() is not None:
                _obs_spans.annotate(compiled=False)
            interpret_chain(specs)
            return
        self._run_compiled(specs, fn, key)

    def _run_compiled(self, specs, fn, key) -> None:
        (build_mask_view, _metrics, _obs_spans, _observed_kernel,
         _producer_result, run_write_pipeline) = _runtime()

        masks = [
            build_mask_view(s.mask, s.desc.mask_complement,
                            s.desc.mask_structure)
            for s in specs[1:]
        ]
        dims = []
        for s in specs[1:]:
            if s.reducer is not None:
                dims.append(s.inputs[0].ncols)
            else:
                n = getattr(s.out, "ncols", None)
                dims.append(-1 if n is None else n)
        keys, vals = _producer_result(specs[0])
        try:
            if (_obs_spans.current() is None
                    and not _metrics.registry.enabled):
                t_keys, t_vals = fn(keys, vals, masks, dims)
            else:

                def run(acc):
                    out = fn(keys, vals, masks, dims)
                    acc.append(len(keys) * (len(specs) - 1))
                    return out

                t_keys, t_vals = _observed_kernel(
                    "chain[compiled]", run,
                    flops_estimated=len(keys) * (len(specs) - 1),
                    nnz_in=len(keys),
                    backend="codegen", compiled=True,
                )
        except Exception:
            # producer kernels are pure, so rerunning the whole chain on
            # the interpreter is safe; the bad kernel is retired
            _discard(key)
            if _obs_spans.current() is not None:
                _obs_spans.annotate(compiled=False)
            interpret_chain(specs)
            return
        if _obs_spans.current() is not None:
            _obs_spans.annotate(compiled=True)
        tail = specs[-1]
        run_write_pipeline(
            tail.out, tail.mask, tail.accum, tail.desc,
            t_keys, t_vals, tail.t_type, mask_view=masks[-1],
        )
