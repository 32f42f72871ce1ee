"""Chain shapes: what the planner may stream, and what codegen may compile.

A *fused chain* is an ordered list of OpSpecs ``[P, L1, ..., Ln]`` the
planner contracted into one node: P is any standard producer (its kernel
computes T), every later link is a single-input stream transform — an
``apply`` value map, a ``select`` predicate, or a matrix→vector ``reduce``
— and every link but the last is *overwrite-shaped* (no accumulator,
unmasked or replace-mode), so the intermediate it would have stored equals
its mask-filtered T cast to its own domain.  The tail keeps its full write
pipeline (mask/accum/replace against the real output).

Two layers of eligibility live here:

* :func:`is_stream_link` / :func:`overwrite_shaped` — the *semantic* tests
  the fusion pass uses to grow chains.  Any chain the planner builds is
  runnable by the interpreter backend; legality never depends on codegen.
* :func:`chain_signature` — the *structural* description codegen compiles
  from: registry names only, no live objects.  ``None`` means the chain
  uses something a generated kernel cannot rebind by name (user-defined
  operators or domains, bind-style applies, binop reducers) and the
  interpreter must run it.

The signature is also the identity of a compiled kernel (codegen keys its
map on the flavor plus the signature's fields), so alpha-renaming
temporaries or reordering independent ops (which leave the chain's own
structure untouched) share a kernel, while any change to an operator,
accumulator, mask kind, REPLACE bit, or dtype splits it.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "is_stream_link",
    "overwrite_shaped",
    "chain_signature",
    "numba_eligible",
]


def is_stream_link(spec) -> bool:
    """Can *spec* consume a producer's un-materialized stream?  True for
    the three single-input transforms fusion understands."""
    return (
        spec.post is not None
        or spec.reducer is not None
        or spec.selector is not None
    )


def overwrite_shaped(spec) -> bool:
    """Would *spec*'s output hold exactly its mask-filtered T?  (No
    accumulator, and unmasked or replace-mode — the pair-fusion case (a)
    shape, and the condition for a chain link to keep streaming.)"""
    return spec.accum is None and (
        spec.mask is None or spec.desc.replace
    )


# --------------------------------------------------------------------------
# Structural signatures (codegen + cache identity)
# --------------------------------------------------------------------------

_REGS: tuple | None = None


def _registries() -> tuple:
    """(semiring, monoid, binary, unary, index-unary) registries, resolved
    once — signature extraction runs per chain dispatch, so the circular-
    import-safe lazy imports must not be paid every time."""
    global _REGS
    if _REGS is None:
        from ..algebra.predefined import MONOID_REGISTRY, SEMIRING_REGISTRY
        from ..ops.binary import BINARY_REGISTRY
        from ..ops.index_unary import INDEXUNARY_REGISTRY
        from ..ops.unary import UNARY_REGISTRY

        _REGS = (
            SEMIRING_REGISTRY,
            MONOID_REGISTRY,
            BINARY_REGISTRY,
            UNARY_REGISTRY,
            INDEXUNARY_REGISTRY,
        )
    return _REGS


def _type_name(t) -> str | None:
    """Registry name of a builtin GrBType; None for UDTs (not rebindable)."""
    if t is None or getattr(t, "is_udt", False):
        return None
    return t.name


def _registered(registry: dict, tok) -> str | None:
    """*tok*'s registry name, but only when the registry entry IS *tok* —
    a same-named user operator must never alias a builtin kernel."""
    name = getattr(tok, "name", None)
    if name is not None and registry.get(name) is tok:
        return name
    return None


def _mask_kind(spec) -> str | None:
    if spec.mask is None:
        return None
    d = spec.desc
    kind = "struct" if d.mask_structure else "value"
    return kind + "_comp" if d.mask_complement else kind


def _accum_name(spec) -> str | None:
    """Accumulator identity for the key.  The accumulator runs in the
    (uncompiled) write pipeline, so an unregistered one cannot corrupt a
    generated kernel — it only needs a stable spelling in the key."""
    if spec.accum is None:
        return None
    return _registered(_registries()[2], spec.accum) or "<udf-accum>"


def _plain_thunk(thunk) -> Any:
    """A JSON-able, exactly-renderable thunk scalar, or the sentinel
    ``False, None`` pair when the value cannot be baked into source."""
    item = getattr(thunk, "item", None)
    if callable(item):
        thunk = item()
    if isinstance(thunk, (bool, int, float)):
        return True, thunk
    return False, None


def _link_entry(spec) -> dict | None:
    _, MONOID_REGISTRY, _, UNARY_REGISTRY, INDEXUNARY_REGISTRY = _registries()

    in_name = _type_name(spec.inputs[0].type) if spec.inputs else None
    t_name = _type_name(spec.t_type)
    out_name = _type_name(spec.out.type)
    if in_name is None or t_name is None or out_name is None:
        return None
    entry = {
        "in": in_name,
        "t": t_name,
        "out": out_name,
        "mask": _mask_kind(spec),
        "replace": bool(spec.desc.replace),
        "accum": _accum_name(spec),
    }
    if spec.post is not None:
        op = _registered(UNARY_REGISTRY, spec.op_token)
        if op is None:
            return None
        entry.update(role="apply", op=op)
        return entry
    if spec.selector is not None:
        iuop, thunk = spec.selector
        op = _registered(INDEXUNARY_REGISTRY, iuop)
        ok, plain = _plain_thunk(thunk)
        if op is None or not ok:
            return None
        entry.update(role="select", op=op, thunk=plain)
        return entry
    if spec.reducer is not None:
        op = _registered(MONOID_REGISTRY, spec.op_token)
        if op is None:
            return None  # binop-shim reducers stay on the interpreter
        entry.update(role="reduce", op=op)
        return entry
    return None


def chain_signature(specs) -> dict | None:
    """Structural description of a fused chain, or None when any part is
    not rebindable by registry name (the codegen-ineligibility rule).

    The producer's kernel is never compiled — only its result stream feeds
    the generated value path — but its kind, operator and output domain
    are part of the chain's identity all the same.
    """
    head = specs[0]
    head_out = _type_name(head.out.type)
    if head_out is None:
        return None
    head_op = None
    if head.op_token is not None:
        for reg in _registries()[:4]:
            head_op = _registered(reg, head.op_token)
            if head_op is not None:
                break
        # the rule is uniform: every operator in the chain must resolve by
        # registry name, producers included
        if head_op is None:
            return None
    links = []
    for spec in specs[1:]:
        entry = _link_entry(spec)
        if entry is None:
            return None
        links.append(entry)
    if not links:
        return None
    return {
        "producer": {
            "kind": head.kind,
            "op": head_op,
            "out": head_out,
            "mask": _mask_kind(head),
            "replace": bool(head.desc.replace),
        },
        "links": links,
    }


# --------------------------------------------------------------------------
# Numba flavor eligibility
# --------------------------------------------------------------------------

_INT_DTYPES = {
    "INT8", "INT16", "INT32", "INT64",
    "UINT8", "UINT16", "UINT32", "UINT64",
}

#: unary families a generated scalar loop reproduces bit-for-bit.  Each
#: entry maps base name → (allowed dtype tokens, scalar expression); the
#: expression sees ``x`` (current value) and ``one`` (dtype-typed 1).
NUMBA_SCALAR_EXPRS = {
    "GrB_IDENTITY": (_INT_DTYPES | {"BOOL", "FP32", "FP64"}, "x"),
    "GrB_AINV": (
        {"INT8", "INT16", "INT32", "INT64", "FP32", "FP64"},
        "-x",
    ),
    "GrB_ABS": ({"FP32", "FP64"}, "abs(x)"),
    # guarded: numba float division raises ZeroDivisionError where the
    # numpy kernel (errstate-ignored) yields a signed infinity
    "GrB_MINV": (
        {"FP32", "FP64"},
        "(one / x) if x != 0 else np.copysign(np.inf, x)",
    ),
    "GrB_LNOT": ({"BOOL"}, "not x"),
    "GrB_BNOT": (_INT_DTYPES, "~x"),
    # sqrt is exactly rounded in every IEEE mode, so FP32 is safe; exp/log
    # stay FP64-only — a float32 libm can disagree with numpy's
    # float32-native loops at the last ulp, and bit-identity is the bar
    "GxB_SQRT": ({"FP32", "FP64"}, "np.sqrt(x)"),
    "GxB_EXP": ({"FP64"}, "np.exp(x)"),
    "GxB_LOG": ({"FP64"}, "np.log(x)"),
}

#: every builtin dtype suffix — operator names end in one of these, but
#: suffix-less singletons (``GrB_LNOT``) must not lose their last segment
_DTYPE_SUFFIXES = frozenset(_INT_DTYPES | {"BOOL", "FP32", "FP64"})


def _split_op(name: str) -> tuple[str, str]:
    base, _, dtype = name.rpartition("_")
    if dtype in _DTYPE_SUFFIXES:
        return base, dtype
    return name, ""


def numba_eligible(sig: dict) -> bool:
    """True when the whole chain is a pure same-dtype apply pipeline whose
    operators all have curated scalar expressions — the only shape the
    njit loop flavor generates.  Everything else uses numpy stitching."""
    dtype = _split_op(sig["producer"]["out"])[1]
    for link in sig["links"]:
        if link["role"] != "apply":
            return False
        if _split_op(link["in"])[1] != dtype:
            return False
        base, op_dtype = _split_op(link["op"])
        allowed = NUMBA_SCALAR_EXPRS.get(base)
        # suffix-less singletons (GrB_LNOT) carry no dtype in the name;
        # their fixed domain is enforced by the allowed set + in/t/out
        if allowed is None or op_dtype not in ("", dtype) \
                or dtype not in allowed[0]:
            return False
        if (_split_op(link["t"])[1] != dtype
                or _split_op(link["out"])[1] != dtype):
            return False
    return True
