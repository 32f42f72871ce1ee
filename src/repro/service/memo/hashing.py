"""Request keys: is a request cacheable, and under which key?

:func:`analyze_request` inspects one admitted data request and either
produces a :class:`CacheDecision` carrying the request's **exact text
key** — the kind plus the payload as ``json.dumps(payload,
sort_keys=True)`` — or a typed bypass reason.  Two requests share a key
only when they are the same request as sent, so a hit's names, fetch set
and declarations are the original's.  The key is text, not a tree
compared with ``==``: under ``==`` ``0.0`` and ``-0.0`` are equal, yet a
program declaring either fetches its own sign back.  A payload JSON
cannot encode bypasses as ``unhashable``.

Cacheability is deliberately conservative; a request is cacheable only
when serving it from an old result is *observationally identical* to
executing it:

* every external operand resolves into the **shared store** (``shared:``
  prefix) — shared content is pinned by the snapshot version in the
  cache key, while session-private objects have no version discipline;
* every output is **freshly declared by the request itself** (or, for
  ``algorithm``, lands under ``store_as``) — the entry can then
  materialize those objects into the session store on a hit, preserving
  the request's side effects exactly;
* every operator token resolves in the **built-in registries** — a
  non-registry UDF (the ``PSET_*`` algebra, unknown tokens) has no
  process-stable identity, so such programs always execute;
* the request kind is ``program``, ``algorithm``, or ``query`` — the
  read-path kinds; mutations are never cached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ...fuzz.program import _CANONICAL
from ..session import SHARED_PREFIX

__all__ = ["CacheDecision", "analyze_request", "CACHEABLE_KINDS"]

#: argument keys holding operand *names* (everything else is structural)
_NAME_KEYS = ("a", "b", "u", "mask")

#: keys every declaration must carry (``entries`` defaults to empty)
_DECL_KEYS = frozenset(("name", "kind", "dtype", "shape"))

#: operator-token argument keys, with the registry resolving each
_TOKEN_KEYS = ("semiring", "binop", "monoid", "unary", "iuop", "accum")


@dataclass(frozen=True)
class CacheDecision:
    """Outcome of analyzing one request for cacheability."""

    cacheable: bool
    kind: str
    #: bypass reason (stable token, for metrics) when not cacheable
    reason: str = ""
    #: exact text key (cache key half; version is the other)
    digest: str | None = None
    #: the program's declarations, as sent — a hit rebuilds the objects
    #: no call writes from these instead of a serialized blob
    declares: tuple = ()
    #: declared names some call writes (programs)
    written: frozenset = frozenset()
    #: user-chosen ``store_as`` name of an algorithm request
    store_as: str | None = None
    #: bare (prefix-stripped) shared-store names the request reads — the
    #: delta-aware invalidation set: a publish that leaves all of them
    #: untouched re-keys the entry to the new version instead of dropping
    shared_reads: frozenset = frozenset()


def _bypass(kind: str, reason: str) -> CacheDecision:
    return CacheDecision(cacheable=False, kind=kind, reason=reason)


_REGISTRY_TABLE: dict[str, Any] = {}


def _registry_token_ok(key: str, token: Any) -> bool:
    if not isinstance(token, str) or token.startswith("PSET"):
        return False
    if not _REGISTRY_TABLE:  # deferred: the registries import heavy modules
        from ...algebra.predefined import MONOID_REGISTRY, SEMIRING_REGISTRY
        from ...ops.binary import BINARY_REGISTRY
        from ...ops.index_unary import INDEXUNARY_REGISTRY
        from ...ops.unary import UNARY_REGISTRY

        _REGISTRY_TABLE.update({
            "semiring": SEMIRING_REGISTRY,
            "binop": BINARY_REGISTRY,
            "accum": BINARY_REGISTRY,
            "monoid": MONOID_REGISTRY,
            "unary": UNARY_REGISTRY,
            "iuop": INDEXUNARY_REGISTRY,
        })
    return token in _REGISTRY_TABLE[key]


# --------------------------------------------------------------------------
# Per-kind analyzers
# --------------------------------------------------------------------------

def _analyze_program(payload: dict, key: str) -> CacheDecision:
    declares = payload.get("declare", []) or []
    raw_calls = payload.get("calls")
    fetch = payload.get("fetch", []) or []
    if not isinstance(raw_calls, list) or not isinstance(declares, list):
        return _bypass("program", "malformed")

    shared_reads: set[str] = set()
    decl_names: set[str] = set()
    for d in declares:
        if not isinstance(d, dict) or not _DECL_KEYS <= d.keys():
            return _bypass("program", "malformed")
        name = d["name"]
        if not isinstance(name, str) or name.startswith(SHARED_PREFIX):
            return _bypass("program", "shared-out")
        if d["dtype"] == "PSET":
            return _bypass("program", "udf")
        decl_names.add(name)

    written: set[str] = set()
    for c in raw_calls:
        if not isinstance(c, dict):
            return _bypass("program", "malformed")
        kind_, out, args = c.get("kind"), c.get("out"), c.get("args", {})
        if kind_ == "wait":
            continue  # a sequence point, observationally a no-op
        if kind_ not in _CANONICAL or not isinstance(args, dict):
            return _bypass("program", "unknown-op")
        for tkey in _TOKEN_KEYS:
            tok = args.get(tkey)
            if tok is not None and not _registry_token_ok(tkey, tok):
                return _bypass("program", "udf")
        for nkey in _NAME_KEYS:
            ref = args.get(nkey)
            if ref is None:
                continue
            if not isinstance(ref, str):
                return _bypass("program", "malformed")
            if ref.startswith(SHARED_PREFIX):
                shared_reads.add(ref[len(SHARED_PREFIX):])
            elif ref not in decl_names:
                return _bypass("program", "private-ref")
        if out is not None:
            if out not in decl_names:
                # writing into a pre-existing session object: the write is
                # a visible mutation the cache could not replay
                return _bypass("program", "external-out")
            written.add(out)

    for name in fetch:
        if not isinstance(name, str):
            return _bypass("program", "malformed")
        if name.startswith(SHARED_PREFIX):
            shared_reads.add(name[len(SHARED_PREFIX):])
        elif name not in decl_names:
            return _bypass("program", "private-ref")

    return CacheDecision(
        cacheable=True, kind="program", digest=key,
        declares=tuple(declares), written=frozenset(written),
        shared_reads=frozenset(shared_reads),
    )


def _analyze_algorithm(payload: dict, key: str) -> CacheDecision:
    graph = payload.get("graph")
    store_as = payload.get("store_as")
    if not isinstance(graph, str) or not graph.startswith(SHARED_PREFIX):
        return _bypass("algorithm", "private-ref")
    if not isinstance(payload.get("algo"), str):
        return _bypass("algorithm", "malformed")
    if store_as is not None and (
        not isinstance(store_as, str) or store_as.startswith(SHARED_PREFIX)
    ):
        return _bypass("algorithm", "shared-out")
    return CacheDecision(
        cacheable=True, kind="algorithm", digest=key, store_as=store_as,
        shared_reads=frozenset((graph[len(SHARED_PREFIX):],)),
    )


def _analyze_query(payload: dict, key: str) -> CacheDecision:
    name = payload.get("name")
    if not isinstance(name, str) or not name.startswith(SHARED_PREFIX):
        return _bypass("query", "private-ref")
    return CacheDecision(
        cacheable=True, kind="query", digest=key,
        shared_reads=frozenset((name[len(SHARED_PREFIX):],)),
    )


_ANALYZERS = {
    "program": _analyze_program,
    "algorithm": _analyze_algorithm,
    "query": _analyze_query,
}
#: request kinds the cache may serve (the pure / freshly-declaring reads)
CACHEABLE_KINDS = frozenset(_ANALYZERS)


def analyze_request(kind: str, payload: dict) -> CacheDecision:
    """Classify one data request for the cross-request result cache."""
    if kind not in CACHEABLE_KINDS:
        return _bypass(kind, "kind")
    try:
        key = kind + " " + json.dumps(payload, sort_keys=True)
    except (TypeError, ValueError, RecursionError):
        return _bypass(kind, "unhashable")
    return _ANALYZERS[kind](payload, key)
