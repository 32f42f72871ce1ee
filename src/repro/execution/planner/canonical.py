"""Canonical dataflow digests: the CSE fingerprint, generalized.

:func:`.passes.cse_pass` proves two live ops compute the same internal
result T when they agree on ``(kind, operator token, result domain,
descriptor bits, input objects, mask)`` *and* on the content version of
every input — content versions being per-object write counters advanced
in program order.  That fingerprint only works inside one drain, because
it keys on object identity (``id()``) and in-memory operator identity.

This module is the same idea made *stable across requests and sessions*:
object identities become **canonical states** — a declared collection's
state is a tagged tuple of its declaration, an external (shared)
collection's state names the published object, and every operation's
state chains its structural description with the states of everything
it reads (the write-counter trick, structurally: writing advances the
output's state to the call's own state).  Two programs that are alpha
equivalent (temporaries renamed) or that reorder independent operations
converge to the same final states, because a state depends only on the
dataflow *upstream* of a value, never on names or program position.
States are hashable trees compared exactly, so keying a dict on them is
collision-free; :func:`digest` condenses one to a fixed-width hex string
when an opaque identifier is needed (logs, wire payloads).

The service's cross-request result cache (:mod:`repro.service.memo`)
keys on these states paired with a shared-store snapshot version; the
pair plays exactly the role ``(id(obj), write counter)`` plays inside
one planner drain.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

__all__ = ["digest", "DataflowHasher"]


def _feed(h, value: Any) -> None:
    # type-tagged, length-prefixed streaming encoder, fed straight into the
    # hasher (inputs are many small parts where json.dumps call overhead
    # would dominate)
    t = type(value)
    if t is str:
        b = value.encode("utf-8")
        h.update(b"s")
        h.update(len(b).to_bytes(4, "little"))
        h.update(b)
    elif value is None:
        h.update(b"z")
    elif value is True:
        h.update(b"t")
    elif value is False:
        h.update(b"f")
    elif t is int:
        b = str(value).encode("ascii")
        h.update(b"i" + len(b).to_bytes(4, "little") + b)
    elif t is float:
        b = repr(value).encode("ascii")
        h.update(b"d" + len(b).to_bytes(4, "little") + b)
    elif t is list or t is tuple:
        h.update(b"[" + len(value).to_bytes(4, "little"))
        for item in value:
            _feed(h, item)
    elif t is dict:
        h.update(b"{" + len(value).to_bytes(4, "little"))
        for key in sorted(value):
            _feed(h, key if type(key) is str else str(key))
            _feed(h, value[key])
    # subclasses (IntEnum, numpy float64, ...) normalize to the base type
    elif isinstance(value, str):
        _feed(h, str(value))
    elif isinstance(value, bool):
        _feed(h, bool(value))
    elif isinstance(value, int):
        _feed(h, int(value))
    elif isinstance(value, float):
        _feed(h, float(value))
    elif isinstance(value, (list, tuple)):
        _feed(h, list(value))
    elif isinstance(value, dict):
        _feed(h, dict(value))
    else:
        raise TypeError(f"value is not canonicalizable: {value!r}")


def digest(*parts: Any) -> str:
    """Collision-resistant digest of a heterogeneous part list.

    Every part is type-tagged and length-prefixed, so ``("ab", "c")``
    vs ``("a", "bc")`` and ``"5"`` vs ``5`` cannot collide.  Only the
    JSON-able subset is accepted (``TypeError`` otherwise) — anything
    else (live operator objects, UDT values) must be bypassed by the
    caller, the cache's "non-registry UDF" rule.
    """
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        _feed(h, p)
    return h.hexdigest()


class DataflowHasher:
    """Chained canonical states over a named-operand program.

    Feed it declarations (:meth:`declare`), external references
    (resolved lazily), then one :meth:`record` per operation in program
    order.  The hasher maintains ``name -> state``; recording an op
    derives the op's state from its structural attributes plus the
    states of its reads (and the *prior* state of its output, which
    captures accumulate/merge semantics the way the CSE pass's write
    counters do), then advances the output's state to that value.

    States are the canonical structures **themselves** — hashable
    tagged tuples, not digests of them.  Equal dataflow gives equal
    (``==``) tuples; a dict keyed on them hashes at C speed exactly
    once per lookup and falls back to exact comparison, so there is no
    collision risk at all and no per-operation hashing on the request
    hot path.  Callers must pass pre-canonicalized (hashable) parts —
    the memo layer's ``_plain`` does that normalization.
    """

    __slots__ = ("_state",)

    def __init__(self):
        self._state: dict[str, Any] = {}

    # ------------------------------------------------------------- operands
    def declare(self, name: str, *parts: Any) -> tuple:
        """Seed *name* with its declaration state."""
        d = ("decl", *parts)
        self._state[name] = d
        return d

    def external(self, name: str) -> tuple:
        """State of an external input: identified by name alone (the
        cache key's snapshot version pins its content)."""
        return ("ext", name)

    def state(self, name: str) -> Any:
        """Current state of *name* (external if never declared)."""
        s = self._state.get(name)
        if s is None:
            s = ("ext", name)
            self._state[name] = s
        return s

    # ------------------------------------------------------------------ ops
    def record(
        self,
        kind: str,
        attrs: Any,
        reads: Iterable[tuple[str, str | None]],
        out: str | None,
    ) -> tuple:
        """Record one operation; returns its state.

        *reads* is an ordered iterable of ``(slot, name-or-None)`` pairs
        — slot labels ("a", "b", "u", "mask") keep positional and masked
        operands from colliding.  *attrs* carries every non-name
        argument (operator tokens, descriptor bits, index lists, scalar
        values).  The prior state of *out* is always chained in: masked
        or accumulated writes merge into prior content, and including it
        unconditionally can only split cache entries, never wrongly
        share them.
        """
        parts: list[Any] = ["call", kind, attrs]
        for slot, name in reads:
            parts.append((slot, None if name is None else self.state(name)))
        parts.append(("out", None if out is None else self.state(out)))
        d = tuple(parts)
        if out is not None:
            self._state[out] = d
        return d
