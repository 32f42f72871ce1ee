"""The cross-request result cache: LRU entries keyed on
``(snapshot version, canonical program digest)``.

An entry is everything needed to *replay a request's observable effects*
without executing it: the response dict, plus serialized blobs of every
object the request declared into its session (a cached program still has
side effects — its declared temporaries must land in the hitting
session's store, under the hitting request's own names).  Blobs and
fetched contents are keyed by **state digest**, not user name, so an
alpha-renamed twin of the original request materializes the same bytes
under its own identifiers.

Coherence is structural, not temporal: the snapshot version in the key
pins the shared-store content the entry was computed against, so a
writer publishing version *n+1* makes every version-*n* entry
unreachable by construction.  :meth:`ResultCache.on_publish` merely
reclaims that dead space (counted as invalidations).
"""

from __future__ import annotations

import copy
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from ...containers.matrix import Matrix
from ...containers.vector import Vector
from ...fuzz.executor import build_decl
from ...fuzz.program import Decl
from ...io.serialize import deserialize, serialize
from ...obs import metrics
from ...types.grb_type import lookup_type
from ..session import Session
from .hashing import CacheDecision

__all__ = ["CacheEntry", "ResultCache", "build_entry", "materialize"]


@dataclass
class CacheEntry:
    """One replayable result (immutable once inserted)."""

    kind: str
    #: response template — everything name-independent (``scalars``,
    #: ``nvals``, query answers); materialization deep-copies it
    response: dict
    #: state digest → serialized declared object (programs)
    blobs: dict = field(default_factory=dict)
    #: state digest → fetched-contents dict (programs)
    contents: dict = field(default_factory=dict)
    #: serialized ``store_as`` result (algorithms)
    store_blob: bytes | None = None
    nbytes: int = 0
    #: bare shared names the cached request read (from the decision) — a
    #: publish that touches none of them re-keys the entry instead of
    #: dropping it
    shared_reads: frozenset = frozenset()


#: sentinel "kind" for states with no fetched contents (never matches)
_NO_CONTENTS = {"kind": ""}


def _object_from_contents(contents: dict, dtype: str):
    """Rebuild a collection from its fetched-contents dict (the inverse
    of the executor's fetch rendering); None for kinds that need a blob."""
    dom = lookup_type(dtype)
    if contents["kind"] == "vector":
        return Vector.from_coo(
            dom, contents["shape"][0], contents["indices"], contents["values"]
        )
    if contents["kind"] == "matrix":
        nrows, ncols = contents["shape"]
        return Matrix.from_coo(
            dom, nrows, ncols,
            contents["rows"], contents["cols"], contents["values"],
        )
    return None


def _approx_bytes(value: Any) -> int:
    """What *value* costs in memory, close to a deep ``sys.getsizeof``.

    Fetched contents hold lists of Python scalars, which cost an object per
    element — about three times their ``repr``.  Insert runs on the miss
    path of every cacheable request, so such a list is charged as its own
    size plus one element's size per entry, without visiting the rest."""
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, dict):
        return sys.getsizeof(value) + sum(
            _approx_bytes(k) + _approx_bytes(v) for k, v in value.items()
        )
    if isinstance(value, (list, tuple)):
        size = sys.getsizeof(value)
        if value and isinstance(value[0], (int, float)):
            return size + len(value) * sys.getsizeof(value[0])
        return size + sum(_approx_bytes(v) for v in value)
    return sys.getsizeof(value)


def build_entry(decision: CacheDecision, session: Session, result: dict) -> CacheEntry:
    """Snapshot *result* (and its session side effects) into an entry.

    Called at issue time, inside the session's activated context, right
    after the handler returned: serializing a declared object is a
    sequence point that forces exactly this request's pending deferred
    ops, so the blobs capture this request's view — never a later batch
    member's mutations.
    """
    if decision.kind == "program":
        contents = {
            state: result["fetched"][name] for name, state in decision.fetches
        }
        pristine = decision.pristine or {}
        blobs: dict[str, bytes] = {}
        for name, _dtype, state in decision.declared:
            if state in blobs or state in pristine:
                continue
            if contents.get(state, _NO_CONTENTS)["kind"] in ("vector", "matrix"):
                continue  # the fetched contents already determine the object
            blobs[state] = serialize(session.objects[name])
        response = {"scalars": result["scalars"]}
        entry = CacheEntry("program", response, blobs=blobs, contents=contents)
    elif decision.kind == "algorithm" and decision.store_as is not None:
        blob = serialize(session.objects[decision.store_as])
        response = {k: v for k, v in result.items() if k != "stored"}
        entry = CacheEntry("algorithm", response, store_blob=blob)
    else:
        entry = CacheEntry(decision.kind, dict(result))
    entry.nbytes = (
        sum(len(b) for b in entry.blobs.values())
        + (len(entry.store_blob) if entry.store_blob else 0)
        + _approx_bytes(entry.response)
        + _approx_bytes(entry.contents)
    )
    entry.shared_reads = decision.shared_reads
    return entry


def materialize(
    entry: CacheEntry, decision: CacheDecision, session: Session
) -> dict | None:
    """Replay *entry* for the (alpha-equivalent) hit request.

    Stores declared objects into the session under the hit request's own
    names and rebuilds the response with the hit request's identifiers.
    Returns None when the entry cannot serve the decision (defensive:
    equal digests guarantee state-set equality, so this indicates a
    hashing bug rather than an expected path) — the caller then executes
    normally.
    """
    if entry.kind == "program":
        pristine = decision.pristine or {}
        for _name, _dtype, state in decision.declared:
            if state not in entry.blobs and state not in pristine and (
                entry.contents.get(state, _NO_CONTENTS)["kind"]
                not in ("vector", "matrix")
            ):
                return None
        for _name, state in decision.fetches:
            if state not in entry.contents:
                return None
        for name, dtype, state in decision.declared:
            blob = entry.blobs.get(state)
            if blob is not None:
                obj = deserialize(blob)
            elif state in pristine:
                # never written: rebuild from the hit request's own
                # (digest-equal) declaration through the executor's path
                obj = build_decl(
                    Decl.from_dict({**pristine[state], "name": name}),
                    session.env,
                )
            else:
                obj = _object_from_contents(entry.contents[state], dtype)
            session.objects[name] = obj
            session.dtypes[name] = dtype
        response = copy.deepcopy(entry.response)
        if decision.fetches:
            response["fetched"] = {
                name: copy.deepcopy(entry.contents[state])
                for name, state in decision.fetches
            }
        return response
    if entry.kind == "algorithm" and decision.store_as is not None:
        if entry.store_blob is None:
            return None
        obj = deserialize(entry.store_blob)
        session.objects[decision.store_as] = obj
        session.dtypes[decision.store_as] = obj.type.name
        return {"stored": decision.store_as, **copy.deepcopy(entry.response)}
    return copy.deepcopy(entry.response)


class ResultCache:
    """Thread-safe LRU over ``(version id, digest)`` with a byte budget."""

    def __init__(self, max_bytes: int = 64 * 1024 * 1024):
        self.max_bytes = max_bytes
        self._mu = threading.Lock()
        self._entries: OrderedDict[tuple[int, str], CacheEntry] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.evictions = 0
        self.invalidations = 0
        self.inserts = 0
        self.rekeys = 0

    # ------------------------------------------------------------------ hits
    def lookup(self, vid: int, digest: str) -> CacheEntry | None:
        reg = metrics.registry
        with self._mu:
            entry = self._entries.get((vid, digest))
            if entry is None:
                self.misses += 1
                reg.inc("service.cache.miss")
                return None
            self._entries.move_to_end((vid, digest))
            self.hits += 1
            reg.inc("service.cache.hit")
            return entry

    def insert(self, vid: int, digest: str, entry: CacheEntry) -> None:
        if entry.nbytes > self.max_bytes:
            return  # a single over-budget result would just thrash
        with self._mu:
            key = (vid, digest)
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = entry
            self._bytes += entry.nbytes
            self.inserts += 1
            while self._bytes > self.max_bytes and self._entries:
                _k, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.evictions += 1

    def note_bypass(self, reason: str) -> None:
        with self._mu:
            self.bypasses += 1
        metrics.registry.inc("service.cache.bypass")
        metrics.registry.inc(f"service.cache.bypass.{reason}")

    # ---------------------------------------------------------- invalidation
    def on_publish(self, new_vid: int, changed: set) -> None:
        """Reclaim or carry over entries of superseded versions.

        Stale entries are already unreachable (readers pin the new
        version, and the version id is in the key).  *changed* is the set
        of bare shared names whose objects this publication replaced:
        entries reading any of them are dropped, entries reading only
        *untouched* names are **re-keyed** to the new version instead —
        their result is observationally identical there (copy-on-write
        keeps untouched objects byte-for-byte the same object), so the
        cache survives a stream of publishes that never touch what it
        holds.
        """
        reg = metrics.registry
        with self._mu:
            dead: list[tuple[int, str]] = []
            moves: list[tuple[tuple[int, str], CacheEntry]] = []
            for k, e in self._entries.items():
                if k[0] >= new_vid:
                    continue
                if not (e.shared_reads & changed):
                    moves.append((k, e))
                else:
                    dead.append(k)
            for k in dead:
                entry = self._entries.pop(k)
                self._bytes -= entry.nbytes
                self.invalidations += 1
            rekeyed = 0
            for k, e in moves:
                del self._entries[k]
                nk = (new_vid, k[1])
                if nk in self._entries:
                    # already recomputed at the new version; keep that one
                    self._bytes -= e.nbytes
                    self.invalidations += 1
                    continue
                self._entries[nk] = e
                rekeyed += 1
            if rekeyed:
                self.rekeys += rekeyed
                reg.inc("service.cache.rekeyed", rekeyed)

    def clear(self) -> None:
        with self._mu:
            self._entries.clear()
            self._bytes = 0

    # ----------------------------------------------------------------- intro
    def stats(self) -> dict:
        with self._mu:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "bypasses": self.bypasses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "inserts": self.inserts,
                "rekeys": self.rekeys,
                "hit_rate": metrics.ratio(self.hits, self.hits + self.misses),
            }
