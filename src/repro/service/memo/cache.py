"""The cross-request result cache: LRU entries keyed on
``(snapshot version, exact request text)``.

An entry is everything needed to *replay a request's observable effects*
without executing it: the response dict, plus serialized blobs of the
objects the request declared into its session and then wrote (a cached
program still has side effects — its declared temporaries must land in
the hitting session's store).  A hit sent the same text, so blobs and
fetched contents are keyed by the declared names themselves.

Coherence is structural, not temporal: the snapshot version in the key
pins the shared-store content the entry was computed against, so a
writer publishing version *n+1* makes every version-*n* entry
unreachable by construction.  :meth:`ResultCache.on_publish` carries
over the version-*n* entries the publish left untouched and reclaims the
rest (counted as invalidations).

Admission is on a request text's second sighting: a first miss only
records the text's fingerprint (:meth:`ResultCache.admit`), so a read
that never repeats builds, charges and keeps nothing.  The filter is
version-blind — a text seen once before a publish is admitted on its
first miss after it — and advisory only: lookups stay keyed on the full
``(version, text)``, so a fingerprint collision can move an admission,
never serve a wrong entry.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

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

#: slots of the admission filter — one 64-bit fingerprint each (512 KiB)
_FILTER_SLOTS = 1 << 16


def _fingerprint(digest: str) -> int:
    """A 64-bit fingerprint of a request text; its low bits pick the
    filter slot.  Python caches a string's hash, and the lookup that
    missed has already computed it."""
    return hash(digest)


@dataclass
class CacheEntry:
    """One replayable result (immutable once inserted)."""

    kind: str
    #: response template — everything but the fetched contents
    #: (``scalars``, ``nvals``, query answers); shared with the replies
    #: it serves, which nothing edits (in-process callers get a copy)
    response: dict
    #: declared name → serialized object, for the objects a call wrote
    #: and no fetched contents determine (programs)
    blobs: dict = field(default_factory=dict)
    #: fetched name → fetched-contents dict (programs)
    contents: dict = field(default_factory=dict)
    #: serialized ``store_as`` result (algorithms)
    store_blob: bytes | None = None
    nbytes: int = 0
    #: bare shared names the cached request read (from the decision) — a
    #: publish that touches none of them re-keys the entry instead of
    #: dropping it
    shared_reads: frozenset = frozenset()


def _object_from_contents(contents: dict, dtype: str):
    """Rebuild a collection from its fetched-contents dict (the inverse
    of the executor's fetch rendering)."""
    dom = lookup_type(dtype)
    if contents["kind"] == "vector":
        return Vector.from_coo(
            dom, contents["shape"][0], contents["indices"], contents["values"]
        )
    nrows, ncols = contents["shape"]
    return Matrix.from_coo(
        dom, nrows, ncols, contents["rows"], contents["cols"], contents["values"],
    )


def _approx_bytes(value: Any) -> int:
    """What *value* costs in memory, close to a deep ``sys.getsizeof``;
    an array (fetched contents) is charged its ``nbytes``."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, dict):
        return sys.getsizeof(value) + sum(
            _approx_bytes(k) + _approx_bytes(v) for k, v in value.items()
        )
    if isinstance(value, (list, tuple)):
        return sys.getsizeof(value) + sum(_approx_bytes(v) for v in value)
    return sys.getsizeof(value)


def build_entry(decision: CacheDecision, session: Session, result: dict) -> CacheEntry:
    """Snapshot *result* (and its session side effects) into an entry.

    Called at issue time, inside the session's activated context, right
    after the handler returned: serializing a declared object is a
    sequence point that forces exactly this request's pending deferred
    ops, so the blobs capture this request's view — never a later batch
    member's mutations.  The entry shares the reply's read-only arrays and
    containers: the TCP front-end only encodes them, and an in-process
    caller receives its own copy (:func:`repro.service.executor.plain`),
    so no caller can change what a later hit returns.
    """
    if decision.kind == "program":
        contents = result.get("fetched", {})
        blobs = {
            d["name"]: serialize(session.objects[d["name"]])
            for d in decision.declares
            if d["name"] in decision.written
            # fetched vector/matrix contents already determine the object
            and contents.get(d["name"], {}).get("kind") not in ("vector", "matrix")
        }
        response = {"scalars": result["scalars"]}
        entry = CacheEntry("program", response, blobs=blobs, contents=contents)
    elif decision.kind == "algorithm" and decision.store_as is not None:
        blob = serialize(session.objects[decision.store_as])
        response = {k: v for k, v in result.items() if k != "stored"}
        entry = CacheEntry("algorithm", response, store_blob=blob)
    else:
        entry = CacheEntry(decision.kind, dict(result))
    entry.nbytes = (
        # the key is the request text, as large as its payload
        len(decision.digest)
        + sum(len(b) for b in entry.blobs.values())
        + (len(entry.store_blob) if entry.store_blob else 0)
        + _approx_bytes(entry.response)
        + _approx_bytes(entry.contents)
    )
    entry.shared_reads = decision.shared_reads
    return entry


def materialize(
    entry: CacheEntry, decision: CacheDecision, session: Session
) -> dict:
    """Replay *entry* for the hit request, which sent the same text.

    Stores the declared objects into the session — from the request's
    own declaration through the executor's path when no call wrote them,
    else from a blob or their fetched contents — and returns the response,
    a new top-level dict over the entry's shared, never-edited contents.
    """
    if entry.kind == "program":
        for d in decision.declares:
            name, dtype = d["name"], d["dtype"]
            if name not in decision.written:
                obj = build_decl(Decl.from_dict({"entries": [], **d}), session.env)
            elif name in entry.blobs:
                obj = deserialize(entry.blobs[name])
            else:
                obj = _object_from_contents(entry.contents[name], dtype)
            session.objects[name] = obj
            session.dtypes[name] = dtype
        response = dict(entry.response)
        if entry.contents:
            response["fetched"] = entry.contents
        return response
    if entry.kind == "algorithm" and decision.store_as is not None:
        obj = deserialize(entry.store_blob)
        session.objects[decision.store_as] = obj
        session.dtypes[decision.store_as] = obj.type.name
        return {"stored": decision.store_as, **entry.response}
    return dict(entry.response)


class ResultCache:
    """Thread-safe LRU over ``(version id, digest)`` with a byte budget,
    behind a second-sighting admission filter."""

    def __init__(self, max_bytes: int = 64 * 1024 * 1024):
        self.max_bytes = max_bytes
        self._mu = threading.Lock()
        self._entries: OrderedDict[tuple[int, str], CacheEntry] = OrderedDict()
        self._bytes = 0
        #: slot → fingerprint of the last digest that missed there
        self._seen = np.zeros(_FILTER_SLOTS, dtype=np.int64)
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

    def admit(self, digest: str) -> bool:
        """Whether a missed *digest* is worth an entry: True when its
        fingerprint is already in the filter (a second sighting), else
        record it there and return False."""
        fp = _fingerprint(digest)
        slot = fp & (_FILTER_SLOTS - 1)
        with self._mu:
            if self._seen[slot] == fp:
                return True
            self._seen[slot] = fp
            return False

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
        entries of version ``new_vid - 1`` reading only *untouched* names
        are **re-keyed** to the new version — their result is
        observationally identical there (copy-on-write keeps untouched
        objects byte-for-byte the same object), so the cache survives a
        stream of publishes that never touch what it holds.  Every other
        older entry is dropped: one reading a changed name is stale, and
        one of an older version was inserted late, by a reader pinned
        past a publish it was never checked against.
        """
        reg = metrics.registry
        with self._mu:
            dead: list[tuple[int, str]] = []
            moves: list[tuple[tuple[int, str], CacheEntry]] = []
            for k, e in self._entries.items():
                if k[0] >= new_vid:
                    continue
                if k[0] == new_vid - 1 and not (e.shared_reads & changed):
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
            self._seen.fill(0)

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
