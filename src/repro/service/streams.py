"""Service-side streaming state: incremental handles over shared graphs.

One :class:`StreamState` per service.  It owns the incremental-algorithm
handles (:mod:`repro.stream.incremental`) maintained for shared graphs and
keeps them in lock-step with the snapshot store:

* a ``stream_mutate`` request notes its in-flight flush at issue time;
* when the writer publishes, :meth:`on_publish` resolves the flush's
  :class:`~repro.stream.delta.EdgeDelta` (the batch drain already ran) and
  **advances every handle of the mutated graph eagerly** — the handle's
  state always corresponds to the *current* snapshot version, so there is
  nothing to retain per old version and memory stays bounded no matter how
  fast publishes storm;
* a non-stream mutation of a name (point update, re-define, free, program
  write) has no delta, so its handles are dropped and rebuilt lazily;
* a reader request serves from a handle only when its pinned version id
  equals the handle's — anything older falls back to the normal
  from-scratch path.

Handles are advanced/served under one lock: the writer advancing a handle
and a reader extracting its result never interleave.
"""

from __future__ import annotations

import threading
from typing import Any

from ..stream.incremental import make_handle

__all__ = ["StreamState", "STREAMABLE_ALGOS"]

#: algorithms with an incremental handle implementation
STREAMABLE_ALGOS = frozenset(("pagerank", "bfs_levels", "connected_components"))


def _args_key(args: dict | None) -> tuple:
    try:
        return tuple(sorted((str(k), v) for k, v in (args or {}).items()))
    except TypeError:
        return ("__unhashable__",)


class _Handle:
    __slots__ = ("impl", "vid")

    def __init__(self, impl, vid: int):
        self.impl = impl
        self.vid = vid


class StreamState:
    """Incremental handles + in-flight flush notes for the shared store."""

    def __init__(self, max_handles: int = 32):
        self._mu = threading.Lock()
        self.max_handles = max_handles
        #: (graph name, algo, args key) → _Handle
        self._handles: dict[tuple, _Handle] = {}
        #: flushes issued by the in-flight writer request, resolved at publish
        self._pending: list[tuple[str, Any]] = []
        self.advanced = 0
        self.dropped = 0
        self.created = 0
        self.served = 0

    # -------------------------------------------------------------- writer
    def note_flush(self, name: str, flush_result) -> None:
        """Record an issued (still possibly deferred) stream flush."""
        with self._mu:
            self._pending.append((name, flush_result))

    def on_abort(self) -> None:
        """The writer request failed; its flush never publishes."""
        with self._mu:
            self._pending.clear()

    def on_publish(self, version, changed: set[str]) -> dict[str, int]:
        """Advance/drop handles for one publication.

        *version* is the freshly published
        :class:`~repro.service.snapshot.GraphVersion`; *changed* the names
        whose objects differ from the previous version (identity compare —
        copy-on-write preserves identity for untouched names).  Returns
        ``{name: delta_size}`` for the stream-flushed names (the memo layer
        reports them in timing meta).
        """
        with self._mu:
            pending, self._pending = self._pending, []
            deltas: dict[str, Any] = {}
            for name, fr in pending:
                # the publish path drained the batch, so the rebuild ran
                if fr.ready:
                    deltas[name] = fr.delta
            sizes: dict[str, int] = {}
            for key in list(self._handles):
                name = key[0]
                if name not in changed:
                    # copy-on-write: an untouched name is the same object,
                    # so the handle's state is valid for the new version too
                    self._handles[key].vid = version.vid
                    continue
                delta = deltas.get(name)
                obj = version.objects.get(name)
                h = self._handles[key]
                if delta is None or obj is None:
                    # mutated outside the stream path (or freed): no delta
                    # to advance over — drop, rebuild lazily on next read
                    del self._handles[key]
                    self.dropped += 1
                    continue
                try:
                    h.impl.update(obj, delta)
                except Exception:
                    del self._handles[key]
                    self.dropped += 1
                    continue
                h.vid = version.vid
                self.advanced += 1
            for name, delta in deltas.items():
                sizes[name] = delta.size
            return sizes

    # -------------------------------------------------------------- readers
    def serve(
        self, name: str, algo: str, args: dict | None, vid: int, graph,
        current_vid: int,
    ):
        """Result for (*name*, *algo*, *args*) at snapshot *vid*, or None.

        Creates the handle on first use — but only when *vid* is the
        store's current version, so every later publish (each of which
        passes through :meth:`on_publish`) advances it without gaps.  A
        pinned version older than the handle's state cannot be served
        incrementally and returns None (normal full execution follows).
        """
        if algo not in STREAMABLE_ALGOS:
            return None
        key = (name, algo, _args_key(args))
        with self._mu:
            h = self._handles.get(key)
            if h is None:
                if vid != current_vid or len(self._handles) >= self.max_handles:
                    return None
                impl = make_handle(algo, graph, args)
                if impl is None:
                    return None
                self._handles[key] = h = _Handle(impl, vid)
                self.created += 1
            elif h.vid != vid:
                return None
            self.served += 1
            return h.impl.result()

    # ---------------------------------------------------------------- intro
    def stats(self) -> dict:
        with self._mu:
            return {
                "handles": len(self._handles),
                "created": self.created,
                "advanced": self.advanced,
                "dropped": self.dropped,
                "served": self.served,
            }
