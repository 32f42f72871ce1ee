"""Batch executor: drains one session's queue through the planner.

A worker hands this module a session plus the batch of requests it popped.
Execution happens inside the session's activated context, in program
order.  Each request **issues** — performs its eager parts (builds,
uploads, edge updates, algorithm calls), *enqueues* its deferred GraphBLAS
ops, and computes its result dict.  Reads (``nvals``, ``extract_tuples``,
serialization, program fetches) are the paper's sequence points: they
force completion of exactly the pending ops they touch, so every response
reflects the session state at that request's own point in program order —
never a later request's mutations.  Ops nobody read stay deferred; one
batch-final ``wait()`` drains them all, and the drain-time planner sees
the union across request boundaries and applies dead-op elimination,
fusion, CSE, and parallel scheduling to it.

With batching disabled (``ServiceConfig.batching=False``) a worker pops
one request per batch, so the same drain runs after every request — no
cross-request optimization; the load generator measures the difference.

The kind table :data:`KINDS` maps each data kind to its issue handler and
to whether it mutates the store.  ``update`` and ``stream_mutate`` share
one handler: both buffer their ``set`` / ``remove`` lists through one
:class:`~repro.stream.EdgeBuffer` flush and differ only in their reply.

Error attribution: an issue-phase error fails only its request.  Futures
are fulfilled after the batch drain; an error surfacing there poisons the
failed op's outputs and the un-run tail (section V semantics), so it is
reported to every not-yet-failed request of the batch — the same
over-approximation ``GrB_wait`` itself makes when a sequence fails.
"""

from __future__ import annotations

import contextlib
import time
from functools import partial
from typing import Any, Callable

import numpy as np

from .. import algorithms as alg
from .. import context, validation
from ..containers.base import SparseCollection
from ..containers.scalar import Scalar
from ..containers.vector import Vector
from ..fuzz.executor import build_decl, dispatch_call
from ..fuzz.program import _CANONICAL, Call, Decl
from ..info import GraphBLASError, NoValue
from ..io.serialize import deserialize, serialize
from ..obs import diag, metrics, spans, tracing
from ..obs.diag import explain as diag_explain
from ..stream import EdgeBuffer
from ..types.grb_type import lookup_type
from .client import NUMERIC_KINDS
from .errors import BadRequest, DeadlineExceeded, ObjectNotFound
from .memo import build_entry, materialize
from .session import SHARED_PREFIX, Session

__all__ = ["run_batch", "ALGORITHMS", "KINDS", "mutates", "jsonable", "plain"]


# --------------------------------------------------------------------------
# Algorithm registry
# --------------------------------------------------------------------------

ALGORITHMS: dict[str, Callable] = {
    "pagerank": alg.pagerank,
    "bfs_levels": alg.bfs_levels,
    "bfs_parents": alg.bfs_parents,
    "sssp": alg.sssp,
    "triangle_count": alg.triangle_count,
    "connected_components": alg.connected_components,
    "betweenness_centrality": alg.betweenness_centrality,
    "core_numbers": alg.core_numbers,
    "greedy_coloring": alg.greedy_coloring,
}


def jsonable(v: Any) -> Any:
    """Coerce numpy scalars/arrays and containers into JSON-able values."""
    item = getattr(v, "item", None)
    if callable(item) and np.ndim(v) == 0:
        return v.item()
    if isinstance(v, np.ndarray):
        out = v.tolist()
        return out if v.dtype.kind in NUMERIC_KINDS else jsonable(out)
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, frozenset):
        return sorted(v)
    return v


def plain(v: Any) -> Any:
    """The in-process form of a reply: a fresh copy in which every array
    is a list of Python scalars, so the caller owns what it receives."""
    if isinstance(v, dict):
        return {k: plain(x) for k, x in v.items()}
    if isinstance(v, list):
        return [plain(x) for x in v]
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


def _column(a: np.ndarray):
    """A fetched array as a reply holds it: a numeric array stays an array,
    read-only because the reply and a memo entry may share it; any other
    dtype (UDT, object) becomes a JSON-able list."""
    if a.dtype.kind in NUMERIC_KINDS:
        a.flags.writeable = False
        return a
    return jsonable(a)


def _contents(obj) -> dict:
    """Content of a collection (the ``fetch`` payload)."""
    if isinstance(obj, SparseCollection):
        *index, vals = obj.extract_tuples()
        kind, names = (("matrix", ("rows", "cols")) if len(index) == 2
                       else ("vector", ("indices",)))
        return {
            "kind": kind,
            "shape": list(obj.shape),
            **{k: _column(a) for k, a in zip(names, index)},
            "values": _column(vals),
        }
    if isinstance(obj, Scalar):
        if obj.nvals() == 0:
            return {"kind": "scalar", "value": None}
        return {"kind": "scalar", "value": jsonable(obj.extract_value())}
    raise BadRequest(f"cannot fetch {type(obj).__name__}")


# --------------------------------------------------------------------------
# Name resolution
# --------------------------------------------------------------------------

class _Exec:
    """Per-request execution context.

    *version* is the immutable shared-store :class:`GraphVersion` the
    request pinned at admission (None for shared-session requests, which
    operate on the live working set).  *fresh* is the copy-on-write
    tracking set of a shared-session request: names created or duplicated
    since the last publication, i.e. safe to mutate in place.
    """

    __slots__ = ("version", "fresh")

    def __init__(self, version=None, fresh=None):
        self.version = version
        self.fresh = fresh


def _namespace(session: Session, ectx: _Exec) -> tuple[dict, dict]:
    """Effective (objects, dtype-tokens) visible to *session*.

    Shared objects appear under their ``shared:`` prefix and are read-only
    for ordinary sessions; they resolve out of the request's **pinned
    snapshot version**, so the view is frozen even while the writer
    publishes.  The shared session sees its own live names bare.
    """
    ns: dict[str, Any] = {}
    dt: dict[str, str] = {}
    if not session.is_shared:
        # Service.submit pinned a version on every non-shared request
        for k, v in ectx.version.objects.items():
            ns[SHARED_PREFIX + k] = v
            dt[SHARED_PREFIX + k] = ectx.version.dtypes[k]
    ns.update(session.objects)
    dt.update(session.dtypes)
    return ns, dt


def _cow(session: Session, ectx: _Exec, name: str):
    """Writer-side copy-on-write: duplicate *name* before its first
    mutation since the last publication, so every published version stays
    frozen.  Returns the (possibly replacement) object, or None when the
    name does not resolve."""
    obj = session.objects.get(name)
    if obj is None or ectx.fresh is None or name in ectx.fresh:
        return obj
    dup = getattr(obj, "dup", None)
    if callable(dup):
        obj = dup()
        session.objects[name] = obj
    ectx.fresh.add(name)
    return obj


def _get(session: Session, ns: dict, name: str):
    try:
        return ns[name]
    except KeyError:
        raise ObjectNotFound(
            f"session {session.name!r} has no object named {name!r}"
        ) from None


def _check_writable(session: Session, name: str) -> None:
    if name.startswith(SHARED_PREFIX) and not session.is_shared:
        raise BadRequest(
            f"{name!r} is read-only here: shared objects are mutated through "
            f"the {SHARED_PREFIX.rstrip(':')!r} session"
        )


def _store(
    session: Session, ectx: _Exec, name: str, obj, dtype_token: str | None = None
) -> None:
    """Bind a new object to *name*; on the shared session it is fresh,
    so later edits in this publication need no copy."""
    _check_writable(session, name)
    if dtype_token is None:
        dtype_token = obj.type.name
    session.objects[name] = obj
    session.dtypes[name] = dtype_token
    if ectx.fresh is not None:
        ectx.fresh.add(name)


# --------------------------------------------------------------------------
# Per-kind issue handlers — each returns the request's result dict,
# computed at issue time so responses reflect the request's own point in
# the session's program order (a later request of the same batch must not
# leak into an earlier response).  Reads (nvals / extract / serialize) are
# the sequence points of the paper: they force completion of exactly the
# pending ops they touch, and everything a batch leaves un-read drains in
# one planner pass at the end.
# --------------------------------------------------------------------------

def _need(payload: dict, key: str):
    try:
        return payload[key]
    except KeyError:
        raise BadRequest(f"request payload is missing {key!r}") from None


def _declare(session: Session, d: dict, ectx: _Exec):
    """Build declaration *d* into the session as a fresh object."""
    try:
        decl = Decl.from_dict(
            {"entries": [], **{k: d[k] for k in d if k in
                               ("name", "kind", "dtype", "shape", "entries")}}
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadRequest(f"malformed declaration: {exc}") from None
    try:
        obj = build_decl(decl, session.env)
    except GraphBLASError:
        raise
    except Exception as exc:
        raise BadRequest(f"cannot build {decl.name!r}: {exc}") from None
    _store(session, ectx, decl.name, obj, decl.dtype)
    return obj

def _issue_define(session: Session, payload: dict, ectx: _Exec):
    obj = _declare(session, payload, ectx)
    return {"name": payload["name"], "nvals": obj.nvals()}

def _issue_upload(session: Session, payload: dict, ectx: _Exec):
    name = _need(payload, "name")
    blob = payload.get("blob")
    if not isinstance(blob, (bytes, bytearray)):
        raise BadRequest("upload needs a 'blob' (bytes) field")
    obj = deserialize(bytes(blob))
    _store(session, ectx, name, obj)
    kind = type(obj).__name__.lower()
    return {"name": name, "kind": kind, "nvals": obj.nvals()}

def _issue_download(session: Session, payload: dict, ectx: _Exec):
    name = _need(payload, "name")
    ns, _ = _namespace(session, ectx)
    obj = _get(session, ns, name)
    return {"name": name, "blob": serialize(obj)}

def _issue_program(session: Session, payload: dict, ectx: _Exec):
    raw_calls = _need(payload, "calls")
    declares = payload.get("declare", [])
    fetch = payload.get("fetch", [])
    for d in declares:
        _declare(session, d, ectx)
    ns, dtypes = _namespace(session, ectx)
    calls = []
    for c in raw_calls:
        try:
            call = Call.from_dict(c) if isinstance(c, dict) else c
        except (KeyError, TypeError) as exc:
            raise BadRequest(f"malformed call: {exc}") from None
        if call.kind not in _CANONICAL:
            raise BadRequest(f"unknown program op {call.kind!r}")
        if call.out is not None:
            _check_writable(session, call.out)
            if session.is_shared and call.out in session.objects:
                # all duplication happens here, before any call is
                # dispatched, while nothing is deferred against the target
                ns[call.out] = _cow(session, ectx, call.out)
            if call.out not in ns:
                raise ObjectNotFound(
                    f"program output {call.out!r} is not declared"
                )
        calls.append(call)
    scalars: list[Any] = []
    for call in calls:
        try:
            dispatch_call(call, ns, session.env, scalars, dtypes)
        except KeyError as exc:
            raise ObjectNotFound(f"program references unknown name {exc}") from None

    out: dict[str, Any] = {"scalars": jsonable(scalars)}
    if fetch:
        out["fetched"] = {
            name: _contents(_get(session, ns, name)) for name in fetch
        }
    return out

def _issue_algorithm(session: Session, payload: dict, ectx: _Exec):
    algo = _need(payload, "algo")
    fn = ALGORITHMS.get(algo)
    if fn is None:
        raise BadRequest(
            f"unknown algorithm {algo!r} (available: {sorted(ALGORITHMS)})"
        )
    ns, _ = _namespace(session, ectx)
    graph_name = _need(payload, "graph")
    A = _get(session, ns, graph_name)
    args = dict(payload.get("args", {}))
    store_as = payload.get("store_as")
    # a shared graph resolves out of the request's pinned snapshot, so the
    # answer is the algorithm's own on exactly the version the request saw
    result = fn(A, **args)
    if isinstance(result, np.ndarray) and result.ndim == 1:
        # dense-array results (pagerank, connected_components) store as a
        # dense Vector so later programs can consume them by name
        dom = lookup_type("FP64" if result.dtype.kind == "f" else "INT64")
        result = Vector.from_coo(
            dom, len(result), np.arange(len(result)), result.astype(dom.np_dtype)
        )
    if isinstance(result, SparseCollection):
        if store_as:
            _store(session, ectx, store_as, result)
            return {"stored": store_as, "nvals": result.nvals()}
        return {"result": _contents(result)}
    if store_as:
        raise BadRequest(f"{algo!r} returns a plain value; cannot store_as")
    return {"result": jsonable(result)}

def _issue_mutation(session: Session, payload: dict, ectx: _Exec, *, kind: str):
    """The one handler of ``update`` and ``stream_mutate``: the request's
    ``set`` / ``remove`` lists go into one :class:`~repro.stream.EdgeBuffer`
    flush, a single deferred rebuild in the planner DAG.  Every entry is
    checked before the flush is submitted, so a request that fails changes
    nothing.  ``update`` replies the graph's ``nvals`` (a sequence point);
    ``stream_mutate`` replies the accepted counts and leaves the rebuild
    to the batch drain."""
    name = _need(payload, "graph")
    _check_writable(session, name)
    ns, _ = _namespace(session, ectx)
    obj = _get(session, ns, name)
    if not isinstance(obj, SparseCollection):
        raise BadRequest(f"cannot stream updates into {type(obj).__name__}")
    dims = len(obj.shape)
    if kind == "stream_mutate" and dims != 2:
        raise BadRequest("stream_mutate requires a Matrix graph")
    if session.is_shared:
        # in-place edits must never reach a published version's object
        obj = _cow(session, ectx, name) or obj
    env = session.env
    token = session.dtypes.get(name, obj.type.name)
    sets = payload.get("set") or []
    # a vector's remove entry may be a bare index
    removes = [e if isinstance(e, (list, tuple)) else [e]
               for e in payload.get("remove") or []]
    buf = EdgeBuffer(obj)
    buf.set_edges(*([int(e[d]) for e in sets] for d in range(dims)),
                  [env.value(token, e[dims]) for e in sets])
    buf.remove_edges(*([int(e[d]) for e in removes] for d in range(dims)))
    buf.flush()
    if kind == "update":
        return {"name": name, "nvals": obj.nvals()}
    metrics.registry.inc("service.stream_mutate")
    return {"name": name,
            "accepted": {"set": len(sets), "remove": len(removes)}}


def _issue_query(session: Session, payload: dict, ectx: _Exec):
    name = _need(payload, "name")
    what = payload.get("what", "nvals")
    ns, _ = _namespace(session, ectx)
    obj = _get(session, ns, name)
    if what == "nvals":
        return {"nvals": obj.nvals()}
    if what == "tuples":
        return _contents(obj)
    if what == "element":
        if not isinstance(obj, SparseCollection):
            raise BadRequest("element query needs a matrix or vector")
        at = ("row", "col") if len(obj.shape) == 2 else ("index",)
        try:
            v = obj.extract_element(*(int(_need(payload, k)) for k in at))
        except NoValue:
            return {"value": None, "stored": False}
        return {"value": jsonable(v), "stored": True}
    raise BadRequest(f"unknown query {what!r} (nvals | tuples | element)")

def _issue_free(session: Session, payload: dict, ectx: _Exec):
    name = _need(payload, "name")
    _check_writable(session, name)
    if name not in session.objects:
        raise ObjectNotFound(f"session {session.name!r} has no {name!r}")
    obj = session.objects.pop(name)
    session.dtypes.pop(name, None)
    if not session.is_shared:
        # a shared object may still be referenced by published (pinned)
        # versions: drop the working-set name only, let GC reclaim buffers
        obj.free()
    return {"freed": name}


def _program_writes(payload: dict) -> bool:
    if payload.get("declare"):
        return True
    return any(
        (c.get("out") if isinstance(c, dict) else getattr(c, "out", None))
        is not None
        for c in payload.get("calls", []) or []
    )


#: Every data kind: its issue handler, and whether a request of the kind
#: changes the objects it names — True, False, or a test of the payload.
#: On the shared session a True answer publishes a snapshot version after
#: the request runs.
KINDS: dict[str, tuple[Callable, bool | Callable[[dict], bool]]] = {
    "define": (_issue_define, True),
    "upload": (_issue_upload, True),
    "download": (_issue_download, False),
    "program": (_issue_program, _program_writes),
    "algorithm": (_issue_algorithm, lambda p: p.get("store_as") is not None),
    "update": (partial(_issue_mutation, kind="update"), True),
    "stream_mutate": (partial(_issue_mutation, kind="stream_mutate"), True),
    "query": (_issue_query, False),
    "free": (_issue_free, True),
}


def mutates(kind: str, payload: dict | None = None) -> bool:
    """Does a request of *kind* with *payload* change the store?  Without
    a payload, True only for the kinds that always do."""
    writes = KINDS[kind][1]
    if isinstance(writes, bool):
        return writes
    return payload is not None and writes(payload)


# --------------------------------------------------------------------------
# The batch driver
# --------------------------------------------------------------------------

def _writer_reset(service, session: Session) -> None:
    """Discard a failed shared mutation's partial working state.

    Every successful mutating request publishes immediately, so the
    current version *is* the pre-request state; swinging the working set
    back to it makes shared mutations transactional per request."""
    try:
        context.wait()
    except GraphBLASError:
        pass
    current = service.snapshots.current
    session.objects = dict(current.objects)
    session.dtypes = dict(current.dtypes)


def _fail(service, session: Session, req, exc: BaseException) -> None:
    session.failed += 1
    req.release_version()
    if req.future.done():  # pragma: no cover - defensive
        return
    reg = metrics.registry
    reg.inc("service.failed")
    reg.inc(f"service.failed.{type(exc).__name__}")
    reg.observe(
        "service.latency_us", (time.monotonic() - req.t_submit) * 1e6
    )
    slo = service.slo
    if slo is not None:
        slo.record_failure()
        if slo.budget_exhausted():
            diag.trigger_dump(
                "slo-budget", detail={"request": req.rid, "kind": req.kind}
            )
    req.future.set_exception(exc)


def _fulfil(service, session: Session, req, result: dict) -> None:
    session.completed += 1
    req.release_version()
    reg = metrics.registry
    reg.inc("service.completed")
    latency_us = (time.monotonic() - req.t_submit) * 1e6
    reg.observe("service.latency_us", latency_us)
    slo = service.slo
    if slo is not None:
        slo.observe(latency_us)
        # the exhaustion check only runs on a breach — the happy path pays
        # one float compare
        if latency_us > slo.target_us and slo.budget_exhausted():
            diag.trigger_dump(
                "slo-budget",
                detail={"request": req.rid, "latency_us": round(latency_us)},
            )
    req.future.set_result(result)


def run_batch(service, session: Session, batch: list) -> None:
    """Execute *batch* (requests of one session) on the calling worker.

    Reader sessions run lock-free against the snapshot version each
    request pinned at admission.  The shared (writer) session runs
    copy-on-write: mutated objects are duplicated before their first
    in-place edit, the request's deferred ops are drained, and the
    resulting working set is published as the next immutable version —
    one publication per mutating request, so version numbers order the
    write history densely.
    """
    reg = metrics.registry
    sink = spans.current()
    reg.inc("service.batches")
    is_writer = session.is_shared
    memo = service.memo
    snapshots = service.snapshots
    # EXPLAIN is collected batch-wide (the planner sees the whole batch, so
    # per-request records are a filtered view of shared plans) but only
    # when at least one member opted in — otherwise zero recording cost
    col = (
        diag_explain.ExplainCollector()
        if any(req.explain for req in batch)
        else None
    )
    with context.activate(session.context), (
        diag_explain.collect(col)
        if col is not None
        else contextlib.nullcontext()
    ):
        bsp = (
            sink.open("batch", "batch", session=session.name, requests=len(batch))
            if sink is not None
            else None
        )
        # (req, result, issue_us, meta) — meta carries the snapshot/cache
        # facts of the request for the timing response
        issued: list[tuple] = []
        try:
            for req in batch:
                req.t_start = time.monotonic()
                reg.observe(
                    "service.queue_wait_us", (req.t_start - req.t_submit) * 1e6
                )
                if req.expired(req.t_start):
                    reg.inc("service.deadline_exceeded")
                    diag.trigger_dump(
                        "deadline",
                        detail={
                            "request": req.rid,
                            "kind": req.kind,
                            "queued_us": round(
                                (req.t_start - req.t_submit) * 1e6
                            ),
                        },
                    )
                    _fail(service, session, req, DeadlineExceeded(
                        f"request {req.rid} ({req.kind}) expired in queue"
                    ))
                    continue
                # provenance on the request span: every child — including
                # sequence-point drains forced mid-issue — inherits the ids
                # (admission minted a trace for every request)
                tid = req.trace.trace_id
                rsp = (
                    sink.open(
                        f"request:{req.kind}", "request", session=session.name,
                        rid=req.rid, trace_id=tid,
                        request_ids=[str(req.trace.request_id)], trace_ids=[tid],
                    )
                    if sink is not None
                    else None
                )
                ectx = _Exec(
                    version=req.version, fresh=set() if is_writer else None
                )
                meta: dict = {}
                if req.version is not None:
                    meta["shared_version"] = req.version.vid
                try:
                    t_i0 = time.perf_counter()
                    with tracing.use(req.trace):
                        decision = entry = None
                        # every reader request pinned a version at admission
                        if memo is not None and not is_writer:
                            decision = req.memo_decision
                            if decision.cacheable:
                                entry = memo.lookup(
                                    req.version.vid, decision.digest
                                )
                                meta["cache"] = "miss" if entry is None else "hit"
                            else:
                                memo.note_bypass(decision.reason)
                                meta["cache"] = "bypass"
                        if entry is not None:
                            result = materialize(entry, decision, session)
                        else:
                            result = KINDS[req.kind][0](
                                session, req.payload, ectx
                            )
                            if is_writer and mutates(req.kind, req.payload):
                                # freeze this mutation's effects, then make
                                # them visible to future admissions
                                context.wait()
                                prev = snapshots.current
                                v = snapshots.publish(
                                    dict(session.objects), dict(session.dtypes)
                                )
                                meta["published_version"] = v.vid
                                if memo is not None:
                                    # copy-on-write keeps untouched objects
                                    # identical, so identity names the
                                    # changed set
                                    changed = {
                                        k for k, o in v.objects.items()
                                        if prev.objects.get(k) is not o
                                    } | (set(prev.objects) - set(v.objects))
                                    memo.on_publish(v.vid, changed=changed)
                            # a first sighting only records the text and
                            # runs the cache-off path; a second one builds
                            # the entry, which serializes the declared
                            # outputs — a sequence point that forces this
                            # request's ops, so the blobs capture exactly
                            # its view; errors propagate like any other
                            # failure of this request's deferred work
                            if (
                                decision is not None and decision.cacheable
                                and memo.admit(decision.digest)
                            ):
                                memo.insert(
                                    req.version.vid,
                                    decision.digest,
                                    build_entry(decision, session, result),
                                )
                    issue_us = (time.perf_counter() - t_i0) * 1e6
                    reg.observe("service.issue_us", issue_us)
                    issued.append((req, result, issue_us, meta))
                except Exception as exc:
                    if is_writer:
                        _writer_reset(service, session)
                    _fail(service, session, req, (
                        exc if isinstance(exc, GraphBLASError) else BadRequest(
                            f"request {req.rid} ({req.kind}) failed: {exc!r}"
                        )
                    ))
                    if rsp is not None:
                        rsp.attrs["error"] = type(exc).__name__
                finally:
                    # the span covers the issue phase; deferred work appears
                    # under the batch's drain span carrying per-node
                    # request_ids provenance instead
                    if rsp is not None:
                        if "cache" in meta:
                            rsp.attrs["cache"] = meta["cache"]
                        sink.close(rsp)

            # one drain for the whole batch: install accounting so the
            # planner bills each scheduled node's wall/flops to the requests
            # whose deferred ops it runs, then apportion the measured drain
            # wall-clock by those tallies
            drain_error: GraphBLASError | None = None
            acc = tracing.DrainAccounting()
            t_d0 = time.perf_counter()
            try:
                with tracing.accounting(acc):
                    context.wait()
            except GraphBLASError as exc:
                drain_error = exc
                if is_writer:
                    _writer_reset(service, session)
            drain_wall = time.perf_counter() - t_d0
            reg.observe("service.drain_us", drain_wall * 1e6)
            shares = {
                rid: s * 1e6 for rid, s in acc.shares(drain_wall).items()
            }

            # futures are fulfilled only after the drain: an error surfacing
            # at the batch wait() poisons the failed op's outputs and the
            # un-run tail (section V), so it fails every request whose
            # deferred work may be involved — the same over-approximation
            # GrB_wait itself makes
            for req, result, issue_us, meta in issued:
                if drain_error is not None:
                    _fail(service, session, req, drain_error)
                    continue
                rid_key = str(req.trace.request_id)
                drain_share_us = shares.get(rid_key, 0.0)
                reg.observe("service.drain_share_us", drain_share_us)
                if req.timing:
                    result = dict(result)
                    result["timing"] = {
                        "trace_id": req.trace.trace_id,
                        "request_id": rid_key,
                        "queue_wait_us": (req.t_start - req.t_submit) * 1e6,
                        "issue_us": issue_us,
                        "drain_share_us": drain_share_us,
                        "total_us": (time.monotonic() - req.t_submit) * 1e6,
                        **meta,
                    }
                if col is not None and req.explain:
                    record = col.for_request(rid_key)
                    record["memo"] = meta.get("cache")
                    record["snapshot"] = (
                        meta.get("shared_version")
                        if meta.get("shared_version") is not None
                        else meta.get("published_version")
                    )
                    record["text"] = diag_explain.render_text(record)
                    result = dict(result)
                    result["explain"] = record
                _fulfil(service, session, req, result)
            if col is not None:
                # the wire `explain` command replays the last collected
                # batch, so opted-in runs are inspectable after the fact
                service.last_explain = col.record()
        finally:
            # a batch must never leave deferred tenant work behind on this
            # worker thread, whatever went wrong above
            try:
                context.wait()
            except GraphBLASError:
                pass
            if bsp is not None:
                sink.close(bsp)


def validate_session(session: Session) -> None:
    """Structural-invariant check of every object the session holds."""
    with context.activate(session.context):
        validation.check_all(session.objects.values())
