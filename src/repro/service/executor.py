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

With batching disabled (``ServiceConfig.batching=False``) the executor
waits after each request instead — no cross-request optimization; the
load generator measures the difference.

Error attribution: an issue-phase error fails only its request.  Futures
are fulfilled after the batch drain; an error surfacing there poisons the
failed op's outputs and the un-run tail (section V semantics), so it is
reported to every not-yet-failed request of the batch — the same
over-approximation ``GrB_wait`` itself makes when a sequence fails.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable

import numpy as np

from .. import context, validation
from ..containers.matrix import Matrix
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

__all__ = ["run_batch", "ALGORITHMS", "jsonable", "plain"]


# --------------------------------------------------------------------------
# Algorithm registry
# --------------------------------------------------------------------------

def _algorithms() -> dict[str, Callable]:
    from .. import algorithms as alg

    return {
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


ALGORITHMS = _algorithms()


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
    if isinstance(obj, Matrix):
        rows, cols, vals = obj.extract_tuples()
        return {
            "kind": "matrix",
            "shape": [obj.nrows, obj.ncols],
            "rows": _column(rows),
            "cols": _column(cols),
            "values": _column(vals),
        }
    if isinstance(obj, Vector):
        idx, vals = obj.extract_tuples()
        return {
            "kind": "vector",
            "shape": [obj.size],
            "indices": _column(idx),
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


def _mark_fresh(ectx: _Exec, name: str) -> None:
    if ectx.fresh is not None:
        ectx.fresh.add(name)


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


def _store(session: Session, name: str, obj, dtype_token: str | None = None) -> None:
    _check_writable(session, name)
    if dtype_token is None:
        dtype_token = obj.type.name
    session.objects[name] = obj
    session.dtypes[name] = dtype_token


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


def _decl_from_payload(d: dict) -> Decl:
    try:
        return Decl.from_dict(
            {"entries": [], **{k: d[k] for k in d if k in
                               ("name", "kind", "dtype", "shape", "entries")}}
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadRequest(f"malformed declaration: {exc}") from None


def _issue_define(service, session: Session, payload: dict, ectx: _Exec):
    decl = _decl_from_payload(payload)
    _check_writable(session, decl.name)
    try:
        obj = build_decl(decl, session.env)
    except GraphBLASError:
        raise
    except Exception as exc:
        raise BadRequest(f"cannot build {decl.name!r}: {exc}") from None
    _store(session, decl.name, obj, decl.dtype)
    _mark_fresh(ectx, decl.name)
    return {"name": decl.name, "nvals": obj.nvals()}

def _issue_upload(service, session: Session, payload: dict, ectx: _Exec):
    name = _need(payload, "name")
    blob = payload.get("blob")
    if not isinstance(blob, (bytes, bytearray)):
        raise BadRequest("upload needs a 'blob' (bytes) field")
    obj = deserialize(bytes(blob))
    _store(session, name, obj)
    _mark_fresh(ectx, name)
    kind = type(obj).__name__.lower()
    return {"name": name, "kind": kind, "nvals": obj.nvals()}

def _issue_download(service, session: Session, payload: dict, ectx: _Exec):
    name = _need(payload, "name")
    ns, _ = _namespace(session, ectx)
    obj = _get(session, ns, name)
    return {"name": name, "blob": serialize(obj)}

def _issue_program(service, session: Session, payload: dict, ectx: _Exec):
    raw_calls = _need(payload, "calls")
    declares = payload.get("declare", [])
    fetch = payload.get("fetch", [])
    for d in declares:
        decl = _decl_from_payload(d)
        _check_writable(session, decl.name)
        _store(session, decl.name, build_decl(decl, session.env), decl.dtype)
        _mark_fresh(ectx, decl.name)
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

def _issue_algorithm(service, session: Session, payload: dict, ectx: _Exec):
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
    if isinstance(result, (Matrix, Vector)):
        if store_as:
            _check_writable(session, store_as)
            _store(session, store_as, result)
            _mark_fresh(ectx, store_as)
            return {"stored": store_as, "nvals": result.nvals()}
        return {"result": _contents(result)}
    if store_as:
        raise BadRequest(f"{algo!r} returns a plain value; cannot store_as")
    return {"result": jsonable(result)}

def _issue_update(service, session: Session, payload: dict, ectx: _Exec):
    name = _need(payload, "graph")
    _check_writable(session, name)
    ns, _ = _namespace(session, ectx)
    obj = _get(session, ns, name)
    if session.is_shared:
        # in-place edits must never reach a published version's object
        obj = _cow(session, ectx, name) or obj
    sets = payload.get("set", [])
    removes = payload.get("remove", [])
    env = session.env
    token = session.dtypes.get(name, obj.type.name)
    if isinstance(obj, Matrix):
        for i, j, v in sets:
            obj.set_element(int(i), int(j), env.value(token, v))
        for entry in removes:
            i, j = entry[0], entry[1]
            try:
                obj.remove_element(int(i), int(j))
            except NoValue:  # removing an absent edge is a no-op, not an error
                pass
    elif isinstance(obj, Vector):
        for i, v in sets:
            obj.set_element(int(i), env.value(token, v))
        for entry in removes:
            i = entry[0] if isinstance(entry, (list, tuple)) else entry
            try:
                obj.remove_element(int(i))
            except NoValue:
                pass
    else:
        raise BadRequest(f"cannot stream updates into {type(obj).__name__}")
    return {"name": name, "nvals": obj.nvals()}

def _issue_stream_mutate(
    service, session: Session, payload: dict, ectx: _Exec
):
    """Batched edge mutation through the streaming ingest path.

    The whole ``set``/``remove`` batch lands in one
    :class:`~repro.stream.EdgeBuffer` flush — a single deferred rebuild in
    the planner DAG — instead of ``update``'s per-element edits.
    """
    name = _need(payload, "graph")
    _check_writable(session, name)
    ns, _ = _namespace(session, ectx)
    obj = _get(session, ns, name)
    if session.is_shared:
        obj = _cow(session, ectx, name) or obj
    if not isinstance(obj, Matrix):
        raise BadRequest("stream_mutate requires a Matrix graph")
    sets = payload.get("set", []) or []
    removes = payload.get("remove", []) or []
    buf = EdgeBuffer(obj)
    if sets:
        buf.set_edges(
            [int(e[0]) for e in sets],
            [int(e[1]) for e in sets],
            [e[2] for e in sets],
        )
    if removes:
        buf.remove_edges(
            [int(e[0]) for e in removes],
            [int(e[1]) for e in removes],
        )
    buf.flush()
    metrics.registry.inc("service.stream_mutate")
    return {
        "name": name,
        "accepted": {"set": len(sets), "remove": len(removes)},
    }


def _issue_query(service, session: Session, payload: dict, ectx: _Exec):
    name = _need(payload, "name")
    what = payload.get("what", "nvals")
    ns, _ = _namespace(session, ectx)
    obj = _get(session, ns, name)
    if what == "nvals":
        return {"nvals": obj.nvals()}
    if what == "tuples":
        return _contents(obj)
    if what == "element":
        try:
            if isinstance(obj, Matrix):
                v = obj.extract_element(
                    int(_need(payload, "row")), int(_need(payload, "col"))
                )
            elif isinstance(obj, Vector):
                v = obj.extract_element(int(_need(payload, "index")))
            else:
                raise BadRequest("element query needs a matrix or vector")
        except NoValue:
            return {"value": None, "stored": False}
        return {"value": jsonable(v), "stored": True}
    raise BadRequest(f"unknown query {what!r} (nvals | tuples | element)")

def _issue_free(service, session: Session, payload: dict, ectx: _Exec):
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


_ISSUE = {
    "define": _issue_define,
    "upload": _issue_upload,
    "download": _issue_download,
    "program": _issue_program,
    "algorithm": _issue_algorithm,
    "update": _issue_update,
    "stream_mutate": _issue_stream_mutate,
    "query": _issue_query,
    "free": _issue_free,
}


# --------------------------------------------------------------------------
# The batch driver
# --------------------------------------------------------------------------

def _mutates(kind: str, payload: dict) -> bool:
    """Does this shared-session request change the shared store?  A True
    answer triggers a snapshot publication after it executes."""
    if kind in ("define", "upload", "update", "stream_mutate", "free"):
        return True
    if kind == "program":
        if payload.get("declare"):
            return True
        for c in payload.get("calls", []) or []:
            out = c.get("out") if isinstance(c, dict) else getattr(c, "out", None)
            if out is not None:
                return True
        return False
    if kind == "algorithm":
        return payload.get("store_as") is not None
    return False


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


def _fail(service, req, exc: BaseException) -> None:
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


def _fulfil(service, req, result: dict) -> None:
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
    batching = service.config.batching
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
        # (req, result, issue_us, own_drain_us, meta) — own_drain_us is the
        # per-request wait when batching is off; the batched drain is
        # apportioned by the accounting below instead.  meta carries the
        # snapshot/cache facts of the request for the timing response.
        issued: list[tuple] = []
        try:
            for req in batch:
                req.t_start = time.monotonic()
                reg.observe(
                    "service.queue_wait_us", (req.t_start - req.t_submit) * 1e6
                )
                if req.expired(req.t_start):
                    reg.inc("service.deadline_exceeded")
                    session.failed += 1
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
                    _fail(service, req, DeadlineExceeded(
                        f"request {req.rid} ({req.kind}) expired in queue"
                    ))
                    continue
                span_kw: dict = {"session": session.name, "rid": req.rid}
                if req.trace is not None:
                    # set provenance on the request span so every child —
                    # including sequence-point drains forced mid-issue —
                    # inherits the originating ids
                    span_kw["trace_id"] = req.trace.trace_id
                    span_kw["request_ids"] = [str(req.trace.request_id)]
                    span_kw["trace_ids"] = [req.trace.trace_id]
                rsp = (
                    sink.open(f"request:{req.kind}", "request", **span_kw)
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
                        if memo is not None and not is_writer and req.version is not None:
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
                            result = _ISSUE[req.kind](
                                service, session, req.payload, ectx
                            )
                            if is_writer and _mutates(req.kind, req.payload):
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
                            if (
                                decision is not None
                                and decision.cacheable
                                and memo is not None
                            ):
                                # building the entry serializes the declared
                                # outputs — a sequence point that forces this
                                # request's ops, so the blobs capture exactly
                                # its view; errors propagate like any other
                                # failure of this request's deferred work
                                memo.insert(
                                    req.version.vid,
                                    decision.digest,
                                    build_entry(decision, session, result),
                                )
                    issue_us = (time.perf_counter() - t_i0) * 1e6
                    own_drain_us = 0.0
                    if not batching:
                        # no cross-request batch → the whole drain is this
                        # request's; no apportioning needed
                        t_d0 = time.perf_counter()
                        context.wait()
                        own_drain_us = (time.perf_counter() - t_d0) * 1e6
                        reg.observe("service.drain_us", own_drain_us)
                    reg.observe("service.issue_us", issue_us)
                    issued.append((req, result, issue_us, own_drain_us, meta))
                except GraphBLASError as exc:
                    session.failed += 1
                    if is_writer:
                        _writer_reset(service, session)
                    _fail(service, req, exc)
                    if rsp is not None:
                        rsp.attrs["error"] = type(exc).__name__
                except Exception as exc:
                    session.failed += 1
                    if is_writer:
                        _writer_reset(service, session)
                    _fail(service, req, BadRequest(
                        f"request {req.rid} ({req.kind}) failed: {exc!r}"
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

            drain_error: GraphBLASError | None = None
            shares: dict[str, float] = {}
            if batching:
                # one drain for the whole batch: install accounting so the
                # planner bills each scheduled node's wall/flops to the
                # requests whose deferred ops it runs, then apportion the
                # measured drain wall-clock by those tallies
                acc = tracing.DrainAccounting()
                t_d0 = time.perf_counter()
                try:
                    with tracing.accounting(acc):
                        context.wait()
                except GraphBLASError as exc:
                    drain_error = exc
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
            for req, result, issue_us, own_drain_us, meta in issued:
                if drain_error is not None:
                    session.failed += 1
                    _fail(service, req, drain_error)
                    continue
                rid_key = (
                    str(req.trace.request_id) if req.trace is not None
                    else str(req.rid)
                )
                drain_share_us = (
                    shares.get(rid_key, 0.0) if batching else own_drain_us
                )
                reg.observe("service.drain_share_us", drain_share_us)
                if req.timing:
                    result = dict(result)
                    result["timing"] = {
                        "trace_id": req.trace.trace_id if req.trace else None,
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
                session.completed += 1
                _fulfil(service, req, result)
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
