"""``python -m repro.service.loadgen`` — deterministic multi-tenant load.

Drives N concurrent clients against the service, each with a seeded
request stream over a private graph plus a shared graph, then **replays
every stream serially** (one worker, no batching, cache off) and diffs
the responses: a concurrency or caching bug anywhere in the sessions /
admission / snapshot / memoization stack shows up as a divergence,
exactly like the conformance fuzzer's reference diffing.

The replay is *version ordered*: every live response records which
shared-graph snapshot version the request observed (``shared_version``)
and which version each shared mutation published (``published_version``),
so the serial replay applies shared writes in exactly their live
publication order and issues each read against the same snapshot it saw
live.  That keeps the diff sound even under ``--zipf-s`` mixes where
concurrent writers stream updates into the shared graph while readers
hammer a zipf-skewed pool of repeated (memoizable) requests.

Two transports: direct in-process (default) and ``--connect HOST:PORT``
against a running ``python -m repro.service`` (CI's service smoke leg).
Exit status is non-zero on any request error, divergence, or a cache hit
rate below ``--min-hit-rate``.  Timing is ``bench/``'s job, not this
tool's.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from collections import deque
from concurrent.futures import Future
from functools import partial

from .. import obs
from ..obs.export import timeline_html
from ..obs.metrics import Histogram, percentile
from .client import Client, TCPClient
from .errors import QueueFull
from .executor import mutates
from .service import Service, ServiceConfig
from .session import SHARED_PREFIX, SHARED_SESSION

__all__ = [
    "build_streams",
    "build_zipf_streams",
    "run_direct",
    "run_tcp",
    "replay_versioned",
    "main",
]

_SEMIRING = "GrB_PLUS_TIMES_SEMIRING_FP64"
_BINOP = "GrB_PLUS_FP64"
_MONOID = "GrB_PLUS_MONOID_FP64"
_GRAPH_N = 24          # private graph dimension
_SHARED_N = 32         # shared graph dimension


# --------------------------------------------------------------------------
# Workload construction (pure data — shared by live run and serial replay)
# --------------------------------------------------------------------------

def _random_entries(rng: random.Random, n: int, density: float):
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    picked = rng.sample(cells, max(1, int(len(cells) * density)))
    return [[i, j, round(rng.uniform(0.5, 2.0), 3)] for i, j in picked]


def shared_graph_payload(seed: int) -> dict:
    """The one shared, read-only graph every client may reference."""
    rng = random.Random(seed ^ 0x5EED)
    return {
        "name": "G",
        "kind": "matrix",
        "dtype": "FP64",
        "shape": [_SHARED_N, _SHARED_N],
        "entries": _random_entries(rng, _SHARED_N, 0.12),
    }


def _op_program(rng: random.Random, graph: str) -> tuple[str, dict]:
    # two products off the same input + an eWiseAdd combining them: the
    # planner can CSE the duplicated A*A across requests of one batch
    return ("program", {
        "declare": [
            {"name": "t0", "kind": "matrix", "dtype": "FP64",
             "shape": [_GRAPH_N, _GRAPH_N]},
            {"name": "t1", "kind": "matrix", "dtype": "FP64",
             "shape": [_GRAPH_N, _GRAPH_N]},
        ],
        "calls": [
            {"kind": "mxm", "out": "t0",
             "args": {"a": graph, "b": graph, "semiring": _SEMIRING}},
            {"kind": "ewise_add", "out": "t1",
             "args": {"a": "t0", "b": graph, "binop": _BINOP}},
        ],
        "fetch": ["t1"] if rng.random() < 0.5 else [],
    })


def _op_shared_program(rng: random.Random) -> tuple[str, dict]:
    g = SHARED_PREFIX + "G"
    return ("program", {
        "declare": [
            {"name": "s0", "kind": "matrix", "dtype": "FP64",
             "shape": [_SHARED_N, _SHARED_N]},
        ],
        "calls": [
            {"kind": "mxm", "out": "s0",
             "args": {"a": g, "b": g, "semiring": _SEMIRING}},
        ],
        "fetch": [],
    })


def _op_algorithm(rng: random.Random, graph: str, n: int) -> tuple[str, dict]:
    algo = rng.choice(("bfs_levels", "sssp", "pagerank", "triangle_count"))
    payload: dict = {"algo": algo, "graph": graph, "args": {}}
    if algo in ("bfs_levels", "sssp"):
        payload["args"]["source"] = rng.randrange(n)
    return ("algorithm", payload)


def _op_mutate(rng: random.Random, kind: str, graph: str, n: int) -> tuple[str, dict]:
    # a stream_mutate carries a bigger batch than an update: the reply does
    # not read the graph, so the rebuild stays deferred to the batch drain
    nset, nrem = ((1, 4), (0, 3)) if kind == "update" else ((2, 9), (0, 5))
    sets = [[rng.randrange(n), rng.randrange(n), round(rng.uniform(0.5, 2.0), 3)]
            for _ in range(rng.randrange(*nset))]
    removes = [[rng.randrange(n), rng.randrange(n)]
               for _ in range(rng.randrange(*nrem))]
    return (kind, {"graph": graph, "set": sets, "remove": removes})


def _op_query(rng: random.Random, graph: str) -> tuple[str, dict]:
    what = rng.choice(("nvals", "tuples"))
    return ("query", {"name": graph, "what": what})


def build_streams(seed: int, clients: int, requests: int) -> list[list]:
    """Per-client deterministic ``(kind, payload)`` streams.

    The first op of every stream defines the client's private graph; the
    rest is a seeded mix of programs, algorithms, streaming updates, and
    queries over the private graph and the read-only shared graph.
    """
    streams = []
    per_client = max(1, requests // clients)
    for i in range(clients):
        rng = random.Random(seed * 7919 + i)
        ops: list = [("define", {
            "name": "g", "kind": "matrix", "dtype": "FP64",
            "shape": [_GRAPH_N, _GRAPH_N],
            "entries": _random_entries(rng, _GRAPH_N, 0.10),
        })]
        for _ in range(per_client - 1):
            r = rng.random()
            if r < 0.35:
                ops.append(_op_program(rng, "g"))
            elif r < 0.45:
                ops.append(_op_shared_program(rng))
            elif r < 0.65:
                if rng.random() < 0.7:
                    ops.append(_op_algorithm(rng, "g", _GRAPH_N))
                else:
                    ops.append(_op_algorithm(
                        rng, SHARED_PREFIX + "G", _SHARED_N
                    ))
            elif r < 0.85:
                kind = "update" if rng.random() < 0.5 else "stream_mutate"
                ops.append(_op_mutate(rng, kind, "g", _GRAPH_N))
            else:
                ops.append(_op_query(rng, "g"))
        streams.append(ops)
    return streams


# --------------------------------------------------------------------------
# Zipf workload: repeated shared-graph reads + streaming shared writes
# --------------------------------------------------------------------------

def _zipf_cdf(k: int, s: float) -> list[float]:
    weights = [1.0 / (rank + 1) ** s for rank in range(k)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


def _zipf_pick(rng: random.Random, cdf: list[float]) -> int:
    x = rng.random()
    for rank, edge in enumerate(cdf):
        if x <= edge:
            return rank
    return len(cdf) - 1


def _shared_read_pool(seed: int, pool: int) -> list[tuple[str, dict]]:
    """Deterministic pool of *memoizable* read requests over ``shared:G``.

    Every template reads only the shared graph (plus its own declared
    temporaries), uses registry operators, and fetches what it computes,
    so the result cache can serve repeats without touching session state.
    """
    rng = random.Random(seed * 104729 + 11)
    g = SHARED_PREFIX + "G"
    templates: list[tuple[str, dict]] = [
        ("query", {"name": g, "what": "nvals"}),
        ("algorithm", {"algo": "pagerank", "graph": g, "args": {}}),
        ("algorithm", {"algo": "triangle_count", "graph": g, "args": {}}),
    ]
    while len(templates) < pool:
        r = rng.random()
        if r < 0.25:
            templates.append(("query", {
                "name": g, "what": "element",
                "row": rng.randrange(_SHARED_N),
                "col": rng.randrange(_SHARED_N),
            }))
        elif r < 0.50:
            templates.append(("algorithm", {
                "algo": rng.choice(("bfs_levels", "sssp")),
                "graph": g,
                "args": {"source": rng.randrange(_SHARED_N)},
            }))
        else:
            src = rng.randrange(_SHARED_N)
            val = round(rng.uniform(0.5, 2.0), 3)
            templates.append(("program", {
                "declare": [
                    {"name": "v", "kind": "vector", "dtype": "FP64",
                     "shape": [_SHARED_N], "entries": [[src, val]]},
                    {"name": "t", "kind": "vector", "dtype": "FP64",
                     "shape": [_SHARED_N]},
                ],
                "calls": [
                    {"kind": "mxv", "out": "t",
                     "args": {"a": g, "u": "v", "semiring": _SEMIRING}},
                    {"kind": "reduce_scalar", "out": None,
                     "args": {"a": "t", "monoid": _MONOID}},
                ],
                "fetch": ["t"],
            }))
    return templates[:pool]


def build_zipf_streams(
    seed: int,
    clients: int,
    requests: int,
    *,
    zipf_s: float = 1.2,
    write_rate: float = 0.05,
    pool: int = 32,
) -> list[list]:
    """Per-client ``(kind, payload, to_shared)`` streams over ``shared:G``.

    Reads are drawn zipf(s)-skewed from a request pool shared by every
    client, so popular requests repeat across clients and are servable
    from the cross-request result cache.  A ``write_rate`` fraction of
    ops are streaming ``update`` mutations submitted *to the shared
    session* (``to_shared=True``), each of which publishes a new snapshot
    version and invalidates the cache.
    """
    templates = _shared_read_pool(seed, pool)
    cdf = _zipf_cdf(len(templates), zipf_s)
    streams: list[list] = []
    per_client = max(1, requests // clients)
    for i in range(clients):
        rng = random.Random(seed * 7919 + 31 * i + 1)
        ops: list = []
        for _ in range(per_client):
            if rng.random() < write_rate:
                # mostly stream_mutate batches, with updates mixed in; each
                # is one rebuild and one publish
                kind = "stream_mutate" if rng.random() < 0.7 else "update"
                ops.append((*_op_mutate(rng, kind, "G", _SHARED_N), True))
            else:
                kind, payload = templates[_zipf_pick(rng, cdf)]
                ops.append((kind, payload, False))
        streams.append(ops)
    return streams


# --------------------------------------------------------------------------
# Runners
# --------------------------------------------------------------------------

def _drive(streams: list[list], connect, pipeline: int, seed: int) -> dict:
    """The one client loop of both transports: define the shared graph,
    then a thread per stream keeps up to *pipeline* requests in flight,
    and on ``QueueFull`` settles what it has in flight, then retries.
    ``connect(session)`` opens one connection and returns its ``(submit,
    close)`` pair, where ``submit(kind, payload, **kw)`` returns a future."""
    submit, close = connect(SHARED_SESSION)
    try:
        submit("define", shared_graph_payload(seed)).result(timeout=120)
    finally:
        close()
    results: list[list] = [[] for _ in streams]
    errors: list[tuple] = []
    lock = threading.Lock()

    def client_fn(ci: int) -> None:
        conns: dict = {}
        inflight: deque = deque()

        def settle(n: int) -> None:
            while len(inflight) > n:
                kind, fut = inflight.popleft()
                try:
                    results[ci].append(fut.result(timeout=120))
                except Exception as exc:
                    results[ci].append({"__error__": type(exc).__name__})
                    with lock:
                        errors.append((ci, kind, exc))

        try:
            for kind, payload, *rest in streams[ci]:
                target = SHARED_SESSION if (rest and rest[0]) else f"lg{ci}"
                if target not in conns:
                    conns[target] = connect(target)
                while True:
                    try:
                        fut = conns[target][0](kind, payload, timing=True)
                        break
                    except QueueFull:
                        settle(0)       # backpressure: drain, then retry
                        time.sleep(0.001)
                inflight.append((kind, fut))
                settle(pipeline)
            settle(0)
        finally:
            for _submit, close in conns.values():
                close()

    t0 = time.perf_counter()
    threads = [
        threading.Thread(target=client_fn, args=(i,), name=f"lg-client-{i}")
        for i in range(len(streams))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return {"results": results, "errors": errors,
            "elapsed_s": time.perf_counter() - t0}


def run_direct(
    streams: list[list],
    *,
    seed: int,
    workers: int | None = None,
    batching: bool = True,
    pipeline: int = 8,
    slo_p99_ms: float | None = None,
    backend: str = "threads",
    shard_workers: int | None = None,
    diag_dir: str | None = None,
) -> dict:
    """Run the streams in-process; returns results, errors, and stats."""
    svc = Service(ServiceConfig(
        workers=workers, batching=batching, slo_p99_ms=slo_p99_ms,
        backend=backend, shard_workers=shard_workers, diag_dir=diag_dir,
    ))
    try:
        out = _drive(
            streams, lambda name: (Client(svc, name).submit, lambda: None),
            pipeline, seed,
        )
        out["stats"] = svc.stats()
        out["diag"] = svc.diag_stats()
    finally:
        svc.shutdown()
    return out


def _completed(call, kind: str, payload: dict, **kw) -> Future:
    """A synchronous wire call as a resolved future.  ``QueueFull`` is
    raised, as :meth:`Service.submit` raises it, so the retry applies."""
    fut: Future = Future()
    try:
        fut.set_result(call(kind, payload, **kw))
    except QueueFull:
        raise
    except Exception as exc:
        fut.set_exception(exc)
    return fut


def run_tcp(streams: list[list], *, seed: int, host: str, port: int) -> dict:
    """Run the streams against a live TCP server (one connection per client
    and session)."""

    def connect(name: str):
        cli = TCPClient(host, port, session=name)
        return (partial(_completed, cli.call),
                lambda: cli.close(close_session=False))

    out = _drive(streams, connect, 8, seed)
    probe = TCPClient(host, port)
    try:
        out["stats"] = probe.stats()
    finally:
        probe.close()
    return out


def replay_versioned(
    streams: list[list],
    live_results: list[list],
    *,
    seed: int,
) -> dict:
    """Serial, cache-off replay that honours the live run's version order.

    Shared mutations are re-applied in the exact order they *published*
    live (``timing["published_version"]``), and every read is issued only
    once the replay's shared store has reached the snapshot version that
    read observed live (``timing["shared_version"]``).  Per-client read
    order is preserved (admission pins are monotonic per client), so the
    replay reproduces both the private-state evolution of each client and
    the shared-state epoch each response was computed against — which is
    what makes diffing sound under a streaming-write mix.
    """
    svc = Service(ServiceConfig(workers=1, batching=False, cache=False))
    problems: list[tuple] = []
    out: list[list] = [[None] * len(s) for s in streams]
    try:
        svc.request(SHARED_SESSION, "define", shared_graph_payload(seed))
        writers: dict[int, tuple] = {}
        pending: list[deque] = []
        for ci, stream in enumerate(streams):
            dq: deque = deque()
            last_v = svc.snapshots.current_vid()
            for oi, (kind, payload, *rest) in enumerate(stream):
                live = (live_results[ci][oi]
                        if oi < len(live_results[ci]) else None)
                timing = live.get("timing") if isinstance(live, dict) else None
                timing = timing or {}
                if rest and rest[0]:
                    pv = timing.get("published_version")
                    if pv is None:
                        # the live mutation failed before publishing; replay
                        # it at the client's current position so the replay
                        # fails (or diverges) visibly at the same op
                        dq.append((oi, kind, payload, last_v, True))
                    else:
                        writers[pv] = (ci, oi, kind, payload)
                else:
                    v = timing.get("shared_version", last_v)
                    last_v = v
                    dq.append((oi, kind, payload, v, False))
            pending.append(dq)

        sessions = [svc.open_session(f"rp{ci}") for ci in range(len(streams))]

        def run_one(sess_name, ci, oi, kind, payload) -> None:
            try:
                out[ci][oi] = svc.request(sess_name, kind, payload,
                                          timing=True)
            except Exception as exc:
                out[ci][oi] = {"__error__": type(exc).__name__}

        cur = svc.snapshots.current_vid()
        while True:
            for ci, dq in enumerate(pending):
                while dq and dq[0][3] <= cur:
                    oi, kind, payload, _v, to_shared = dq.popleft()
                    sess = SHARED_SESSION if to_shared else sessions[ci]
                    run_one(sess, ci, oi, kind, payload)
            nxt = cur + 1
            if nxt in writers:
                ci, oi, kind, payload = writers.pop(nxt)
                run_one(SHARED_SESSION, ci, oi, kind, payload)
                cur = svc.snapshots.current_vid()
                if cur < nxt:
                    problems.append((ci, oi,
                                     f"replayed mutation did not publish "
                                     f"version {nxt}"))
                    break
            elif any(pending):
                for ci, dq in enumerate(pending):
                    for oi, _k, _p, v, _s in dq:
                        problems.append((ci, oi,
                                         f"observed version {v} unreachable "
                                         f"(replay stuck at {cur})"))
                break
            else:
                break
    finally:
        svc.shutdown()
    return {"results": out, "problems": problems}


def _strip_timing(r):
    # timing is measurement, not semantics — a replay diverges on results,
    # never on how long they took
    if isinstance(r, dict) and "timing" in r:
        return {k: v for k, v in r.items() if k != "timing"}
    return r


def diff_results(live: list[list], ref: list[list]) -> list[tuple]:
    """Compare live responses with the serial replay; list divergences.

    Responses must be equal exactly: every service answer, algorithms
    included, is computed on the snapshot version the request pinned, so
    live and replay run the same operations on the same content.
    """
    out = []
    for ci, (a, b) in enumerate(zip(live, ref)):
        if len(a) != len(b):
            out.append((ci, -1, f"response count {len(a)} != {len(b)}"))
            continue
        for oi, (ra, rb) in enumerate(zip(a, b)):
            ra, rb = _strip_timing(ra), _strip_timing(rb)
            if ra != rb:
                out.append((ci, oi, f"{ra!r} != {rb!r}"))
    return out


def _aggregate_timings(rows: list[dict]) -> dict:
    if not rows:
        return {"count": 0}
    out: dict = {"count": len(rows)}
    for stage in ("queue_wait_us", "issue_us", "drain_share_us", "total_us"):
        h = Histogram()
        for row in rows:
            h.observe(row[stage])
        d = h.to_dict()
        out[stage] = {
            "mean": h.total / h.count,
            "p50": percentile(d, 0.50),
            "p99": percentile(d, 0.99),
        }
    # how much of each wall latency the decomposition explains
    covered = [
        (row["queue_wait_us"] + row["issue_us"] + row["drain_share_us"])
        / row["total_us"]
        for row in rows if row["total_us"] > 0
    ]
    if covered:
        out["coverage_mean"] = sum(covered) / len(covered)
    return out


def timing_summary(results: list[list], streams: list[list] | None = None) -> dict:
    """Aggregate the per-request latency decompositions of a run.

    With *streams* (the submitted ``(kind, payload, ...)`` lists, index-
    aligned with *results*), the summary additionally splits into a
    ``by_kind`` read/mutate breakdown — a mutation's latency includes its
    snapshot publish, so one merged histogram
    hides the asymmetry a mixed workload actually serves.
    """
    rows: list[dict] = []
    kind_rows: dict[str, list[dict]] = {}
    for ci, stream in enumerate(results):
        for oi, r in enumerate(stream):
            if not (isinstance(r, dict) and "timing" in r):
                continue
            row = r["timing"]
            rows.append(row)
            if streams is not None and ci < len(streams) \
                    and oi < len(streams[ci]):
                kind_rows.setdefault(streams[ci][oi][0], []).append(row)
    out = _aggregate_timings(rows)
    if streams is not None and rows:
        split: dict[str, list[dict]] = {"read": [], "mutate": []}
        for kind, krows in kind_rows.items():
            split["mutate" if mutates(kind) else "read"] += krows
        out["by_kind"] = {g: _aggregate_timings(r) for g, r in split.items()}
        # the coarse read/mutate split hides that a stream_mutate leaves
        # its rebuild to the batch drain while an update reads the graph at
        # once — keep every submitted kind separately addressable
        out["by_request_kind"] = {
            kind: _aggregate_timings(krows)
            for kind, krows in sorted(kind_rows.items())
        }
    return out


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="deterministic load + serial-replay divergence check",
    )
    p.add_argument("--requests", type=int, default=200,
                   help="total requests across all clients")
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--pipeline", type=int, default=8,
                   help="per-client in-flight request window (direct mode)")
    p.add_argument("--connect", metavar="HOST:PORT", default=None,
                   help="drive a running TCP server instead of in-process")
    p.add_argument("--trace-out", default=None,
                   help="write a Chrome trace of one serving window here")
    p.add_argument("--timeline-out", default=None,
                   help="write a per-request timeline/flamegraph HTML here")
    p.add_argument("--no-replay", action="store_true",
                   help="skip the serial-replay divergence check")
    p.add_argument("--stats-out", default=None,
                   help="write the final service stats JSON here")
    p.add_argument("--slo-p99-ms", type=float, default=None,
                   help="fail (exit nonzero) when the run's p99 latency "
                        "exceeds this many milliseconds")
    p.add_argument("--zipf-s", type=float, default=None,
                   help="switch to the zipf-skewed shared-read mix with "
                        "this skew exponent (repeated memoizable requests "
                        "+ streaming shared writes)")
    p.add_argument("--write-rate", type=float, default=0.05,
                   help="fraction of zipf-mix ops that mutate the shared "
                        "graph (each publishes a snapshot version)")
    p.add_argument("--min-hit-rate", type=float, default=None,
                   help="fail (exit nonzero) when the run's cache hit "
                        "rate falls below this fraction")
    p.add_argument("--diag-dir", default=None,
                   help="flight-recorder dump directory (direct mode); "
                        "dumps land here on SLO-budget exhaustion, "
                        "deadline misses, or panics")
    args = p.parse_args(argv)

    if args.zipf_s is not None:
        streams = build_zipf_streams(
            args.seed, args.clients, args.requests,
            zipf_s=args.zipf_s, write_rate=args.write_rate,
        )
        mix = f"zipf(s={args.zipf_s})"
    else:
        streams = build_streams(args.seed, args.clients, args.requests)
        mix = "classic"
    total = sum(len(s) for s in streams)
    print(f"loadgen: {len(streams)} clients x {len(streams[0])} ops "
          f"= {total} requests (seed {args.seed}, mix {mix})", flush=True)

    if args.connect:
        host, _, port = args.connect.rpartition(":")
        live = run_tcp(streams, seed=args.seed, host=host or "127.0.0.1",
                       port=int(port))
    else:
        live = run_direct(
            streams, seed=args.seed, pipeline=args.pipeline,
            slo_p99_ms=args.slo_p99_ms, diag_dir=args.diag_dir,
        )

    st = live["stats"]
    print(f"  elapsed {live['elapsed_s']:.3f}s  "
          f"admitted {st['admitted']}  completed {st['completed']}  "
          f"failed {st['failed']}  rejected {st['rejected_queue_full']}  "
          f"p50 {st['latency_p50_us']}us  p99 {st['latency_p99_us']}us",
          flush=True)
    for ci, kind, exc in live["errors"][:10]:
        print(f"  ERROR client {ci} {kind}: {type(exc).__name__}: {exc}")

    hit_rate_missed = False
    cache_st = st.get("cache")
    if cache_st:
        print(f"  cache: hit_rate {cache_st['hit_rate']:.2f} "
              f"({cache_st['hits']}h/{cache_st['misses']}m/"
              f"{cache_st['bypasses']}b)  "
              f"entries {cache_st['entries']}  "
              f"invalidations {cache_st['invalidations']}", flush=True)
    snap_st = st.get("snapshots")
    if snap_st:
        print(f"  snapshots: version {snap_st['version']}  "
              f"published {snap_st['published']}  "
              f"retired {snap_st['retired']}  "
              f"live {snap_st['live_versions']}", flush=True)
    if args.min_hit_rate is not None:
        observed = cache_st["hit_rate"] if cache_st else 0.0
        hit_rate_missed = observed < args.min_hit_rate
        print(f"  hit-rate target {args.min_hit_rate:.2f}, observed "
              f"{observed:.2f}: "
              f"{'MISSED' if hit_rate_missed else 'met'}", flush=True)

    timings = timing_summary(live["results"], streams)
    if timings.get("count"):
        print(f"  per-request breakdown ({timings['count']} timed): "
              f"queue p50 {timings['queue_wait_us']['p50']:.0f}us  "
              f"issue p50 {timings['issue_us']['p50']:.0f}us  "
              f"drain-share p50 {timings['drain_share_us']['p50']:.0f}us  "
              f"coverage {timings.get('coverage_mean', 0.0):.2f}",
              flush=True)
        by_kind = timings.get("by_kind") or {}
        for group in ("read", "mutate"):
            g = by_kind.get(group) or {}
            if g.get("count"):
                print(f"    {group}: {g['count']} reqs  "
                      f"p50 {g['total_us']['p50']:.0f}us  "
                      f"p99 {g['total_us']['p99']:.0f}us", flush=True)
    diag_st = live.get("diag")
    if diag_st and diag_st.get("dumps"):
        print(f"  diag: {diag_st['dumps']} flight dump(s) -> "
              f"{diag_st['dump_dir']}", flush=True)

    slo_missed = False
    if args.slo_p99_ms is not None:
        target_us = args.slo_p99_ms * 1e3
        slo = st.get("slo") or {}
        observed = slo.get("window_p99_us")
        if observed is None:
            observed = st.get("latency_p99_us")
        slo_missed = observed is not None and observed > target_us
        shown = f"{observed:.0f}us" if observed is not None else "n/a"
        print(f"  SLO p99 target {target_us:.0f}us, observed {shown}: "
              f"{'MISSED' if slo_missed else 'met'}", flush=True)

    if args.stats_out:
        doc = {
            "stats": st,
            "errors": len(live["errors"]),
            "request_timing": timings,
            # pinned schema: memo re-key activity must stay visible even
            # when st["cache"] is absent (cache off), and dashboards key
            # on cache_rekeys without digging through the stats tree
            "cache_rekeys": (st.get("cache") or {}).get("rekeys", 0),
        }
        if live.get("diag") is not None:
            doc["diag"] = live["diag"]
        if args.slo_p99_ms is not None:
            doc["slo_p99_ms"] = args.slo_p99_ms
            doc["slo_missed"] = slo_missed
        with open(args.stats_out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"stats -> {args.stats_out}", flush=True)

    divergences: list = []
    if not args.no_replay:
        print("replaying serially (1 worker, no batching, cache off, "
              "version-ordered shared writes)...", flush=True)
        ref = replay_versioned(streams, live["results"], seed=args.seed)
        divergences = diff_results(live["results"], ref["results"])
        divergences += ref["problems"]
        for ci, oi, what in divergences[:10]:
            print(f"  DIVERGENCE client {ci} op {oi}: {what}")
        print(f"  {len(divergences)} divergences", flush=True)

    if (args.trace_out or args.timeline_out) and not args.connect:
        with obs.capture() as cap:
            window = run_direct(streams[:2], seed=args.seed, workers=2,
                                pipeline=4)
        if args.trace_out:
            cap.export_chrome(args.trace_out)
            print(f"chrome trace -> {args.trace_out} "
                  f"({len(cap.spans)} spans)", flush=True)
        if args.timeline_out:
            per_request = {
                r["timing"]["request_id"]: r["timing"]
                for stream in window["results"] for r in stream
                if isinstance(r, dict) and "timing" in r
            }
            with open(args.timeline_out, "w") as fh:
                fh.write(timeline_html(
                    cap.spans,
                    title="repro loadgen serving window",
                    request_timings=per_request,
                ))
            print(f"timeline -> {args.timeline_out}", flush=True)

    ok = (not live["errors"] and not divergences and not slo_missed
          and not hit_rate_missed)
    print("loadgen: OK" if ok else "loadgen: FAILED", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
