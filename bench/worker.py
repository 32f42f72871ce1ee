"""Child process of ``run.py``: one job, one JSON line on stdout.

A job is either one workload under one group of settings (``run``), or one
of the layer probe batteries (``probe``).  Each job gets a fresh process so
that ``setup_s`` really starts at process start, ``peak_rss_mb`` belongs to
this job alone, and ``grb.init`` — once per process — can pick the mode.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before the heavy imports: they are set-up

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import tracing as btrace  # noqa: E402  (bench/tracing.py: this directory is sys.path[0])


def summarize(lat_s: list[float], window_s: float) -> dict:
    ms = [x * 1e3 for x in lat_s]
    return {
        "samples": len(ms),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": btrace.percentile(ms, 0.90),
        "latency_p99_ms": btrace.percentile(ms, 0.99),
        "throughput_per_s": len(ms) / window_s,
    }


def run_library(wl, seconds: float, rec) -> dict:
    """Closed loop, one thread: warm-up units, then *seconds* of timed ones."""
    from repro import obs

    def one(i, timed):
        steps = wl.steps(i)
        u0 = time.perf_counter()
        if rec is None or not timed:
            for _, _, fn in steps:
                fn()
            u1 = time.perf_counter()
        else:
            calls = []
            for label, layer, fn in steps:
                a = time.perf_counter()
                fn()
                calls.append((label, layer, a, time.perf_counter()))
            u1 = time.perf_counter()
        ok = wl.check(i)
        if rec is not None and timed:
            # the unit span closes after the check, so check time shows up
            # as the bench layer's self time instead of vanishing
            uid = rec.add("unit", "unit", u0, time.perf_counter(), unit=i)
            for label, layer, a, b in calls:
                rec.add(label, "call", a, b, parent=uid, unit=i, layer=layer)
        return u1 - u0, ok

    failed = 0
    for i in range(wl.warmup):
        _, ok = one(i, False)
        failed += not ok
    setup_s = time.perf_counter() - T_START

    lat: list[float] = []
    with (obs.capture() if rec is not None else nullcontext()) as cap:
        i = wl.warmup
        t0 = time.perf_counter()
        deadline = t0 + seconds
        while True:
            try:
                dt, ok = one(i, True)
            except Exception as exc:  # a unit that raises is a failed unit
                print(f"unit {i} raised {exc!r}", file=sys.stderr)
                dt, ok = None, False
            if ok:
                lat.append(dt)
            else:
                failed += 1
            i += 1
            if time.perf_counter() >= deadline:
                break
        window = time.perf_counter() - t0
    if cap is not None:
        rec.adopt(cap.spans)
    return {"setup_s": setup_s, "attempted": i, "failed": failed,
            "lat": lat, "window_s": window, "server_rss_mb": None}


def run_service(wl, seconds: float, rec) -> dict:
    """Closed loop, ``CLIENTS`` threads, one request in flight per client."""
    from repro import obs

    nclients = len(wl.clients)
    failed = [0] * nclients
    attempted = [0] * nclients
    lats: list[list] = [[] for _ in range(nclients)]
    rows: list[list] = [[] for _ in range(nclients)]

    def loop(ci, stop_at, timed):
        n = 0
        while True:
            req = wl.next_request(ci)
            t0 = time.perf_counter()
            try:
                reply = wl.send(ci, req)
                ok = True
            except Exception as exc:  # refused / failed / timed out
                print(f"client {ci} {req[0]} raised {exc!r}", file=sys.stderr)
                reply, ok = None, False
            t1 = time.perf_counter()
            ok = ok and wl.check_reply(ci, req, reply)
            attempted[ci] += 1
            n += 1
            if not ok:
                failed[ci] += 1
            elif timed:
                lats[ci].append(t1 - t0)
                rows[ci].append((req, reply, t0, t1))
            if (time.perf_counter() >= stop_at) if timed else (n >= stop_at):
                return

    def fan_out(stop_at, timed):
        threads = [
            threading.Thread(target=loop, args=(ci, stop_at, timed),
                             name=f"bench-client-{ci}")
            for ci in range(nclients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    fan_out(wl.warmup // nclients, False)
    setup_s = time.perf_counter() - T_START

    in_process_trace = rec is not None and wl.in_process
    with (obs.capture() if in_process_trace else nullcontext()) as cap:
        t0 = time.perf_counter()
        fan_out(t0 + seconds, True)
        window = time.perf_counter() - t0
    stats = wl.stats()
    detail = (service_detail([r for rs in rows for r in rs])
              if wl.timing else None)
    if rec is not None:
        for ci in range(nclients):
            for k, (req, reply, a, b) in enumerate(rows[ci]):
                timing = (reply or {}).get("timing") or {}
                rec.add("request", "client", a, b, unit=k,
                        thread=f"bench-client-{ci}",
                        attrs={"kind": req[0], "tag": req[2], **{
                            f: timing.get(f) for f in
                            ("queue_wait_us", "issue_us", "drain_share_us",
                             "total_us", "cache")}})
        if cap is not None:
            rec.adopt(cap.spans)
        else:
            rec.adopt_chrome(wl.flight_dump())
    bad_graph = not wl.final_check()
    rss = wl.server_rss_mb()
    return {"setup_s": setup_s, "attempted": sum(attempted),
            "failed": sum(failed) + (sum(attempted) if bad_graph else 0),
            "lat": [x for l in lats for x in l], "window_s": window,
            "server_rss_mb": rss, "stats": stats, "detail": detail}


def service_detail(rows: list) -> dict:
    """Per-class latency, the server's own timing split and the wire
    codec's cost, from the traced requests ``(req, reply, t0, t1)``."""
    from repro.service.client import wire_decode, wire_encode

    lat: dict[str, list] = {}
    stage: dict[str, list] = {}
    for req, reply, t0, t1 in rows:
        timing = reply.get("timing") or {}
        ms = (t1 - t0) * 1e3
        lat.setdefault("write" if req[2] == "write" else "read", []).append(ms)
        if timing.get("cache") in ("hit", "miss"):
            lat.setdefault(timing["cache"], []).append(ms)
        for f in ("queue_wait_us", "issue_us"):
            if f in timing:
                stage.setdefault(f, []).append(timing[f] / 1e3)
    out = {f"{k}_p50_ms": statistics.median(v) for k, v in lat.items()}
    out.update({k.replace("_us", "_ms"): statistics.median(v)
                for k, v in stage.items()})
    size, enc, dec = [], [], []
    for req, reply, _, _ in rows[::10]:
        docs = ({"id": 1, "kind": req[0], "session": "c0", "payload": req[1],
                 "timing": True}, {"id": 1, "ok": True, "result": reply})
        a = time.perf_counter()
        lines = [wire_encode(d) for d in docs]
        b = time.perf_counter()
        for line in lines:
            wire_decode(line)
        c = time.perf_counter()
        size.append(sum(map(len, lines)))
        enc.append((b - a) * 1e6)
        dec.append((c - b) * 1e6)
    out.update(wire_bytes_per_req=sum(size) / len(size),
               wire_encode_us=statistics.median(enc),
               wire_decode_us=statistics.median(dec))
    return out


def job_run(cfg: dict) -> dict:
    import workloads

    settings = {**workloads.DEFAULTS, **cfg.get("settings", {})}
    wl = workloads.WORKLOADS[cfg["workload"]](cfg["seed"], settings)
    traced = bool(cfg.get("trace"))
    rec = btrace.Recorder() if traced else None
    # service requests carry timing=True in traced runs and on request
    wl.timing = traced or bool(cfg.get("timing"))
    wl.setup()
    try:
        runner = run_service if wl.kind == "service" else run_library
        out = runner(wl, cfg["seconds"], rec)
    finally:
        wl.teardown()
    lat = out.pop("lat")
    window = out.pop("window_s")
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res = {
        "workload": cfg["workload"], "seed": cfg["seed"],
        "settings": cfg.get("settings", {}), "traced": traced,
        "attempted": out["attempted"], "failed": out["failed"],
        "setup_s": out["setup_s"],
        # the process that executes repro code: the server child when there
        # is one, this process otherwise
        "peak_rss_mb": out["server_rss_mb"] or own_rss,
        "stats": out.get("stats"), "detail": out.get("detail"),
    }
    if lat:
        res.update(summarize(lat, window))
    if rec is not None:
        res["layers"] = btrace.account(rec, len(lat))
        if cfg.get("trace_out"):
            rec.write(cfg["trace_out"], {
                k: res[k] for k in ("workload", "seed", "settings")})
    return res


def job_digest(cfg: dict) -> dict:
    """sha256 of the inputs a seed generates, without running anything."""
    import workloads

    wl = workloads.WORKLOADS[cfg["workload"]](cfg["seed"], workloads.DEFAULTS)
    wl.build()
    return {"input_digest": wl.input_digest()}


def job_probe(cfg: dict) -> dict:
    import probes

    return probes.BATTERIES[cfg["battery"]](cfg["seed"])


def main() -> int:
    cfg = json.loads(sys.argv[1])
    jobs = {"run": job_run, "probe": job_probe, "digest": job_digest}
    res = jobs[cfg["job"]](cfg)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
