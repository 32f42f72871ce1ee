#!/usr/bin/env python3
"""The benchmark: six workloads, five end-to-end metrics, per-layer numbers.

    python3 bench/run.py --workload kernel_mix --seed 0 --seconds 12 --trace 0
    python3 bench/run.py --seed 0                  # every workload, untraced
    python3 bench/run.py --seed 0 --trace 1        # per-layer numbers
    python3 bench/run.py --seed 0 --out bench/out/run.json

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` re-runs the workload with bench-side spans, ``repro.obs.capture`` /
``timing=True`` armed, runs the battery (layer probes and one-knob
ablations), and reports every per-layer metric; span files land in ``bench/out/``.  The last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the exit code is non-zero when a check failed or
a declared metric is missing.

Every job runs in a child process (``worker.py``), so ``setup_s`` starts at
process start and ``peak_rss_mb`` belongs to one job.  An untraced run is
``SUBRUNS`` such jobs; see ``measure`` for how they combine.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SUBRUNS = 4
JOB_TIMEOUT_S = 150


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child(cfg: dict, tmp: str) -> dict:
    """Run one worker job to completion; its last stdout line is the result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # everything the program may write goes under bench/out
    env["REPRO_DIAG_DIR"] = tmp
    env["REPRO_KERNEL_CACHE"] = os.path.join(tmp, "kernels")
    # its own process group: a job that overruns is killed together with
    # whatever it started (the server child, shard workers)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}) on {cfg}")
    return json.loads(stdout.strip().splitlines()[-1])


def environment() -> dict:
    import importlib.util

    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    commit = ""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "host_cores": os.cpu_count(), "cpu": cpu,
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": commit or None,
    }


def measure(workload: str, seed: int, seconds: float, tmp: str,
            metrics: list[dict]) -> dict:
    """Untraced run: the end-to-end metrics of one workload.

    ``SUBRUNS`` fresh processes on the same inputs, each doing the whole
    set-up and measuring its share of *seconds*.  On a shared host other
    tenants only ever slow a run down, for seconds at a time, so the speed
    metrics report the **best** sub-run (lowest latency, highest
    throughput) — the same rule ``timeit`` uses; ``setup_s`` and
    ``peak_rss_mb``, which are not disturbed that way, report the median.
    """
    subs = [
        child({"job": "run", "workload": workload, "seed": seed,
               "seconds": seconds / SUBRUNS}, tmp)
        for _ in range(SUBRUNS)
    ]
    keep = ("samples", *(m["name"] for m in metrics))
    res = {"workload": workload, "seed": seed,
           "subruns": [{k: s.get(k) for k in keep} for s in subs]}
    for key in ("attempted", "failed", "samples"):
        res[key] = sum(s.get(key, 0) for s in subs)
    for m in metrics:
        vals = [s[m["name"]] for s in subs if m["name"] in s]
        if len(vals) < SUBRUNS:
            continue  # a sub-run without one passing unit: metric missing
        if m["name"] in ("setup_s", "peak_rss_mb"):
            res[m["name"]] = statistics.median(vals)
        else:
            res[m["name"]] = min(vals) if m["better"] == "lower" else max(vals)
    return res


#: one-knob variants run beside every traced workload; each ratio names
#: its base in the metric (`x_over_y` is x / y)
ABLATIONS = {
    "chains": ("deferred_chains", {}),
    "chains_planner_off": ("deferred_chains", {"planner": False}),
    "chains_codegen": ("deferred_chains", {"kernel_backend": "codegen"}),
    "rw_tcp": ("service_rw_tcp", {}),
    "rw_direct": ("service_rw_tcp", {"transport": "direct"}),
    "unique": ("service_unique_direct", {}),
    "unique_cache_off": ("service_unique_direct", {"cache": False}),
    "unique_batching_off": ("service_unique_direct", {"batching": False}),
}
#: the service runs that ask for the server's timing split per request
TIMED = ("rw_tcp", "rw_direct")
PROBES = ("blocking", "nonblocking")


def battery(seed: int, seconds: float, tmp: str) -> dict:
    """Everything a traced run measures that does not depend on which
    workload is being traced: layer probes and one-knob ablations."""
    out = {name: child({"job": "probe", "battery": name, "seed": seed}, tmp)
           for name in PROBES}
    for name, (workload, settings) in ABLATIONS.items():
        out[name] = child({
            "job": "run", "workload": workload, "seed": seed,
            "settings": settings, "seconds": seconds / 8,
            "timing": int(name in TIMED)}, tmp)
    return out


def trace(workload: str, seed: int, seconds: float, tmp: str,
          bat: dict) -> dict:
    """Traced run: layer shares and counts of this workload and the tracing
    overhead against an untraced twin, flattened together with the battery
    *bat* into the per-layer metrics."""
    base = {"job": "run", "workload": workload, "seed": seed}
    res = child({**base, "seconds": seconds / 3, "trace": 1, "trace_out":
                 os.path.join(OUT, f"trace_{workload}.json")}, tmp)
    twin = child({**base, "seconds": seconds / 6}, tmp)
    res["twin_p50_ms"] = twin["latency_p50_ms"]
    res["failed"] += twin["failed"]
    res["failed"] += sum(v.get("failed", 0) for v in bat.values())
    res["per_layer"] = per_layer(res, bat)
    return res


def per_layer(res: dict, bat: dict) -> dict:
    """Flatten one traced run into the per-layer metrics of BENCHMARK.json."""
    lay, per = res["layers"], res["layers"]["per_unit"]
    m = {"trace.unit_ms": lay["unit_ms"]}
    for layer, share in lay["share"].items():
        name = {"service_queue": "service.queue_share"}.get(
            layer, f"{layer}.share")
        m[name] = share
    m["obs.trace_overhead_frac"] = res["latency_p50_ms"] / res["twin_p50_ms"] - 1
    for k in ("invocations", "flops_estimated", "flops_realized"):
        m[f"kernels.{k}"] = per[k]
    m["kernels.flops_realized_ratio"] = (
        per["flops_realized"] / per["flops_estimated"]
        if per["flops_estimated"] else 0.0)
    m["execution.enqueued"] = per["ops"]
    for k in ("executed", "elided", "fused", "cse", "max_width"):
        m[f"execution.{k}"] = per[k]
    # nothing enqueued means nothing wasted
    m["execution.useful_ratio"] = per["executed"] / per["ops"] if per["ops"] else 1.0

    for name in PROBES:
        m.update({k: v for k, v in bat[name].items() if not k.startswith("_")})
    p50 = {k: bat[k]["latency_p50_ms"] for k in ABLATIONS}
    m["execution.nb_over_blocking"] = (
        p50["chains"] / bat["blocking"]["_deferred_blocking_ms"])
    m["execution.planner_off_over_on"] = p50["chains_planner_off"] / p50["chains"]
    m["kernels.codegen_over_interpreter"] = p50["chains_codegen"] / p50["chains"]
    m["service.memo.off_over_on"] = p50["unique_cache_off"] / p50["unique"]
    m["service.batching_off_over_on"] = p50["unique_batching_off"] / p50["unique"]
    m["wire.overhead_ms"] = p50["rw_tcp"] - p50["rw_direct"]

    rw, d = bat["rw_tcp"], bat["rw_tcp"]["detail"]
    st, cache, snap = rw["stats"], rw["stats"]["cache"], rw["stats"]["snapshots"]
    m["service.latency_p99_ms"] = rw["latency_p99_ms"]
    m["service.read_p50_ms"] = d["read_p50_ms"]
    m["service.write_p50_ms"] = d["write_p50_ms"]
    m["service.queue_wait_ms"] = d["queue_wait_ms"]
    m["service.issue_ms"] = d["issue_ms"]
    m["service.mean_batch"] = st["completed"] / st["batches"]
    m["service.rejected"] = st["rejected_queue_full"] + st["rejected_closed"]
    m["service.failed"] = st["failed"]
    m["service.memo.hit_rate"] = cache["hit_rate"]
    m["service.memo.hit_p50_ms"] = d["hit_p50_ms"]
    m["service.memo.miss_p50_ms"] = d["miss_p50_ms"]
    for k in ("bypasses", "invalidations", "rekeys"):
        m[f"service.memo.{k}"] = cache[k]
    m["service.memo.unique_hit_rate"] = bat["unique"]["stats"]["cache"]["hit_rate"]
    m["service.snapshot.published"] = snap["published"]
    m["service.snapshot.live_versions"] = snap["live_versions"]
    m["wire.bytes_per_req"] = d["wire_bytes_per_req"]
    m["wire.encode_us"] = d["wire_encode_us"]
    m["wire.decode_us"] = d["wire_decode_us"]
    return m


def final_line(res: dict, names: list[dict], values: dict) -> tuple[dict, list]:
    """The contract's result object, plus the declared metrics that are
    missing or not finite."""
    metrics, bad = {}, []
    for m in names:
        v = values.get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            bad.append(m["name"])
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    attempted = max(int(res["attempted"]), 1)
    failed = int(res["failed"])
    return {"correct": failed == 0 and not bad, "attempted": attempted,
            "failed": failed, "metrics": metrics}, bad


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("bench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    bspec = spec()
    names = [w["name"] for w in bspec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, default=None,
                    help="one workload (default: all of them in turn)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bspec["run_seconds"],
                    help="measured window of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="save the full results here")
    args = ap.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp_{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    declared = bspec["per_layer" if args.trace else "end_to_end"]
    results, lines, status = {}, {}, 0
    try:
        bat = battery(args.seed, args.seconds, tmp) if args.trace else None
        for name in ([args.workload] if args.workload else names):
            if args.trace:
                res = trace(name, args.seed, args.seconds, tmp, bat)
                values = res["per_layer"]
            else:
                res = values = measure(name, args.seed, args.seconds, tmp,
                                       declared)
            line, bad = final_line(res, declared, values)
            results[name], lines[name] = res, line
            print(f"== {name}  seed={args.seed}  units={res.get('samples', 0)} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for m in declared:
                got = line["metrics"].get(m["name"])
                shown = f"{got['value']:.6g}" if got else "MISSING"
                print(f"   {m['name']:<40s} {shown:>14s} {m['unit']}")
            if bad or res["failed"]:
                status = 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.out:
        # a result file accumulates runs, so compare.py can take medians
        doc = {"schema": "repro-bench/2", "runs": []}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc["runs"].append({"seed": args.seed, "seconds": args.seconds,
                            "trace": args.trace, "env": environment(),
                            "results": results, "battery": bat})
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    if args.workload:
        print(json.dumps(lines[args.workload]))
    else:
        print(json.dumps({"correct": status == 0, "workloads": lines}))
    return status


if __name__ == "__main__":
    sys.exit(main())
