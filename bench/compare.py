#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 bench/compare.py BASE.json NEW.json

Each file holds one or more runs (``--out`` appends).  For every workload
and end-to-end metric one row says whether NEW's median is *better*,
*within bound*, *worse* (beyond the metric's bound in BENCHMARK.json) or
*unresolved* (BASE's own run-to-run spread, the distance between its
quartiles over its median, is wider than the bound — the runs cannot
tell).  Traced runs add the per-layer metrics, every ratio with its base.
Exits non-zero when any row is worse or any run failed a check.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)["runs"]


def collect(runs: list[dict], trace: int, key: str) -> dict:
    """``{workload: {metric: [value per run]}}`` of the runs at *trace*."""
    out: dict = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        for workload, res in run["results"].items():
            values = res[key] if key else res
            for name, v in values.items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    out.setdefault(workload, {}).setdefault(name, []).append(v)
    return out


def spread(values: list[float]) -> float | None:
    """Interquartile distance over the median; None below four runs."""
    if len(values) < 4:
        return None
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else None


def verdict(metric: dict, base: list[float], new: list[float]) -> tuple:
    b, n = statistics.median(base), statistics.median(new)
    change = (n - b) / abs(b) if b else 0.0
    worse_by = change if metric["better"] == "lower" else -change
    sp = spread(base)
    if sp is not None and sp > metric["bound"]:
        word = "unresolved"
    elif worse_by > metric["bound"]:
        word = "worse"
    elif worse_by < -(sp or 0.0) and worse_by < 0:
        word = "better"
    else:
        word = "within bound"
    return b, n, change, sp, word


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bspec = json.load(fh)
    base_runs, new_runs = load(argv[0]), load(argv[1])
    status = 0
    for label, runs in (("BASE", base_runs), ("NEW", new_runs)):
        for run in runs:
            for workload, res in run["results"].items():
                if res["failed"]:
                    print(f"{label}: {workload} failed {res['failed']} of "
                          f"{res['attempted']} units (seed {run['seed']})")
                    status = 1

    base, new = collect(base_runs, 0, ""), collect(new_runs, 0, "")
    print(f"{'workload':<22s} {'metric':<18s} {'base':>11s} {'new':>11s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for w in bspec["workloads"]:
        for m in bspec["end_to_end"]:
            bv = base.get(w["name"], {}).get(m["name"])
            nv = new.get(w["name"], {}).get(m["name"])
            if not bv or not nv:
                continue
            b, n, change, sp, word = verdict(m, bv, nv)
            status |= word == "worse"
            shown = "n<4" if sp is None else f"{sp:.3f}"
            print(f"{w['name']:<22s} {m['name']:<18s} {b:>11.4g} {n:>11.4g} "
                  f"{change:>+8.1%} {shown:>7s} {m['bound']:>6.2f}  {word}")

    base, new = collect(base_runs, 1, "per_layer"), collect(new_runs, 1, "per_layer")
    if base and new:
        print(f"\n{'workload':<22s} {'per-layer metric':<36s} {'base':>11s} "
              f"{'new':>11s}  new/base")
        for w in bspec["workloads"]:
            for m in bspec["per_layer"]:
                bv = base.get(w["name"], {}).get(m["name"])
                nv = new.get(w["name"], {}).get(m["name"])
                if not bv or not nv:
                    continue
                b, n = statistics.median(bv), statistics.median(nv)
                ratio = f"{n / b:8.3f}" if b else "     n/a"
                print(f"{w['name']:<22s} {m['name']:<36s} {b:>11.4g} "
                      f"{n:>11.4g}  {ratio} (base {b:.4g} {m['unit']})")
    return status


if __name__ == "__main__":
    sys.exit(main())
