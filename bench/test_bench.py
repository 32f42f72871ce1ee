"""Tests of the benchmark itself: ``python -m pytest bench -q``.

Not part of the repository's tier-1 suite (``testpaths = ["tests"]``); the
runs are short smoke runs whose timings mean nothing.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: sha256 of the inputs seed 0 generates (numpy 2.x Generator streams)
PINNED = {
    "kernel_mix": "e19dbaaa792634725f2fab85c2eec5e6099a75ccd5e305b45aece4c1d8fd7a52",
    "masked_accum_mix": "0f6093879a849497954f3f13363cc1635182f95647254da655df90a3da8799c6",
    "deferred_chains": "9051528f3f734baf1e4d8f4cf06826365c582188cc34e47f23789ca90c0b44ce",
    "algo_nonblocking": "141560784e61fc140856a0ba16d967fcfa022408e441c5ca98857447245ff224",
    "service_rw_tcp": "d80b00aa983eefecd54d5383c7a837fa6fc485558d64a6268da03d2c1cea6bf5",
    "service_unique_direct": "3b90da927c962a35fb72caa93ad2de329a5dd0542b59fa47922125c9290f45ef",
}


def run_cli(*args):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc, time.monotonic() - t0


@pytest.fixture()
def tmp():
    os.makedirs(bench_run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench_run.OUT) as d:
        yield d


def test_names_are_well_formed_and_unique():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)


def test_quick_untraced_run_prints_every_end_to_end_metric():
    proc, wall = run_cli("--seed", "0", "--seconds", "0.6")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert wall < 60
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    for w in WORKLOADS:
        line = last["workloads"][w]
        assert line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert f"== {w} " in proc.stdout
    for m in SPEC["end_to_end"]:
        assert m["name"] in proc.stdout


def test_traced_run_emits_every_per_layer_metric_and_the_span_file():
    proc, _ = run_cli("--workload", "deferred_chains", "--seed", "0",
                      "--seconds", "8", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    # the mechanisms this workload exists for all fire
    for k in ("execution.fused", "execution.cse", "execution.elided"):
        assert last["metrics"][k]["value"] >= 1
    with open(os.path.join(bench_run.OUT, "trace_deferred_chains.json")) as fh:
        spans = json.load(fh)["spans"]
    assert {"unit", "call", "drain", "op", "kernel"} <= {s["kind"] for s in spans}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, tmp):
    def digest(seed):
        return bench_run.child(
            {"job": "digest", "workload": workload, "seed": seed}, tmp
        )["input_digest"]

    assert digest(0) == digest(0) == PINNED[workload]
    assert digest(1) != digest(0)


@pytest.mark.parametrize("workload", ["kernel_mix", "deferred_chains"])
def test_exact_counts_repeat(workload, tmp):
    def counts():
        res = bench_run.child({"job": "run", "workload": workload, "seed": 0,
                               "seconds": 0.5, "trace": 1}, tmp)
        assert res["failed"] == 0
        return res["layers"]["per_unit"]

    assert counts() == counts()


def test_empty_checkout_is_refused(tmp):
    """With no program beside it the benchmark exits non-zero, no result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
    shutil.copytree(HERE, os.path.join(tmp, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel_mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
