"""Regression: the drain-time planner builds the same plans as before.

``plan_identity.json`` holds the EXPLAIN records (nodes, fused chains, CSE
sources, levels and hazard predecessors) of a fixed set of sequences,
recorded with every pass on and with each pass off alone.  A planner
rewrite may change how a plan is computed, never which plan comes out.

The sequences are a small copy of the benchmark's ``deferred_chains`` unit
(an in-place ``mxm -> apply -> select -> reduce`` chain, a repeated product
and a dead leading write, over recycled buffers) and the twenty randomized
programs of ``tests/test_planner.py``.

Regenerate the fixture (only when a plan change is intended) with
``PYTHONPATH=src python -m tests.regressions.test_plan_identity``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import repro as grb
from repro import context, planner
from repro.obs.diag import explain as diag_explain

from tests.conftest import random_matrix
from tests.test_planner import _queue_program, _random_program

FIXTURE = Path(__file__).with_name("plan_identity.json")

#: planner configurations: every pass on, then each pass off alone
CONFIGS = {
    "all": {},
    "no_dead_op": {"dead_op": False},
    "no_fusion": {"fusion": False},
    "no_cse": {"cse": False},
}

#: a node is recorded as the list of these EXPLAIN fields, in this order
_NODE_KEYS = ("index", "label", "ops", "level", "preds", "kind", "cse_source")
_PLAN_KEYS = ("levels", "elided", "fused_chains", "cse_merged")


def _queue_chains() -> None:
    """A scaled-down ``deferred_chains`` unit: 4 batches over 2 buffers."""
    FP = grb.FP64
    AINV, PT = grb.AINV[FP], grb.PLUS_TIMES[FP]
    PLUS, TIMES = grb.PLUS[FP], grb.TIMES[FP]
    VALUEGT = grb.index_unary_op("GrB_VALUEGT_FP64")
    rng = np.random.default_rng(7)
    n, c, batches = 16, 4, 4
    A = random_matrix(rng, n, n, 0.2, FP)
    F = [random_matrix(rng, n, c, 0.3, FP) for _ in range(batches)]
    T = [grb.matrix_new(FP, n, c) for _ in range(2)]
    P = [grb.matrix_new(FP, n, c) for _ in range(batches)]
    w = [grb.vector_new(FP, n) for _ in range(batches)]
    total, dead = grb.matrix_new(FP, n, c), grb.matrix_new(FP, n, c)
    grb.apply(dead, None, None, AINV, F[0])
    grb.apply(dead, None, None, AINV, F[1])
    grb.matrix_assign(total, None, None, F[0], grb.ALL, grb.ALL)
    for b in range(batches):
        Tb = T[b % 2]
        grb.mxm(Tb, None, None, PT, A, F[b])
        grb.apply(Tb, None, None, AINV, Tb)
        grb.select(Tb, None, None, VALUEGT, Tb, -8.0)
        grb.reduce(w[b], None, None, grb.PLUS_MONOID[FP], Tb)
        grb.mxm(P[b], None, None, PT, A, F[0])
        grb.eWiseAdd(total, None, None, PLUS, total, P[b])
        grb.eWiseMult(P[b], None, None, TIMES, P[b], F[b])


def _programs():
    yield "chains", _queue_chains
    for seed in range(20):
        yield f"random{seed}", (
            lambda seed=seed: _queue_program(_random_program(seed), seed)
        )


def _plans(queue, knobs: dict) -> list[dict]:
    """The EXPLAIN records of the drains *queue* leads to under *knobs*."""
    context._reset()
    grb.init(grb.Mode.NONBLOCKING)
    planner.configure(**knobs)
    with diag_explain.collect() as col:
        queue()
        grb.wait()
    return [
        {
            **{k: plan[k] for k in _PLAN_KEYS},
            "nodes": [
                [node.get(k) for k in _NODE_KEYS] for node in plan["nodes"]
            ],
        }
        for plan in col.record()["plans"]
    ]


def _records() -> dict:
    return {
        f"{name}/{cfg}": _plans(queue, knobs)
        for name, queue in _programs()
        for cfg, knobs in CONFIGS.items()
    }


@pytest.mark.parametrize("cfg", sorted(CONFIGS))
def test_plans_match_the_recorded_fixture(cfg):
    want = json.loads(FIXTURE.read_text())
    for name, queue in _programs():
        key = f"{name}/{cfg}"
        assert _plans(queue, CONFIGS[cfg]) == want[key], key


def test_fixture_exercises_every_rewrite():
    """The recorded plans elide, fuse and CSE — identity is not vacuous."""
    plans = json.loads(FIXTURE.read_text())["chains/all"]
    assert sum(p["elided"] for p in plans) > 0
    assert sum(p["fused_chains"] for p in plans) > 0
    assert sum(p["cse_merged"] for p in plans) > 0


if __name__ == "__main__":
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in _records().items()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
