"""Metrics-mode conformance: instrumentation must not change execution.

100 seeded fuzz programs, each run with ``run_optimized(...,
obs_capture=True)``:

* **blocking** vs **nonblocking with every planner pass off** must
  produce identical results *and* identical work counters — the two
  modes run the same physical schedule, so realized flops, kernel
  invocations, and write counts have to agree entry for entry;
* **nonblocking under the full planner** must still produce identical
  results (its counters legitimately differ: fusion/CSE/dead-op change
  which kernels run — asserting that the planner's counters never
  *exceed* the unoptimized work pins the direction of the rewrites);
* an instrumented run must equal an uninstrumented run of the same mode
  (obs is observation, not participation).
"""

from __future__ import annotations

import pytest

from repro.fuzz import generate_program
from repro.fuzz.executor import (
    BLOCKING,
    ExecMode,
    compare_snapshots,
    run_optimized,
)

SEED = 20170529
N_PROGRAMS = 100

#: same physical schedule as blocking: drain in DAG order, no rewrites
PASSES_OFF = ExecMode(nonblocking=True, dead_op=False, fusion=False, cse=False)
FULL_PLANNER = ExecMode(nonblocking=True)

#: the counters that measure *work done*; identical schedules must match
WORK_COUNTERS = (
    "kernel.invocations",
    "kernel.flops_estimated",
    "kernel.flops_realized",
    "kernel.nnz_out",
    "op.writes",
    "op.nnz_out",
)


def _programs():
    return [generate_program(SEED, i) for i in range(N_PROGRAMS)]


def _work(counters: dict) -> dict:
    return {k: counters.get(k, 0) for k in WORK_COUNTERS}


class TestCountersModeInvariant:
    def test_blocking_vs_passes_off_results_and_counters(self):
        mismatches = []
        for i, p in enumerate(_programs()):
            blocking = run_optimized(p, BLOCKING, obs_capture=True)
            nb = run_optimized(p, PASSES_OFF, obs_capture=True)
            for msg in compare_snapshots(p, blocking, nb):
                mismatches.append(f"program {i}: {msg}")
            if _work(blocking.counters) != _work(nb.counters):
                mismatches.append(
                    f"program {i}: counters diverge\n"
                    f"  blocking: {_work(blocking.counters)}\n"
                    f"  nb      : {_work(nb.counters)}"
                )
        assert not mismatches, "\n".join(mismatches[:10])

    def test_counters_are_populated(self):
        # guard against the comparison degenerating to {} == {}
        populated = 0
        for p in _programs()[:20]:
            snap = run_optimized(p, BLOCKING, obs_capture=True)
            if snap.counters.get("op.writes", 0) > 0:
                populated += 1
        assert populated >= 10, "obs counters mostly empty — capture broken?"


class TestFullPlannerResultsInvariant:
    def test_full_planner_obs_run_matches_blocking(self):
        mismatches = []
        for i, p in enumerate(_programs()):
            blocking = run_optimized(p, BLOCKING, obs_capture=True)
            nb = run_optimized(p, FULL_PLANNER, obs_capture=True)
            for msg in compare_snapshots(p, blocking, nb):
                mismatches.append(f"program {i}: {msg}")
        assert not mismatches, "\n".join(mismatches[:10])

    def test_planner_never_does_more_kernel_work(self):
        # fusion/CSE/dead-op only ever *remove* kernel invocations
        for i, p in enumerate(_programs()[:30]):
            off = run_optimized(p, PASSES_OFF, obs_capture=True)
            on = run_optimized(p, FULL_PLANNER, obs_capture=True)
            assert on.counters.get("kernel.invocations", 0) <= off.counters.get(
                "kernel.invocations", 0
            ), f"program {i}: planner increased kernel invocations"


class TestObservationIsNotParticipation:
    @pytest.mark.parametrize("mode", [BLOCKING, PASSES_OFF, FULL_PLANNER],
                             ids=lambda m: m.name)
    def test_instrumented_equals_uninstrumented(self, mode):
        for i, p in enumerate(_programs()[:25]):
            plain = run_optimized(p, mode)
            observed = run_optimized(p, mode, obs_capture=True)
            msgs = compare_snapshots(p, plain, observed)
            assert not msgs, f"program {i} under {mode.name}: " + "; ".join(msgs)
            assert not plain.counters  # no capture → no counters
