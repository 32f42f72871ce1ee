"""Sequence planner: dataflow-graph optimizer + DAG scheduler for
nonblocking mode.

At drain time the queued ops of a sequence are lifted into an explicit
dataflow DAG (:mod:`.graph`) and run through a pass pipeline (:mod:`.passes`):

1. **dead-op elimination** — ops whose output is overwritten before any
   read never run;
2. **fusion** — producer→consumer pairs (``mxm/mxv/vxm/eWise* → apply``,
   ``op → reduce``) execute as one kernel without materializing the
   intermediate;
3. **CSE** — identical pure ops on unchanged inputs share one kernel
   evaluation;
4. **level-order scheduling** — hazard-independent ops dispatch
   concurrently on the :mod:`repro.parallel` thread pool.

Every pass can be toggled via :func:`configure` / :func:`override`
(``repro.planner.configure(fusion=False)``); per-pass counters surface in
``QueueStats`` and ``repro.obs.Capture.queue_delta()``.
"""

from .config import PlannerOptions, configure, options, override, reset_options
from .driver import ExecutionPlan, build_plan

__all__ = [
    "PlannerOptions",
    "configure",
    "options",
    "override",
    "reset_options",
    "build_plan",
    "ExecutionPlan",
]
