"""Streaming graph subsystem: batched edge ingest.

The GraphBLAS nonblocking mode exists so implementations can defer and
batch mutations; this package exploits it for edge streams:

* :mod:`repro.stream.delta` — :class:`EdgeDelta`, the exact record of one
  flushed edge batch (adds / removes / value changes against the
  pre-flush content);
* :mod:`repro.stream.ingest` — :class:`EdgeBuffer`, a COO append buffer
  with last-writer-wins dedup whose :meth:`~EdgeBuffer.flush` submits the
  CSR rebuild as a *first-class deferred op* into the planner DAG, so
  rebuilds schedule like any other node and respect RAW/WAW hazards
  against queued reads.
"""

from .delta import EdgeDelta
from .ingest import EdgeBuffer, FlushResult

__all__ = [
    "EdgeDelta",
    "EdgeBuffer",
    "FlushResult",
]
