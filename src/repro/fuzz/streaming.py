"""Differential fuzzing of the streaming ingest path.

One scenario = one random graph plus a random edge-delta schedule pushed
through :class:`repro.stream.EdgeBuffer`.  A dict model replays the
submitted ``set_edges`` / ``remove_edges`` arrays in append order, last
writer wins.  After every flush the flush's delta is diffed against the
model's change across the flush, the merged matrix content against the
model, and PageRank, BFS levels and connected components on
the flushed matrix are diffed against the same algorithms on a matrix
built from scratch out of the model.  Every scenario runs under every
fuzz :class:`~repro.fuzz.executor.ExecMode` it is given — the deferred
rebuild must be mode-invariant like any other operation.

Oracles:

* **ingest**: ``fr.delta`` lists exactly the edges whose presence or
  value the model changed, with their old and new values, and
  ``A.extract_tuples()`` equals the model;
* **algorithms**: bit-identical to the scratch-built graph's results
  (NaN/Inf from degenerate weights included) — what the service relies
  on when it answers an ``algorithm`` request from a snapshot that a
  ``stream_mutate`` published.

Schedules deliberately carry zero and negative weights, asymmetric writes
to symmetric graphs and oversized batches.
"""

from __future__ import annotations

import numpy as np

from ..algorithms.bfs import bfs_levels
from ..algorithms.components import connected_components
from ..algorithms.pagerank import pagerank
from ..containers.matrix import Matrix
from ..stream import EdgeBuffer
from ..types import FP64
from .executor import _or_default, applied

__all__ = ["check_streaming_conformance"]


def _random_graph(rng, n: int, symmetric: bool) -> Matrix:
    density = float(rng.uniform(0.05, 0.4))
    nnz = min(int(round(density * n * n)), n * n)
    keys = rng.choice(n * n, size=nnz, replace=False)
    rows, cols = np.divmod(keys, n)
    vals = _random_values(rng, nnz)
    if symmetric:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        vals = np.concatenate([vals, vals])
        # last-writer-wins dedup of the mirrored coordinates
        key = rows * n + cols
        order = np.argsort(key, kind="stable")
        key, rows, cols, vals = key[order], rows[order], cols[order], vals[order]
        keep = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return Matrix.from_coo(FP64, n, n, rows, cols, vals)


def _random_values(rng, k: int) -> np.ndarray:
    vals = rng.uniform(0.1, 2.0, k)
    # rare hostile weights: stored zeros must survive the merge, negative
    # weights drive PageRank to NaN/Inf on both sides of the diff
    hostile = rng.random(k)
    vals[hostile < 0.05] = 0.0
    vals[(hostile >= 0.05) & (hostile < 0.10)] = -1.0
    return vals


def _algorithm_diff(A: Matrix, S: Matrix, source: int) -> str | None:
    """First algorithm whose result on *A* differs from that on *S*."""
    if not np.array_equal(pagerank(A), pagerank(S), equal_nan=True):
        return "pagerank"
    got, want = bfs_levels(A, source), bfs_levels(S, source)
    gi, gv = got.extract_tuples()
    wi, wv = want.extract_tuples()
    got.free()
    want.free()
    if not (np.array_equal(gi, wi) and np.array_equal(gv, wv)):
        return "bfs_levels"
    if not np.array_equal(connected_components(A), connected_components(S)):
        return "connected_components"
    return None


def _scenario(seed: int) -> str | None:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
    symmetric = bool(rng.random() < 0.4)
    A = _random_graph(rng, n, symmetric)
    source = int(rng.integers(0, n))

    model: dict[tuple[int, int], float] = {}
    r0, c0, v0 = A.extract_tuples()
    for i, j, v in zip(r0, c0, v0):
        model[(int(i), int(j))] = float(v)

    for round_no in range(int(rng.integers(2, 6))):
        buf = EdgeBuffer(A)
        before = dict(model)
        # a flush may carry several append calls, including writes that
        # overwrite each other within the batch (last writer must win);
        # the model applies the submitted arrays in append order
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, max(2, n)))
            ri = rng.integers(0, n, k)
            ci = rng.integers(0, n, k)
            if rng.random() < 0.7:
                vals = _random_values(rng, k)
                if symmetric and rng.random() < 0.8:
                    ri, ci = np.concatenate([ri, ci]), np.concatenate([ci, ri])
                    vals = np.concatenate([vals, vals])
                buf.set_edges(ri, ci, vals)
                for i, j, v in zip(ri, ci, vals):
                    model[(int(i), int(j))] = float(v)
            else:
                if symmetric and rng.random() < 0.8:
                    ri, ci = np.concatenate([ri, ci]), np.concatenate([ci, ri])
                buf.remove_edges(ri, ci)
                for i, j in zip(ri, ci):
                    model.pop((int(i), int(j)), None)
        delta = buf.flush().delta  # sequence point: forces the rebuild

        # oracle 1: the delta is the model's diff across the flush, and
        # the merged content is the model
        want = {
            key: (before.get(key), model.get(key))
            for key in before.keys() | model.keys()
            if before.get(key) != model.get(key)
        }
        seen = {
            (int(i), int(j)): (float(ov) if om else None,
                               float(nv) if nm else None)
            for i, j, om, ov, nm, nv in zip(
                delta.rows, delta.cols, delta.old_mask, delta.old_values,
                delta.new_mask, delta.new_values,
            )
        }
        if seen != want or delta.size != len(seen):
            wrong = sorted(k for k in want.keys() | seen.keys()
                           if want.get(k) != seen.get(k))
            return (
                f"round {round_no}: delta diverges from the model's diff "
                f"(size {delta.size}, expected {len(want)}, "
                f"first differing edges {wrong[:4]})"
            )
        rr, cc, vv = A.extract_tuples()
        got = {
            (int(i), int(j)): float(v) for i, j, v in zip(rr, cc, vv)
        }
        if got != model:
            extra = set(got) - set(model)
            missing = set(model) - set(got)
            diff = {
                k for k in set(got) & set(model) if got[k] != model[k]
            }
            return (
                f"round {round_no}: merged content diverges from the "
                f"last-writer-wins model (extra={sorted(extra)[:4]}, "
                f"missing={sorted(missing)[:4]}, value-diff={sorted(diff)[:4]})"
            )

        # oracle 2: the flushed graph answers like one built from scratch
        S = Matrix.from_coo(
            FP64, n, n,
            np.array([k[0] for k in model], dtype=np.int64),
            np.array([k[1] for k in model], dtype=np.int64),
            np.array(list(model.values())),
        )
        algo = _algorithm_diff(A, S, source)
        S.free()
        if algo is not None:
            return (
                f"round {round_no}: {algo} on the flushed graph differs "
                f"from the scratch-built graph"
            )
    return None


def check_streaming_conformance(seed: int, modes=None) -> str | None:
    """Run one seeded streaming scenario under every mode (default: the
    fuzzer's default modes).

    Returns a human-readable complaint on the first divergence, else None.
    """
    for mode in _or_default(modes):
        with applied(mode):
            complaint = _scenario(seed)
        if complaint is not None:
            return f"[{mode.name}] {complaint}"
    return None
