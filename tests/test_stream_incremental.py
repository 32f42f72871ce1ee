"""Answers over an incrementally ingested graph: after every
``EdgeBuffer`` flush, PageRank, BFS levels and connected components on
the flushed matrix must equal the same algorithms on a matrix built from
scratch out of a last-writer-wins model — bit for bit, PageRank included —
across random delta schedules and both execution modes.

The guard cases drive the service: an ``algorithm`` request is answered
from the snapshot version it pinned, so after a ``stream_mutate`` of any
shape (oversized, hostile weights, asymmetric, falsy values) the served
answer is the scratch answer on the published graph."""

from __future__ import annotations

import numpy as np
import pytest

import repro as grb
from repro import algorithms
from repro.io import deserialize
from repro.service import SHARED_PREFIX, SHARED_SESSION, Service, ServiceConfig
from repro.stream import EdgeBuffer


@pytest.fixture(autouse=True)
def _run_in_both_modes(exec_mode):
    """Every test here runs under blocking AND nonblocking+planner mode."""


def _random_graph(rng: np.random.Generator, n: int, symmetric: bool):
    nnz = int(rng.integers(n, 3 * n))
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.uniform(0.1, 2.0, nnz)
    if symmetric:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        vals = np.concatenate([vals, vals])
    model: dict[tuple[int, int], float] = {}
    for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        model[(i, j)] = model.get((j, i), v) if symmetric else v
        if symmetric:
            model[(j, i)] = model[(i, j)]
    return _scratch_graph(model, n), model


def _random_batch(rng, buf: EdgeBuffer, model: dict, n: int, symmetric: bool):
    """Buffer 1-3 random append calls, mirroring the edits for symmetric
    graphs, and advance the last-writer-wins dict model in call order."""
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.7 or not model:
            k = int(rng.integers(1, 4))
            rows = rng.integers(0, n, k)
            cols = rng.integers(0, n, k)
            vals = rng.uniform(0.1, 2.0, k)
            buf.set_edges(rows, cols, vals)
            if symmetric:
                buf.set_edges(cols, rows, vals)
            for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
                model[(i, j)] = v
                if symmetric:
                    model[(j, i)] = v
        else:
            pick = sorted(model)[int(rng.integers(0, len(model)))]
            buf.remove_edges([pick[0]], [pick[1]])
            model.pop(pick, None)
            if symmetric:
                buf.remove_edges([pick[1]], [pick[0]])
                model.pop((pick[1], pick[0]), None)


def _scratch_graph(model: dict, n: int) -> grb.Matrix:
    r = np.array([k[0] for k in model], dtype=np.int64)
    c = np.array([k[1] for k in model], dtype=np.int64)
    v = np.array(list(model.values()))
    return grb.Matrix.from_coo(grb.FP64, n, n, r, c, v)


def _tuples_of(vec: grb.Vector) -> tuple[list, list]:
    idx, vals = vec.extract_tuples()
    return idx.tolist(), vals.tolist()


@pytest.mark.parametrize("seed", range(20))
def test_incremental_matches_scratch_across_delta_schedules(seed):
    rng = np.random.default_rng(seed * 7919 + 3)
    n = int(rng.integers(5, 16))
    symmetric = bool(rng.random() < 0.5)
    A, model = _random_graph(rng, n, symmetric)
    source = int(rng.integers(0, n))

    buf = EdgeBuffer(A)
    for _ in range(int(rng.integers(2, 5))):
        _random_batch(rng, buf, model, n, symmetric)
        buf.flush()

        S = _scratch_graph(model, n)
        assert np.array_equal(
            algorithms.pagerank(A), algorithms.pagerank(S), equal_nan=True
        )
        assert _tuples_of(algorithms.bfs_levels(A, source)) == _tuples_of(
            algorithms.bfs_levels(S, source)
        )
        assert np.array_equal(
            algorithms.connected_components(A),
            algorithms.connected_components(S),
        )


class TestGuards:
    """Each case used to trip a fallback guard of a maintained result; the
    service now answers every one of them from the published snapshot."""

    @pytest.fixture
    def svc(self):
        with Service(ServiceConfig(workers=1)) as s:
            yield s

    def _publish(self, svc, A: grb.Matrix) -> None:
        rows, cols, vals = A.extract_tuples()
        svc.request(SHARED_SESSION, "define", {
            "name": "G", "kind": "matrix", "dtype": "FP64",
            "shape": [A.nrows, A.ncols],
            "entries": [list(e) for e in zip(
                rows.tolist(), cols.tolist(), vals.tolist())],
        })

    def _mutate(self, svc, sets=(), removes=()) -> None:
        svc.request(SHARED_SESSION, "stream_mutate", {
            "graph": "G", "set": [list(s) for s in sets],
            "remove": [list(r) for r in removes],
        })

    def _served(self, svc, algo: str, **args) -> tuple[list, list]:
        res = svc.request(svc.open_session(), "algorithm", {
            "algo": algo, "graph": SHARED_PREFIX + "G", "args": args,
        })["result"]
        return res["indices"], res["values"]

    def _scratch(self, svc) -> grb.Matrix:
        blob = svc.request(SHARED_SESSION, "download", {"name": "G"})["blob"]
        return deserialize(blob)

    def _dense(self, served, n: int) -> np.ndarray:
        out = np.zeros(n)
        out[np.asarray(served[0], dtype=np.int64)] = served[1]
        return out

    def test_oversized_delta_falls_back_to_full(self, svc):
        A, model = _random_graph(np.random.default_rng(0), 10, False)
        self._publish(svc, A)
        # rewrite every edge of the graph in one batch
        self._mutate(svc, sets=[(i, j, 3.3) for (i, j) in sorted(model)])
        S = self._scratch(svc)
        assert S.nvals() == len(model)
        assert np.array_equal(
            self._dense(self._served(svc, "pagerank"), 10),
            algorithms.pagerank(S),
        )

    def test_small_delta_is_incremental_and_cheaper(self, svc):
        # a one-edge batch is one deferred rebuild whose delta names that
        # edge alone; the next answer already reads the published edge
        A, _ = _random_graph(np.random.default_rng(1), 14, False)
        delta = EdgeBuffer(A.dup()).set_edges([0], [1], [1.5]).flush().delta
        assert delta.size == 1
        self._publish(svc, A)
        before = svc.stats()["snapshots"]["published"]
        self._mutate(svc, sets=[(0, 1, 1.5)])
        assert svc.stats()["snapshots"]["published"] == before + 1
        S = self._scratch(svc)
        assert S.extract_element(0, 1) == 1.5
        assert np.array_equal(
            self._dense(self._served(svc, "pagerank"), 14),
            algorithms.pagerank(S),
        )

    def test_degenerate_weights_match_scratch_exactly(self, svc):
        # negative weights: huge cancelling scores, served verbatim
        A = grb.Matrix.from_coo(
            grb.FP64, 4, 4, [0, 1, 1, 2], [1, 0, 2, 3], [1.0, -1.0, 1.0, 0.5]
        )
        self._publish(svc, A)
        self._mutate(svc, sets=[(3, 0, -2.0)])
        assert np.array_equal(
            self._dense(self._served(svc, "pagerank"), 4),
            algorithms.pagerank(self._scratch(svc)),
            equal_nan=True,
        )

    def test_asymmetric_delta_on_symmetric_graph_refreshes_cc(self, svc):
        A, model = _random_graph(np.random.default_rng(2), 8, True)
        self._publish(svc, A)
        # a structurally new edge with no mirrored add
        i, j = next(
            (i, j) for i in range(8) for j in range(8)
            if i != j and (i, j) not in model
        )
        self._mutate(svc, sets=[(i, j, 1.0)])
        served = self._served(svc, "connected_components")
        assert served[0] == list(range(8))
        assert served[1] == algorithms.connected_components(
            self._scratch(svc)
        ).tolist()

    def test_unclean_graph_refreshes_bfs(self, svc):
        # a stored zero-valued edge is a falsy value on the BFS frontier
        A, _ = _random_graph(np.random.default_rng(3), 8, False)
        self._publish(svc, A)
        self._mutate(svc, sets=[(2, 5, 0.0)])
        assert self._served(svc, "bfs_levels", source=0) == _tuples_of(
            algorithms.bfs_levels(self._scratch(svc), 0)
        )
