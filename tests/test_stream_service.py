"""The streaming service surface: ``stream_mutate`` end-to-end,
``algorithm`` answers after each kind of shared mutation, and the
loadgen per-kind latency breakdown the streaming workload mixes depend
on."""

from __future__ import annotations

import numpy as np
import pytest

from repro import algorithms
from repro.containers import Matrix
from repro.info import IndexOutOfBounds
from repro.service import (
    SHARED_PREFIX,
    SHARED_SESSION,
    Service,
    ServiceConfig,
)
from repro.service.errors import BadRequest, ObjectNotFound
from repro.service.loadgen import timing_summary
from repro.types import FP64

_G = {
    "name": "G", "kind": "matrix", "dtype": "FP64", "shape": [8, 8],
    "entries": [[0, 1, 1.0], [1, 2, 2.0], [2, 0, 3.0]],
}


@pytest.fixture
def svc():
    with Service(ServiceConfig(workers=2, cache=True)) as s:
        yield s


class TestStreamMutate:
    def test_shared_roundtrip(self, svc):
        svc.request(SHARED_SESSION, "define", _G)
        rsp = svc.request(SHARED_SESSION, "stream_mutate", {
            "graph": "G",
            "set": [[3, 4, 9.0], [0, 1, 5.0]],
            "remove": [[2, 0]],
        })
        assert rsp["accepted"] == {"set": 2, "remove": 1}
        sess = svc.open_session("r")
        tup = svc.request(
            sess, "query", {"name": SHARED_PREFIX + "G", "what": "tuples"}
        )
        assert sorted(zip(tup["rows"], tup["cols"], tup["values"])) == [
            (0, 1, 5.0), (1, 2, 2.0), (3, 4, 9.0)
        ]

    def test_session_private_graph(self, svc):
        sess = svc.open_session("mine")
        svc.request(sess, "define", _G)
        svc.request(sess, "stream_mutate", {
            "graph": "G", "set": [[5, 5, 1.5]], "remove": [],
        })
        tup = svc.request(sess, "query", {"name": "G", "what": "tuples"})
        assert (5, 5, 1.5) in set(zip(tup["rows"], tup["cols"], tup["values"]))

    def test_rejects_non_matrix_and_unknown(self, svc):
        sess = svc.open_session("bad")
        svc.request(sess, "define", {
            "name": "v", "kind": "vector", "dtype": "FP64",
            "shape": [4], "entries": [[0, 1.0]],
        })
        with pytest.raises(BadRequest):
            svc.request(sess, "stream_mutate",
                        {"graph": "v", "set": [[0, 0, 1.0]], "remove": []})
        with pytest.raises(ObjectNotFound):
            svc.request(sess, "stream_mutate",
                        {"graph": "nope", "set": [], "remove": []})

    def test_mutation_publishes_and_reports_delta(self, svc):
        svc.request(SHARED_SESSION, "define", _G)
        before = svc.stats()["snapshots"]["published"]
        svc.request(SHARED_SESSION, "stream_mutate", {
            "graph": "G", "set": [[4, 4, 1.0]], "remove": [],
        })
        assert svc.stats()["snapshots"]["published"] == before + 1


def _content(svc, sess, name):
    return svc.request(sess, "query", {"name": name, "what": "tuples"})


def _graph_session(svc, shared, payload):
    """Define *payload* in a fresh private session, or in the shared one;
    returns (session the mutation goes to, session that reads, name)."""
    if shared:
        svc.request(SHARED_SESSION, "define", payload)
        return SHARED_SESSION, svc.open_session(), SHARED_PREFIX + payload["name"]
    sess = svc.open_session()
    svc.request(sess, "define", payload)
    return sess, sess, payload["name"]


class TestMutationPath:
    """``update`` and ``stream_mutate`` run one buffered merge: the same
    payload leaves the same content, and a request that fails leaves the
    graph as it was (section V: an API error has no effect)."""

    @pytest.mark.parametrize("shared", [False, True], ids=["private", "shared"])
    @pytest.mark.parametrize("kind", ["update", "stream_mutate"])
    @pytest.mark.parametrize("bad,error", [
        ({"set": [[1, 1, 5.0], [9, 9, 1.0]]}, IndexOutOfBounds),
        ({"set": [[1, 1, 5.0]], "remove": [[0, 1], [-1, 0]]}, IndexOutOfBounds),
        ({"set": [[1, 1, 5.0], [2, 2]]}, BadRequest),       # entry too short
        ({"set": [[1, 1, 5.0], ["x", 2, 1.0]]}, BadRequest),  # not an index
    ], ids=["out-of-range", "negative-remove", "short-entry", "bad-index"])
    def test_failed_mutation_changes_nothing(self, svc, shared, kind, bad, error):
        writer, reader, name = _graph_session(svc, shared, _G)
        before = _content(svc, reader, name)
        published = svc.stats()["snapshots"]["published"]
        with pytest.raises(error):
            svc.request(writer, kind, {"graph": "G", **bad})
        assert _content(svc, reader, name) == before
        assert svc.stats()["snapshots"]["published"] == published

    @pytest.mark.parametrize("shared", [False, True], ids=["private", "shared"])
    @pytest.mark.parametrize("edits,want", [
        # duplicate keys in set: the last one wins
        ({"set": [[3, 3, 1.0], [3, 3, 2.0], [0, 1, 4.0], [0, 1, 6.0]]},
         [(0, 1, 6.0), (1, 2, 2.0), (2, 0, 3.0), (3, 3, 2.0)]),
        # set and remove of one edge in one request: it ends up removed
        ({"set": [[4, 4, 1.0], [0, 1, 8.0]], "remove": [[4, 4], [0, 1]]},
         [(1, 2, 2.0), (2, 0, 3.0)]),
        # removing an absent edge is a no-op
        ({"set": [], "remove": [[5, 6], [7, 7]]},
         [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]),
    ], ids=["last-set-wins", "set-then-remove", "remove-absent"])
    def test_update_equals_stream_mutate(self, svc, shared, edits, want):
        got = []
        for kind in ("update", "stream_mutate"):
            g = dict(_G, name=f"G_{kind}")
            writer, reader, name = _graph_session(svc, shared, g)
            svc.request(writer, kind, {"graph": g["name"], **edits})
            tup = _content(svc, reader, name)
            got.append(sorted(zip(tup["rows"], tup["cols"], tup["values"])))
        assert got[0] == got[1] == want

    @pytest.mark.parametrize("shared", [False, True], ids=["private", "shared"])
    def test_update_on_a_vector(self, svc, shared):
        v = {"name": "v", "kind": "vector", "dtype": "INT64", "shape": [6],
             "entries": [[0, 1], [2, 3], [4, 5]]}
        writer, reader, name = _graph_session(svc, shared, v)
        rsp = svc.request(writer, "update", {
            "graph": "v",
            "set": [[1, 7], [1, 8], [5, 9], [3, 1]],
            "remove": [[0], 2, [3], 5.0, [4]],          # [i] and bare i
        })
        assert rsp == {"name": "v", "nvals": 1}
        tup = _content(svc, reader, name)
        assert list(zip(tup["indices"], tup["values"])) == [(1, 8)]

    def test_update_keeps_user_defined_domains(self, svc):
        # the buffer stores any domain the store does: a set-valued UDT
        p = {"name": "p", "kind": "matrix", "dtype": "PSET", "shape": [3, 3],
             "entries": [[0, 1, [1, 2]]]}
        writer, reader, name = _graph_session(svc, False, p)
        svc.request(writer, "update", {
            "graph": "p", "set": [[1, 1, [3]], [2, 2, [4]], [0, 1, [5]]],
            "remove": [[2, 2]],
        })
        tup = _content(svc, reader, name)
        assert list(zip(tup["rows"], tup["cols"], tup["values"])) == [
            (0, 1, [5]), (1, 1, [3])
        ]


class TestHandleLifecycle:
    """An ``algorithm`` request over a shared graph is answered from the
    snapshot version it pinned: no per-graph state outlives a publish, so
    every mutation path (stream, point update, free) is seen by the next
    answer and nothing can be served stale."""

    def _pagerank(self, svc, sess):
        return svc.request(sess, "algorithm", {
            "algo": "pagerank", "graph": SHARED_PREFIX + "G", "args": {},
        })

    def _scratch(self, svc, sess):
        tup = svc.request(
            sess, "query", {"name": SHARED_PREFIX + "G", "what": "tuples"}
        )
        return algorithms.pagerank(Matrix.from_coo(
            FP64, 8, 8,
            np.asarray(tup["rows"]), np.asarray(tup["cols"]),
            np.asarray(tup["values"], dtype=np.float64),
        ))

    def _dense(self, served) -> np.ndarray:
        dense = np.zeros(8)
        dense[np.asarray(served["indices"], dtype=np.int64)] = served["values"]
        return dense

    def test_handles_create_advance_and_serve(self, svc):
        svc.request(SHARED_SESSION, "define", _G)
        sess = svc.open_session("h")
        first = self._pagerank(svc, sess)["result"]
        svc.request(SHARED_SESSION, "stream_mutate", {
            "graph": "G", "set": [[3, 0, 1.0]], "remove": [],
        })
        served = self._pagerank(svc, sess)["result"]
        assert served != first
        # bit-identical to scratch on the published graph, not within a
        # tolerance: the service runs the same algorithm on that version
        assert np.array_equal(self._dense(served), self._scratch(svc, sess))
        assert "streams" not in svc.stats()

    def test_point_update_drops_handles(self, svc):
        svc.request(SHARED_SESSION, "define", _G)
        sess = svc.open_session("d")
        first = self._pagerank(svc, sess)["result"]
        svc.request(SHARED_SESSION, "update", {
            "graph": "G", "set": [[6, 6, 1.0]], "remove": [],
        })
        served = self._pagerank(svc, sess)["result"]
        assert served != first
        assert np.array_equal(self._dense(served), self._scratch(svc, sess))

    def test_free_drops_handles(self, svc):
        svc.request(SHARED_SESSION, "define", _G)
        sess = svc.open_session("f")
        self._pagerank(svc, sess)
        svc.request(SHARED_SESSION, "free", {"name": "G"})
        with pytest.raises(ObjectNotFound):
            self._pagerank(svc, sess)


class TestTimingByKind:
    def _row(self, total):
        return {"timing": {
            "queue_wait_us": 1.0, "issue_us": 2.0,
            "drain_share_us": 3.0, "total_us": total,
        }}

    def test_split_follows_the_submitted_kinds(self):
        results = [[self._row(10.0), self._row(100.0), self._row(20.0)]]
        streams = [[("query", {}), ("stream_mutate", {}), ("algorithm", {})]]
        out = timing_summary(results, streams)
        assert out["count"] == 3
        kinds = out["by_kind"]
        assert kinds["read"]["count"] == 2
        assert kinds["mutate"]["count"] == 1
        assert kinds["mutate"]["total_us"]["p50"] == 100.0
        assert kinds["read"]["total_us"]["p99"] == 20.0

    def test_without_streams_no_breakdown(self):
        out = timing_summary([[self._row(10.0)]])
        assert "by_kind" not in out
