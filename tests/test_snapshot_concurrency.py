"""Snapshot-store concurrency: readers pin immutable versions while a
writer publishes continuously — no torn views, no version leaks, and the
old reader/writer lock is gone from the service surface entirely.
"""

from __future__ import annotations

import random
import threading
import time

import numpy as np
import pytest

import repro.service as service_pkg
from repro import algorithms
from repro.containers import Matrix
from repro.types import FP64
from repro.service import (
    SHARED_PREFIX,
    SHARED_SESSION,
    Service,
    ServiceConfig,
    SnapshotStore,
)
from repro.service import session as session_mod
from repro.service.loadgen import shared_graph_payload


class TestSnapshotStore:
    def test_publish_advances_and_retires_unpinned(self):
        store = SnapshotStore()
        assert store.current_vid() == 0
        v1 = store.publish({"a": 1}, {"a": "FP64"})
        assert v1.vid == 1 and store.current_vid() == 1
        # v0 had no pins: superseding it retires it immediately
        assert store.live_versions() == 1
        assert store.stats()["retired"] == 1

    def test_pin_keeps_version_alive_until_unpin(self):
        store = SnapshotStore()
        store.publish({"x": "old"}, {"x": "FP64"})
        pinned = store.pin()
        store.publish({"x": "new"}, {"x": "FP64"})
        store.publish({"x": "newer"}, {"x": "FP64"})
        # the pinned version is superseded but alive and unchanged
        assert pinned.objects == {"x": "old"}
        assert not pinned.retired
        assert store.live_versions() == 2    # pinned + current
        store.unpin(pinned)
        assert pinned.retired
        assert store.live_versions() == 1
        st = store.stats()
        assert st["pinned"] == 0
        assert st["retired"] == st["published"]  # every superseded version

    def test_no_torn_reads_under_continuous_publish(self):
        # every publication writes the same value into two keys; a reader
        # that ever observes x != y (or either != vid) saw a torn version
        store = SnapshotStore()
        store.publish({"x": 1, "y": 1}, {})
        stop = threading.Event()
        violations: list[str] = []

        def reader():
            while not stop.is_set():
                v = store.pin()
                try:
                    x, y = v.objects["x"], v.objects["y"]
                    if x != y or x != v.vid:
                        violations.append(
                            f"v{v.vid}: x={x} y={y}"
                        )
                finally:
                    store.unpin(v)

        def writer():
            vid = 1
            while not stop.is_set():
                vid += 1
                store.publish({"x": vid, "y": vid}, {})

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join()

        assert violations == []
        st = store.stats()
        assert st["published"] > 10         # the stress actually stressed
        assert st["pinned"] == 0            # every pin released
        assert st["live_versions"] == 1     # nothing leaked
        assert st["retired"] == st["published"]


class TestServiceSnapshots:
    def test_readers_never_see_mixed_versions(self):
        # the writer streams atomic two-cell updates where both cells
        # carry the same value; any reader response mixing two values
        # across the cells crossed a version boundary mid-request
        with Service(ServiceConfig(workers=4)) as svc:
            svc.request(SHARED_SESSION, "define", {
                "name": "G", "kind": "matrix", "dtype": "FP64",
                "shape": [4, 4], "entries": [[0, 0, 1.0], [1, 1, 1.0]],
            })
            stop = threading.Event()
            torn: list = []
            reader_errors: list = []

            def writer():
                k = 1.0
                while not stop.is_set():
                    k += 1.0
                    svc.request(SHARED_SESSION, "update", {
                        "graph": "G",
                        "set": [[0, 0, k], [1, 1, k]],
                        "remove": [],
                    })

            def reader(i: int):
                sess = svc.open_session(f"rd{i}")
                while not stop.is_set():
                    try:
                        rsp = svc.request(
                            sess, "query",
                            {"name": SHARED_PREFIX + "G", "what": "tuples"},
                        )
                    except Exception as exc:   # noqa: BLE001
                        reader_errors.append(exc)
                        return
                    vals = rsp["values"]
                    if len(set(vals)) != 1:
                        torn.append(vals)

            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(3)]
            threads.append(threading.Thread(target=writer))
            for t in threads:
                t.start()
            time.sleep(0.6)
            stop.set()
            for t in threads:
                t.join()

            assert reader_errors == []
            assert torn == []
            st = svc.stats()["snapshots"]
            assert st["published"] > 2
            # drained: no pins outstanding, old versions retired
            assert st["pinned"] == 0
            assert st["live_versions"] == 1
            assert st["retired"] == st["published"]

    def test_pinned_reader_is_isolated_from_later_writes(self):
        # a reader admitted before a write computes against its pinned
        # version even when the write publishes mid-flight
        with Service(ServiceConfig(workers=2)) as svc:
            svc.request(SHARED_SESSION, "define", shared_graph_payload(3))
            sess = svc.open_session("iso")
            before = svc.request(
                sess, "query", {"name": SHARED_PREFIX + "G", "what": "nvals"},
                timing=True,
            )
            svc.request(SHARED_SESSION, "update", {
                "graph": "G", "set": [[0, 0, 9.0], [1, 1, 9.0]],
                "remove": [],
            })
            after = svc.request(
                sess, "query", {"name": SHARED_PREFIX + "G", "what": "nvals"},
                timing=True,
            )
            assert after["timing"]["shared_version"] \
                == before["timing"]["shared_version"] + 1
            assert after["nvals"] == before["nvals"] + 2


class TestMutationBursts:
    """Publish storms driven through ``stream_mutate``: retirement stays
    bounded, readers stay torn-free, algorithm answers track every
    version exactly, and the delta-aware memo never serves stale entries."""

    def test_stream_mutate_storm_keeps_retirement_bounded(self):
        n = 8
        with Service(ServiceConfig(workers=2)) as svc:
            svc.request(SHARED_SESSION, "define", {
                "name": "G", "kind": "matrix", "dtype": "FP64",
                "shape": [n, n], "entries": [[0, 1, 1.0], [2, 3, 2.0]],
            })
            model = {(0, 1): 1.0, (2, 3): 2.0}
            rng = random.Random(7)
            rounds = 40
            for _ in range(rounds):
                sets = [[rng.randrange(n), rng.randrange(n),
                         round(rng.uniform(0.1, 2.0), 3)]
                        for _ in range(rng.randrange(1, 4))]
                removes = ([list(k) for k in rng.sample(sorted(model), 1)]
                           if model and rng.random() < 0.4 else [])
                svc.request(SHARED_SESSION, "stream_mutate",
                            {"graph": "G", "set": sets, "remove": removes})
                # mirror the buffer's last-writer-wins call order: the
                # executor stages sets before removes, so an overlapping
                # remove wins within one batch
                for i, j, v in sets:
                    model[(i, j)] = v
                for i, j in removes:
                    model.pop((i, j), None)
            rsp = svc.request(
                svc.open_session("storm-check"), "query",
                {"name": SHARED_PREFIX + "G", "what": "tuples"},
            )
            got = sorted(zip(rsp["rows"], rsp["cols"], rsp["values"]))
            want = sorted((i, j, v) for (i, j), v in model.items())
            assert got == want

            st = svc.stats()["snapshots"]
            # every mutation published a version, none leaked or stayed
            # pinned once the storm drained
            assert st["published"] >= rounds
            assert st["pinned"] == 0
            assert st["live_versions"] == 1
            assert st["retired"] == st["published"]

    def test_readers_never_torn_under_stream_mutate_storm(self):
        # same two-cell invariant as the update-driven test above, but the
        # writer mutates through the streaming ingest path: each batch must
        # flush atomically into one published version
        with Service(ServiceConfig(workers=4)) as svc:
            svc.request(SHARED_SESSION, "define", {
                "name": "G", "kind": "matrix", "dtype": "FP64",
                "shape": [4, 4], "entries": [[0, 0, 1.0], [1, 1, 1.0]],
            })
            stop = threading.Event()
            torn: list = []
            reader_errors: list = []

            def writer():
                k = 1.0
                while not stop.is_set():
                    k += 1.0
                    svc.request(SHARED_SESSION, "stream_mutate", {
                        "graph": "G",
                        "set": [[0, 0, k], [1, 1, k]],
                        "remove": [],
                    })

            def reader(i: int):
                sess = svc.open_session(f"srd{i}")
                while not stop.is_set():
                    try:
                        rsp = svc.request(
                            sess, "query",
                            {"name": SHARED_PREFIX + "G", "what": "tuples"},
                        )
                    except Exception as exc:   # noqa: BLE001
                        reader_errors.append(exc)
                        return
                    if len(set(rsp["values"])) != 1:
                        torn.append(rsp["values"])

            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(3)]
            threads.append(threading.Thread(target=writer))
            for t in threads:
                t.start()
            time.sleep(0.6)
            stop.set()
            for t in threads:
                t.join()

            assert reader_errors == []
            assert torn == []
            st = svc.stats()
            assert st["snapshots"]["published"] > 2
            assert st["snapshots"]["pinned"] == 0
            assert st["snapshots"]["live_versions"] == 1

    def test_incremental_pagerank_stays_fresh_under_burst(self):
        n = 32
        with Service(ServiceConfig(workers=2, cache=True)) as svc:
            svc.request(SHARED_SESSION, "define", shared_graph_payload(3))
            sess = svc.open_session("inc")
            read = ("algorithm",
                    {"algo": "pagerank", "graph": SHARED_PREFIX + "G",
                     "args": {}})
            svc.request(sess, *read)
            rng = random.Random(11)
            for _ in range(25):
                sets = [[rng.randrange(n), rng.randrange(n),
                         round(rng.uniform(0.2, 1.5), 3)]
                        for _ in range(2)]
                svc.request(SHARED_SESSION, "stream_mutate",
                            {"graph": "G", "set": sets, "remove": []})
                svc.request(sess, *read)    # one answer per version

            served = svc.request(sess, *read)["result"]
            tup = svc.request(
                sess, "query",
                {"name": SHARED_PREFIX + "G", "what": "tuples"},
            )
            scratch = algorithms.pagerank(Matrix.from_coo(
                FP64, n, n,
                np.asarray(tup["rows"]), np.asarray(tup["cols"]),
                np.asarray(tup["values"], dtype=np.float64),
            ))
            dense = np.zeros(n)
            dense[np.asarray(served["indices"], dtype=np.int64)] = \
                served["values"]
            assert np.array_equal(dense, scratch)

    def test_memo_rekey_keeps_untouched_entries_and_drops_touched(self):
        with Service(ServiceConfig(workers=2, cache=True)) as svc:
            for name in ("G", "H"):
                svc.request(SHARED_SESSION, "define", {
                    "name": name, "kind": "matrix", "dtype": "FP64",
                    "shape": [6, 6],
                    "entries": [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0]],
                })
            sess = svc.open_session("memo")
            probe = ("query", {"name": SHARED_PREFIX + "H", "what": "nvals"})
            first = svc.request(sess, *probe, timing=True)
            assert first["timing"]["cache"] == "miss"
            # the second sighting of the text is the one the memo admits
            assert svc.request(sess, *probe, timing=True)[
                "timing"]["cache"] == "miss"
            assert svc.request(sess, *probe, timing=True)[
                "timing"]["cache"] == "hit"

            # a burst touching only G must not evict H's entry: the memo
            # re-keys it to each new version instead of dropping everything
            for k in range(10):
                svc.request(SHARED_SESSION, "stream_mutate", {
                    "graph": "G", "set": [[3, 4, float(k + 1)]],
                    "remove": [],
                })
            again = svc.request(sess, *probe, timing=True)
            assert again["timing"]["cache"] == "hit"
            assert again["nvals"] == first["nvals"]
            assert svc.stats()["cache"]["rekeys"] >= 10

            # touching H itself must drop the entry and serve fresh data
            svc.request(SHARED_SESSION, "stream_mutate", {
                "graph": "H", "set": [[4, 5, 9.0]], "remove": [],
            })
            after = svc.request(sess, *probe, timing=True)
            assert after["timing"]["cache"] == "miss"
            assert after["nvals"] == first["nvals"] + 1


class TestRWLockExcised:
    def test_rwlock_gone_from_the_service_surface(self):
        assert not hasattr(service_pkg, "RWLock")
        assert "RWLock" not in service_pkg.__all__
        assert not hasattr(session_mod, "RWLock")
        assert "RWLock" not in getattr(session_mod, "__all__", ())

    def test_sessions_expose_no_shared_lock(self):
        with Service(ServiceConfig(workers=1)) as svc:
            shared = svc.shared_session
            assert not any("lock" in a.lower() for a in vars(shared))
            assert hasattr(svc, "snapshots")
            assert isinstance(svc.snapshots, SnapshotStore)
