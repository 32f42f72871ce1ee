"""Observability satellites: stream counters on the Prometheus surface
and the loadgen ``--stats-out`` schema dashboards key on.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.service import SHARED_PREFIX, SHARED_SESSION
from repro.service.loadgen import main as loadgen_main
from repro.service.server import Server

_G = {
    "name": "G", "kind": "matrix", "dtype": "FP64", "shape": [8, 8],
    "entries": [[0, 1, 1.0], [1, 2, 2.0], [2, 0, 3.0]],
}


def _gauge(text: str, name: str) -> float:
    m = re.search(rf"^{re.escape(name)} (\S+)$", text, re.M)
    assert m, f"gauge {name} missing from metrics exposition"
    return float(m.group(1))


class TestStreamGaugesOnMetricsWire:
    def test_plaintext_metrics_export_stream_counters(self):
        with Server(port=0).start() as server:
            svc = server.service
            svc.request(SHARED_SESSION, "define", _G)
            sess = svc.open_session("m")
            for _ in range(2):
                svc.request(SHARED_SESSION, "stream_mutate", {
                    "graph": "G", "set": [[3, 0, 1.0]], "remove": [],
                })
                svc.request(sess, "algorithm", {
                    "algo": "pagerank", "graph": SHARED_PREFIX + "G",
                    "args": {},
                })

            text = server.handle_plain("metrics")
            counters = svc.metrics_snapshot()["counters"]
            # the second batch rewrites an edge to its stored value: a
            # no-op delta still runs (and counts) one rebuild
            assert counters["service.stream_mutate"] >= 2
            assert counters["stream.rebuild.count"] >= 2
            for dotted, key in (
                ("repro_service_stream_mutate_total", "service.stream_mutate"),
                ("repro_stream_rebuild_count_total", "stream.rebuild.count"),
            ):
                assert f"# TYPE {dotted} counter" in text
                assert _gauge(text, dotted) == counters[key]
            # algorithm answers keep no per-graph state to export
            assert "repro_stream_handles" not in text


class TestLoadgenStatsOutSchema:
    @pytest.fixture(scope="class")
    def stats_doc(self, tmp_path_factory):
        """One small CLI run shared by the schema assertions (seed 5 over
        48 requests deterministically mixes in 6 stream_mutate ops)."""
        path = tmp_path_factory.mktemp("loadgen") / "stats.json"
        rc = loadgen_main([
            "--requests", "48", "--clients", "4", "--seed", "5",
            "--pipeline", "4", "--no-replay", "--stats-out", str(path),
        ])
        assert rc == 0
        return json.loads(path.read_text())

    def test_memo_rekey_counter_is_top_level(self, stats_doc):
        assert "cache_rekeys" in stats_doc
        assert isinstance(stats_doc["cache_rekeys"], int)
        assert stats_doc["cache_rekeys"] >= 0
        # and it mirrors the nested cache stats when the cache ran
        cache = (stats_doc["stats"].get("cache") or {})
        if cache:
            assert stats_doc["cache_rekeys"] == cache["rekeys"]

    def test_per_kind_latency_includes_stream_mutate(self, stats_doc):
        timing = stats_doc["request_timing"]
        assert timing["count"] > 0
        by_kind = timing["by_request_kind"]
        assert "stream_mutate" in by_kind, sorted(by_kind)
        sm = by_kind["stream_mutate"]
        assert sm["count"] > 0
        for metric in ("total_us", "queue_wait_us", "issue_us",
                       "drain_share_us"):
            assert sm[metric]["p50"] >= 0.0
            assert sm[metric]["p99"] >= sm[metric]["p50"]
        # the coarse split stays alongside the per-kind one
        assert by_kind["stream_mutate"]["count"] <= (
            timing["by_kind"]["mutate"]["count"]
        )

    def test_diag_summary_rides_along(self, stats_doc):
        assert "diag" in stats_doc
        assert "dumps" in stats_doc["diag"]
        assert stats_doc["diag"]["dumps"] == 0, (
            "healthy loadgen run should not dump the flight recorder"
        )
