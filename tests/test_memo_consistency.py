"""Cache-consistency battery: the cross-request result cache must be
semantically invisible.

Each seed builds one deterministic interleaved schedule — zipf-skewed
reads from several tenant sessions plus streaming writes into the shared
graph — and runs it twice, cache on and cache off.  The schedules are
issued synchronously (one request at a time), so both runs see the same
version history and every response pair must be bitwise identical: any
stale entry, wrong invalidation, or materialization bug shows up as a
diff.  The write→immediately-read edge is forced explicitly after every
shared mutation.
"""

from __future__ import annotations

import json
import random
import sys

import pytest

from repro.service import (
    SHARED_PREFIX,
    SHARED_SESSION,
    Service,
    ServiceConfig,
    ServiceError,
)
from repro.service.loadgen import (
    _op_mutate,
    _shared_read_pool,
    shared_graph_payload,
)
from repro.service.memo import CacheEntry, ResultCache
from repro.service.memo import cache as memo_cache

_SHARED_N = 32
_SESSIONS = 3
_OPS = 28


def _schedule(seed: int) -> list[tuple[str, str, dict]]:
    """A deterministic interleaved (session, kind, payload) schedule."""
    rng = random.Random(seed * 9176 + 5)
    pool = _shared_read_pool(seed, 10)
    ops: list[tuple[str, str, dict]] = []
    for _ in range(_OPS):
        r = rng.random()
        sess = f"s{rng.randrange(_SESSIONS)}"
        if r < 0.22:
            kind, payload = _op_mutate(rng, "update", "G", _SHARED_N)
            ops.append((SHARED_SESSION, kind, payload))
            # the write -> immediately-read edge: the very next request
            # reads the shared graph and must see the new version, never
            # a stale cache entry keyed on the old one
            kind, payload = pool[rng.randrange(len(pool))]
            ops.append((sess, kind, payload))
        else:
            kind, payload = pool[rng.randrange(len(pool))]
            ops.append((sess, kind, payload))
    return ops


def _run(seed: int, ops, *, cache: bool) -> tuple[list, dict]:
    svc = Service(ServiceConfig(workers=2, cache=cache))
    try:
        for i in range(_SESSIONS):
            svc.open_session(f"s{i}")
        svc.request(SHARED_SESSION, "define", shared_graph_payload(seed))
        out = []
        for sess, kind, payload in ops:
            try:
                out.append(svc.request(sess, kind, payload))
            except ServiceError as exc:
                out.append({"__error__": type(exc).__name__})
        return out, svc.stats()
    finally:
        svc.shutdown()


@pytest.mark.parametrize("seed", range(20))
def test_cache_on_off_bitwise_identical(seed):
    ops = _schedule(seed)
    hot, hot_stats = _run(seed, ops, cache=True)
    cold, cold_stats = _run(seed, ops, cache=False)

    assert cold_stats["cache"] is None
    assert len(hot) == len(cold) == len(ops)
    for i, (a, b) in enumerate(zip(hot, cold)):
        # bitwise: compare the canonical wire encodings, not just ==
        ja = json.dumps(a, sort_keys=True, default=str)
        jb = json.dumps(b, sort_keys=True, default=str)
        assert ja == jb, (
            f"seed {seed} op {i} {ops[i][1]} diverged with cache on:\n"
            f"  cached:   {ja}\n  uncached: {jb}"
        )


def test_battery_exercises_the_cache():
    # the parametrized battery is only meaningful if the cached runs
    # actually hit and actually invalidate; assert that on one seed
    ops = _schedule(0)
    _, stats = _run(0, ops, cache=True)
    cache = stats["cache"]
    assert cache["hits"] > 0
    assert cache["misses"] > 0
    assert cache["invalidations"] > 0
    assert stats["snapshots"]["published"] > 1


def _deep_size(value) -> int:
    if isinstance(value, dict):
        return sys.getsizeof(value) + sum(
            _deep_size(k) + _deep_size(v) for k, v in value.items()
        )
    if isinstance(value, (list, tuple)):
        return sys.getsizeof(value) + sum(_deep_size(v) for v in value)
    return sys.getsizeof(value)


def test_entry_charge_tracks_its_object_size():
    """The byte budget charges what an entry holds in memory: within 1.5×
    of a deep ``sys.getsizeof`` walk of everything it keeps."""
    ops = _schedule(0)
    svc = Service(ServiceConfig(workers=2, cache=True))
    try:
        for i in range(_SESSIONS):
            svc.open_session(f"s{i}")
        svc.request(SHARED_SESSION, "define", shared_graph_payload(0))
        for sess, kind, payload in ops:
            try:
                svc.request(sess, kind, payload)
            except ServiceError:
                pass
        entries = list(svc.memo._entries.values())
    finally:
        svc.shutdown()
    assert any(e.contents for e in entries)
    for e in entries:
        deep = (
            _deep_size(e.response) + _deep_size(e.contents)
            + sum(sys.getsizeof(b) for b in e.blobs.values())
            + (sys.getsizeof(e.store_blob) if e.store_blob else 0)
        )
        assert deep / 1.5 <= e.nbytes <= deep * 1.5, (e.kind, e.nbytes, deep)


def test_write_then_immediately_read_is_not_served_stale():
    g = SHARED_PREFIX + "G"
    probe = ("query", {"name": g, "what": "nvals"})
    with Service(ServiceConfig(workers=2, cache=True)) as svc:
        svc.open_session("t0")
        svc.open_session("t1")
        svc.request(SHARED_SESSION, "define", {
            "name": "G", "kind": "matrix", "dtype": "FP64",
            "shape": [4, 4], "entries": [[0, 1, 1.0]],
        })
        first = svc.request("t0", *probe, timing=True)
        # the second sighting of the text is the one the memo admits
        admitting = svc.request("t0", *probe, timing=True)
        again = svc.request("t1", *probe, timing=True)
        assert first["nvals"] == 1
        assert first["timing"]["cache"] == "miss"
        assert admitting["timing"]["cache"] == "miss"
        assert again["timing"]["cache"] == "hit"

        svc.request(SHARED_SESSION, "update",
                    {"graph": "G", "set": [[2, 3, 5.0]], "remove": []})
        after = svc.request("t0", *probe, timing=True)
        assert after["nvals"] == 2          # must observe the write
        assert after["timing"]["cache"] == "miss"   # old entry invalidated
        assert after["timing"]["shared_version"] > first["timing"][
            "shared_version"]


def test_late_insert_is_not_rekeyed_past_a_publish_it_missed():
    # a reader pinned at v5 inserts after v6 replaced H; v7 touches only G
    cache = ResultCache()
    entry = CacheEntry("query", {"nvals": 5}, shared_reads=frozenset({"H"}))
    cache.on_publish(6, {"H"})
    cache.insert(5, "k", entry)
    cache.on_publish(7, {"G"})
    assert cache.lookup(7, "k") is None
    assert cache.stats()["entries"] == 0


def test_editing_a_miss_reply_does_not_change_a_later_hit():
    payload = {
        "declare": [{"name": "v", "kind": "vector", "dtype": "FP64",
                     "shape": [4], "entries": [[1, 2.0]]}],
        "calls": [{"kind": "reduce_scalar", "out": None,
                   "args": {"a": "v", "monoid": "GrB_PLUS_MONOID_FP64"}}],
        "fetch": ["v"],
    }
    with Service(ServiceConfig(cache=True)) as svc:
        miss = svc.request(svc.open_session(), "program", payload, timing=True)
        assert miss["timing"]["cache"] == "miss"
        miss["fetched"]["v"]["values"][0] = 999.0
        miss["scalars"].append("junk")
        # the second sighting builds the entry from its reply: editing
        # that reply must not reach the entry either
        admitting = svc.request(svc.open_session(), "program", payload,
                                timing=True)
        assert admitting["timing"]["cache"] == "miss"
        admitting["fetched"]["v"]["values"][0] = 999.0
        admitting["scalars"].append("junk")
        hit = svc.request(svc.open_session(), "program", payload, timing=True)
        # a hit reply shares nothing with the entry either, on both the
        # synchronous and the future path
        hit["fetched"]["v"]["indices"].append(3)
        hit["fetched"]["v"]["values"][0] = -1.0
        hit["scalars"][0] = "junk"
        del hit["fetched"]["v"]["kind"]
        later = svc.submit(svc.open_session(), "program", payload,
                           timing=True).result(timeout=30)
    assert hit["timing"]["cache"] == "hit"
    assert later["timing"]["cache"] == "hit"
    assert later["fetched"]["v"] == {"kind": "vector", "shape": [4],
                                     "indices": [1], "values": [2.0]}
    assert later["scalars"] == [2.0]


def _two_hop(src: int, val: float) -> dict:
    """``t2 = G·(G·v)`` over the shared graph for a one-entry ``v``."""
    g = SHARED_PREFIX + "G"
    vec = {"kind": "vector", "dtype": "FP64", "shape": [_SHARED_N]}
    semiring = "GrB_PLUS_TIMES_SEMIRING_FP64"
    return {
        "declare": [{"name": "v", **vec, "entries": [[src, val]]},
                    {"name": "t", **vec}, {"name": "t2", **vec}],
        "calls": [
            {"kind": "mxv", "out": "t",
             "args": {"a": g, "u": "v", "semiring": semiring}},
            {"kind": "mxv", "out": "t2",
             "args": {"a": g, "u": "t", "semiring": semiring}},
        ],
        "fetch": ["t2"],
    }


def _shared_service() -> Service:
    svc = Service(ServiceConfig(workers=2, cache=True))
    svc.request(SHARED_SESSION, "define", shared_graph_payload(0))
    return svc


def test_never_repeating_reads_build_no_entries():
    with _shared_service() as svc:
        sess = svc.open_session()
        for k in range(300):
            r = svc.request(sess, "program",
                            _two_hop(k % _SHARED_N, 1.0 + k), timing=True)
            assert r["timing"]["cache"] == "miss"
        cache = svc.stats()["cache"]
    assert cache["misses"] == 300
    assert (cache["entries"], cache["bytes"], cache["inserts"]) == (0, 0, 0)


def test_repeated_text_is_inserted_on_its_second_sighting():
    payload = _two_hop(3, 1.5)
    with _shared_service() as svc:
        seen, fetched = [], []
        for _ in range(3):
            r = svc.request(svc.open_session(), "program", payload,
                            timing=True)
            cache = svc.stats()["cache"]
            seen.append((r["timing"]["cache"], cache["inserts"],
                         cache["entries"]))
            fetched.append(r["fetched"])
    assert seen == [("miss", 0, 0), ("miss", 1, 1), ("hit", 1, 1)]
    assert fetched[0] == fetched[1] == fetched[2]


@pytest.mark.parametrize(
    "same_fingerprint", [False, True], ids=["same_slot", "same_fingerprint"]
)
def test_slot_collision_moves_admission_never_the_result(
    monkeypatch, same_fingerprint
):
    """Two texts forced into one filter slot.  With different fingerprints,
    alternating sightings keep replacing each other's (admission is
    delayed); with equal ones, the second text is admitted on its first
    sighting.  Either way each request is served its own result."""
    texts = {"a": _two_hop(1, 2.0), "b": _two_hop(5, 3.0)}
    with Service(ServiceConfig(workers=2, cache=False)) as ref:
        ref.request(SHARED_SESSION, "define", shared_graph_payload(0))
        want = {
            k: ref.request(ref.open_session(), "program", p)["fetched"]
            for k, p in texts.items()
        }
    assert want["a"] != want["b"]

    fps: dict[str, int] = {}

    def fingerprint(digest: str) -> int:
        # slot 7 for both; the high bits tell them apart unless forced equal
        return 7 if same_fingerprint else fps.setdefault(
            digest, 7 + ((len(fps) + 1) << 16)
        )

    monkeypatch.setattr(memo_cache, "_fingerprint", fingerprint)
    if same_fingerprint:
        order, expect = "abaaabbbab", ["miss"] * 3 + ["hit"] * 7
    else:
        order = "ababaaabbbab"
        expect = ["miss"] * 6 + ["hit"] + ["miss"] * 2 + ["hit"] * 3
    statuses = []
    with _shared_service() as svc:
        for k in order:
            r = svc.request(svc.open_session(), "program", texts[k],
                            timing=True)
            assert r["fetched"] == want[k], (k, statuses)
            statuses.append(r["timing"]["cache"])
        assert svc.stats()["cache"]["inserts"] == 2
    assert statuses == expect
