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
    _op_update,
    _shared_read_pool,
    shared_graph_payload,
)

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
            kind, payload = _op_update(rng, "G", _SHARED_N)
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
        again = svc.request("t1", *probe, timing=True)
        assert first["nvals"] == 1
        assert first["timing"]["cache"] == "miss"
        assert again["timing"]["cache"] == "hit"

        svc.request(SHARED_SESSION, "update",
                    {"graph": "G", "set": [[2, 3, 5.0]], "remove": []})
        after = svc.request("t0", *probe, timing=True)
        assert after["nvals"] == 2          # must observe the write
        assert after["timing"]["cache"] == "miss"   # old entry invalidated
        assert after["timing"]["shared_version"] > first["timing"][
            "shared_version"]
