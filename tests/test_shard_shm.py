"""Shared-memory lifecycle: refcounted leases, teardown, and leak-proofing.

The contract under test is the one the sharded backend's crash story
rests on: every segment is registry-tracked from birth, ``/dev/shm``
holds nothing once :func:`repro.parallel.shutdown_pools` runs — after a
clean drain, after a worker SIGKILL mid-level, and at plain interpreter
exit via the atexit hook.
"""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro as grb
from repro import context, parallel
from repro.info import Panic
from repro.shard.shm import NAME_PREFIX, registry

from tests.conftest import random_matrix

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a POSIX /dev/shm"
)

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _shm_path(name: str) -> str:
    return f"/dev/shm/{name}"


def _leaked() -> list[str]:
    return glob.glob(_shm_path(f"{NAME_PREFIX}*"))


def _enable_processes() -> None:
    parallel.set_backend("processes")
    parallel.set_parallel_threshold(0)
    parallel.set_shard_workers(2)


def test_registry_lease_release_discard():
    seg = registry.create(1024)
    name = seg.name
    assert name.startswith(NAME_PREFIX)
    assert name in registry.live_names()
    assert os.path.exists(_shm_path(name))

    registry.lease(name)            # two leases out (create + this)
    registry.discard(name)          # doomed, but still leased
    assert os.path.exists(_shm_path(name))
    registry.release(name)          # one lease left
    assert os.path.exists(_shm_path(name))
    registry.release(name)          # last lease drops -> unlink
    assert not os.path.exists(_shm_path(name))
    assert name not in registry.live_names()


def test_discard_without_leases_unlinks_now():
    seg = registry.create(256)
    registry.release(seg.name)      # drop the create lease; not yet doomed
    assert os.path.exists(_shm_path(seg.name))
    registry.discard(seg.name)
    assert not os.path.exists(_shm_path(seg.name))


def test_unlink_all_ignores_refcounts():
    names = [registry.create(64).name for _ in range(3)]
    for name in names:
        registry.lease(name)
    registry.unlink_all()
    for name in names:
        assert not os.path.exists(_shm_path(name))
    assert registry.live_names() == []


def test_lease_unknown_name_raises():
    with pytest.raises(KeyError):
        registry.lease(f"{NAME_PREFIX}nonexistent")


def test_no_dev_shm_leak_after_drain_and_teardown(rng):
    grb.init(grb.Mode.NONBLOCKING)
    _enable_processes()
    A = random_matrix(rng, 32, 32, 0.3)
    B = random_matrix(rng, 32, 32, 0.3)
    C = grb.Matrix(grb.INT64, 32, 32)
    grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, B)
    grb.wait()
    assert C.nvals() > 0
    # the publication cache holds live segments between drains
    assert registry.stats()["live"] > 0
    parallel.shutdown_pools()
    assert registry.stats()["live"] == 0
    assert _leaked() == []


def test_no_dev_shm_leak_after_worker_crash(rng):
    from repro.shard.pool import get_pool

    grb.init(grb.Mode.NONBLOCKING)
    _enable_processes()
    A = random_matrix(rng, 32, 32, 0.3)
    B = random_matrix(rng, 32, 32, 0.3)
    C = grb.Matrix(grb.INT64, 32, 32)
    grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, B)
    grb.wait()                       # healthy drain first

    pool = get_pool()
    os.kill(pool.pids[0], signal.SIGKILL)
    time.sleep(0.2)

    D = grb.Matrix(grb.INT64, 32, 32)
    grb.mxm(D, None, None, grb.PLUS_TIMES[grb.INT64], A, B)
    with pytest.raises(Panic):
        grb.wait()                   # aborted drain: pool died mid-level
    assert pool.dead

    parallel.shutdown_pools()
    assert registry.stats()["live"] == 0
    assert _leaked() == []


def test_atexit_unlinks_segments_of_exiting_process(tmp_path):
    """A process that creates segments and just exits leaks nothing:
    ``shutdown_pools`` is registered with atexit on repro.parallel import."""
    script = tmp_path / "shm_exit.py"
    script.write_text(
        "import sys\n"
        f"sys.path.insert(0, {_SRC!r})\n"
        "import repro.parallel  # registers the atexit teardown\n"
        "from repro.shard.shm import registry\n"
        "seg = registry.create(4096)\n"
        "print(seg.name, flush=True)\n"
    )
    out = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=60, check=True,
    )
    name = out.stdout.strip().splitlines()[-1]
    assert name.startswith("rshard")
    assert not os.path.exists(_shm_path(name))
