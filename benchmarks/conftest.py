"""Shared benchmark workloads and reporting helpers.

Workloads are module-scoped so generation cost is paid once; every
benchmark prints the paper-style row(s) it regenerates, so running

    pytest benchmarks/ --benchmark-only -s

reproduces the content of each table/figure alongside the timings
(EXPERIMENTS.md records a captured run).  The gated benchmark is
``bench/run.py``; these regenerate the paper's tables and figures.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as grb
from repro import context
from repro.io import erdos_renyi, grid_2d, rmat
from repro.reference import RefMatrix, RefVector


@pytest.fixture(autouse=True)
def fresh_context():
    context._reset()
    yield
    context._reset()


@pytest.fixture(scope="session")
def rmat_graph():
    """The standard power-law workload: RMAT scale 10, ~8k vertices."""
    return rmat(10, 8, seed=42, domain=grb.INT32)


@pytest.fixture(scope="session")
def rmat_small():
    return rmat(8, 8, seed=42, domain=grb.INT32)


@pytest.fixture(scope="session")
def er_graph():
    return erdos_renyi(2000, 20000, seed=42, domain=grb.INT64)


@pytest.fixture(scope="session")
def er_pair():
    A = erdos_renyi(1000, 15000, seed=1, domain=grb.INT64)
    B = erdos_renyi(1000, 15000, seed=2, domain=grb.INT64)
    return A, B

@pytest.fixture(scope="session")
def grid_graph():
    return grid_2d(40, 40, domain=grb.FP64, weighted=True)


def ref_of(M: grb.Matrix) -> RefMatrix:
    return RefMatrix.from_grb(M)


def header(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def row(label: str, *cols) -> None:
    print(f"  {label:<38}" + "".join(f"{c!s:>16}" for c in cols))
