"""Multi-tenant graph service on top of the GraphBLAS reproduction.

The service promotes the paper's *sequence* — the unit of deferred,
reorderable execution in nonblocking mode — to a serving primitive: each
tenant session owns an isolated nonblocking :class:`repro.context.Context`
plus a store of named graphs, and the worker pool drains each session's
bounded admission queue through the planner as one batch, so fusion / CSE /
parallel scheduling apply *across* independently submitted requests.

Entry points
============

* :class:`Service` / :class:`ServiceConfig` — the in-process service;
* :class:`Client` — direct in-process client bound to one session;
* :class:`TCPClient` — JSON-lines client for the TCP front-end;
* ``python -m repro.service`` — threaded JSON-lines TCP server;
* ``python -m repro.service.loadgen`` — deterministic load generator with
  serial-replay divergence checking.
"""

from __future__ import annotations

from .client import Client, TCPClient
from .errors import (
    BadRequest,
    DeadlineExceeded,
    ObjectNotFound,
    QueueFull,
    ServiceClosed,
    ServiceError,
    SessionNotFound,
)
from .memo import CacheDecision, ResultCache, analyze_request
from .request import ADMIN_KINDS, DATA_KINDS, Request
from .service import Service, ServiceConfig
from .session import SHARED_PREFIX, SHARED_SESSION, Session
from .snapshot import GraphVersion, SnapshotStore

__all__ = [
    "Service",
    "ServiceConfig",
    "Client",
    "TCPClient",
    "Session",
    "Request",
    "GraphVersion",
    "SnapshotStore",
    "ResultCache",
    "CacheDecision",
    "analyze_request",
    "ServiceError",
    "QueueFull",
    "DeadlineExceeded",
    "SessionNotFound",
    "ObjectNotFound",
    "BadRequest",
    "ServiceClosed",
    "DATA_KINDS",
    "ADMIN_KINDS",
    "SHARED_SESSION",
    "SHARED_PREFIX",
]
