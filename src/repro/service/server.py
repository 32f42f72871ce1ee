"""Threaded TCP front-end for the in-process service.

One message per request and per response, in the wire format of
:mod:`repro.service.client`: a JSON object on one line, preceded by a
``#<len>,<len>,...`` header and raw frames when it carries ``bytes`` or
numeric arrays (``{"$frame": i}`` / ``{"$frame": i, "dtype": ...}``
placeholders in the JSON stand for them).  Requests carry ``id``,
``kind``, ``session``, optional ``timeout``, ``trace`` (a client-minted
``{"trace_id", "request_id"}`` identity), ``timing`` (opt into the
latency decomposition) and a kind-specific ``payload`` object; responses
echo the ``id`` with either ``{"ok": true, "result": {...}}`` or
``{"ok": false, "error": {"kind": ..., "message": ..., "info": ...}}``.
A reply's fetched index and value arrays leave the executor as numpy
arrays and cross the socket as frames, never as per-element Python
objects; a reply without them is one plain JSON line, as is every reply
to a frame-less ``ping`` or admin request.

A message is capped at :data:`~repro.service.client.MAX_MESSAGE_BYTES`.
Broken framing — a bad header, a header over the cap, a line over the
cap — gets a ``BadRequest`` reply and the connection closed, since the
stream is out of step; a bad placeholder, dtype or JSON line after
complete frames gets a ``BadRequest`` reply and the connection serves
on; a peer leaving mid-frame is a clean close.

Four bare plaintext commands escape the JSON protocol for probes and
scrapers: a line reading exactly ``metrics`` answers with Prometheus
text exposition, ``health`` with a one-line JSON health document,
``dump`` forces a flight-recorder dump and answers with its path, and
``explain`` renders the most recent EXPLAIN-collected batch as text;
all close the connection after answering, so
``printf 'metrics\\n' | nc HOST PORT`` just works.

Each connection gets a handler thread; requests on one connection are
served in order (the admission pipeline still batches across them when
they target the same session).  The server owns its :class:`Service` only
when it created it — an externally supplied service is left running on
``close()``.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

from ..obs.export import prometheus_text
from ..obs.tracing import TraceContext
from .client import decode_line, read_message, wire_encode
from .errors import BadRequest, ServiceError, SessionNotFound
from .request import ADMIN_KINDS, DATA_KINDS
from .service import Service, ServiceConfig

__all__ = ["Server", "serve"]

#: bare (non-JSON) one-shot commands: answer in plaintext, close the socket
PLAIN_COMMANDS = frozenset((b"metrics", b"health", b"dump", b"explain"))


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: "Server" = self.server.owner  # type: ignore[attr-defined]
        while True:
            try:
                msg = read_message(self.rfile)
            except BadRequest as exc:
                # the framing is lost: answer once, then close the stream
                self._send(_error_reply(None, exc))
                return
            except (ConnectionError, OSError):
                return
            if msg is None:
                return
            line, frames = msg
            if not frames:
                stripped = line.strip()
                if not stripped:
                    continue
                if stripped in PLAIN_COMMANDS:
                    try:
                        self.wfile.write(
                            server.handle_plain(stripped.decode()).encode()
                        )
                    except (ConnectionError, OSError):
                        pass
                    return  # one-shot: close so `nc`-style probes terminate
            if not self._send(server.handle_line(line, frames)):
                return

    def _send(self, resp: dict) -> bool:
        try:
            self.wfile.write(wire_encode(resp))
        except (ConnectionError, OSError):
            return False
        return True


def _error_reply(rid, exc: Exception) -> dict:
    info = getattr(exc, "info", None)
    return {
        "id": rid,
        "ok": False,
        "error": {
            "kind": type(exc).__name__,
            "message": str(exc),
            "info": getattr(info, "name", None),
        },
    }


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class Server:
    """Wire-protocol TCP server wrapping one :class:`Service`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7411,
        service: Service | None = None,
        config: ServiceConfig | None = None,
    ):
        self._owns_service = service is None
        self.service = service or Service(config)
        self._tcp = _TCPServer((host, port), _Handler, bind_and_activate=True)
        self._tcp.owner = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address[:2]

    # -------------------------------------------------------------- protocol
    def handle_line(self, line: bytes, frames: list = ()) -> dict:
        """Dispatch one request (its JSON line and frames); always returns
        a response dict, whose fetched contents are still numpy arrays."""
        rid = None
        try:
            doc = decode_line(line, frames)
            rid = doc.get("id")
            kind = doc.get("kind")
            session = doc.get("session")
            payload = doc.get("payload") or {}
            if not isinstance(payload, dict):
                raise BadRequest("'payload' must be a JSON object")
            if kind in ADMIN_KINDS:
                result = self._admin(kind, session, payload)
            elif kind in DATA_KINDS:
                if not session:
                    raise BadRequest("data requests need a 'session' field")
                # the raw reply: its arrays go out as frames, untouched
                result = self.service._admit(
                    session, kind, payload, timeout=doc.get("timeout"),
                    trace=TraceContext.from_wire(doc.get("trace")),
                    timing=bool(doc.get("timing")),
                    explain=bool(doc.get("explain")),
                ).result(timeout=60.0)
            else:
                raise BadRequest(f"unknown request kind {kind!r}")
            return {"id": rid, "ok": True, "result": result}
        except Exception as exc:  # every failure becomes a typed wire error
            return _error_reply(rid, exc)

    def _admin(self, kind: str, session: str | None, payload: dict) -> dict:
        svc = self.service
        if kind == "open_session":
            return {"session": svc.open_session(payload.get("session") or session)}
        if kind == "close_session":
            name = payload.get("session") or session
            if not name:
                raise SessionNotFound("close_session needs a session name")
            svc.close_session(name)
            return {"closed": name}
        if kind == "metrics":
            return svc.metrics_snapshot()
        if kind == "stats":
            return svc.stats()
        if kind == "health":
            return svc.health()
        if kind == "validate":
            return {"objects_checked": svc.validate_all()}
        if kind == "ping":
            return {"pong": True}
        if kind == "dump":
            return self._dump(payload.get("reason") or "wire")
        if kind == "explain":
            if svc.last_explain is None:
                raise BadRequest(
                    "no EXPLAIN record yet — submit a request with "
                    "'explain': true first"
                )
            return svc.last_explain
        raise BadRequest(f"unhandled admin kind {kind!r}")  # pragma: no cover

    def _dump(self, reason: str) -> dict:
        from ..obs import diag

        path = diag.trigger_dump(reason, force=True)
        if path is None:
            raise ServiceError("flight recorder not installed")
        return {"dump": path}

    def handle_plain(self, cmd: str) -> str:
        """Answer a bare plaintext probe line: ``metrics`` as Prometheus
        text, a collected ``explain`` record rendered, and any other admin
        command as its JSON reply on one line."""
        if cmd == "metrics":
            h = self.service.health()
            gauges = {
                "service.up": 1,
                "service.queue_depth": h["queue_depth"],
                "service.sessions_open": h["sessions"],
                "service.workers": h["workers"],
                "service.uptime_seconds": h["uptime_s"],
            }
            snap = self.service.snapshots.stats()
            gauges["service.snapshot_version"] = snap["version"]
            gauges["service.snapshot_live_versions"] = snap["live_versions"]
            gauges["service.snapshot_pinned"] = snap["pinned"]
            if self.service.memo is not None:
                cache = self.service.memo.stats()
                gauges["service.cache_entries"] = cache["entries"]
                gauges["service.cache_bytes"] = cache["bytes"]
                gauges["service.cache_hit_rate"] = cache["hit_rate"]
            return prometheus_text(self.service.metrics_snapshot(),
                                   gauges=gauges)
        if cmd == "explain" and self.service.last_explain is not None:
            from ..obs.diag.explain import render_text

            return render_text(self.service.last_explain)
        try:
            return json.dumps(self._admin(cmd, None, {})) + "\n"
        except ServiceError as exc:
            return json.dumps({"error": str(exc)}) + "\n"

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "Server":
        """Serve in a background thread; returns self once listening."""
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, name="svc-tcp", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._tcp.serve_forever()

    def close(self, *, drain: bool = True) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self._owns_service:
            self.service.shutdown(drain=drain)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 7411,
    config: ServiceConfig | None = None,
) -> Server:
    """Start a background server; convenience for tests and notebooks."""
    return Server(host, port, config=config).start()
