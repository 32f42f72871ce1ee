"""Client front-ends: the in-process :class:`Client` and the TCP
:class:`TCPClient`, plus the wire codec both ends of a TCP connection use.

Both clients speak the same request model (:mod:`repro.service.request`)
and return the same replies — plain dicts whose fetched contents are lists
of Python scalars — so code written against one works against the other.
Clients are synchronous by default — each call waits for its future /
response — with ``submit`` exposed for pipelined use.

The wire.  A message without binary content is one JSON object on one
line, so ``nc`` and hand-written clients need nothing else.  A message
that carries ``bytes`` values or numeric arrays sends them as raw
length-prefixed *frames* ahead of its JSON line::

    #<len>,<len>,...\n<frame 0><frame 1>...{"json": ...}\n

In the JSON line each frame appears as a placeholder: ``{"$frame": i,
"dtype": "<f8"}`` for a one-dimensional array of a numeric numpy dtype
(bool, signed or unsigned int, float) and a bare ``{"$frame": i}`` for
bytes.  The decoder turns an array frame back into a list of Python
scalars with ``np.frombuffer(frame, dtype).tolist()`` — the very values
and types ``json`` would have produced from the list — and a bytes frame
into ``bytes``; arrays of any other dtype travel as JSON lists.  A whole
message, header, frames and JSON line together, may not exceed
:data:`MAX_MESSAGE_BYTES`; a peer that breaks the framing gets a
:class:`BadRequest` and the connection is closed.
"""

from __future__ import annotations

import io
import json
import socket
from concurrent.futures import Future
from typing import Any, Iterable

import numpy as np

from ..io.serialize import serialize
from ..obs.tracing import TraceContext
from . import errors as _errors
from .errors import BadRequest, ServiceError

__all__ = [
    "Client", "TCPClient", "wire_encode", "wire_decode", "read_message",
    "decode_line", "error_from_wire", "MAX_MESSAGE_BYTES",
]

#: the largest message either end reads — header, frames and JSON line
#: together; a longer one is refused before its frames are buffered
MAX_MESSAGE_BYTES = 256 << 20

#: numpy dtype kinds an array frame may carry: bool, int, uint, float
NUMERIC_KINDS = "biuf"

#: frames are read in chunks of at most this size, so a header that
#: announces a large frame costs memory only as its bytes arrive
_CHUNK = 1 << 20


def wire_encode(obj: dict) -> bytes:
    """Encode a request/response dict as one wire message.

    ``bytes`` values and one-dimensional numeric arrays become frames;
    without any, the message is a single JSON line."""
    frames: list = []

    def placeholder(v):
        if isinstance(v, (bytes, bytearray)):
            frames.append(v)
            return {"$frame": len(frames) - 1}
        if (isinstance(v, np.ndarray) and v.ndim == 1
                and v.dtype.kind in NUMERIC_KINDS):
            frames.append(np.ascontiguousarray(v))
            return {"$frame": len(frames) - 1, "dtype": v.dtype.str}
        raise TypeError(f"{type(v).__name__} cannot travel on the wire")

    line = json.dumps(obj, separators=(",", ":"), default=placeholder)
    if not frames:
        return line.encode() + b"\n"
    sizes = ",".join(str(memoryview(f).nbytes) for f in frames)
    return b"".join([f"#{sizes}\n".encode(), *frames, line.encode(), b"\n"])


def _read_exact(rfile, n: int) -> bytes:
    chunks = []
    while n > 0:
        chunk = rfile.read(min(n, _CHUNK))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _line(rfile, budget: int, limit: int) -> bytes:
    line = rfile.readline(budget)
    if len(line) >= budget and not line.endswith(b"\n"):
        raise BadRequest(f"wire message exceeds the {limit}-byte cap")
    return line


def read_message(rfile, limit: int = MAX_MESSAGE_BYTES):
    """Read one wire message from a binary file object.

    Returns ``(json_line, frames)``, or None at a clean end of stream.
    Raises :class:`BadRequest` when the framing is broken — the stream is
    then out of step and the caller must close it — and
    :class:`ConnectionError` when the peer leaves mid-message.
    """
    line = _line(rfile, limit, limit)
    if not line.startswith(b"#"):
        return (line, []) if line else None
    sizes = []
    for field in line[1:].rstrip(b"\r\n").split(b","):
        # isdigit() refuses signs, blanks and non-ASCII digits; twelve
        # digits already exceed any cap
        if not field.isdigit() or len(field) > 12:
            raise BadRequest(f"bad frame length {field[:32]!r} in wire header")
        sizes.append(int(field))
    budget = limit - len(line) - sum(sizes)
    if budget <= 0:
        raise BadRequest(f"wire message exceeds the {limit}-byte cap")
    frames = [_read_exact(rfile, n) for n in sizes]
    line = _line(rfile, budget, limit)
    if not line:
        raise ConnectionError("peer closed the connection before the JSON line")
    return line, frames


def decode_line(line: bytes, frames: list = ()) -> dict:
    """Decode a message's JSON line, resolving frame placeholders."""

    def resolve(d: dict):
        if "$frame" not in d:
            return d
        i, dtype = d["$frame"], d.get("dtype")
        if (type(i) is not int or not 0 <= i < len(frames)
                or not d.keys() <= {"$frame", "dtype"}):
            raise BadRequest(f"bad frame placeholder {d!r}")
        if dtype is None:
            return frames[i]
        try:
            dt = np.dtype(dtype) if isinstance(dtype, str) else None
        except (TypeError, ValueError):
            dt = None
        if dt is None or dt.kind not in NUMERIC_KINDS:
            raise BadRequest(f"frame {i} has non-numeric dtype {dtype!r}")
        if len(frames[i]) % dt.itemsize:
            raise BadRequest(
                f"frame {i} is {len(frames[i])} bytes, not a whole number "
                f"of {dt.str} items"
            )
        return np.frombuffer(frames[i], dt).tolist()

    try:
        doc = json.loads(line.decode(), object_hook=resolve)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise BadRequest(f"malformed wire line: {exc}") from None
    if not isinstance(doc, dict):
        raise BadRequest("wire line must be a JSON object")
    return doc


def wire_decode(data: bytes) -> dict:
    """Decode one whole wire message held in *data*."""
    try:
        msg = read_message(io.BytesIO(data), len(data) + 1)
    except ConnectionError as exc:
        raise BadRequest(f"truncated wire message: {exc}") from None
    if msg is None:
        raise BadRequest("empty wire message")
    return decode_line(*msg)


def error_from_wire(err: dict) -> ServiceError:
    """Rebuild a typed exception from a wire error descriptor."""
    cls = getattr(_errors, err.get("kind", ""), None)
    if cls is None or not (isinstance(cls, type) and issubclass(cls, Exception)):
        cls = ServiceError
    return cls(err.get("message", "remote error"))


class Client:
    """Direct in-process client bound to one session of a Service."""

    def __init__(self, service, session: str | None = None):
        self._service = service
        self.session = service.open_session(session)

    # ------------------------------------------------------------- plumbing
    def submit(self, kind: str, payload: dict | None = None, **kw) -> Future:
        # mint the trace here — the outermost edge — so everything one
        # client call causes shares a trace_id
        kw.setdefault("trace", TraceContext.mint())
        return self._service.submit(self.session, kind, payload, **kw)

    def request(self, kind: str, payload: dict | None = None, **kw) -> dict:
        kw.setdefault("trace", TraceContext.mint())
        return self._service.request(self.session, kind, payload, **kw)

    # ------------------------------------------------------------- surface
    def define(
        self, name: str, kind: str, dtype: str, shape: Iterable[int],
        entries: Iterable = (),
    ) -> dict:
        return self.request("define", {
            "name": name, "kind": kind, "dtype": dtype,
            "shape": list(shape), "entries": [list(e) for e in entries],
        })

    def upload(self, name: str, obj: Any = None, *, blob: bytes | None = None) -> dict:
        if (obj is None) == (blob is None):
            raise BadRequest("upload takes exactly one of obj= or blob=")
        return self.request("upload", {
            "name": name, "blob": blob if blob is not None else serialize(obj),
        })

    def download(self, name: str):
        """Fetch a named object back as a live Matrix/Vector/Scalar."""
        from ..io.serialize import deserialize

        return deserialize(self.request("download", {"name": name})["blob"])

    def download_blob(self, name: str) -> bytes:
        return self.request("download", {"name": name})["blob"]

    def program(
        self, calls: Iterable, *, declare: Iterable = (), fetch: Iterable[str] = (),
        **kw,
    ) -> dict:
        calls = [c.to_dict() if hasattr(c, "to_dict") else dict(c) for c in calls]
        declare = [d.to_dict() if hasattr(d, "to_dict") else dict(d) for d in declare]
        return self.request("program", {
            "calls": calls, "declare": declare, "fetch": list(fetch),
        }, **kw)

    def algorithm(
        self, algo: str, graph: str, *, store_as: str | None = None, **args
    ) -> dict:
        payload: dict = {"algo": algo, "graph": graph, "args": args}
        if store_as:
            payload["store_as"] = store_as
        return self.request("algorithm", payload)

    def update(self, graph: str, *, set: Iterable = (), remove: Iterable = ()) -> dict:
        return self.request("update", {
            "graph": graph,
            "set": [list(e) for e in set],
            "remove": [list(e) if isinstance(e, (list, tuple)) else [e]
                       for e in remove],
        })

    def query(self, name: str, what: str = "nvals", **kw) -> dict:
        return self.request("query", {"name": name, "what": what, **kw})

    def free(self, name: str) -> dict:
        return self.request("free", {"name": name})

    def stats(self) -> dict:
        return self._service.stats()

    def metrics(self) -> dict:
        return self._service.metrics_snapshot()

    def health(self) -> dict:
        return self._service.health()

    def ping(self) -> dict:
        return {"pong": True}

    def close(self) -> None:
        self._service.close_session(self.session)


class TCPClient:
    """Synchronous wire-protocol client for ``python -m repro.service``.

    Speaks the identical surface as :class:`Client`; one request is in
    flight at a time per connection, so responses arrive in order.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7411,
        session: str | None = None, timeout: float = 60.0,
    ):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._ids = 0
        self.session = self.call("open_session", {"session": session})["session"]

    def call(
        self, kind: str, payload: dict | None = None, *,
        timeout: float | None = None,
        trace: TraceContext | None = None,
        timing: bool = False,
        explain: bool = False,
    ) -> dict:
        """Send one request and wait for its response (raises typed errors).

        A :class:`TraceContext` is minted per call (or supplied) and rides
        the wire, so server-side spans and drain accounting attribute back
        to this client call; *timing* asks the server to include the
        request's latency decomposition in the result; *explain* asks for
        the drain-time planner's EXPLAIN record under ``result["explain"]``.
        """
        self._ids += 1
        doc = {
            "id": self._ids,
            "kind": kind,
            "session": getattr(self, "session", None),
            "payload": payload or {},
            "trace": (trace or TraceContext.mint()).to_wire(),
        }
        if timing:
            doc["timing"] = True
        if explain:
            doc["explain"] = True
        if timeout is not None:
            doc["timeout"] = timeout
        self._sock.sendall(wire_encode(doc))
        while True:
            try:
                msg = read_message(self._rfile)
            except ConnectionError:
                msg = None
            if msg is None:
                raise ServiceError("server closed the connection")
            resp = decode_line(*msg)
            if resp.get("id") != self._ids:
                continue  # stale response from an abandoned pipeline
            if resp.get("ok"):
                return resp.get("result", {})
            raise error_from_wire(resp.get("error", {}))

    # ----- the same convenience surface as the direct client --------------
    def define(self, name, kind, dtype, shape, entries=()):
        return self.call("define", {
            "name": name, "kind": kind, "dtype": dtype,
            "shape": list(shape), "entries": [list(e) for e in entries],
        })

    def upload(self, name, obj=None, *, blob: bytes | None = None):
        if (obj is None) == (blob is None):
            raise BadRequest("upload takes exactly one of obj= or blob=")
        return self.call("upload", {
            "name": name, "blob": blob if blob is not None else serialize(obj),
        })

    def download(self, name):
        from ..io.serialize import deserialize

        return deserialize(self.call("download", {"name": name})["blob"])

    def program(self, calls, *, declare=(), fetch=(), **kw):
        calls = [c.to_dict() if hasattr(c, "to_dict") else dict(c) for c in calls]
        declare = [d.to_dict() if hasattr(d, "to_dict") else dict(d) for d in declare]
        return self.call("program", {
            "calls": calls, "declare": declare, "fetch": list(fetch),
        }, **kw)

    def algorithm(self, algo, graph, *, store_as=None, **args):
        payload = {"algo": algo, "graph": graph, "args": args}
        if store_as:
            payload["store_as"] = store_as
        return self.call("algorithm", payload)

    def update(self, graph, *, set=(), remove=()):
        return self.call("update", {
            "graph": graph,
            "set": [list(e) for e in set],
            "remove": [list(e) if isinstance(e, (list, tuple)) else [e]
                       for e in remove],
        })

    def query(self, name, what="nvals", **kw):
        return self.call("query", {"name": name, "what": what, **kw})

    def free(self, name):
        return self.call("free", {"name": name})

    def metrics(self) -> dict:
        return self.call("metrics")

    def stats(self) -> dict:
        return self.call("stats")

    def health(self) -> dict:
        return self.call("health")

    def ping(self) -> dict:
        return self.call("ping")

    def close(self, *, close_session: bool = True) -> None:
        try:
            if close_session:
                self.call("close_session", {"session": self.session})
        finally:
            try:
                self._rfile.close()
            finally:
                self._sock.close()
