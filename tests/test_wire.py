"""The TCP wire: raw frames for bytes and numeric arrays, hostile input,
and replies that are value- and type-identical on every path."""

import io
import json
import math
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

import repro as grb
from repro.service import BadRequest, Client, Service, TCPClient
from repro.service.client import (
    MAX_MESSAGE_BYTES,
    decode_line,
    read_message,
    wire_decode,
    wire_encode,
)
from repro.service.server import Server

PING = b'{"id":7,"kind":"ping"}\n'


@pytest.fixture
def server():
    srv = Server(port=0).start()
    errors = []
    # socketserver reports an exception that escaped a handler here
    srv._tcp.handle_error = lambda request, addr: errors.append(sys.exc_info())
    try:
        yield srv, errors
    finally:
        srv.close()


def _reply(sock) -> dict | None:
    """The one message the server answers with, or None on a clean close."""
    sock.settimeout(10)
    msg = read_message(sock.makefile("rb"))
    return None if msg is None else decode_line(*msg)


class TestCodec:
    def test_frameless_message_is_one_json_line(self):
        assert wire_encode({"id": 1, "ok": True}) == b'{"id":1,"ok":true}\n'

    def test_frames_round_trip(self):
        doc = {
            "blob": b"\x00#1\n\xff",
            "f4": np.array([1.5, -0.0, np.inf], dtype=np.float32),
            "u8": np.array([2**64 - 1, 2**63], dtype=np.uint64),
            "b": np.array([True, False]),
            "empty": np.array([], dtype=np.int64),
        }
        data = wire_encode(doc)
        assert data.startswith(b"#5,12,16,2,0\n")
        back = wire_decode(data)
        assert back["blob"] == b"\x00#1\n\xff"
        assert back["f4"] == [1.5, -0.0, math.inf]
        assert math.copysign(1.0, back["f4"][1]) == -1.0
        assert back["u8"] == [2**64 - 1, 2**63]
        assert back["b"] == [True, False] and type(back["b"][0]) is bool
        assert back["empty"] == []
        # an object array never becomes a frame: the executor sends UDT
        # values as JSON lists
        with pytest.raises(TypeError):
            wire_encode({"obj": np.array(["a", None], dtype=object)})

    def test_line_over_the_cap_is_refused(self):
        with pytest.raises(BadRequest, match="cap"):
            read_message(io.BytesIO(b'{"x":"' + b"a" * 100 + b'"}\n'), 64)
        with pytest.raises(BadRequest, match="cap"):
            read_message(io.BytesIO(b"#60\n" + b"a" * 60 + b"{}\n"), 64)


#: (raw bytes, the connection stays usable afterwards)
HOSTILE = {
    "header_non_numeric": (b"#abc\n", False),
    "header_negative": (b"#-5\n", False),
    "header_empty": (b"#\n", False),
    "header_over_cap": (f"#{MAX_MESSAGE_BYTES}\n".encode(), False),
    "header_huge": (b"#" + b"9" * 40 + b"\n", False),
    "frame_index_out_of_range": (
        b'#3\nabc{"id":1,"kind":"ping","payload":{"x":{"$frame":1}}}\n', True),
    "frame_index_not_int": (
        b'#3\nabc{"id":1,"kind":"ping","payload":{"x":{"$frame":"0"}}}\n', True),
    "frame_index_bool": (
        b'#3\nabc{"id":1,"kind":"ping","payload":{"x":{"$frame":true}}}\n', True),
    "frame_without_frames": (
        b'{"id":1,"kind":"ping","payload":{"x":{"$frame":0}}}\n', True),
    "dtype_object": (
        b'#8\n01234567{"id":1,"kind":"ping",'
        b'"payload":{"x":{"$frame":0,"dtype":"|O"}}}\n', True),
    "dtype_unicode": (
        b'#8\n01234567{"id":1,"kind":"ping",'
        b'"payload":{"x":{"$frame":0,"dtype":"<U2"}}}\n', True),
    "dtype_structured": (
        b'#8\n01234567{"id":1,"kind":"ping",'
        b'"payload":{"x":{"$frame":0,"dtype":"i4,i4"}}}\n', True),
    "dtype_garbage": (
        b'#8\n01234567{"id":1,"kind":"ping",'
        b'"payload":{"x":{"$frame":0,"dtype":"no such type"}}}\n', True),
    "dtype_not_a_string": (
        b'#8\n01234567{"id":1,"kind":"ping",'
        b'"payload":{"x":{"$frame":0,"dtype":8}}}\n', True),
    "frame_not_whole_items": (
        b'#3\nabc{"id":1,"kind":"ping",'
        b'"payload":{"x":{"$frame":0,"dtype":"<f8"}}}\n', True),
    "non_utf8_json_after_frames": (b"#3\nabc\xff\xfe{\"id\":1}\n", True),
}


class TestHostileFrames:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_typed_reply_or_clean_close(self, server, case):
        srv, errors = server
        data, usable = HOSTILE[case]
        host, port = srv.address
        with socket.create_connection((host, port)) as raw:
            raw.sendall(data)
            resp = _reply(raw)
            assert resp is not None and resp["ok"] is False
            assert resp["error"]["kind"] == "BadRequest"
            if usable:
                # complete frames keep the stream in step: serve on
                raw.sendall(PING)
                assert _reply(raw) == {"id": 7, "ok": True,
                                       "result": {"pong": True}}
            else:
                assert _reply(raw) is None  # closed after the one reply
        self._still_serving(srv, errors)

    def test_truncated_frame_then_disconnect(self, server):
        srv, errors = server
        with socket.create_connection(srv.address) as raw:
            raw.sendall(b"#100,5\n" + b"x" * 10)
            raw.shutdown(socket.SHUT_WR)
            assert _reply(raw) is None
        with socket.create_connection(srv.address) as raw:
            raw.sendall(b"#3\nabc")  # frames complete, JSON line missing
            raw.shutdown(socket.SHUT_WR)
            assert _reply(raw) is None
        self._still_serving(srv, errors)

    @staticmethod
    def _still_serving(srv, errors):
        cli = TCPClient(*srv.address)
        assert cli.ping() == {"pong": True}
        cli.close()
        assert errors == []  # no handler died on an exception
        # every connection is closed, so every handler thread must end
        deadline = time.monotonic() + 10
        while any("process_request" in t.name for t in threading.enumerate()):
            assert time.monotonic() < deadline, "a handler thread hangs"
            time.sleep(0.01)


# ---------------------------------------------------------------- identity

TYPES = ("BOOL", "INT8", "INT16", "INT32", "INT64", "UINT8", "UINT16",
         "UINT32", "UINT64", "FP32", "FP64")


def _values(dom) -> np.ndarray:
    dt = dom.np_dtype
    if dt.kind == "b":
        return np.array([True, False, True, True])
    if dt.kind == "f":
        return np.array([np.nan, np.inf, -np.inf, -0.0, 0.1], dtype=dt)
    info = np.iinfo(dt)
    extra = 2**63 if info.max > 2**63 else -1 if info.min else 1
    return np.array([info.min, info.max, 0, extra, 7], dtype=dt)


def _head_json(v):
    """A reply as the wire delivered it before frames: element by element
    into Python scalars, then through JSON text."""
    def walk(x):
        if isinstance(x, np.ndarray):
            return [walk(e) for e in x.tolist()]
        if isinstance(x, np.generic):
            return x.item()
        if isinstance(x, dict):
            return {str(k): walk(e) for k, e in x.items()}
        if isinstance(x, (list, tuple)):
            return [walk(e) for e in x]
        return x
    return json.loads(json.dumps(walk(v)))


def _same(a, b, path="reply"):
    assert type(a) is type(b), f"{path}: {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            _same(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _same(x, y, f"{path}[{i}]")
    elif isinstance(a, float):
        assert (math.isnan(a) and math.isnan(b)) or (
            struct.pack("<d", a) == struct.pack("<d", b)), f"{path}: {a!r} != {b!r}"
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def test_replies_are_identical_over_tcp_in_process_and_as_json():
    from repro.types.grb_type import lookup_type

    requests = []
    uploads = []
    for token in TYPES:
        dom = lookup_type(token)
        vals = _values(dom)
        n = len(vals)
        v = grb.Vector.from_coo(dom, 9, np.arange(0, 2 * n, 2), vals)
        m = grb.Matrix.from_coo(dom, 3, 4, [0, 1, 2, 0, 1][:n],
                                [0, 1, 2, 3, 3][:n], vals)
        uploads += [(f"v{token}", v), (f"m{token}", m)]
        monoid = ("GrB_LOR_MONOID_BOOL" if token == "BOOL"
                  else f"GrB_MAX_MONOID_{token}")
        requests += [
            ("program", {"calls": [
                {"kind": "reduce_scalar", "out": None,
                 "args": {"a": f"v{token}", "monoid": monoid}}],
                "fetch": [f"v{token}", f"m{token}"]}),
            ("query", {"name": f"v{token}", "what": "tuples"}),
            ("query", {"name": f"m{token}", "what": "tuples"}),
            ("query", {"name": f"v{token}", "what": "element", "index": 2}),
        ]
    graph = grb.Matrix.from_coo(
        lookup_type("FP64"), 5, 5, [0, 1, 2, 3, 0, 2], [1, 2, 3, 4, 2, 4],
        [1.0, 0.5, 2.0, 0.25, 3.0, 1.5])
    uploads.append(("g", graph))
    requests += [
        ("algorithm", {"algo": "bfs_levels", "graph": "g", "args": {"source": 0}}),
        ("algorithm", {"algo": "pagerank", "graph": "g", "args": {}}),
        ("algorithm", {"algo": "triangle_count", "graph": "g", "args": {}}),
        ("algorithm", {"algo": "sssp", "graph": "g", "args": {"source": 0}}),
    ]
    with Service(workers=2, cache=False) as svc:
        srv = Server(port=0, service=svc).start()
        try:
            tcp = TCPClient(*srv.address, session="wire")
            local = Client(svc, "wire")
            for name, obj in uploads:
                tcp.upload(name, obj)
            for kind, payload in requests:
                raw = svc._admit("wire", kind, payload).result(timeout=30)
                want = _head_json(raw)
                _same(tcp.call(kind, payload), want, f"tcp {kind}")
                _same(local.request(kind, payload), want, f"request {kind}")
                _same(svc.submit("wire", kind, payload).result(timeout=30),
                      want, f"submit {kind}")
            tcp.close(close_session=False)
        finally:
            srv.close()
