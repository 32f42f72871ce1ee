"""``python -m repro.service`` — run the JSON-lines TCP graph service.

Prints one ``READY host port`` line to stdout once the socket is
listening (CI and scripts wait on it), then serves until SIGINT/SIGTERM,
draining admitted work before exiting.
"""

from __future__ import annotations

import argparse
import signal
import sys

from .. import context
from .server import Server
from .service import ServiceConfig


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="JSON-lines TCP front-end for the multi-tenant graph service",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7411)
    p.add_argument("--workers", type=int, default=None,
                   help="worker pool size (default: repro.parallel thread count)")
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="per-session admission queue bound")
    p.add_argument("--max-batch", type=int, default=32,
                   help="max requests drained into one planner batch")
    p.add_argument("--no-batching", action="store_true",
                   help="wait per request instead of per batch")
    p.add_argument("--timeout", type=float, default=None,
                   help="default per-request deadline in seconds")
    p.add_argument("--slo-p99-ms", type=float, default=None,
                   help="rolling-window p99 latency target in milliseconds "
                        "(reported by stats/health/metrics)")
    p.add_argument("--backend", choices=("serial", "threads", "processes"),
                   default="threads",
                   help="drain execution backend")
    p.add_argument("--shard-workers", type=int, default=None,
                   help="shard pool size for the processes backend")
    p.add_argument("--diag-dir", default=None,
                   help="flight-recorder dump directory (default: "
                        "$REPRO_DIAG_DIR or the system tmpdir)")
    args = p.parse_args(argv)

    cfg = ServiceConfig(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        max_batch=args.max_batch,
        batching=not args.no_batching,
        default_timeout=args.timeout,
        slo_p99_ms=args.slo_p99_ms,
        backend=args.backend,
        shard_workers=args.shard_workers,
        diag_dir=args.diag_dir,
    )
    server = Server(args.host, args.port, config=cfg)
    host, port = server.address

    def _stop(signum, frame):  # noqa: ARG001
        # shutdown() joins the serve_forever loop, which is suspended while
        # this handler runs on the main thread — delegate to a helper
        import threading

        threading.Thread(target=server._tcp.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)

    print(f"READY {host} {port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server._tcp.server_close()
        server.service.shutdown(drain=True)
        context.finalize()
    print("DRAINED", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
