"""``python -m repro.obs.diag`` — diagnostics CLI.

Subcommands:

* ``explain <program.json> [--json]`` — run a recorded fuzz program (the
  :class:`repro.fuzz.program.Program` JSON schema) under the full planner
  and print its plan EXPLAIN;
* ``validate-dump <flight.json>`` — sanity-check a flight-recorder dump
  against the Chrome trace-event shape (used by the CI ``diag`` smoke leg).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import explain as _explain


def _cmd_explain(ns) -> int:
    from ...fuzz.program import Program

    with open(ns.program) as fh:
        program = Program.from_json(fh.read())
    record = _explain.explain_program(program)
    if ns.json:
        json.dump(record, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    else:
        print(_explain.render_text(record))
    return 0


def _cmd_validate_dump(ns) -> int:
    with open(ns.dump) as fh:
        doc = json.load(fh)
    errors: list[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        errors.append("traceEvents missing or empty")
        events = []
    last_ts = None
    complete = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event {i} is not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                errors.append(f"event {i} missing {key!r}")
        if ev.get("ph") == "X":
            complete += 1
            ts, dur = ev.get("ts"), ev.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"event {i} has bad ts {ts!r}")
                continue
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i} has bad dur {dur!r}")
            if last_ts is not None and ts < last_ts:
                errors.append(
                    f"event {i} breaks causal order (ts {ts} < {last_ts})"
                )
            last_ts = ts
    if not complete:
        errors.append("no complete ('X') events")
    if errors:
        for e in errors[:20]:
            print(f"INVALID: {e}", file=sys.stderr)
        return 1
    print(
        f"ok: {len(events)} events ({complete} spans), "
        f"reason={doc.get('otherData', {}).get('reason')}"
    )
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro.obs.diag")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("explain", help="EXPLAIN a recorded fuzz program")
    p.add_argument("program", help="path to a Program JSON file")
    p.add_argument("--json", action="store_true", help="emit the raw record")
    p.set_defaults(fn=_cmd_explain)
    p = sub.add_parser(
        "validate-dump", help="check a flight-recorder dump's schema"
    )
    p.add_argument("dump", help="path to a flight-*.json dump")
    p.set_defaults(fn=_cmd_validate_dump)
    ns = ap.parse_args(argv)
    return ns.fn(ns)


if __name__ == "__main__":
    raise SystemExit(main())
