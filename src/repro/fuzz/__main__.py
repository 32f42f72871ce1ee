"""CLI driver: ``python -m repro.fuzz --seed 0 --n 500``.

Generates a corpus, runs every program differentially (reference oracle
vs optimized blocking vs nonblocking under planner-pass ablations),
fuzzes the error model for conformance, prints the spec-coverage table,
and exits nonzero if any divergence survives.  Divergences are shrunk
and frozen into ``tests/regressions/`` before the run fails, so a red
CI job always leaves a replayable witness behind.

Environment:

``REPRO_FUZZ_BUDGET``
    Overrides ``--n`` (and scales ``--errors``) — the CI smoke job runs
    with a small fixed budget, the nightly profile raises it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from pathlib import Path

from .corpus import emit_regression, load_corpus, save_corpus
from .coverage import SpecCoverage
from .executor import (
    PROCESSES,
    check_error_conformance,
    check_memo_conformance,
    codegen_modes,
    default_modes,
    exhaustive_modes,
    run_differential,
)
from .generator import generate_corpus, generate_error_program
from .program import Program
from .shrink import shrink_report


def _parse_args(argv):
    p = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="differential conformance fuzzer (optimized vs oracle)",
    )
    p.add_argument("--seed", type=int, default=0, help="corpus base seed")
    p.add_argument("--n", type=int, default=500,
                   help="number of programs (REPRO_FUZZ_BUDGET overrides)")
    p.add_argument("--errors", type=int, default=None,
                   help="error-model programs to fuzz (default: n // 5)")
    p.add_argument("--exhaustive", action="store_true",
                   help="all 16 planner-pass combinations (slower)")
    p.add_argument("--processes", action="store_true",
                   help="add the sharded multi-process backend, nonblocking "
                        "and blocking (2-worker pool)")
    p.add_argument("--codegen", action="store_true",
                   help="run every planner ablation again under the codegen "
                        "kernel backend (generated fused kernels must stay "
                        "bit-identical to the interpreter)")
    p.add_argument("--memo", action="store_true",
                   help="add the cached multi-tenant service to the "
                        "differential pair: every program runs cold and "
                        "warm through one cache-enabled Service and must "
                        "match the oracle bit-for-bit")
    p.add_argument("--streaming", action="store_true",
                   help="fuzz the streaming subsystem: random edge-delta "
                        "schedules through EdgeBuffer, the merged content "
                        "and pagerank/bfs/components on it diffed against "
                        "a scratch-built graph in both execution modes")
    p.add_argument("--replay", metavar="PATH",
                   help="replay programs from a corpus .jsonl or an emitted "
                        "regression .py instead of generating")
    p.add_argument("--save-corpus", metavar="PATH",
                   help="write the generated corpus as JSON lines")
    p.add_argument("--emit-dir", default="tests/regressions",
                   help="directory for shrunk regression tests")
    p.add_argument("--no-shrink", action="store_true",
                   help="report divergences without minimizing them")
    return p.parse_args(argv)


def _load_replay(path: str) -> list[Program]:
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".py"):
        m = re.search(r'PROGRAM_JSON = r"""\s*(\{.*\})\s*"""', text, re.S)
        if not m:
            sys.exit(f"no PROGRAM_JSON block found in {path}")
        return [Program.from_json(m.group(1))]
    return load_corpus(path)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    budget = os.environ.get("REPRO_FUZZ_BUDGET")
    if budget:
        args.n = int(budget)
    if args.errors is None:
        args.errors = max(args.n // 5, 1)

    modes = exhaustive_modes() if args.exhaustive else default_modes()
    if args.codegen:
        seen = {m.name for m in modes}
        modes = modes + [m for m in codegen_modes() if m.name not in seen]
    if args.processes:
        modes = modes + list(PROCESSES)
    print(f"modes: {', '.join(m.name for m in modes)}")

    if args.replay:
        programs = _load_replay(args.replay)
        print(f"replaying {len(programs)} program(s) from {args.replay}")
    else:
        t0 = time.perf_counter()
        programs = list(generate_corpus(args.seed, args.n))
        print(
            f"generated {len(programs)} programs from seed {args.seed} "
            f"({time.perf_counter() - t0:.2f}s)"
        )
    if args.save_corpus:
        save_corpus(programs, args.save_corpus)
        print(f"corpus saved to {args.save_corpus}")

    coverage = SpecCoverage()
    failures = []
    t0 = time.perf_counter()
    for i, program in enumerate(programs):
        coverage.record(program)
        report = run_differential(program, modes)
        if report is not None:
            print(f"[{i}] DIVERGENCE: {program!r}")
            if not args.no_shrink:
                report = shrink_report(report)
                print(f"    shrunk to {len(report.program.calls)} call(s)")
                path = emit_regression(
                    report, f"seed{args.seed}_case{i}", args.emit_dir
                )
                print(f"    regression written: {path}")
            print("    " + str(report).replace("\n", "\n    "))
            failures.append(report)
        if (i + 1) % 100 == 0:
            rate = (i + 1) / (time.perf_counter() - t0)
            print(f"... {i + 1}/{len(programs)} programs ({rate:.1f}/s)")
    elapsed = time.perf_counter() - t0
    print(
        f"differential: {len(programs)} programs x {len(modes)} modes in "
        f"{elapsed:.1f}s — {len(failures)} divergence(s)"
    )

    memo_failures = []
    if args.memo:
        from ..service import Service, ServiceConfig

        svc = Service(ServiceConfig(workers=2))
        try:
            t0 = time.perf_counter()
            for i, program in enumerate(programs):
                complaint = check_memo_conformance(program, svc)
                if complaint is not None:
                    print(f"[memo {i}] DIVERGENCE: {program!r}")
                    print(f"    {complaint}")
                    memo_failures.append((i, complaint))
            cache = svc.stats()["cache"]
            print(
                f"memo: {len(programs)} programs x (cold+warm) through the "
                f"cached service in {time.perf_counter() - t0:.1f}s — "
                f"{len(memo_failures)} divergence(s), "
                f"hit_rate={cache['hit_rate']:.2f} "
                f"({cache['hits']}h/{cache['misses']}m/{cache['bypasses']}b)"
            )
        finally:
            svc.shutdown()

    streaming_failures = []
    if args.streaming:
        from .streaming import check_streaming_conformance

        t0 = time.perf_counter()
        for i in range(args.n):
            complaint = check_streaming_conformance(args.seed + i)
            if complaint is not None:
                print(f"[streaming {i}] DIVERGENCE: seed={args.seed + i}")
                print(f"    {complaint}")
                streaming_failures.append((i, complaint))
        print(
            f"streaming: {args.n} delta schedules x 2 modes in "
            f"{time.perf_counter() - t0:.1f}s — "
            f"{len(streaming_failures)} divergence(s)"
        )

    error_failures = []
    if not args.replay and args.errors:
        for i in range(args.errors):
            program, kind = generate_error_program(args.seed, i)
            complaint = check_error_conformance(program)
            if complaint is not None:
                print(f"[error-fuzz {i}/{kind}] {complaint}")
                error_failures.append((kind, complaint))
        print(
            f"error-model: {args.errors} programs — "
            f"{len(error_failures)} conformance failure(s)"
        )

    print()
    print(coverage.table())
    # coverage gaps gate generated corpora only: a replayed witness is a
    # single program and cannot span the whole spec surface
    gaps = [] if args.replay else coverage.gaps()

    if failures or memo_failures or streaming_failures or error_failures or gaps:
        return 1
    print("\nOK: optimized backend conforms to the reference oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
