"""CLI driver: ``python -m repro.fuzz --seed 0 --n 500``.

Generates a corpus and runs every check family under every mode of the
chosen ``--axes`` product: the program differential (reference oracle
vs the optimized backend), the error model, and — when named as axes —
the cached service (``memo``) and streaming ingest (``streaming``).
Prints the spec-coverage table and exits nonzero if any divergence
survives.  Divergences are shrunk under the modes that found them and
frozen into ``tests/regressions/`` before the run fails, so a red CI job
always leaves a replayable witness behind.

Environment:

``REPRO_FUZZ_BUDGET``
    Overrides ``--n`` (and scales ``--errors``) — the CI smoke job runs
    with a small fixed budget, the nightly profile raises it.
"""

from __future__ import annotations

import argparse
import os
import runpy
import sys
import time

from .corpus import emit_regression, load_corpus, save_corpus
from .coverage import SpecCoverage
from .executor import (
    AXES,
    applied,
    check_error_conformance,
    check_memo_conformance,
    mode_named,
    modes,
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
    p.add_argument("--axes", default="", metavar="A,B,...|all",
                   help=f"differential axes to multiply in, from {', '.join(AXES)} "
                        "(default: blocking plus six planner ablations)")
    p.add_argument("--replay", metavar="PATH",
                   help="replay programs from a corpus .jsonl or an emitted "
                        "regression .py (under the modes it recorded) "
                        "instead of generating")
    p.add_argument("--save-corpus", metavar="PATH",
                   help="write the generated corpus as JSON lines")
    p.add_argument("--emit-dir", default="tests/regressions",
                   help="directory for shrunk regression tests")
    p.add_argument("--no-shrink", action="store_true",
                   help="report divergences without minimizing them")
    return p.parse_args(argv)


def _load_replay(path: str):
    """``(programs, recorded mode names)`` from a corpus or a witness."""
    if not path.endswith(".py"):
        return load_corpus(path), ()
    witness = runpy.run_path(path)
    return [Program.from_json(witness["PROGRAM_JSON"])], witness.get("MODES", ())


def _family(label: str, cases, check) -> int:
    """Run ``check(i, case)`` on every case; print each complaint, return
    how many there were."""
    t0 = time.perf_counter()
    failures = 0
    for i, case in enumerate(cases):
        complaint = check(i, case)
        if complaint is not None:
            print(f"[{label} {i}] DIVERGENCE: {complaint}")
            failures += 1
        if (i + 1) % 100 == 0:
            rate = (i + 1) / (time.perf_counter() - t0)
            print(f"... {label} {i + 1}/{len(cases)} ({rate:.1f}/s)")
    print(
        f"{label}: {len(cases)} case(s) in {time.perf_counter() - t0:.1f}s "
        f"— {failures} divergence(s)"
    )
    return failures


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    budget = os.environ.get("REPRO_FUZZ_BUDGET")
    if budget:
        args.n = int(budget)
    if args.errors is None:
        args.errors = max(args.n // 5, 1)

    axes = {a for a in args.axes.split(",") if a}
    axes = set(AXES) if "all" in axes else axes
    try:
        mode_list = modes(axes)
    except ValueError as exc:
        sys.exit(str(exc))
    if args.replay:
        programs, recorded = _load_replay(args.replay)
        mode_list = [mode_named(m) for m in recorded] or mode_list
        print(f"replaying {len(programs)} program(s) from {args.replay}")
    else:
        t0 = time.perf_counter()
        programs = list(generate_corpus(args.seed, args.n))
        print(
            f"generated {len(programs)} programs from seed {args.seed} "
            f"({time.perf_counter() - t0:.2f}s)"
        )
    print(f"modes ({len(mode_list)}): {', '.join(m.name for m in mode_list)}")
    if "threads" in axes and not any(m.threads > 1 for m in mode_list):
        print("threads axis skipped: one CPU, the thread count clamps to 1")
    if args.save_corpus:
        save_corpus(programs, args.save_corpus)
        print(f"corpus saved to {args.save_corpus}")

    coverage = SpecCoverage()

    def differential(i, program):
        coverage.record(program)
        report = run_differential(program, mode_list)
        if report is None or args.no_shrink:
            return None if report is None else str(report)
        # shrink and freeze under the modes that failed: only they are
        # sure to reproduce the divergence
        small = shrink_report(report)
        path = emit_regression(small, f"seed{args.seed}_case{i}", args.emit_dir)
        return (
            f"{small}\n  shrunk from {len(report.program.calls)} call(s); "
            f"regression written: {path}"
        )

    failures = _family("differential", programs, differential)
    if "memo" in axes:
        from ..service import Service, ServiceConfig

        # service sessions are nonblocking: memo runs under those modes,
        # through one cache-enabled service per mode
        for mode in [m for m in mode_list if m.nonblocking]:
            config = ServiceConfig(workers=2, backend=mode.backend,
                                   kernel_backend=mode.kernel_backend)
            with applied(mode), Service(config) as svc:
                failures += _family(
                    f"memo {mode.name}", programs,
                    lambda _, p: check_memo_conformance(p, svc),
                )
                # the warm path must really hit for the check to bite
                cache = svc.stats()["cache"]
                print(
                    f"  hit_rate={cache['hit_rate']:.2f} ({cache['hits']}h/"
                    f"{cache['misses']}m/{cache['bypasses']}b)"
                )
    if "streaming" in axes:
        from .streaming import check_streaming_conformance

        failures += _family(
            "streaming", [args.seed + i for i in range(args.n)],
            lambda _, seed: check_streaming_conformance(seed, mode_list),
        )
    if not args.replay and args.errors:

        def error_model(_, case):
            program, kind = case
            complaint = check_error_conformance(program, mode_list)
            return None if complaint is None else f"{kind}: {complaint}"

        failures += _family(
            "error-model",
            [generate_error_program(args.seed, i) for i in range(args.errors)],
            error_model,
        )

    print()
    print(coverage.table())
    # coverage gaps gate generated corpora only: a replayed witness is a
    # single program and cannot span the whole spec surface
    gaps = [] if args.replay else coverage.gaps()

    if failures or gaps:
        return 1
    print("\nOK: optimized backend conforms to the reference oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
