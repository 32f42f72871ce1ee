"""Differential conformance fuzzer (paper Tables II–VI as an executable
contract).

Random GraphBLAS programs are generated over the full method surface —
every operation, mask kind, accumulator, descriptor bit, built-in domain
and the power-set UDT — and each program is run against the spec-literal
reference oracle (:mod:`repro.reference`) and the optimized backend in
every mode of a product of execution axes (blocking or nonblocking under
planner-pass ablations, threads, the process backend, codegen).  Any
disagreement is shrunk, under the modes where it showed, to a minimal
witness and frozen as a pytest regression.  See ``docs/fuzzing.md`` for
the quickstart and ``python -m repro.fuzz --help`` for the CLI.
"""

from .coverage import SpecCoverage, measure_corpus
from .executor import (
    DivergenceReport,
    ExecMode,
    check_error_conformance,
    modes,
    run_differential,
    run_optimized,
    run_reference,
)
from .generator import (
    ERROR_KINDS,
    GenConfig,
    generate_corpus,
    generate_error_program,
    generate_program,
)
from .program import CANONICAL_OPS, Call, Decl, Program
from .shrink import shrink, shrink_report
from .corpus import emit_regression, load_corpus, save_corpus

__all__ = [
    "CANONICAL_OPS",
    "Call",
    "Decl",
    "Program",
    "GenConfig",
    "generate_program",
    "generate_corpus",
    "generate_error_program",
    "ERROR_KINDS",
    "ExecMode",
    "modes",
    "run_reference",
    "run_optimized",
    "run_differential",
    "check_error_conformance",
    "DivergenceReport",
    "shrink",
    "shrink_report",
    "SpecCoverage",
    "measure_corpus",
    "save_corpus",
    "load_corpus",
    "emit_regression",
]
