"""The differential conformance fuzzer: generator validity, differential
execution, shrinking, corpus round-trips, and the mutation check (a
deliberately injected kernel bug must be caught and shrunk to ≤ 4 ops —
see EXPERIMENTS.md)."""

import runpy

import numpy as np
import pytest

import repro.operations.common as op_common
import repro.shard.scheduler as scheduler
from repro.fuzz import (
    CANONICAL_OPS,
    Program,
    generate_corpus,
    generate_program,
    load_corpus,
    measure_corpus,
    modes,
    run_differential,
    run_reference,
    save_corpus,
    shrink,
)
from repro.fuzz.__main__ import main as fuzz_main
from repro.fuzz.executor import BLOCKING, values_equal
from repro.fuzz.shrink import differential_predicate


class TestGenerator:
    def test_deterministic_replay(self):
        a = generate_program(42, 7)
        b = generate_program(42, 7)
        assert a.to_json() == b.to_json()

    def test_programs_are_well_formed(self):
        for p in generate_corpus(3, 40):
            names = {d.name for d in p.decls}
            assert p.referenced_names() <= names
            assert 1 <= len(p.calls)
            for c in p.calls:
                if c.out is not None:
                    assert c.out in names

    def test_corpus_reaches_every_canonical_op(self):
        cov = measure_corpus(generate_corpus(0, 60))
        assert cov.ops_seen() == set(CANONICAL_OPS)

    def test_corpus_exercises_udt_masks_accums(self):
        progs = list(generate_corpus(0, 60))
        dtypes = {d.dtype for p in progs for d in p.decls}
        assert "PSET" in dtypes
        kinds = {c.mask_kind() for p in progs for c in p.calls}
        assert {"value", "value_comp", "struct", "struct_comp"} <= kinds
        assert any(c.accum for p in progs for c in p.calls)

    def test_aliasing_is_generated(self):
        aliased = 0
        for p in generate_corpus(0, 60):
            for c in p.calls:
                operands = [c.args.get(k) for k in ("a", "b", "u", "mask")]
                if c.out is not None and c.out in operands:
                    aliased += 1
        assert aliased > 0


class TestDifferential:
    def test_small_corpus_conforms(self):
        for p in generate_corpus(7, 25):
            report = run_differential(p)
            assert report is None, f"\n{report}"

    def test_exhaustive_modes_on_a_few(self):
        exhaustive = modes(["passes"])
        assert len(exhaustive) == 10  # blocking + planner-off + 2^3 combos
        for p in generate_corpus(11, 4):
            assert run_differential(p, exhaustive) is None

    # one CPU clamps the thread count to 1: the threads axis is dropped
    # rather than repeating every mode
    @pytest.mark.parametrize("cpus, threads, all_", [(2, 14, 60), (1, 7, 40)])
    def test_mode_counts(self, cpus, threads, all_, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        assert len(modes()) == 7
        assert len(modes(["threads"])) == threads
        assert len(modes(["processes", "threads"])) == threads + 7
        # 10 pass points x 2-3 executions x 2 kernel suites
        assert len({m.name for m in modes(["all"])}) == all_

    def test_tolerance_is_dtype_aware(self):
        assert values_equal(1.0, 1.0 + 1e-12, "FP64")
        assert not values_equal(1.0, 1.001, "FP64")
        assert values_equal(np.float32(1.0), 1.0 + 1e-6, "FP32")
        assert not values_equal(1, 2, "INT64")
        assert values_equal(float("nan"), float("nan"), "FP64")
        assert values_equal(frozenset((1, 2)), frozenset((1, 2)), "PSET")


class TestCorpusRoundTrip:
    def test_json_round_trip(self):
        p = generate_program(5, 0)
        assert Program.from_json(p.to_json()).to_json() == p.to_json()

    def test_save_load(self, tmp_path):
        progs = list(generate_corpus(5, 6))
        path = tmp_path / "corpus.jsonl"
        save_corpus(progs, path)
        loaded = load_corpus(path)
        assert [q.to_json() for q in loaded] == [p.to_json() for p in progs]
        # loaded programs replay identically on the oracle
        ref_a = run_reference(progs[0])
        ref_b = run_reference(loaded[0])
        assert ref_a.objects.keys() == ref_b.objects.keys()


class TestShrinker:
    def test_shrinks_to_single_witness_call(self):
        # synthetic predicate: "program still contains a kronecker"
        victim = None
        for p in generate_corpus(0, 30):
            if sum(c.kind == "kronecker" for c in p.calls) and len(p.calls) > 3:
                victim = p
                break
        assert victim is not None
        small = shrink(
            victim, lambda q: any(c.kind == "kronecker" for c in q.calls)
        )
        assert len(small.calls) == 1 and small.calls[0].kind == "kronecker"
        # unused declarations were pruned along the way
        assert {d.name for d in small.decls} == small.referenced_names()

    def test_rejects_input_that_does_not_fail(self):
        with pytest.raises(ValueError):
            shrink(generate_program(0, 0), lambda q: False)


class TestMutationCheck:
    """EXPERIMENTS.md mutation check: inject a write-step bug (REPLACE
    treated as merge), assert the fuzzer catches it and the shrinker
    reduces the witness to ≤ 4 ops; and a bug only one backend has must
    leave a witness that replays under the modes that found it."""

    def test_replace_as_merge_is_caught_and_shrunk(self, monkeypatch):
        real = op_common.write_step

        def buggy(c_keys, c_vals, c_type, t_keys, t_vals, t_type, accum,
                  mask_view, replace, outside=None):
            return real(  # bug: REPLACE ignored
                c_keys, c_vals, c_type, t_keys, t_vals, t_type, accum,
                mask_view, False, outside,
            )

        monkeypatch.setattr(op_common, "write_step", buggy)
        victim = None
        for p in generate_corpus(1234, 60):
            report = run_differential(p, [BLOCKING])
            if report is not None:
                victim = report
                break
        assert victim is not None, "injected bug was not caught in 60 programs"
        small = shrink(
            victim.program, differential_predicate(victim, [BLOCKING])
        )
        assert len(small.calls) <= 4
        # with the real kernel restored, the witness conforms again
        monkeypatch.setattr(op_common, "write_step", real)
        assert run_differential(small, modes()) is None

    @pytest.mark.parametrize("axes", ["processes", "processes,threads"])
    def test_backend_only_bug_is_shrunk_emitted_and_replayed(
        self, axes, monkeypatch, tmp_path
    ):
        real = scheduler.compute

        def buggy(spec, mask_view):  # bug: every shipped value is off by one
            out = real(spec, mask_view)
            return None if out is None else (out[0], out[1] + 1)

        monkeypatch.setattr(scheduler, "compute", buggy)
        argv = ["--seed", "0", "--n", "1", "--errors", "0", "--axes", axes,
                "--emit-dir", str(tmp_path)]
        assert fuzz_main(argv) == 1
        (path,) = tmp_path.glob("test_*.py")
        witness = runpy.run_path(str(path))
        assert witness["MODES"]
        assert all(m.endswith("-processes") for m in witness["MODES"])
        with pytest.raises(AssertionError, match="divergence resurfaced"):
            witness["test_seed0_case0"]()
        replay = ["--replay", str(path), "--no-shrink"]
        assert fuzz_main(replay) == 1  # under the recorded modes
        monkeypatch.setattr(scheduler, "compute", real)
        witness["test_seed0_case0"]()
        assert fuzz_main(replay) == 0
