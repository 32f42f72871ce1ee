"""Failing-program minimization (delta debugging over fuzz programs).

Given a program on which some *oracle predicate* holds (it diverges from
the reference, or raises the wrong error), the shrinker searches for a
smaller program on which it still holds:

1. **op deletion** — ddmin-style removal of whole calls, from large chunks
   down to single calls;
2. **call simplification** — drop the mask, the accumulator, and each
   descriptor bit of the surviving calls;
3. **operand simplification** — shrink declared content (fewer stored
   entries, then simpler values) and prune declarations nothing references.

Each accepted candidate restarts the pass loop, so the result is
1-minimal with respect to all three move kinds.  The predicate is re-run
on every candidate, which keeps the shrinker honest about *which* failure
it is preserving: callers who care that the same divergence survives can
bake that check into the predicate itself.
"""

from __future__ import annotations

from typing import Callable

from .program import Program

__all__ = ["shrink", "shrink_report", "differential_predicate"]

#: value-simplification ladder: try each in order, keep the first that
#: still fails (0/1 are the high-value targets: identities & annihilators)
_SIMPLE_VALUES = (0, 1)


def _valid(program: Program) -> bool:
    """Cheap structural sanity so candidates don't waste oracle runs."""
    if not program.calls:
        return False
    names = {d.name for d in program.decls}
    return program.referenced_names() <= names


def _try(program: Program, predicate: Callable[[Program], bool]) -> bool:
    if not _valid(program):
        return False
    try:
        return bool(predicate(program))
    except Exception:
        # a candidate that crashes the harness is not a smaller witness
        return False


def _delete_ops(program: Program, predicate) -> Program | None:
    """One ddmin sweep over the call list; None if nothing was removable."""
    n = len(program.calls)
    chunk = max(n // 2, 1)
    while chunk >= 1:
        start = 0
        while start < len(program.calls):
            cand = program.copy()
            del cand.calls[start : start + chunk]
            if _try(cand, predicate):
                return cand
            start += chunk
        chunk //= 2
    return None


#: call-level simplifications: (description, mutate(args) -> changed?)
def _drop_key(key):
    def mutate(args: dict) -> bool:
        if key in args:
            del args[key]
            return True
        return False

    return mutate


def _clear_flag(flag):
    def mutate(args: dict) -> bool:
        if args.get(flag):
            args[flag] = False
            return True
        return False

    return mutate


def _zero_thunk(args: dict) -> bool:
    if args.get("thunk") not in (None, 0):
        args["thunk"] = 0
        return True
    return False


_CALL_MOVES = (
    _drop_key("mask"),
    _drop_key("accum"),
    _clear_flag("replace"),
    _clear_flag("mask_comp"),
    _clear_flag("mask_struct"),
    _clear_flag("tran0"),
    _clear_flag("tran1"),
    _zero_thunk,
)


def _simplify_calls(program: Program, predicate) -> Program | None:
    for i in range(len(program.calls)):
        for move in _CALL_MOVES:
            cand = program.copy()
            args = cand.calls[i].args
            if not move(args):
                continue
            if not args.get("mask"):
                # flags are only meaningful alongside their mask
                for f in ("mask_comp", "mask_struct", "replace"):
                    args[f] = False
            if _try(cand, predicate):
                return cand
    return None


def _simplify_decls(program: Program, predicate) -> Program | None:
    # drop declarations nothing references (masks/operands freed above)
    used = program.referenced_names()
    if any(d.name not in used for d in program.decls):
        cand = program.copy()
        cand.decls = [d for d in cand.decls if d.name in used]
        if _try(cand, predicate):
            return cand
    for di, d in enumerate(program.decls):
        # fewer stored entries
        for ei in range(len(d.entries)):
            cand = program.copy()
            del cand.decls[di].entries[ei]
            if _try(cand, predicate):
                return cand
        # simpler values
        for ei, entry in enumerate(d.entries):
            current = entry[-1]
            for simple in _SIMPLE_VALUES:
                replacement = sorted(range(simple)) if d.dtype == "PSET" else simple
                if current == replacement:
                    continue
                cand = program.copy()
                cand.decls[di].entries[ei][-1] = replacement
                if _try(cand, predicate):
                    return cand
                break  # try only the first rung per pass; restart ladder later
    return None


_PASSES = (_delete_ops, _simplify_calls, _simplify_decls)


def shrink(
    program: Program,
    predicate: Callable[[Program], bool],
    *,
    max_rounds: int = 200,
) -> Program:
    """Minimize *program* while ``predicate(program)`` stays true.

    The input program must already satisfy the predicate; the result is
    the smallest fixpoint found within *max_rounds* accepted moves.
    """
    if not _try(program, predicate):
        raise ValueError("shrink() needs a program that fails the predicate")
    current = program.copy()
    for _ in range(max_rounds):
        for a_pass in _PASSES:
            cand = a_pass(current, predicate)
            if cand is not None:
                current = cand
                break  # restart the pass pipeline on the smaller witness
        else:
            break  # no pass made progress: 1-minimal
    return current


def differential_predicate(baseline_report, modes=None):
    """Predicate preserving the baseline report's failure *signature*.

    A candidate counts as a smaller witness only when it still diverges
    (under *modes*, default the baseline's failing ones) AND every
    failure category it shows was already present in the baseline — so a
    shrink move that merely breaks the program's shapes (an API error the
    oracle cannot observe) is rejected instead of hijacking the shrink.
    """
    from .executor import run_differential

    baseline = baseline_report.signature()
    modes = baseline_report.modes() if modes is None else modes

    def predicate(p) -> bool:
        rep = run_differential(p, modes)
        return rep is not None and rep.signature() <= baseline

    return predicate


def shrink_report(report, *, modes=None, max_rounds: int = 200):
    """Shrink a :class:`~repro.fuzz.executor.DivergenceReport`.

    Re-runs the differential check under *modes* (default: the modes the
    report failed under, the only ones sure to reproduce it) on every
    candidate, requiring the original failure signature to survive.
    Returns the minimized report.
    """
    from .executor import run_differential

    modes = report.modes() if modes is None else modes
    small = shrink(
        report.program,
        differential_predicate(report, modes),
        max_rounds=max_rounds,
    )
    final = run_differential(small, modes)
    assert final is not None  # predicate guaranteed this
    return final
