"""Planner configuration: per-pass on/off knobs for A/B benchmarking.

The knobs are process-global (like :mod:`repro.parallel`'s thread count) and
consulted at drain time, so a sequence queued under one configuration can be
completed under another — handy for ablations:

    repro.planner.configure(fusion=False, cse=False)   # dead-op elim only
    with repro.planner.override(enabled=False):        # planner fully off
        grb.wait()
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

__all__ = ["PlannerOptions", "configure", "options", "override", "reset_options"]


@dataclass
class PlannerOptions:
    #: master switch — off means drain in plain program order, no passes
    enabled: bool = True
    #: eliminate ops whose output is overwritten before any read
    dead_op: bool = True
    #: fuse producer→consumer pairs, skipping the intermediate's storage
    fusion: bool = True
    #: reuse the internal result T of identical pure ops on unchanged inputs
    cse: bool = True


_options = PlannerOptions()


def options() -> PlannerOptions:
    """The live options object (mutate via :func:`configure`)."""
    return _options


def configure(**knobs: bool) -> PlannerOptions:
    """Set planner knobs by name; unknown names raise ``InvalidValue``."""
    from ...info import InvalidValue

    valid = {f.name for f in fields(PlannerOptions)}
    for name, value in knobs.items():
        if name not in valid:
            raise InvalidValue(
                f"unknown planner option {name!r}; valid: {sorted(valid)}"
            )
        setattr(_options, name, bool(value))
    return _options


def reset_options() -> None:
    """Restore every knob to its default (test isolation; ``context._reset``)."""
    defaults = PlannerOptions()
    for f in fields(PlannerOptions):
        setattr(_options, f.name, getattr(defaults, f.name))


@contextmanager
def override(**knobs: bool):
    """Temporarily apply *knobs*, restoring the previous values on exit."""
    saved = replace(_options)
    configure(**knobs)
    try:
        yield _options
    finally:
        for f in fields(PlannerOptions):
            setattr(_options, f.name, getattr(saved, f.name))
