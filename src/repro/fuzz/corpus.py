"""Corpus persistence and regression-test emission.

A corpus is a JSON-lines file of serialized programs — enough to replay
any run bit-for-bit without the generator.  When the differential driver
finds a divergence, :func:`emit_regression` freezes the *shrunk* witness
as a standalone pytest file in ``tests/regressions/``: the program JSON
and the names of the modes it failed under are embedded in the test
source, so the regression suite needs neither the corpus nor the
generator's RNG stream to re-check the fix forever, under the modes
where the bug showed.
"""

from __future__ import annotations

import re
from pathlib import Path

from .program import Program

__all__ = ["save_corpus", "load_corpus", "emit_regression"]


def save_corpus(programs, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for p in programs:
            fh.write(p.to_json() + "\n")


def load_corpus(path) -> list[Program]:
    with Path(path).open("r", encoding="utf-8") as fh:
        return [Program.from_json(line) for line in fh if line.strip()]


_TEMPLATE = '''\
"""Auto-generated fuzz regression ({slug}).

Shrunk witness of an oracle divergence found by the conformance fuzzer
(seed fingerprint: {seed}).  Original failure:

{failure_comment}

Replay by hand (under the same modes) with::

    PYTHONPATH=src python -m repro.fuzz --replay {filename}
"""

from repro.fuzz.executor import mode_named, run_differential
from repro.fuzz.program import Program

#: the modes the divergence showed under — the witness replays there
MODES = ({modes}
)

PROGRAM_JSON = r"""
{program_json}
"""


def test_{slug}():
    modes = [mode_named(m) for m in MODES]
    report = run_differential(Program.from_json(PROGRAM_JSON), modes)
    assert report is None, f"divergence resurfaced:\\n{{report}}"
'''


def _slugify(name: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")
    if not slug or slug[0].isdigit():
        slug = "fuzz_" + slug
    return slug


def emit_regression(report, name: str, directory="tests/regressions") -> Path:
    """Write a standalone pytest repro for a (shrunk) divergence report.

    Returns the path written.  *name* becomes both the file name and the
    test function name, so keep it short and descriptive
    (``"uint32_reduce_overflow"``).
    """
    slug = _slugify(name)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"test_{slug}.py"
    failure_comment = "\n".join(
        f"    [{mode.name}] {detail}" for mode, detail in report.failures
    ) or "    (failure detail unavailable)"
    path.write_text(
        _TEMPLATE.format(
            slug=slug,
            seed=report.program.seed,
            failure_comment=failure_comment,
            filename=path.name,
            modes="".join(f'\n    "{m.name}",' for m in report.modes()),
            program_json=report.program.to_json(indent=2),
        ),
        encoding="utf-8",
    )
    return path
