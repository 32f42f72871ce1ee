"""Error-model conformance under fuzzing (ISSUE satellite): API errors —
dimension mismatches, bad indices, domain violations — must raise
identically (same exception class, same ``GrB_Info`` code) at call time
under every fuzz mode, blocking and nonblocking alike.  The paper's
section V makes API errors synchronous regardless of mode; these tests
drive that contract with generated invalid programs rather than
hand-picked ones."""

import pytest

from repro import info
from repro.fuzz import ERROR_KINDS, check_error_conformance, generate_error_program
from repro.fuzz.executor import _error_outcome, modes


@pytest.mark.parametrize("index", range(3 * len(ERROR_KINDS)))
def test_error_conformance(index):
    program, kind = generate_error_program(0, index)
    complaint = check_error_conformance(program)
    assert complaint is None, f"{kind}: {complaint}"


def test_every_error_kind_is_generated():
    kinds = {generate_error_program(0, i)[1] for i in range(2 * len(ERROR_KINDS))}
    assert kinds == set(ERROR_KINDS)


@pytest.mark.parametrize("index", range(len(ERROR_KINDS)))
def test_errors_carry_real_info_codes(index):
    """The invalid call must raise at call time in every mode with a
    genuine GrB_Info code.  Bad-index programs surface the spec's
    ``GrB_INDEX_OUT_OF_BOUNDS`` *execution* error; everything else must
    be an API error."""
    program, kind = generate_error_program(0, index)
    for mode in modes():
        cls_name, code, complaint = _error_outcome(program, mode)
        assert complaint is None, f"{kind}: {complaint}"
        cls = getattr(info, cls_name)
        assert issubclass(cls, info.GraphBLASError)
        if kind.startswith("bad_index"):
            assert cls is info.IndexOutOfBounds
        else:
            assert issubclass(cls, info.ApiError), (
                f"{kind} raised {cls_name}, which is not an ApiError"
            )
        assert isinstance(code, info.Info)


def test_error_programs_are_deterministic():
    a, ka = generate_error_program(9, 4)
    b, kb = generate_error_program(9, 4)
    assert ka == kb and a.to_json() == b.to_json()
