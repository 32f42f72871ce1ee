"""Uniform error-surface checks across ALL operations.

Section V requires every method to validate its arguments and return
without changes on an API error; this file sweeps the entire operation
surface with the same malformed-argument patterns rather than trusting
each operation's individual tests to remember every case.
"""

import numpy as np
import pytest

import repro as grb
from repro.algebra import predefined
from repro.ops import binary, index_unary, unary

S = predefined.PLUS_TIMES[grb.INT64]


def _m(r=3, c=3):
    return grb.Matrix(grb.INT64, r, c)


def _v(n=3):
    return grb.Vector(grb.INT64, n)


#: (name, callable(C, A, B)) — every matrix-output operation with a
#: standard (C, Mask, accum, ..., desc) shape
MATRIX_OPS = [
    ("mxm", lambda C, A, B: grb.mxm(C, None, None, S, A, B)),
    ("ewise_add", lambda C, A, B: grb.ewise_add(C, None, None, binary.PLUS[grb.INT64], A, B)),
    ("ewise_mult", lambda C, A, B: grb.ewise_mult(C, None, None, binary.TIMES[grb.INT64], A, B)),
    ("ewise_union", lambda C, A, B: grb.ewise_union(C, None, None, binary.PLUS[grb.INT64], A, 0, B, 0)),
    ("apply", lambda C, A, B: grb.apply(C, None, None, unary.IDENTITY[grb.INT64], A)),
    ("select", lambda C, A, B: grb.select(C, None, None, index_unary.TRIL, A, 0)),
    ("transpose", lambda C, A, B: grb.transpose(C, None, None, A)),
    ("extract", lambda C, A, B: grb.matrix_extract(C, None, None, A, grb.ALL, grb.ALL)),
    ("assign", lambda C, A, B: grb.matrix_assign(C, None, None, A, grb.ALL, grb.ALL)),
    # argument validation precedes the dimension check, so the 3x3 output
    # is fine for every malformed-argument case this file sweeps
    ("kronecker", lambda C, A, B: grb.kronecker(C, None, None, binary.TIMES[grb.INT64], A, B)),
    ("row_assign", lambda C, A, B: grb.row_assign(C, None, None, A, 0, grb.ALL)),
    ("col_assign", lambda C, A, B: grb.col_assign(C, None, None, A, grb.ALL, 0)),
]

#: the MATRIX_OPS calls with a mask slot: name -> (callable(C, Mask, X),
#: constructor of X, constructor of the mask), valid with 3x3 C and the
#: constructors' defaults.  X is the operand the op's kind and shape rules
#: check.  Kronecker takes a fixed 1x1 right factor, so that X alone
#: decides the result's shape.
MATRIX_CALLS = {
    "mxm": (lambda C, M, X: grb.mxm(C, M, None, S, X, _m()), _m, _m),
    "ewise_add": (lambda C, M, X: grb.ewise_add(C, M, None, binary.PLUS[grb.INT64], X, _m()), _m, _m),
    "ewise_mult": (lambda C, M, X: grb.ewise_mult(C, M, None, binary.TIMES[grb.INT64], _m(), X), _m, _m),
    "ewise_union": (lambda C, M, X: grb.ewise_union(C, M, None, binary.PLUS[grb.INT64], X, 0, _m(), 0), _m, _m),
    "apply": (lambda C, M, X: grb.apply(C, M, None, unary.IDENTITY[grb.INT64], X), _m, _m),
    "select": (lambda C, M, X: grb.select(C, M, None, index_unary.TRIL, X, 0), _m, _m),
    "transpose": (lambda C, M, X: grb.transpose(C, M, None, X), _m, _m),
    "extract": (lambda C, M, X: grb.matrix_extract(C, M, None, X, grb.ALL, grb.ALL), _m, _m),
    "assign": (lambda C, M, X: grb.matrix_assign(C, M, None, X, grb.ALL, grb.ALL), _m, _m),
    "kronecker": (lambda C, M, X: grb.kronecker(C, M, None, binary.TIMES[grb.INT64], X, _m(1, 1)), _m, _m),
    # the mask of a row/col assign is a vector over the line
    "row_assign": (lambda C, M, X: grb.row_assign(C, M, None, X, 0, grb.ALL), _v, _v),
    "col_assign": (lambda C, M, X: grb.col_assign(C, M, None, X, grb.ALL, 0), _v, _v),
}


def _other(make):
    """The constructor of the other collection kind."""
    return _v if make is _m else _m


def _rejected_unchanged(exc, call, out) -> None:
    """*call* raises *exc* at call time, queues nothing, and leaves *out*
    as it was (section V: an API error changes no argument)."""
    before = sorted(out)
    enqueued = grb.queue_stats()["enqueued"]
    with pytest.raises(exc):
        call()
    assert grb.queue_stats()["enqueued"] == enqueued
    assert sorted(out) == before


def _filled(make):
    """A 3x3 matrix or size-3 vector holding one element, 42."""
    out = make()
    out.set_element(*(1,) * len(out.shape), 42)
    return out


@pytest.mark.parametrize("name,op", MATRIX_OPS, ids=[n for n, _ in MATRIX_OPS])
class TestUniformMatrixErrors:
    def test_null_output_rejected(self, name, op):
        with pytest.raises((grb.NullPointer, grb.InvalidValue)):
            op(None, _m(), _m())

    def test_null_input_rejected(self, name, op):
        with pytest.raises((grb.NullPointer, grb.InvalidValue)):
            op(_m(), None, _m())

    def test_freed_output_rejected(self, name, op):
        C = _m()
        C.free()
        with pytest.raises(grb.UninitializedObject):
            op(C, _m(), _m())

    def test_freed_input_rejected(self, name, op):
        A = _m()
        A.free()
        with pytest.raises(grb.UninitializedObject):
            op(_m(), A, _m())

    def test_api_error_leaves_output_unchanged(self, name, op):
        C = grb.Matrix.from_coo(grb.INT64, 3, 3, [1], [1], [42])
        A = _m()
        A.free()
        with pytest.raises(grb.GraphBLASError):
            op(C, A, _m())
        assert {(i, j): int(v) for i, j, v in C} == {(1, 1): 42}

    def test_nonblocking_api_error_is_immediate(self, name, op):
        grb.init(grb.Mode.NONBLOCKING)
        A = _m()
        A.free()
        with pytest.raises(grb.GraphBLASError):
            op(_m(), A, _m())
        assert grb.queue_stats()["enqueued"] == 0

    # One argument at a time is made wrong; the baseline is accepted.

    def test_valid_call_accepted(self, name, op, exec_mode):
        call, operand, mask = MATRIX_CALLS[name]
        call(_filled(_m), mask(), operand())
        grb.wait()

    def test_other_kind_operand_rejected(self, name, op, exec_mode):
        call, operand, _ = MATRIX_CALLS[name]
        C = _filled(_m)
        _rejected_unchanged(
            grb.InvalidValue, lambda: call(C, None, _other(operand)()), C
        )

    def test_wrong_shape_operand_rejected(self, name, op, exec_mode):
        call, operand, _ = MATRIX_CALLS[name]
        C = _filled(_m)
        _rejected_unchanged(
            grb.DimensionMismatch, lambda: call(C, None, operand(5)), C
        )

    def test_wrong_shape_mask_rejected(self, name, op, exec_mode):
        call, operand, mask = MATRIX_CALLS[name]
        C = _filled(_m)
        for M in (mask(5), _other(mask)()):
            _rejected_unchanged(
                grb.DimensionMismatch, lambda: call(C, M, operand()), C
            )

    def test_other_kind_output_rejected(self, name, op, exec_mode):
        call, operand, _ = MATRIX_CALLS[name]
        w = _filled(_v)
        _rejected_unchanged(
            grb.InvalidValue, lambda: call(w, None, operand()), w
        )


VECTOR_OPS = [
    ("mxv", lambda w, u: grb.mxv(w, None, None, S, _m(), u)),
    ("vxm", lambda w, u: grb.vxm(w, None, None, S, u, _m())),
    ("ewise_add_v", lambda w, u: grb.ewise_add(w, None, None, binary.PLUS[grb.INT64], u, u)),
    ("apply_v", lambda w, u: grb.apply(w, None, None, unary.IDENTITY[grb.INT64], u)),
    ("extract_v", lambda w, u: grb.vector_extract(w, None, None, u, grb.ALL)),
    ("assign_v", lambda w, u: grb.vector_assign(w, None, None, u, grb.ALL)),
    ("reduce_v", lambda w, u: grb.reduce_to_vector(w, None, None, grb.monoid("GrB_PLUS_MONOID_INT64"), _m())),
    ("col_extract", lambda w, u: grb.col_extract(w, None, None, _m(), grb.ALL, 0)),
]

#: the VECTOR_OPS calls with a mask slot: name -> (callable(w, mask, X),
#: constructor of X), as MATRIX_CALLS; X is the matrix input of reduce and
#: col_extract.
VECTOR_CALLS = {
    "mxv": (lambda w, M, X: grb.mxv(w, M, None, S, _m(), X), _v),
    "vxm": (lambda w, M, X: grb.vxm(w, M, None, S, X, _m()), _v),
    "ewise_add_v": (lambda w, M, X: grb.ewise_add(w, M, None, binary.PLUS[grb.INT64], X, _v()), _v),
    "apply_v": (lambda w, M, X: grb.apply(w, M, None, unary.IDENTITY[grb.INT64], X), _v),
    "extract_v": (lambda w, M, X: grb.vector_extract(w, M, None, X, grb.ALL), _v),
    "assign_v": (lambda w, M, X: grb.vector_assign(w, M, None, X, grb.ALL), _v),
    "reduce_v": (lambda w, M, X: grb.reduce_to_vector(w, M, None, grb.monoid("GrB_PLUS_MONOID_INT64"), X), _m),
    "col_extract": (lambda w, M, X: grb.col_extract(w, M, None, X, grb.ALL, 0), _m),
}


@pytest.mark.parametrize("name,op", VECTOR_OPS, ids=[n for n, _ in VECTOR_OPS])
class TestUniformVectorErrors:
    def test_null_output_rejected(self, name, op):
        with pytest.raises((grb.NullPointer, grb.InvalidValue)):
            op(None, _v())

    def test_freed_output_rejected(self, name, op):
        w = _v()
        w.free()
        with pytest.raises(grb.UninitializedObject):
            op(w, _v())

    def test_valid_call_accepted(self, name, op, exec_mode):
        call, operand = VECTOR_CALLS[name]
        call(_filled(_v), _v(), operand())
        grb.wait()

    def test_other_kind_operand_rejected(self, name, op, exec_mode):
        call, operand = VECTOR_CALLS[name]
        w = _filled(_v)
        _rejected_unchanged(
            grb.InvalidValue, lambda: call(w, None, _other(operand)()), w
        )

    def test_wrong_shape_operand_rejected(self, name, op, exec_mode):
        call, operand = VECTOR_CALLS[name]
        w = _filled(_v)
        _rejected_unchanged(
            grb.DimensionMismatch, lambda: call(w, None, operand(5)), w
        )

    def test_wrong_shape_mask_rejected(self, name, op, exec_mode):
        call, operand = VECTOR_CALLS[name]
        w = _filled(_v)
        # a matrix mask on a vector output is a dimension error (Fig. 2b)
        for M in (_v(9), _m()):
            _rejected_unchanged(
                grb.DimensionMismatch, lambda: call(w, M, operand()), w
            )

    def test_other_kind_output_rejected(self, name, op, exec_mode):
        call, operand = VECTOR_CALLS[name]
        C = _filled(_m)
        _rejected_unchanged(
            grb.InvalidValue, lambda: call(C, None, operand()), C
        )


class TestMaskErrorsEverywhere:
    """Wrong-shaped masks must be rejected by every masked operation."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda M: grb.mxm(_m(), M, None, S, _m(), _m()),
            lambda M: grb.ewise_add(_m(), M, None, binary.PLUS[grb.INT64], _m(), _m()),
            lambda M: grb.apply(_m(), M, None, unary.IDENTITY[grb.INT64], _m()),
            lambda M: grb.transpose(_m(), M, None, _m(3, 3)),
            lambda M: grb.matrix_extract(_m(), M, None, _m(), grb.ALL, grb.ALL),
            lambda M: grb.matrix_assign_scalar(_m(), M, None, 1, grb.ALL, grb.ALL),
            lambda M: grb.select(_m(), M, None, index_unary.TRIL, _m(), 0),
        ],
    )
    def test_wrong_shape_mask(self, call):
        with pytest.raises(grb.DimensionMismatch):
            call(grb.Matrix(grb.BOOL, 2, 5))

    @pytest.mark.parametrize(
        "call",
        [
            lambda M: grb.mxv(_v(), M, None, S, _m(), _v()),
            lambda M: grb.vxm(_v(), M, None, S, _v(), _m()),
            lambda M: grb.vector_assign_scalar(_v(), M, None, 1, grb.ALL),
        ],
    )
    def test_wrong_size_vector_mask(self, call):
        with pytest.raises(grb.DimensionMismatch):
            call(grb.Vector(grb.BOOL, 9))

    def test_matrix_mask_on_vector_output(self):
        with pytest.raises(grb.DimensionMismatch):
            grb.mxv(_v(), grb.Matrix(grb.BOOL, 3, 3), None, S, _m(), _v())


class TestAccumErrorsEverywhere:
    @pytest.mark.parametrize(
        "call",
        [
            lambda acc: grb.mxm(_m(), None, acc, S, _m(), _m()),
            lambda acc: grb.ewise_add(_m(), None, acc, binary.PLUS[grb.INT64], _m(), _m()),
            lambda acc: grb.apply(_m(), None, acc, unary.IDENTITY[grb.INT64], _m()),
            lambda acc: grb.matrix_assign_scalar(_m(), None, acc, 1, grb.ALL, grb.ALL),
        ],
    )
    def test_non_binaryop_accum_rejected(self, call):
        with pytest.raises(grb.InvalidValue):
            call("plus")

    def test_udt_accum_domain_mismatch(self):
        T = grb.powerset_type()
        union = grb.binary_op_new(
            lambda a, b: a | b, T, T, T, name="u"
        )
        with pytest.raises(grb.DomainMismatch):
            grb.mxm(_m(), None, union, S, _m(), _m())
