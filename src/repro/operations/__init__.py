"""The GraphBLAS operations of Table II, each following the shared
form-inputs → compute-T → accumulate → masked-write pipeline of section VI;
one step function (``common.write_step``) does the last two for all."""

from .apply import apply, apply_bind_first, apply_bind_second, apply_index
from .assign import (
    assign,
    col_assign,
    matrix_assign,
    matrix_assign_scalar,
    row_assign,
    vector_assign,
    vector_assign_scalar,
)
from .ewise import eWiseAdd, eWiseMult, ewise_add, ewise_mult, ewise_union
from .extract import col_extract, extract, matrix_extract, vector_extract
from .kronecker import kronecker
from .mxm import mxm, mxv, vxm
from .reduce import reduce, reduce_scalar_object, reduce_to_scalar, reduce_to_vector
from .select import select
from .transpose import transpose

__all__ = [
    "mxm",
    "mxv",
    "vxm",
    "ewise_add",
    "ewise_mult",
    "ewise_union",
    "eWiseAdd",
    "eWiseMult",
    "apply",
    "apply_bind_first",
    "apply_bind_second",
    "apply_index",
    "reduce",
    "reduce_to_vector",
    "reduce_to_scalar",
    "reduce_scalar_object",
    "transpose",
    "extract",
    "matrix_extract",
    "vector_extract",
    "col_extract",
    "assign",
    "matrix_assign",
    "vector_assign",
    "matrix_assign_scalar",
    "vector_assign_scalar",
    "row_assign",
    "col_assign",
    "select",
    "kronecker",
]
