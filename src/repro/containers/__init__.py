"""GraphBLAS collections: opaque vectors and matrices, their storage formats,
and lazy mask views."""

from .base import OpaqueObject, SparseCollection
from .mask import MaskView, build_mask_view, validate_mask_domain
from .matrix import Matrix, matrix_new
from .scalar import Scalar, scalar_new
from .vector import Vector, vector_new

__all__ = [
    "OpaqueObject",
    "SparseCollection",
    "Vector",
    "Matrix",
    "Scalar",
    "scalar_new",
    "vector_new",
    "matrix_new",
    "MaskView",
    "build_mask_view",
    "validate_mask_domain",
]
