"""Storage formats: COO assembly and the CSR/CSC kernel views."""

from .coo import assemble, check_indices
from .csr import CSRView, csr_from_keys, transpose_permutation

__all__ = [
    "assemble",
    "check_indices",
    "CSRView",
    "csr_from_keys",
    "transpose_permutation",
]
