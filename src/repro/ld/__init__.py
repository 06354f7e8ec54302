"""Linkage-disequilibrium computation.

Three interchangeable implementations of pairwise r² (Eq. 1), all
cross-validated against each other in the test suite:

* :mod:`repro.ld.correlation` — direct per-pair computation (reference).
* :mod:`repro.ld.gemm` — all-pairs via one GEMM (the BLIS/GPU formulation
  of Binder et al. that the paper's GPU OmegaPlus uses for its LD stage).
* :mod:`repro.ld.packed_kernels` — popcount on word-packed data (the
  OmegaPlus-native / FPGA formulation).

plus :mod:`repro.ld.tiled`, the quickLD-style two-step driver for datasets
too large for a monolithic pair matrix, and :mod:`repro.ld.operands`, the
per-alignment operand-plane cache the production GEMM fills are built on.
The popcount kernels stay as the word-level OmegaPlus reference the
production fills are checked against.
"""

from repro.ld.correlation import (
    r_squared_from_counts,
    r_squared_pair,
    r_squared_pairs,
)
from repro.ld.gemm import cooccurrence_gemm, r_squared_block, r_squared_matrix
from repro.ld.operands import (
    LDBackendFiller,
    LDOperands,
    gemm_plane_dtype,
    operands_for,
)
from repro.ld.packed_kernels import (
    cooccurrence_block_packed,
    r_squared_block_packed,
    r_squared_matrix_packed,
    r_squared_pairs_packed,
)
from repro.ld.stats import (
    d_from_counts,
    d_prime_from_counts,
    ld_stats_matrix,
    r_from_counts,
)
from repro.ld.tiled import TiledLDEngine

__all__ = [
    "r_squared_pair",
    "r_squared_pairs",
    "r_squared_from_counts",
    "cooccurrence_gemm",
    "r_squared_matrix",
    "r_squared_block",
    "r_squared_pairs_packed",
    "r_squared_block_packed",
    "cooccurrence_block_packed",
    "r_squared_matrix_packed",
    "TiledLDEngine",
    "LDOperands",
    "LDBackendFiller",
    "operands_for",
    "gemm_plane_dtype",
    "ld_stats_matrix",
    "d_from_counts",
    "d_prime_from_counts",
    "r_from_counts",
]
