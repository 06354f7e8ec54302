"""All-pairs LD as dense linear algebra (the GEMM formulation).

Alachiotis, Popovici & Low [24] showed that the co-occurrence counts that
feed r² can be produced for *all* site pairs at once by one general matrix
multiplication: with A the (samples x sites) 0/1 matrix,

    N11 = Aᵀ A        (N11[i, j] = number of samples derived at i and j)

after which r² is an element-wise map over N11 and the per-site counts.
Binder et al. [17] mapped exactly this onto GPUs via the BLIS framework,
and the paper's GPU-accelerated OmegaPlus reuses that kernel for its LD
stage. In NumPy the analogue of the vendor GEMM is ``A.T @ A`` dispatched
to BLAS — this module is therefore both the fastest host implementation
and the functional model of the GPU LD path.

The operand is float32 up to 2²⁴ samples
(:func:`~repro.ld.operands.gemm_plane_dtype`): every partial sum of 0/1
products is an integer ≤ 2²⁴ there, exact in float32, so the GEMM yields
the exact counts in any BLAS summation order on half the bytes of a
float64 operand.

Memory note: the full r² matrix is O(sites²) float64. For the window
sizes OmegaPlus feeds it (a few thousand SNPs per region) that is tens of
MB; whole-chromosome all-pairs use :mod:`repro.ld.tiled` instead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datasets.alignment import SNPAlignment
from repro.errors import LDError
from repro.ld.correlation import r_squared_from_counts
from repro.ld.operands import gemm_plane_dtype

__all__ = ["cooccurrence_gemm", "r_squared_matrix", "r_squared_block"]


def cooccurrence_gemm(alignment: SNPAlignment, *, operands=None) -> np.ndarray:
    """Return the (sites x sites) co-occurrence count matrix AᵀA.

    Uses a BLAS float GEMM on an operand of
    :func:`~repro.ld.operands.gemm_plane_dtype` and rounds back to
    integers: every partial sum is an integer the dtype holds exactly, so
    the round-trip is exact. ``operands`` accepts an
    :class:`~repro.ld.operands.LDOperands` cache whose plane is reused
    instead of converting the matrix per call.
    """
    if operands is not None:
        a = operands.gemm_columns(0, alignment.n_sites)
    else:
        a = alignment.matrix.astype(gemm_plane_dtype(alignment.n_samples))
    return np.rint(a.T @ a).astype(np.int64)


def r_squared_matrix(
    alignment: SNPAlignment,
    *,
    strict: bool = False,
    operands=None,
) -> np.ndarray:
    """Full symmetric r² matrix for all site pairs.

    The diagonal is 1 for polymorphic sites (a site is perfectly correlated
    with itself) and 0 for monomorphic ones, consistent with the
    monomorphic-pair convention in :mod:`repro.ld.correlation`.
    """
    n11 = cooccurrence_gemm(alignment, operands=operands)
    counts = (
        operands.derived_counts()
        if operands is not None
        else alignment.derived_counts()
    )
    return r_squared_from_counts(
        n11, counts[:, None], counts[None, :], alignment.n_samples,
        strict=strict,
    )


def r_squared_block(
    alignment: SNPAlignment,
    rows: slice,
    cols: slice,
    *,
    strict: bool = False,
    operands=None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """r² for the rectangular block ``rows x cols`` of the pair matrix.

    This is the primitive the tiled large-dataset driver composes; it is
    also how the GEMM engine serves OmegaPlus, which only ever needs the
    pairs inside the current grid-position window rather than the whole
    matrix. Only the requested columns are converted to the GEMM dtype
    (slice first, then ``astype``); pass ``operands``
    (:class:`~repro.ld.operands.LDOperands`) to serve the conversion from
    the per-alignment cached plane instead. ``out`` (float64, shaped
    like the block, possibly a strided view) receives the r² in place
    and is returned.
    """
    n_sites = alignment.n_sites
    r0, r1, rstep = rows.indices(n_sites)
    c0, c1, cstep = cols.indices(n_sites)
    if rstep != 1 or cstep != 1:
        raise LDError("r_squared_block requires contiguous (step-1) slices")
    if operands is not None:
        a_rows = operands.gemm_columns(r0, r1)
        a_cols = operands.gemm_columns(c0, c1)
        counts = operands.derived_counts()
    else:
        dtype = gemm_plane_dtype(alignment.n_samples)
        a_rows = alignment.matrix[:, r0:r1].astype(dtype)
        a_cols = alignment.matrix[:, c0:c1].astype(dtype)
        counts = alignment.derived_counts()
    n11 = a_rows.T @ a_cols
    return r_squared_from_counts(
        n11, counts[r0:r1, None], counts[None, c0:c1], alignment.n_samples,
        strict=strict, out=out,
    )
