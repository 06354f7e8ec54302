"""Popcount LD kernels on word-packed data.

This is the OmegaPlus-native way of computing LD: SNP columns are packed
into 64-bit words (:class:`~repro.datasets.packed.PackedAlignment`) and the
co-occurrence count of a site pair is the popcount of the AND of their word
vectors. The FPGA LD accelerators of Alachiotis & Weisz [19] and Bozikas et
al. [20] implement exactly this operation in logic; here it serves both as
an independent implementation to cross-validate the GEMM path and as the
functional model backing the FPGA LD engine.

The production block kernel (:func:`r_squared_block_packed`) loops over
the **word axis**, accumulating co-occurrence counts into a uint32 (R, C)
tile — peak extra memory is two (R, C) planes regardless of sample count,
and each pass is a contiguous AND + popcount over a word slab.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datasets.packed import PackedAlignment
from repro.errors import LDError
from repro.ld.correlation import r_squared_from_counts
from repro.utils.bitops import HAVE_BITWISE_COUNT, popcount64_swar

__all__ = [
    "r_squared_pairs_packed",
    "r_squared_matrix_packed",
    "r_squared_block_packed",
    "cooccurrence_block_packed",
]


def r_squared_pairs_packed(
    packed: PackedAlignment,
    i: np.ndarray,
    j: np.ndarray,
    *,
    strict: bool = False,
) -> np.ndarray:
    """r² for arrays of site-index pairs on packed data."""
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    if i.shape != j.shape:
        raise LDError(f"index shapes differ: {i.shape} vs {j.shape}")
    if i.size == 0:
        return np.zeros(i.shape)
    hi = packed.n_sites
    if i.min() < 0 or j.min() < 0 or i.max() >= hi or j.max() >= hi:
        raise LDError(f"site index out of range for {hi} sites")
    n11 = packed.pair_counts(i, j)
    counts = packed.derived_counts()
    return r_squared_from_counts(
        n11, counts[i], counts[j], packed.n_samples, strict=strict
    )


def cooccurrence_block_packed(
    row_words: np.ndarray, col_words: np.ndarray
) -> np.ndarray:
    """Co-occurrence counts n11 for every (row-site, col-site) pair.

    Loops over the word axis: each pass ANDs one word column of the rows
    against one word column of the cols and accumulates its popcount into
    a uint32 (R, C) tile. Compared with one 3-D (R, C, w) AND broadcast
    this replaces an (R·C·w)-word temporary with two (R, C) planes and
    turns the popcount into w contiguous passes — the same word-serial
    schedule the FPGA LD engines pipeline in logic.

    Parameters
    ----------
    row_words, col_words:
        ``uint64`` arrays of shape (R, w) and (C, w) — site-major packed
        words sharing the same word count ``w``.

    Returns
    -------
    numpy.ndarray
        ``uint32`` array of shape (R, C); exact counts (≤ 64·w < 2³²).
    """
    if row_words.dtype != np.uint64 or col_words.dtype != np.uint64:
        raise LDError("cooccurrence_block_packed expects uint64 word planes")
    n_rows, w = row_words.shape
    n_cols, w2 = col_words.shape
    if w != w2:
        raise LDError(f"word counts differ: {w} vs {w2}")
    n11 = np.zeros((n_rows, n_cols), dtype=np.uint32)
    if w == 0 or n_rows == 0 or n_cols == 0:
        return n11
    # Word-major transposed copies make each pass read two contiguous
    # vectors (one cache line stream per operand) instead of striding
    # through site-major rows; measured ~1.6x on 512-wide tiles.
    rwT = np.ascontiguousarray(row_words.T)  # (w, R)
    cwT = np.ascontiguousarray(col_words.T)  # (w, C)
    both = np.empty((n_rows, n_cols), dtype=np.uint64)
    if HAVE_BITWISE_COUNT:
        for k in range(w):
            np.bitwise_and(rwT[k][:, None], cwT[k][None, :], out=both)
            # bitwise_count yields uint8 (≤ 64), widened into the uint32
            # accumulator; exact, no overflow possible.
            np.add(n11, np.bitwise_count(both), out=n11, casting="unsafe")
    else:
        for k in range(w):
            np.bitwise_and(rwT[k][:, None], cwT[k][None, :], out=both)
            # SWAR returns int64 in [0, 64]; the unsafe cast into uint32
            # is exact for those values.
            np.add(n11, popcount64_swar(both), out=n11, casting="unsafe")
    return n11


def _block_slices(
    packed: PackedAlignment, rows: slice, cols: slice
) -> tuple:
    n_sites = packed.n_sites
    r0, r1, rstep = rows.indices(n_sites)
    c0, c1, cstep = cols.indices(n_sites)
    if rstep != 1 or cstep != 1:
        raise LDError("r_squared_block_packed requires contiguous slices")
    return r0, r1, c0, c1


def r_squared_block_packed(
    packed: PackedAlignment,
    rows: slice,
    cols: slice,
    *,
    strict: bool = False,
    counts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """r² for a rectangular block of the pair matrix on packed data.

    Uses the blocked word-accumulating schedule of
    :func:`cooccurrence_block_packed` (O(R·C) extra memory). ``counts``
    accepts precomputed per-site derived counts (the operand cache path)
    to skip the per-call popcount of the whole plane.
    """
    r0, r1, c0, c1 = _block_slices(packed, rows, cols)
    # The shared r² tail converts the exact uint32 counts to float64 in
    # its first pass, so no separate conversion pass over the tile.
    n11 = cooccurrence_block_packed(packed.words[r0:r1], packed.words[c0:c1])
    if counts is None:
        counts = packed.derived_counts()
    return r_squared_from_counts(
        n11, counts[r0:r1, None], counts[None, c0:c1], packed.n_samples,
        strict=strict,
    )


def r_squared_matrix_packed(
    packed: PackedAlignment,
    *,
    block: int = 512,
    strict: bool = False,
) -> np.ndarray:
    """Full symmetric r² matrix from packed data, computed block-wise so
    each block's accumulator planes stay cache-resident."""
    n = packed.n_sites
    out = np.zeros((n, n))
    if n == 0:
        return out
    if block < 1:
        raise LDError(f"block must be >= 1, got {block}")
    counts = packed.derived_counts()
    for r0 in range(0, n, block):
        r1 = min(r0 + block, n)
        for c0 in range(0, n, block):
            c1 = min(c0 + block, n)
            out[r0:r1, c0:c1] = r_squared_block_packed(
                packed,
                slice(r0, r1),
                slice(c0, c1),
                strict=strict,
                counts=counts,
            )
    return out
