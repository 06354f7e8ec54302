"""Pairwise linkage disequilibrium as squared Pearson correlation (r²).

This is Eq. (1) of the paper with its typos corrected (the numerator is
squared and the second denominator frequency is p_j, matching the
OmegaPlus source and Kim & Nielsen 2004):

    r²_ij = (p_ij - p_i p_j)² / (p_i (1 - p_i) p_j (1 - p_j))

where p_i, p_j are derived-allele frequencies at sites i and j and p_ij is
the frequency of samples derived at *both* sites. For binary data this is
exactly the squared Pearson correlation of the two indicator columns.

Monomorphic sites make the denominator zero; following OmegaPlus we define
their r² contribution as 0 (they carry no association information) unless
the caller asks for strict behaviour.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datasets.alignment import SNPAlignment
from repro.errors import LDError

__all__ = ["r_squared_pair", "r_squared_pairs", "r_squared_from_counts"]


def r_squared_from_counts(
    n11: np.ndarray,
    c_i: np.ndarray,
    c_j: np.ndarray,
    n_samples: int,
    *,
    strict: bool = False,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """r² from sufficient statistics (vectorized).

    Parameters
    ----------
    n11:
        Count of samples derived at both sites of each pair, in any real
        dtype that holds the counts exactly (an integer GEMM or popcount
        result, float32 or float64).
    c_i, c_j:
        Derived-allele counts at the first/second site of each pair. They
        broadcast against ``n11``: a block passes per-site counts shaped
        (R, 1) and (1, C), so p and p(1 − p) are computed once per site,
        not once per cell.
    n_samples:
        Total sample count n (so p = c / n).
    strict:
        If True, raise :class:`~repro.errors.LDError` when any pair involves
        a monomorphic site; otherwise those pairs get r² = 0.
    out:
        Optional float64 array, shaped like the broadcast inputs, that
        receives the result; it may be a strided view (a region buffer's
        block), and is returned.

    Returns
    -------
    numpy.ndarray
        float64 array of r² values in [0, 1], shaped like the three inputs
        broadcast together.
    """
    if n_samples <= 0:
        raise LDError(f"n_samples must be positive, got {n_samples}")
    n = float(n_samples)
    c_i = np.asarray(c_i, dtype=np.float64)
    c_j = np.asarray(c_j, dtype=np.float64)
    n11 = np.asarray(n11)
    shape = np.broadcast_shapes(n11.shape, c_i.shape, c_j.shape)
    p_i = c_i / n
    p_j = c_j / n
    # Grouped per site so the product is exactly symmetric under an
    # (i, j) swap (float multiplication commutes bitwise; the flat
    # left-to-right order would not associate the same way) — this is
    # what lets symmetric consumers serve r2(j, i) as r2(i, j) verbatim.
    q_i = p_i * (1.0 - p_i)
    q_j = p_j * (1.0 - p_j)
    # Every cell below sees the same IEEE operations in the same order as
    # the elementwise formula (p_ij − p_i p_j)² / (q_i q_j); only the
    # per-site factors are no longer materialized at full size.
    if out is None:
        r2 = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise LDError(
            f"out must be float64 of shape {shape}, got {out.dtype} "
            f"{out.shape}"
        )
    else:
        r2 = out
    np.divide(n11, n, out=r2, dtype=np.float64)  # p_ij
    tmp = np.empty(shape)
    np.multiply(p_i, p_j, out=tmp)
    r2 -= tmp  # num
    r2 *= r2
    np.multiply(q_i, q_j, out=tmp)  # denom
    bad = tmp <= 0.0
    if strict and bad.any():
        raise LDError("r-squared undefined for monomorphic site(s)")
    np.divide(r2, tmp, out=r2, where=~bad)
    r2[bad] = 0.0
    # Guard against float round-off pushing r2 infinitesimally above 1.
    return np.clip(r2, 0.0, 1.0, out=r2)


def r_squared_pair(alignment: SNPAlignment, i: int, j: int) -> float:
    """r² between two sites of an alignment (scalar convenience form)."""
    if not (0 <= i < alignment.n_sites and 0 <= j < alignment.n_sites):
        raise LDError(
            f"site indices ({i}, {j}) out of range for {alignment.n_sites} sites"
        )
    col_i = alignment.matrix[:, i].astype(np.int64)
    col_j = alignment.matrix[:, j].astype(np.int64)
    n11 = int(np.dot(col_i, col_j))
    return float(
        r_squared_from_counts(
            np.array([n11]),
            np.array([col_i.sum()]),
            np.array([col_j.sum()]),
            alignment.n_samples,
        )[0]
    )


def r_squared_pairs(
    alignment: SNPAlignment,
    i: np.ndarray,
    j: np.ndarray,
    *,
    strict: bool = False,
) -> np.ndarray:
    """r² for arbitrary arrays of site-index pairs.

    The co-occurrence counts come from one batched einsum over the gathered
    columns, so cost is O(pairs * samples) with a single pass over memory.
    """
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    if i.shape != j.shape:
        raise LDError(f"index shapes differ: {i.shape} vs {j.shape}")
    if i.size == 0:
        return np.zeros(i.shape)
    hi = alignment.n_sites
    if i.min() < 0 or j.min() < 0 or i.max() >= hi or j.max() >= hi:
        raise LDError(f"site index out of range for {hi} sites")
    # Gather the requested columns first, then convert — never a
    # full-matrix float64 temporary for a handful of pairs.
    a = alignment.matrix[:, i].astype(np.float64)
    b = alignment.matrix[:, j].astype(np.float64)
    n11 = np.einsum("sk,sk->k", a, b)
    counts = alignment.derived_counts()
    return r_squared_from_counts(
        n11, counts[i], counts[j], alignment.n_samples, strict=strict
    )
