"""The ω statistic (Kim & Nielsen 2004), Eq. (2) of the paper.

For a region of W SNPs split into a left window of l SNPs and a right
window of r = W - l SNPs,

          ( C(l,2) + C(r,2) )⁻¹ · ( Σ_L + Σ_R )
    ω = ------------------------------------------
              ( l · r )⁻¹ · Σ_LR + ε

Σ_L and Σ_R are the sums of r² over pairs within the left and right
windows, Σ_LR the sum over straddling pairs. High ω flags the sweep
signature: strong LD inside each flank, weak LD across the focal point.

ε is OmegaPlus's ``DENOMINATOR_OFFSET`` (1e-5 in the original source): a
guard against division by zero when the cross-window LD sum is exactly 0.
We keep the same default so scores are comparable with the original tool.

Evaluation model (Fig. 2 / Fig. 6): at one grid position the split index c
is *fixed* (the SNP immediately left of the position); the left border i
and right border j vary over their candidate ranges, and the reported
score is the maximum ω over all (i, j) combinations. That double loop —
``(number of left borders) x (number of right borders)`` ω evaluations —
is precisely the workload the paper's GPU and FPGA accelerators attack.

Four evaluators live here:

* :func:`omega_from_sums` — the bare formula, vectorized.
* :func:`omega_brute_force` — triple-loop oracle built directly on r²
  pairs (test reference; O(W²) per (i, j) candidate).
* :func:`omega_split_matrix` — every split's score at once from a
  :class:`~repro.core.dp.SumMatrix`, as one (R, L) matrix; the reference
  :func:`omega_max_at_split` must reproduce bit for bit.
* :func:`omega_max_at_split` — the production path: the same scores a
  cache-sized row panel at a time, reduced to their maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.dp import SumMatrix, _pairs
from repro.errors import ScanConfigError

__all__ = [
    "DENOMINATOR_OFFSET",
    "omega_from_sums",
    "omega_brute_force",
    "omega_split_matrix",
    "omega_max_at_split",
    "OmegaMaximum",
]

#: OmegaPlus's denominator guard (same value as the original C source).
DENOMINATOR_OFFSET = 1e-5

#: Score-grid elements per row panel of :func:`omega_max_at_split`: its
#: three float64 scratch panels (768 KiB together) fit a per-core L2.
PANEL_ELEMENTS = 1 << 15


def omega_from_sums(
    sum_l,
    sum_r,
    sum_lr,
    n_left,
    n_right,
    *,
    eps: float = DENOMINATOR_OFFSET,
    checked: bool = True,
):
    """Evaluate Eq. (2) from window sums; broadcasts over array inputs.

    Splits whose within-pair normalizer C(l,2) + C(r,2) is zero (both
    windows of size 1) score 0 — they contain no within-window pair and so
    carry no sweep signal.

    ``checked=False`` skips the window-size validation pass — the fast
    path for internal callers whose border sets were already validated at
    plan/pack construction time (every border admitted by
    :class:`~repro.core.dp.SumMatrix`'s range checks yields window sizes
    >= 1 by construction). The public API keeps the checked default.
    """
    sum_l = np.asarray(sum_l, dtype=np.float64)
    sum_r = np.asarray(sum_r, dtype=np.float64)
    sum_lr = np.asarray(sum_lr, dtype=np.float64)
    n_left = np.asarray(n_left, dtype=np.float64)
    n_right = np.asarray(n_right, dtype=np.float64)
    if checked and (np.any(n_left < 1) or np.any(n_right < 1)):
        raise ScanConfigError("window sizes must be >= 1 SNP")
    within_pairs = _pairs(n_left) + _pairs(n_right)
    cross_pairs = n_left * n_right
    numerator = np.where(
        within_pairs > 0, (sum_l + sum_r) / np.maximum(within_pairs, 1.0), 0.0
    )
    denominator = sum_lr / cross_pairs + eps
    omega = numerator / denominator
    if omega.ndim == 0:
        return float(omega)
    return omega


def omega_brute_force(
    r2: np.ndarray,
    a: int,
    c: int,
    b: int,
    *,
    eps: float = DENOMINATOR_OFFSET,
) -> float:
    """ω for the single window (left = sites a..c, right = c+1..b) computed
    by explicit summation over the r² matrix. Test oracle only."""
    r2 = np.asarray(r2, dtype=np.float64)
    w = r2.shape[0]
    if not (0 <= a <= c < b < w):
        raise ScanConfigError(f"need 0 <= a <= c < b < W, got {(a, c, b, w)}")
    sum_l = 0.0
    for i in range(a, c + 1):
        for j in range(a, i):
            sum_l += r2[i, j]
    sum_r = 0.0
    for i in range(c + 1, b + 1):
        for j in range(c + 1, i):
            sum_r += r2[i, j]
    sum_lr = 0.0
    for i in range(c + 1, b + 1):
        for j in range(a, c + 1):
            sum_lr += r2[i, j]
    return float(
        omega_from_sums(sum_l, sum_r, sum_lr, c - a + 1, b - c, eps=eps)
    )


def omega_split_matrix(
    sums: SumMatrix,
    left_borders: np.ndarray,
    c: int,
    right_borders: np.ndarray,
    *,
    eps: float = DENOMINATOR_OFFSET,
) -> np.ndarray:
    """ω for every (left border, right border) combination at split ``c``.

    Returns shape ``(len(right_borders), len(left_borders))``; entry
    ``[jj, ii]`` scores the window ``left_borders[ii] .. right_borders[jj]``.
    Fully vectorized — this is the same score set the GPU kernels compute
    with one work-item per entry (Kernel I) or several entries per
    work-item (Kernel II).
    """
    li = np.asarray(left_borders, dtype=np.intp)
    rj = np.asarray(right_borders, dtype=np.intp)
    if li.size == 0 or rj.size == 0:
        return np.zeros((rj.size, li.size))
    sum_l = sums.left_sums(li, c)  # (L,)
    sum_r = sums.right_sums(c, rj)  # (R,)
    sum_lr = sums.cross_sums_grid(li, c, rj)  # (R, L)
    n_left = (c - li + 1).astype(np.float64)  # (L,)
    n_right = (rj - c).astype(np.float64)  # (R,)
    # Window sizes derive from valid border indices (li <= c < rj), so
    # they are >= 1 by construction — skip the public-API validation.
    return omega_from_sums(
        sum_l[None, :],
        sum_r[:, None],
        sum_lr,
        n_left[None, :],
        n_right[:, None],
        eps=eps,
        checked=False,
    )


@dataclass(frozen=True)
class OmegaMaximum:
    """Result of maximizing ω over all splits at one grid position.

    Attributes
    ----------
    omega:
        The maximum ω score (0.0 when no valid split exists).
    left_border, right_border:
        Region-local site indices of the maximizing window, or -1 when no
        valid split exists.
    n_evaluations:
        Number of (i, j) combinations scored — the per-position workload
        that the GPU dispatch threshold (Eq. 4) inspects.
    """

    omega: float
    left_border: int
    right_border: int
    n_evaluations: int


def omega_max_at_split(
    sums: SumMatrix,
    left_borders: np.ndarray,
    c: int,
    right_borders: np.ndarray,
    *,
    eps: float = DENOMINATOR_OFFSET,
) -> OmegaMaximum:
    """Maximize ω over all border combinations at a fixed split ``c``.

    Bitwise-equal to ``np.argmax`` over :func:`omega_split_matrix` (the
    full-matrix reference). The operands come from one
    :meth:`~repro.core.dp.SumMatrix.split_operands` read, and the score
    grid is evaluated one row panel at a time — Kernel II's lanes on the
    host: each panel is scored with the exact IEEE operations of
    :func:`omega_from_sums` into three reused scratch panels, yields a
    first-occurrence (max, argmax), and the panels reduce in row-major
    order, so ties keep the earliest element and the first NaN wins, as
    in ``np.argmax``.
    """
    li = np.asarray(left_borders, dtype=np.intp)
    rj = np.asarray(right_borders, dtype=np.intp)
    n_l, n_r = li.size, rj.size
    if n_l == 0 or n_r == 0:
        return OmegaMaximum(0.0, -1, -1, 0)
    (sum_l, sum_r, head, block, tail, n_left, n_right, pairs_l,
     pairs_r) = sums.split_operands(li, c, rj)
    # Splits with no within-window pair (l = r = 1) score 0 / denominator;
    # omega_from_sums reaches that through np.where, here those cells of
    # the numerator and its divisor are patched before the division.
    empty_l = np.flatnonzero(pairs_l == 0.0)
    empty_r = np.flatnonzero(pairs_r == 0.0) if empty_l.size else empty_l
    rows = max(1, PANEL_ELEMENTS // n_l)
    scratch = np.empty((3, min(rows, n_r), n_l))
    best, best_at = 0.0, -1
    for j0 in range(0, n_r, rows):
        j1 = min(j0 + rows, n_r)
        den, num, tmp = scratch[:, : j1 - j0]
        np.subtract(head[j0:j1, None], block[j0:j1], out=den)
        np.add(den, tail, out=den)  # Σ_LR
        np.multiply(n_left, n_right[j0:j1, None], out=tmp)
        np.divide(den, tmp, out=den)
        np.add(den, eps, out=den)
        np.add(sum_l, sum_r[j0:j1, None], out=num)
        np.add(pairs_l, pairs_r[j0:j1, None], out=tmp)
        if empty_r.size:
            local = empty_r[(empty_r >= j0) & (empty_r < j1)] - j0
            hit = np.ix_(local, empty_l)
            num[hit] = 0.0
            tmp[hit] = 1.0
        np.divide(num, tmp, out=num)
        np.divide(num, den, out=num)
        k = int(num.argmax())
        value = num.item(k)
        # Replace unless the standing maximum is NaN (the first NaN wins);
        # a tie keeps the earlier panel's element.
        if best_at < 0 or (
            not math.isnan(best) and (value > best or math.isnan(value))
        ):
            best, best_at = value, j0 * n_l + k
    jj, ii = divmod(best_at, n_l)
    return OmegaMaximum(
        omega=best,
        left_border=int(li[ii]),
        right_border=int(rj[jj]),
        n_evaluations=n_l * n_r,
    )
