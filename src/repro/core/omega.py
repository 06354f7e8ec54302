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
* :func:`omega_max_at_split` — the production path: the same maximum
  and first-occurrence argmax, from the scores a cache-sized row panel at
  a time or, on large grids of run border sets, from only the tiles whose
  Eq. (2) corner bound can reach the standing maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.dp import SplitOperands, SumMatrix, _is_run, _pairs
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

#: Smallest score grid :func:`omega_max_at_split` prunes by tile bounds;
#: smaller grids (a 240-site region's 119 x 119) scan every panel, where
#: the bounds and per-band calls cost more than the skipped scores.
PRUNE_MIN_SCORES = 1 << 15

#: Side of the square tiles whose Eq. (2) corner bound may skip them.
TILE = 8

#: Tile rows per band: the pruned path raises its standing maximum and
#: re-tests tile bounds once per band of ``BAND_TILES * TILE`` rows.
BAND_TILES = 8

#: Dead tiles a run of live tile columns may bridge in one sliced call.
BRIDGE_TILES = 4

#: The pruned path moves every corner window sum outward by
#: ``4 * PREFIX_ULPS * max|P|`` (DESIGN §5 derives it from the prefix's
#: rounding error).
PREFIX_ULPS = 2.0**-30


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
        Number of (i, j) combinations the maximum ranges over — the
        per-position workload that the GPU dispatch threshold (Eq. 4)
        inspects and the device models charge.
    n_scored:
        Scores actually evaluated on the host: ``n_evaluations`` unless
        tile bounds skipped part of the grid (seed samples included).
    """

    omega: float
    left_border: int
    right_border: int
    n_evaluations: int
    n_scored: int


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
    :meth:`~repro.core.dp.SumMatrix.split_operands` read. Every score is
    computed with the exact IEEE operations of :func:`omega_from_sums`,
    and ties keep the earliest element in row-major order.

    When both border sets are ascending runs, ``eps > 0`` and the grid
    holds at least ``PRUNE_MIN_SCORES`` scores, not every pair is scored:
    one Eq. (2) evaluation at each ``TILE`` x ``TILE`` tile's corner
    operands bounds every score in it (the window sums are sums of
    non-negative r² over nested windows, as every r² matrix of
    :mod:`repro.ld` gives), and a tile is skipped only when its bound is
    strictly below a score already found (DESIGN §5).
    ``n_scored`` counts the scores evaluated; ``n_evaluations`` is still
    the full grid. Otherwise the grid is evaluated one row panel at a
    time — Kernel II's lanes on the host: each panel is scored into three
    reused scratch panels, yields a first-occurrence (max, argmax), and
    the panels reduce in row-major order, so the first NaN wins too, as
    in ``np.argmax``.
    """
    li = np.asarray(left_borders, dtype=np.intp)
    rj = np.asarray(right_borders, dtype=np.intp)
    n_l, n_r = li.size, rj.size
    if n_l == 0 or n_r == 0:
        return OmegaMaximum(0.0, -1, -1, 0, 0)
    ops = sums.split_operands(li, c, rj)
    if (
        eps > 0 and n_l * n_r >= PRUNE_MIN_SCORES
        and _is_run(li) and _is_run(rj)
    ):
        margin = _rounding_margin(sums)
        if math.isfinite(margin):
            best, best_at, n_scored = _pruned_max(ops, margin, eps)
            jj, ii = divmod(best_at, n_l)
            return OmegaMaximum(
                best, int(li[ii]), int(rj[jj]), n_l * n_r, n_scored
            )
    sum_l, sum_r, head, block, tail, n_left, n_right, pairs_l, pairs_r = ops
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
        n_scored=n_l * n_r,
    )


def _rounding_margin(sums: SumMatrix) -> float:
    """How far the pruned path moves each corner window sum outward:
    ``4·δ`` with ``δ = PREFIX_ULPS·max|P|``, which covers twice the
    rounding error of any window sum read from the prefix (DESIGN §5)."""
    return 4.0 * PREFIX_ULPS * sums.magnitude


def _score_slice(scratch, ops: SplitOperands, rows: slice, cols: slice, eps):
    """Scores of the grid cells ``[rows, cols]`` with the panel loop's
    IEEE operations, into views of the three rows of ``scratch``.

    The border sets are runs, so only the last column (l = 1) and the
    first row (r = 1) can hold an empty window; their corner cell is the
    l = r = 1 split, patched as the panel loop patches it.
    """
    sum_l, sum_r, head, block, tail, n_left, n_right, pairs_l, pairs_r = ops
    pl, pr = pairs_l[cols], pairs_r[rows, None]
    n_rows, n_cols = pr.shape[0], pl.shape[0]
    den, num, tmp = scratch[:, : n_rows * n_cols].reshape(3, n_rows, n_cols)
    np.subtract(head[rows, None], block[rows, cols], out=den)
    np.add(den, tail[cols], out=den)  # Σ_LR
    np.multiply(n_left[cols], n_right[rows, None], out=tmp)
    np.divide(den, tmp, out=den)
    np.add(den, eps, out=den)
    np.add(sum_l[cols], sum_r[rows, None], out=num)
    np.add(pl, pr, out=tmp)
    if pl[-1] == 0.0 and pr[0, 0] == 0.0:
        num[0, -1] = 0.0
        tmp[0, -1] = 1.0
    np.divide(num, tmp, out=num)
    np.divide(num, den, out=num)
    return num


def _tile_bounds(ops: SplitOperands, margin: float, eps: float) -> np.ndarray:
    """Upper bound of every computed score in each ``TILE`` x ``TILE``
    tile of the (R, L) grid: one Eq. (2) evaluation at the tile's corner
    operands, each window sum moved outward by ``margin`` (DESIGN §5)."""
    sum_l, sum_r, head, block, tail, n_left, n_right, pairs_l, pairs_r = ops
    wide_l = np.arange(0, sum_l.size, TILE)  # widest left window per tile
    narrow_l = np.minimum(wide_l + TILE, sum_l.size) - 1
    narrow_r = slice(None, None, TILE)  # narrowest right window
    wide_r = np.minimum(np.arange(TILE - 1, sum_r.size + TILE - 1, TILE),
                        sum_r.size - 1)
    bound = np.add((sum_r[wide_r] + margin)[:, None], sum_l[wide_l] + margin)
    div = np.add(pairs_r[narrow_r, None], pairs_l[narrow_l])
    np.maximum(div, 1.0, out=div)
    bound /= div
    cross = np.subtract(head[narrow_r, None], block[narrow_r][:, narrow_l])
    cross += tail[narrow_l]
    cross -= margin
    # The lowest a cell's Σ_LR / (l·r) can round to: the lowered sum over
    # the widest l·r when it is >= 0, else the sum itself (l·r >= 1).
    np.multiply(n_right[wide_r, None], n_left[wide_l], out=div)
    np.minimum(cross, np.divide(cross, div, out=div), out=cross)
    cross += eps
    with np.errstate(divide="ignore", invalid="ignore"):
        bound /= cross
    bound[cross <= 0.0] = np.inf
    return bound


def _pruned_max(ops: SplitOperands, margin: float, eps: float):
    """``(max, row-major argmax, scores evaluated)`` over the grid of run
    border sets, skipping every tile whose bound is below the standing
    maximum (DESIGN §5).

    The maximum starts at the best of one real score per tile (rows and
    columns 0, TILE, 2·TILE, …), then of the whole first tile row when
    half its tiles outlive that: the bound is loosest there, where the
    right windows are narrowest and l·r varies most across a tile. It
    rises band by band. A tile is skipped only when its bound is
    *strictly* below an actual score, so no skipped cell can equal the
    maximum, and ties between scored cells keep the smaller row-major
    index, as ``np.argmax`` does.
    """
    n_l, n_r = ops.sum_l.size, ops.sum_r.size
    bounds = _tile_bounds(ops, margin, eps)
    n_tr, n_tc = bounds.shape
    scratch = np.empty((3, max(BAND_TILES * TILE * n_l, bounds.size)))
    step = slice(None, None, TILE)
    seed = _score_slice(scratch, ops, step, step, eps)
    k = int(seed.argmax())
    row, col = divmod(k, n_tc)
    best, best_at = seed.item(k), row * TILE * n_l + col * TILE
    n_scored = seed.size

    def take(j0, j1, i0, i1):
        """Score rows j0..j1-1 x columns i0..i1-1 into the maximum."""
        nonlocal best, best_at, n_scored
        rows, cols = slice(j0, j1), slice(i0, i1)
        scores = _score_slice(scratch, ops, rows, cols, eps)
        k = int(scores.argmax())
        value = scores.item(k)
        jj, ii = divmod(k, i1 - i0)
        at = (j0 + jj) * n_l + i0 + ii
        if value > best or (value == best and at < best_at):
            best, best_at = value, at
        n_scored += scores.size

    if np.count_nonzero(bounds[0] >= best) * 2 >= n_tc:
        take(0, min(TILE, n_r), 0, n_l)
        bounds[0] = -np.inf
    for t0 in range(0, n_tr, BAND_TILES):
        live = bounds[t0 : t0 + BAND_TILES] >= best
        cols = np.flatnonzero(live.any(axis=0)).tolist()
        # Runs of live tile columns, bridging short gaps of dead ones.
        while cols:
            c0 = c1 = cols.pop(0)
            while cols and cols[0] - c1 <= BRIDGE_TILES + 1:
                c1 = cols.pop(0)
            rows = np.flatnonzero(live[:, c0 : c1 + 1].any(axis=1))
            take(
                (t0 + int(rows[0])) * TILE,
                min((t0 + int(rows[-1]) + 1) * TILE, n_r),
                c0 * TILE,
                min((c1 + 1) * TILE, n_l),
            )
    return best, best_at, n_scored
