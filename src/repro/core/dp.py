"""The OmegaPlus sum matrix *M* (Eq. 3) and fast window sums.

OmegaPlus never consumes individual r² values: the omega statistic only
needs *sums* of r² over sub-windows. It therefore maintains a matrix M
where ``M[i][j]`` holds the sum of r² over all unordered SNP pairs drawn
from the index interval ``[j, i]``, filled with the dynamic-programming
recurrence of Eq. (3):

    M[i][i]   = 0
    M[i][i-1] = r²(i, i-1)
    M[i][j]   = M[i][j+1] + M[i-1][j] - M[i-1][j+1] + r²(i, j)

With M in hand, every window sum the omega formula needs drops out in O(1):
for a region ``[a..b]`` split after index ``c``,

    Σ_L  = M[c][a]               (pairs inside the left window)
    Σ_R  = M[b][c+1]             (pairs inside the right window)
    Σ_LR = M[b][a] - Σ_L - Σ_R   (pairs straddling the split)

Two constructions are provided:

* :func:`build_m_recurrence` — the literal Eq. (3) loop. It is the
  ground-truth reference (kept deliberately simple) and the test oracle.
* :class:`SumMatrix` — an O(W²) vectorized construction via 2-D prefix
  sums of the r² matrix, used by the production scanner. Both agree to
  float round-off; hypothesis tests in ``tests/test_dp.py`` enforce it.

Memory: both hold a dense W x W float64 array for a W-SNP region (the
prefix, like M, uses only its lower triangle). The scanner bounds W via
the maximum-window parameter, exactly as OmegaPlus bounds its region size.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import ScanConfigError

__all__ = ["append_prefix_rows", "build_m_recurrence", "SplitOperands",
           "SumMatrix"]


def build_m_recurrence(r2: np.ndarray) -> np.ndarray:
    """Fill M by the literal Eq. (3) recurrence (reference implementation).

    Parameters
    ----------
    r2:
        Symmetric (W x W) matrix of pairwise r² values for the region.
        Only the strict lower triangle is read.

    Returns
    -------
    numpy.ndarray
        (W x W) float64 matrix; entry ``[i, j]`` with ``j <= i`` holds the
        sum of r² over all pairs within ``[j, i]``; entries above the
        diagonal are 0.
    """
    r2 = np.asarray(r2, dtype=np.float64)
    if r2.ndim != 2 or r2.shape[0] != r2.shape[1]:
        raise ScanConfigError(f"r2 must be square, got shape {r2.shape}")
    w = r2.shape[0]
    m = np.zeros((w, w))
    for i in range(1, w):
        m[i, i - 1] = r2[i, i - 1]
        for j in range(i - 2, -1, -1):
            m[i, j] = m[i, j + 1] + m[i - 1, j] - m[i - 1, j + 1] + r2[i, j]
    return m


#: Rows per running-sum call of :func:`append_prefix_rows`; each band stops
#: at its last row's diagonal, so a W-row build sums ~W²/2 cells, not W².
CUMSUM_ROWS = 64


def append_prefix_rows(p: np.ndarray, rows: np.ndarray, r0: int, c0: int):
    """Append rows ``r0 + 1 .. r0 + F`` of a lower-triangular window-sum
    prefix ``p`` in place, over columns ``c0`` to the diagonal. Row ``i``
    adds site ``i - 1``, whose r² against sites ``c0, c0 + 1, ...`` is
    ``rows[i - r0 - 1]``; row ``r0`` must be final from column ``c0`` on.

    R, the running sums of the r² rows from ``c0``, is written straight
    into the new rows (cells right of a row's diagonal are never read).
    Then ``P[i, i] = (P[i-1, i-1] + R[i, i-1]) + R[i, i-1]`` for all rows
    in one ``cumsum`` (``P[i-1, i]`` mirrors ``P[i, i-1]``; r²(i, i) counts
    0), and ``P[i, j] = P[i-1, j] + R[i, j]`` for ``c0 <= j < i``, one
    ``np.add`` per row; column ``c0`` has ``R = 0``. Each cell adds a
    non-negative sum to the one above or before it, so for r² >= 0 the
    triangle is non-decreasing along both axes (DESIGN §5).
    """
    f = rows.shape[0]
    n = r0 + f
    new = p[r0 + 1 : n + 1]
    new[:, c0] = 0.0
    for a in range(0, f, CUMSUM_ROWS):
        b = min(a + CUMSUM_ROWS, f)
        m = r0 + b - 1 - c0  # the band's last row stops at its diagonal
        out = new[a:b, c0 + 1 : c0 + 1 + m]
        np.cumsum(rows[a:b, :m], axis=1, dtype=np.float64, out=out)
    at = np.arange(r0 + 1, n + 1)
    diag = np.empty(2 * f + 1)
    diag[0] = p[r0, r0]
    diag[1::2] = diag[2::2] = p[at, at - 1]  # R[i, i-1], twice
    p[at, at] = np.cumsum(diag, out=diag)[2::2]
    lines = list(p[r0 : n + 1, c0:n])
    for k, (above, row) in enumerate(zip(lines, lines[1:]), r0 + 1 - c0):
        row = row[:k]
        np.add(above[:k], row, row)


class SplitOperands(NamedTuple):
    """Every operand Eq. (2) reads at one split ``c``, for ``L`` left and
    ``R`` right borders (:meth:`SumMatrix.split_operands`).

    ``sum_l`` (L,) and ``sum_r`` (R,) are :meth:`SumMatrix.left_sums` and
    :meth:`SumMatrix.right_sums`; ``head`` (R,), ``block`` (R, L) and
    ``tail`` (L,) are :meth:`SumMatrix.cross_sum_terms`, so
    ``Σ_LR[jj, ii] = (head[jj] - block[jj, ii]) + tail[ii]``; ``n_left``
    and ``n_right`` are the window sizes in SNPs as float64 and
    ``pairs_l`` / ``pairs_r`` their pair counts C(n, 2). Any field may be
    a read-only view.
    """

    sum_l: np.ndarray
    sum_r: np.ndarray
    head: np.ndarray
    block: np.ndarray
    tail: np.ndarray
    n_left: np.ndarray
    n_right: np.ndarray
    pairs_l: np.ndarray
    pairs_r: np.ndarray


class SumMatrix:
    """O(1) window sums of r² for one region, built in O(W²) vector ops.

    Internally stores the 2-D inclusive prefix sum P of the symmetric r²
    matrix (diagonal counted as 0). The sum of r² over all unordered
    pairs within ``[a..b]`` is then ``block_sum(a, b) / 2`` where
    ``block_sum`` is the rectangle sum over ``[a..b] x [a..b]``: each
    off-diagonal pair appears twice and the diagonal contributes nothing.
    P is symmetric, so only its lower triangle is computed
    (:func:`append_prefix_rows`) and read: ``P[i, j]``, ``i < j``, is
    read as ``P[j, i]``.
    """

    def __init__(self, r2: np.ndarray):
        """Build the prefix structure.

        Parameters
        ----------
        r2:
            (W x W) pairwise r² matrix, taken as symmetric: only its
            strict lower triangle reaches the sums.
        """
        r2 = np.asarray(r2, dtype=np.float64)
        if r2.ndim != 2 or r2.shape[0] != r2.shape[1]:
            raise ScanConfigError(f"r2 must be square, got shape {r2.shape}")
        w = r2.shape[0]
        p = np.empty((w + 1, w + 1))
        p[0, 0] = 0.0
        append_prefix_rows(p, r2, 0, 0)
        self._prefix = p
        self._w = w

    @classmethod
    def from_prefix(cls, prefix: np.ndarray, n_sites: int) -> "SumMatrix":
        """Wrap an existing ``(W+1, W+1)`` prefix block without rebuilding.

        Used by :class:`~repro.core.reuse.SumMatrixCache` to serve a
        region as an offset view into a larger anchored prefix structure.
        The block does **not** need a zero first row/column: every query
        below is a four-corner rectangle difference, so a shift of the
        prefix by ``E[i] + E[j]`` (an earlier anchor) cancels exactly.
        """
        prefix = np.asarray(prefix, dtype=np.float64)
        if prefix.shape != (n_sites + 1, n_sites + 1):
            raise ScanConfigError(
                f"prefix shape {prefix.shape} does not match "
                f"{n_sites} sites"
            )
        obj = cls.__new__(cls)
        obj._prefix = prefix
        obj._w = n_sites
        return obj

    @property
    def n_sites(self) -> int:
        """Region width W."""
        return self._w

    @property
    def magnitude(self) -> float:
        """max |P| over the prefix block, read at its two extreme corners:
        the lower triangle of a prefix of non-negative r² is non-decreasing
        along both axes (in floating point too, since every partial sum
        adds a value >= 0), so no entry a query reads is larger. A NaN or
        infinite r² reaches the last corner through the sums, so it shows
        here too."""
        p = self._prefix
        return float(np.abs(p[[0, -1], [0, -1]]).max())

    def _block(self, r0: int, r1: int, c0: int, c1: int) -> float:
        """Rectangle sum of the symmetric r² matrix over rows [r0..r1],
        cols [c0..c1], inclusive indices."""
        p = self._prefix
        cells = ((r1 + 1, c1 + 1), (r0, c1 + 1), (r1 + 1, c0), (r0, c0))
        a, b, c, d = (p[max(i, j), min(i, j)] for i, j in cells)  # mirrors
        return float(a - b - c + d)

    def _check(self, a: int, b: int) -> None:
        if not (0 <= a <= b < self._w):
            raise ScanConfigError(
                f"window [{a}, {b}] out of bounds for region of {self._w} sites"
            )

    def pair_sum(self, a: int, b: int) -> float:
        """Σ r² over all unordered pairs within sites ``[a..b]``.

        This is ``M[b][a]`` in OmegaPlus's storage.
        """
        self._check(a, b)
        return 0.5 * self._block(a, b, a, b)

    def cross_sum(self, a: int, c: int, b: int) -> float:
        """Σ r² over pairs straddling the split: left ``[a..c]`` x right
        ``[c+1..b]`` (the omega denominator term Σ_LR)."""
        self._check(a, b)
        if not (a <= c < b):
            raise ScanConfigError(
                f"split c={c} must satisfy a <= c < b (a={a}, b={b})"
            )
        return self._block(c + 1, b, a, c)

    # ------------------------------------------------------------------ #
    # vectorized forms used by the omega all-splits evaluation
    # ------------------------------------------------------------------ #

    def left_sums(self, borders: np.ndarray, c: int) -> np.ndarray:
        """Vector of Σ_L = pair_sum(i, c) for each left border ``i``."""
        borders = np.asarray(borders, dtype=np.intp)
        if borders.size == 0:
            return np.zeros(0)
        if borders.min() < 0 or borders.max() > c or c >= self._w:
            raise ScanConfigError("left borders must satisfy 0 <= i <= c < W")
        p = self._prefix
        # block(i..c, i..c) = P[c+1,c+1] - P[i,c+1] - P[c+1,i] + P[i,i]
        tail = p[c + 1, borders]
        return 0.5 * (((p[c + 1, c + 1] - tail) - tail) + p[borders, borders])

    def right_sums(self, c: int, borders: np.ndarray) -> np.ndarray:
        """Vector of Σ_R = pair_sum(c + 1, j) for each right border ``j``."""
        borders = np.asarray(borders, dtype=np.intp)
        if borders.size == 0:
            return np.zeros(0)
        lo = c + 1
        if lo < 0 or borders.min() < lo or borders.max() >= self._w:
            raise ScanConfigError("right borders must satisfy c < j < W")
        p = self._prefix
        col = p[borders + 1, lo]
        return 0.5 * (((p[borders + 1, borders + 1] - col) - col) + p[lo, lo])

    def cross_sums_grid(
        self, left_borders: np.ndarray, c: int, right_borders: np.ndarray
    ) -> np.ndarray:
        """Matrix of Σ_LR for every (right border, left border) pair.

        Returns shape ``(len(right_borders), len(left_borders))`` — the
        orientation matches the GPU kernels, which assign the inner loop to
        the larger side (Section IV-B).
        """
        head, block, tail = self.cross_sum_terms(left_borders, c, right_borders)
        return (head[:, None] - block) + tail[None, :]

    def cross_sum_terms(
        self, left_borders: np.ndarray, c: int, right_borders: np.ndarray
    ) -> tuple:
        """:meth:`cross_sums_grid` unevaluated: ``(head, block, tail)``
        with ``Σ_LR[jj, ii] = (head[jj] - block[jj, ii]) + tail[ii]``,
        gathered from the prefix for any border sets (:meth:`run_operands`
        reads runs of consecutive borders as slices).

        Evaluating that expression reproduces :meth:`cross_sums_grid` bit
        for bit, one row panel at a time if the caller wishes.
        """
        li = np.asarray(left_borders, dtype=np.intp)
        rj = np.asarray(right_borders, dtype=np.intp)
        if li.size == 0 or rj.size == 0:
            return (
                np.zeros(rj.size), np.zeros((rj.size, li.size)),
                np.zeros(li.size),
            )
        if (
            li.min() < 0 or li.max() > c
            or rj.min() <= c or rj.max() >= self._w
        ):
            raise ScanConfigError("borders out of range for cross_sums_grid")
        p = self._prefix
        rows = rj + 1
        # block(c+1..j, i..c) = P[j+1, c+1] - P[c+1, c+1] - P[j+1, i] + P[c+1, i]
        head = p[rows, c + 1] - p[c + 1, c + 1]
        return head, p[np.ix_(rows, li)], p[c + 1, li]

    def split_operands(
        self, left_borders: np.ndarray, c: int, right_borders: np.ndarray
    ) -> SplitOperands:
        """All of one split's Eq. (2) operands in one call.

        When both border sets are ascending runs of consecutive sites
        (every scan plan's are) this is :meth:`run_operands` on their end
        borders; any other set is gathered by :meth:`left_sums`,
        :meth:`right_sums` and :meth:`cross_sum_terms`. Both routes give
        the same bytes.
        """
        li = np.asarray(left_borders, dtype=np.intp)
        rj = np.asarray(right_borders, dtype=np.intp)
        if li.size and rj.size and _is_run(li) and _is_run(rj):
            return self.run_operands(
                int(li[0]), int(li[-1]), c, int(rj[0]), int(rj[-1])
            )
        head, block, tail = self.cross_sum_terms(li, c, rj)
        n_left = (c + 1.0) - li
        n_right = rj - float(c)
        return SplitOperands(
            self.left_sums(li, c), self.right_sums(c, rj), head, block, tail,
            n_left, n_right, _pairs(n_left), _pairs(n_right),
        )

    def run_operands(
        self, l0: int, l1: int, c: int, r0: int, r1: int
    ) -> SplitOperands:
        """:meth:`split_operands` for left borders ``l0..l1`` and right
        borders ``r0..r1`` (inclusive runs), read from the prefix's lower
        triangle as row, column and diagonal slices: the same IEEE
        operations on the same prefix entries as the gathering methods, so
        the same bytes, with no index arrays and one range check. Window
        sizes and pair counts are read-only slices of shared tables."""
        if not (0 <= l0 <= l1 <= c < r0 <= r1 < self._w):
            raise ScanConfigError(
                f"border runs [{l0}, {l1}] | c={c} | [{r0}, {r1}] out of "
                f"range for a region of {self._w} sites"
            )
        p = self._prefix.view()
        p.flags.writeable = False  # views of it must not alter the sums
        diag = p.diagonal()
        k = c + 1
        left, right = slice(l0, l1 + 1), slice(r0 + 1, r1 + 2)
        pkk = p[k, k]
        tail = p[k, left]  # P[c+1, i]
        col = p[right, k]  # P[j+1, c+1]
        up, up_pairs, down, down_pairs = _count_tables(
            max(k - l0, r1 - c) + 1
        )
        # Left sizes run down from k - l0, right sizes up from r0 - c.
        top = down.size - 1
        nl = slice(top - (k - l0), top - (k - l1) + 1)
        nr = slice(r0 - c, r1 - c + 1)
        return SplitOperands(
            0.5 * (((pkk - tail) - tail) + diag[left]),
            0.5 * (((diag[right] - col) - col) + pkk),
            col - pkk,
            p[right, left],
            tail,
            down[nl],
            up[nr],
            down_pairs[nl],
            up_pairs[nr],
        )

    def cross_sums_pairs(
        self, left_borders: np.ndarray, c: int, right_borders: np.ndarray
    ) -> np.ndarray:
        """Σ_LR for element-wise (left, right) border pairs (flat form of
        :meth:`cross_sums_grid`, used by the GPU kernels' per-work-item
        decode)."""
        li = np.asarray(left_borders, dtype=np.intp)
        rj = np.asarray(right_borders, dtype=np.intp)
        if li.shape != rj.shape:
            raise ScanConfigError("border arrays must have matching shapes")
        if li.size == 0:
            return np.zeros(li.shape)
        if li.min() < 0 or li.max() > c or rj.min() <= c or rj.max() >= self._w:
            raise ScanConfigError("borders out of range for cross_sums_pairs")
        p = self._prefix
        return (
            p[rj + 1, c + 1]
            - p[c + 1, c + 1]
            - p[rj + 1, li]
            + p[c + 1, li]
        )

    def as_matrix(self) -> np.ndarray:
        """Materialize the full OmegaPlus-layout M (for tests/inspection):
        ``M[i, j] = pair_sum(j, i)`` for ``j <= i``, zeros above."""
        w = self._w
        m = np.zeros((w, w))
        for i in range(w):
            for j in range(i + 1):
                m[i, j] = self.pair_sum(j, i)
        return m


def _pairs(k: np.ndarray) -> np.ndarray:
    """C(k, 2) of float64 window sizes (the operation order of
    :func:`repro.core.omega.omega_from_sums`)."""
    return k * (k - 1.0) / 2.0


#: Window sizes as float64 and their pair counts, ascending and
#: descending, read-only and grown on demand: :meth:`SumMatrix.run_operands`
#: serves right-flank counts as ascending slices and left-flank counts as
#: descending ones, both contiguous.
_COUNTS = (np.zeros(0),) * 4


def _count_tables(n: int):
    """``(up, up_pairs, down, down_pairs)`` of at least ``n`` entries,
    with ``up[k] = k`` and ``down[k] = up[-1 - k]``."""
    global _COUNTS
    tables = _COUNTS
    if tables[0].size < n:
        up = np.arange(max(n, 2 * tables[0].size, 1024), dtype=np.float64)
        down = up[::-1].copy()
        tables = (up, _pairs(up), down, _pairs(down))
        for table in tables:
            table.flags.writeable = False
        _COUNTS = tables
    return tables


def _is_run(idx: np.ndarray) -> bool:
    """True when ``idx`` is ``idx[0], idx[0] + 1, ...``: strictly
    increasing integers whose span equals their count."""
    return idx[-1] - idx[0] == idx.size - 1 and not np.count_nonzero(
        idx[1:] <= idx[:-1]
    )
