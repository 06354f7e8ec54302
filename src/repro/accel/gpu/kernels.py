"""Functional + timing models of the two ω GPU kernels (Sections IV-B/C).

Shared functional machinery
---------------------------
Both kernels score every (left border, right border) combination at a grid
position. The paper's *dynamic sub-region order-switch* assigns whichever
side has more SNPs to the inner (fastest-moving) index so consecutive
work-items read consecutive memory (maximally coalesced accesses); the
decode here reproduces that: work-item ``g`` handles
``(outer, inner) = divmod(g, len(inner_side))`` with the inner side chosen
as the larger border set. Padding work-items (added to round the global
size up to a work-group multiple) compute nothing, exactly like the
masked-out lanes on real hardware.

Kernel I (low loads): one ω score per work-item; all scores written back;
the host reduces the maximum.

Kernel II (high loads): a near-constant number of work-items ``G_s`` each
computes ``WILD = ceil(n_scores / G_s)`` consecutive scores in a 4x
unrolled loop, tracks its running maximum, and writes one (max, index)
pair; the host reduces over work-items.

Timing model
------------
Each kernel's sustained rate is the smaller of the device's compute
ceiling and its bandwidth ceiling at that kernel's effective bytes/score,
de-rated by an occupancy ramp ``n / (n + n_half)``: a launch processing
``n`` scores cannot fill the device until enough wavefronts are resident.
Kernel I's work-item-per-score decomposition fills the device with few
scores (small ``n_half``); Kernel II reaches a higher ceiling (operand
reuse lowers bytes/score) but needs far more scores to ramp (its
``n_half`` scales with the Eq. 4 threshold). The crossover between the
two curves is what the dynamic dispatcher exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.accel.gpu.device import GPUDevice
from repro.core.dp import SumMatrix
from repro.core.omega import DENOMINATOR_OFFSET, omega_from_sums
from repro.errors import AcceleratorError

__all__ = [
    "WORK_GROUP_SIZE",
    "UNROLL_FACTOR",
    "KernelResult",
    "KernelTiming",
    "decode_work_items",
    "KernelI",
    "KernelII",
]

#: Work-group (thread-block) size used by both kernels.
WORK_GROUP_SIZE = 256

#: Kernel II loop unroll factor ("empirically determined" as 4, §IV-C).
UNROLL_FACTOR = 4


@dataclass(frozen=True)
class KernelTiming:
    """Pure timing/accounting for one kernel launch — no functional work.

    Used directly by the paper-scale workload models (where a functional
    scan is infeasible) and by :meth:`KernelI.launch`/:meth:`KernelII.launch`
    so the two paths can never drift apart.
    """

    n_scores: int
    padded_items: int
    seconds: float
    exec_seconds: float
    bytes_h2d: int
    bytes_d2h: int


@dataclass(frozen=True)
class KernelResult:
    """Outcome of one emulated kernel launch at one grid position."""

    omega: float
    left_border: int
    right_border: int
    n_scores: int
    padded_items: int
    seconds: float
    exec_seconds: float
    bytes_h2d: int
    bytes_d2h: int


def decode_work_items(
    left_borders: np.ndarray,
    right_borders: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Map the flat work-item index space onto (left, right) border pairs
    with the order-switch optimization.

    Returns per-score left/right border arrays ordered by work-item id,
    plus a flag telling which side won the inner loop (True = right side
    is inner; it had at least as many SNPs).
    """
    n_l, n_r = left_borders.size, right_borders.size
    if n_l == 0 or n_r == 0:
        raise AcceleratorError("kernel launched with an empty border set")
    right_inner = n_r >= n_l
    g = np.arange(n_l * n_r)
    if right_inner:
        outer, inner = np.divmod(g, n_r)
        return left_borders[outer], right_borders[inner], True
    outer, inner = np.divmod(g, n_l)
    return left_borders[inner], right_borders[outer], False


def _padded(n: int, multiple: int) -> int:
    """Round ``n`` up to a multiple (buffer/work-group padding)."""
    return ((n + multiple - 1) // multiple) * multiple


def _scores_all(
    sums: SumMatrix,
    li: np.ndarray,
    c: int,
    rj: np.ndarray,
    eps: float,
) -> np.ndarray:
    """All ω scores in work-item order (the omega output buffer)."""
    per_l, per_r, _ = decode_work_items(li, rj)
    sum_l = sums.left_sums(per_l, c)
    sum_r = sums.right_sums(c, per_r)
    sum_lr = sums.cross_sums_pairs(per_l, c, per_r)
    n_left = (c - per_l + 1).astype(np.float64)
    n_right = (per_r - c).astype(np.float64)
    return omega_from_sums(
        sum_l, sum_r, sum_lr, n_left, n_right, eps=eps, checked=False
    )


class KernelI:
    """Kernel optimized for low computational loads (§IV-B)."""

    #: Scores needed to reach half of peak occupancy: one work-item per
    #: score means a few waves per CU already fill the device.
    def __init__(self, device: GPUDevice):
        self.device = device
        self.n_half = device.n_cu * device.warp_size * 4

    def sustained_rate(self, n_scores: int) -> float:
        """Modelled scores/second for a launch of ``n_scores``."""
        if n_scores < 1:
            raise AcceleratorError("n_scores must be >= 1")
        d = self.device
        peak = min(d.compute_peak, d.memory_peak(d.kernel1_bytes_per_score))
        return peak * n_scores / (n_scores + self.n_half)

    def timing(self, n_scores: int, region_width: int) -> KernelTiming:
        """Timing/accounting of a launch scoring ``n_scores`` combinations
        on a region of ``region_width`` SNPs (no functional work)."""
        n = n_scores
        padded = _padded(n, WORK_GROUP_SIZE)
        d = self.device
        # h2d: LR + km vectors (O(W)) padded, plus per-score TS buffer.
        bytes_h2d = 4 * (_padded(2 * region_width, WORK_GROUP_SIZE) + padded)
        # d2h: the full omega buffer (host-side reduction).
        bytes_d2h = 4 * padded
        exec_seconds = padded / self.sustained_rate(n)
        return KernelTiming(
            n_scores=n,
            padded_items=padded,
            seconds=d.launch_overhead + exec_seconds,
            exec_seconds=exec_seconds,
            bytes_h2d=bytes_h2d,
            bytes_d2h=bytes_d2h,
        )

    def launch(
        self,
        sums: SumMatrix,
        left_borders: np.ndarray,
        c: int,
        right_borders: np.ndarray,
        *,
        region_width: int,
        eps: float = DENOMINATOR_OFFSET,
    ) -> KernelResult:
        """Emulate one launch: exact scores + modelled time.

        ``region_width`` (W) sizes the LR/km input buffers the host ships.
        """
        scores = _scores_all(sums, left_borders, c, right_borders, eps)
        best = int(np.argmax(scores))
        per_l, per_r, _ = decode_work_items(left_borders, right_borders)
        t = self.timing(scores.size, region_width)
        return KernelResult(
            omega=float(scores[best]),
            left_border=int(per_l[best]),
            right_border=int(per_r[best]),
            n_scores=t.n_scores,
            padded_items=t.padded_items,
            seconds=t.seconds,
            exec_seconds=t.exec_seconds,
            bytes_h2d=t.bytes_h2d,
            bytes_d2h=t.bytes_d2h,
        )


class KernelII:
    """Kernel optimized for high computational loads (§IV-C)."""

    #: Indicative work-item count G_s ("initialized with an empirically
    #: determined constant"). One wave-slot per lane keeps every CU busy
    #: over many work-item loads.
    def __init__(self, device: GPUDevice, g_s: int | None = None):
        self.device = device
        self.g_s = g_s if g_s is not None else device.lanes * 4
        if self.g_s < 1:
            raise AcceleratorError("g_s must be >= 1")
        # Kernel II needs its big work-item loads to amortize; ramping is
        # governed by the same occupancy logic at WILD-score granularity.
        self.n_half = device.dispatch_threshold

    def wild(self, n_scores: int) -> int:
        """Work-item load: scores per work-item for this launch."""
        if n_scores < 1:
            raise AcceleratorError("n_scores must be >= 1")
        return max(1, -(-n_scores // self.g_s))

    def sustained_rate(self, n_scores: int) -> float:
        d = self.device
        peak = min(d.compute_peak, d.memory_peak(d.kernel2_bytes_per_score))
        return peak * n_scores / (n_scores + self.n_half)

    def timing(self, n_scores: int, region_width: int) -> KernelTiming:
        """Timing/accounting of a launch scoring ``n_scores`` combinations
        (no functional work)."""
        n = n_scores
        wild = self.wild(n)
        n_items = -(-n // wild)
        padded_scores = _padded(n_items * wild, WORK_GROUP_SIZE)
        d = self.device
        bytes_h2d = 4 * (
            _padded(2 * region_width, WORK_GROUP_SIZE) + padded_scores
        )
        # d2h: one (max, index) pair per work-item.
        bytes_d2h = 8 * _padded(n_items, WORK_GROUP_SIZE)
        exec_seconds = padded_scores / self.sustained_rate(n)
        return KernelTiming(
            n_scores=n,
            padded_items=padded_scores,
            seconds=d.launch_overhead + exec_seconds,
            exec_seconds=exec_seconds,
            bytes_h2d=bytes_h2d,
            bytes_d2h=bytes_d2h,
        )

    def launch(
        self,
        sums: SumMatrix,
        left_borders: np.ndarray,
        c: int,
        right_borders: np.ndarray,
        *,
        region_width: int,
        eps: float = DENOMINATOR_OFFSET,
    ) -> KernelResult:
        """Emulate one launch: per-work-item max reduction + modelled time."""
        scores = _scores_all(sums, left_borders, c, right_borders, eps)
        n = scores.size
        wild = self.wild(n)
        n_items = -(-n // wild)

        # Per-work-item running max, then host reduction — the split the
        # real kernel performs (omega + indexes buffers, Fig. 5).
        padded = np.full(n_items * wild, -np.inf)
        padded[:n] = scores
        per_item = padded.reshape(n_items, wild)
        item_max = per_item.max(axis=1)
        item_arg = per_item.argmax(axis=1)
        w = int(np.argmax(item_max))
        best = w * wild + int(item_arg[w])
        per_l, per_r, _ = decode_work_items(left_borders, right_borders)

        t = self.timing(n, region_width)
        return KernelResult(
            omega=float(scores[best]),
            left_border=int(per_l[best]),
            right_border=int(per_r[best]),
            n_scores=t.n_scores,
            padded_items=t.padded_items,
            seconds=t.seconds,
            exec_seconds=t.exec_seconds,
            bytes_h2d=t.bytes_h2d,
            bytes_d2h=t.bytes_d2h,
        )
