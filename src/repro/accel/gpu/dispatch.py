"""Dynamic two-kernel deployment (Section IV-A, Eq. 4).

SNPs are not uniformly distributed along a genome, so the ω workload per
grid position varies by orders of magnitude. The GPU implementation
therefore carries two kernels and picks per grid position:

    n_scores  <  N_thr = N_CU · W_s · 32   ->  Kernel I
    n_scores  >= N_thr                     ->  Kernel II

32 wavefronts/warps per CU/SM is the occupancy ceiling both vendors
document, so N_thr is exactly the score count at which Kernel I's
one-score-per-work-item decomposition saturates the device — beyond it,
extra work-items only queue, while Kernel II's multi-score work-items
keep amortizing launch and fetch costs.

:class:`DynamicDispatcher` also supports forcing either kernel, which the
Fig. 12 benchmark uses to draw the two single-kernel curves next to the
dynamic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

import repro.obs as obs
from repro.accel.gpu.device import GPUDevice
from repro.accel.gpu.kernels import KernelI, KernelII, KernelResult
from repro.core.costmodel import ScanCostModel, get_cost_model
from repro.core.dp import SumMatrix
from repro.core.omega import DENOMINATOR_OFFSET
from repro.errors import AcceleratorError

__all__ = ["DynamicDispatcher", "KernelChoice"]

KernelChoice = Literal["dynamic", "kernel1", "kernel2"]


@dataclass
class DispatchStats:
    """How many positions each kernel served (reported by benchmarks)."""

    kernel1_launches: int = 0
    kernel2_launches: int = 0


class DynamicDispatcher:
    """Per-position kernel selection per Eq. (4)."""

    def __init__(
        self,
        device: GPUDevice,
        *,
        mode: KernelChoice = "dynamic",
        g_s: Optional[int] = None,
        cost_model: Optional[ScanCostModel] = None,
    ):
        if mode not in ("dynamic", "kernel1", "kernel2"):
            raise AcceleratorError(f"unknown dispatch mode {mode!r}")
        self.device = device
        self.mode = mode
        self.kernel1 = KernelI(device)
        self.kernel2 = KernelII(device, g_s=g_s)
        self.stats = DispatchStats()
        # Shared Eq. 4 estimate: the same process-wide ScanCostModel the
        # host block scheduler orders work with (and calibrates), so host
        # and device scheduling predict from one set of constants.
        self._cost_model = cost_model

    @property
    def cost_model(self) -> ScanCostModel:
        """The Eq. 4 model in effect — a pinned one, or the live
        process-wide model (picking up cross-scan calibration)."""
        return (
            self._cost_model
            if self._cost_model is not None
            else get_cost_model()
        )

    def estimate_seconds(
        self, n_scores: int, region_width: int
    ) -> Optional[float]:
        """Calibrated wall-clock prediction for one position (``None``
        until a parallel scan has published block timings)."""
        model = self.cost_model
        return model.estimate_seconds(
            model.position_cost(n_scores, region_width)
        )

    def select(self, n_scores: int) -> str:
        """Name of the kernel that will serve a position of this size."""
        if n_scores < 1:
            raise AcceleratorError("n_scores must be >= 1")
        if self.mode == "kernel1":
            return "kernel1"
        if self.mode == "kernel2":
            return "kernel2"
        return (
            "kernel1"
            if n_scores < self.device.dispatch_threshold
            else "kernel2"
        )

    def select_and_note(self, n_scores: int, *, region_width: int = 0):
        """Select a kernel for one position and record the decision
        (dispatch stats, metrics counter, trace instant — with the
        calibrated Eq. 4 time estimate attached once available).

        Returns ``(name, kernel)``. The batched engine uses this instead
        of :meth:`launch`: positions are packed and evaluated per batch,
        so the dispatch decision and the functional work are decoupled.
        """
        which = self.select(n_scores)
        if which == "kernel1":
            self.stats.kernel1_launches += 1
            kern = self.kernel1
        else:
            self.stats.kernel2_launches += 1
            kern = self.kernel2
        obs.get_metrics().counter(f"gpu.{which}_launches").inc()
        tracer = obs.get_tracer()
        if tracer.enabled:
            args = {"kernel": which, "n_scores": n_scores}
            est = self.estimate_seconds(n_scores, region_width)
            if est is not None:
                args["est_seconds"] = est
            tracer.instant(
                "kernel_dispatch", "dispatch", thread="gpu-model", args=args
            )
        return which, kern

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
        """Run the selected kernel for one grid position."""
        n = left_borders.size * right_borders.size
        _which, kern = self.select_and_note(n, region_width=region_width)
        return kern.launch(
            sums,
            left_borders,
            c,
            right_borders,
            region_width=region_width,
            eps=eps,
        )
