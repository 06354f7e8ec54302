"""The Eq. 4 scan cost model, shared by host scheduling and GPU dispatch.

The paper's dynamic dispatcher (Eq. 4) predicts per-position work from the
number of ω evaluations; the host block scheduler additionally charges the
LD/DP region area (``region_width²``) each position touches. Before this
module both users carried private copies of the formula inline; now one
:class:`ScanCostModel` owns it, is **cached across scans** (module-level,
survives :class:`~repro.core.parallel.ParallelScanSession` teardown), and
is **calibrated** after every parallel scan from the
``scheduler.block_est_cost`` vs ``scheduler.block_seconds`` histograms
that ``repro.obs`` already emits: total observed block seconds over total
estimated cost yields ``seconds_per_unit``, turning the dimensionless
Eq. 4 estimate into a wall-clock prediction the GPU dispatcher and block
scheduler can both consume.

Knobs (see ``docs/OBSERVABILITY.md``):

* ``eval_weight`` — weight of ``n_evaluations`` (ω work).
* ``area_weight`` — weight of ``region_width²`` (LD/DP work).
* ``seconds_per_unit`` — calibrated cost→seconds scale (``None`` until a
  parallel scan has published block timings).
* ``batch_score_threshold`` — positions at or above this many score-grid
  elements bypass host-side batch packing (the per-position vectorized
  path already amortizes dispatch overhead there; packing would only add
  gather traffic). Mirrors the spirit of the device dispatch threshold.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "ScanCostModel",
    "CalibrationPair",
    "calibrate_from",
    "get_cost_model",
    "set_cost_model",
    "reset_cost_model",
    "record_calibration_pair",
    "calibration_pairs",
    "clear_calibration_pairs",
]

@dataclass(frozen=True)
class CalibrationPair:
    """One archived (estimated, realized) observation of a whole
    scheduler block: its realized seconds include LD + DP + ω work, so
    both ``n_evaluations`` and ``region_area`` are charged. Each pair is
    one least-squares row ``realized ≈ a·evals + b·area`` for
    :meth:`ScanCostModel.fit_weights`.
    """

    n_evaluations: float
    region_area: float
    realized_seconds: float
    est_seconds: Optional[float] = None


#: Bounded archive of calibration pairs (process-wide, newest kept).
_PAIR_LOG_CAPACITY = 4096
_pair_log: deque = deque(maxlen=_PAIR_LOG_CAPACITY)
_pair_lock = threading.Lock()


def record_calibration_pair(pair: CalibrationPair) -> None:
    """Append one (estimated, realized) observation to the archive."""
    with _pair_lock:
        _pair_log.append(pair)


def calibration_pairs() -> List[CalibrationPair]:
    """A snapshot of the archived pairs (oldest first)."""
    with _pair_lock:
        return list(_pair_log)


def clear_calibration_pairs() -> None:
    """Drop the archive (tests, or after a deliberate refit)."""
    with _pair_lock:
        _pair_log.clear()


#: Default host batching bypass: ≥ this many packed scores per position
#: and the position is evaluated directly (see ``batch_score_threshold``).
#: Calibrated by microbenchmark: below ~2⁸ scores the per-position path
#: is dominated by fixed numpy-dispatch overhead and packing wins; above
#: it the broadcast (R, L) evaluation needs ~3× fewer memory passes than
#: the flat-arena gather, so batching would regress.
DEFAULT_BATCH_SCORE_THRESHOLD = 1 << 8


@dataclass(frozen=True)
class ScanCostModel:
    """Eq. 4-style position cost estimate plus calibration state."""

    eval_weight: float = 1.0
    area_weight: float = 1.0
    seconds_per_unit: Optional[float] = None
    calibration_blocks: int = 0
    #: Accumulated calibration evidence behind ``seconds_per_unit``: the
    #: running totals of estimated cost and measured block seconds across
    #: every scan folded in so far. ``seconds_per_unit`` is always their
    #: ratio, so ``calibration_blocks`` genuinely describes the fit and a
    #: single small scan moves the model in proportion to its weight.
    est_cost_sum: float = 0.0
    seconds_sum: float = 0.0
    batch_score_threshold: int = DEFAULT_BATCH_SCORE_THRESHOLD

    # ------------------------------------------------------------------ #
    # estimation

    def position_cost(self, n_evaluations: int, region_width: int) -> float:
        """Dimensionless cost of one grid position."""
        return (
            self.eval_weight * float(n_evaluations)
            + self.area_weight * float(region_width) ** 2
        )

    def position_costs(self, plans: Sequence) -> np.ndarray:
        """Vectorized :meth:`position_cost` over ``PositionPlan``-likes."""
        if len(plans) == 0:
            return np.zeros(0, dtype=np.float64)
        evals = np.array(
            [p.n_evaluations for p in plans], dtype=np.float64
        )
        widths = np.array(
            [p.region_width for p in plans], dtype=np.float64
        )
        return self.eval_weight * evals + self.area_weight * widths**2

    def estimate_seconds(self, cost: float) -> Optional[float]:
        """Wall-clock prediction for a cost estimate, once calibrated."""
        if self.seconds_per_unit is None:
            return None
        return float(cost) * self.seconds_per_unit

    # ------------------------------------------------------------------ #
    # calibration

    def calibrated(self, metrics_snapshot: dict) -> "ScanCostModel":
        """Refit ``seconds_per_unit`` from a metrics snapshot.

        Reads the ``scheduler.block_est_cost`` / ``scheduler.block_seconds``
        histogram pair (the per-block estimate and measured wall time of
        the dynamic scheduler), folds it into the running
        ``est_cost_sum`` / ``seconds_sum`` totals and refits
        ``seconds_per_unit = Σ seconds / Σ est_cost`` over *all*
        calibration evidence so far — every block ever observed carries
        equal weight, so a short scan nudges the fit rather than
        replacing it. Returns ``self`` unchanged when the snapshot has no
        usable timings, so a metrics-free scan never discards an earlier
        calibration.
        """
        hists = (metrics_snapshot or {}).get("histograms", {})
        est = hists.get("scheduler.block_est_cost")
        sec = hists.get("scheduler.block_seconds")
        if not est or not sec:
            return self
        est_sum = float(est.get("sum", 0.0))
        sec_sum = float(sec.get("sum", 0.0))
        blocks = int(sec.get("count", 0))
        if est_sum <= 0.0 or sec_sum <= 0.0 or blocks == 0:
            return self
        est_total = self.est_cost_sum + est_sum
        sec_total = self.seconds_sum + sec_sum
        return replace(
            self,
            seconds_per_unit=sec_total / est_total,
            calibration_blocks=self.calibration_blocks + blocks,
            est_cost_sum=est_total,
            seconds_sum=sec_total,
        )

    def fit_weights(
        self, pairs: Optional[Sequence["CalibrationPair"]] = None
    ) -> "ScanCostModel":
        """Least-squares refit of the *relative* ``eval_weight`` vs
        ``area_weight`` from archived (estimated, realized) pairs.

        Solves ``realized_seconds ≈ a·n_evaluations + b·region_area``
        over the given pairs (the process-wide archive by default) and
        returns a model with ``eval_weight = 1`` and
        ``area_weight = b / a`` — the ratio is what ordering and Eq. 4
        dispatch decisions actually consume, so the fit is normalized to
        the evaluation term. ``seconds_per_unit`` and the running
        calibration sums are restated under the new weights (ratio of
        total realized seconds to total refitted cost), keeping
        :meth:`estimate_seconds` consistent with the fit.

        Returns ``self`` unchanged when the evidence cannot support a
        fit: fewer than two usable pairs, a non-finite solution, or a
        non-positive evaluation coefficient.
        """
        if pairs is None:
            pairs = calibration_pairs()
        usable = [
            p
            for p in pairs
            if np.isfinite(p.realized_seconds)
            and p.realized_seconds > 0.0
            and (p.n_evaluations > 0.0 or p.region_area > 0.0)
        ]
        if len(usable) < 2:
            return self
        design = np.array(
            [[p.n_evaluations, p.region_area] for p in usable],
            dtype=np.float64,
        )
        seconds = np.array(
            [p.realized_seconds for p in usable], dtype=np.float64
        )
        coef, *_ = np.linalg.lstsq(design, seconds, rcond=None)
        a, b = float(coef[0]), float(coef[1])
        if not (np.isfinite(a) and np.isfinite(b)) or a <= 0.0:
            return self
        area_w = max(b / a, 0.0)
        units = design[:, 0] + area_w * design[:, 1]
        units_sum = float(units.sum())
        if units_sum <= 0.0:
            return self
        return replace(
            self,
            eval_weight=1.0,
            area_weight=area_w,
            seconds_per_unit=float(seconds.sum()) / units_sum,
            calibration_blocks=len(usable),
            est_cost_sum=units_sum,
            seconds_sum=float(seconds.sum()),
        )


_DEFAULT = ScanCostModel()
_cached: ScanCostModel = _DEFAULT
#: Serializes read-modify-write calibration folds: the scan service runs
#: concurrent requests on threads, and two interleaved ``calibrated``
#: folds from the same base model would silently drop one scan's
#: evidence from the running sums.
_calibrate_lock = threading.Lock()


def get_cost_model() -> ScanCostModel:
    """The process-wide cost model (calibrations persist across scans)."""
    return _cached


def set_cost_model(model: ScanCostModel) -> None:
    """Publish a (possibly recalibrated) model for subsequent scans."""
    global _cached
    _cached = model


def calibrate_from(metrics_snapshot: dict) -> ScanCostModel:
    """Fold one scan's block timings into the process-wide model.

    Atomic get→:meth:`ScanCostModel.calibrated`→set, so concurrent scans
    (the service's request threads) each contribute their evidence to the
    running sums exactly once. Returns the published model.
    """
    global _cached
    with _calibrate_lock:
        _cached = _cached.calibrated(metrics_snapshot)
        return _cached


def reset_cost_model() -> None:
    """Restore the uncalibrated default and drop the pair archive
    (tests)."""
    global _cached
    with _calibrate_lock:
        _cached = _DEFAULT
    clear_calibration_pairs()

