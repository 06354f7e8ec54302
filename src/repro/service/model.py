"""Request model and admission pricing types for the scan service.

A :class:`ScanRequest` names *what* to scan (a region of the service's
loaded alignment and a grid density), *when* it is still useful
(``deadline_seconds``) and *how urgent* it is (``priority``). The
admission controller turns a request into a :class:`RequestEstimate` by
running the request's grid through the per-position planner and pricing
the summed Eq. 4 cost with the calibrated
:class:`~repro.core.costmodel.ScanCostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError, ScanConfigError

__all__ = [
    "AdmissionError",
    "DeadlineInfeasibleError",
    "QueueFullError",
    "RequestEstimate",
    "ScanRequest",
    "ServiceError",
]


class ServiceError(ReproError, RuntimeError):
    """The scan service was driven outside its protocol (not started,
    already closed, malformed wire request...)."""


class AdmissionError(ServiceError):
    """Base class for requests the admission controller turns away."""


class QueueFullError(AdmissionError):
    """The bounded job queue is at capacity; retry later."""


class DeadlineInfeasibleError(AdmissionError):
    """The priced estimate cannot meet the request's deadline.

    Carries the :class:`RequestEstimate` so the caller sees exactly what
    the model predicted (and can resubmit with a realistic deadline).
    """

    def __init__(self, message: str, estimate: "RequestEstimate"):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class ScanRequest:
    """One scan job over the service's loaded alignment.

    Attributes
    ----------
    start_bp, stop_bp:
        Genomic interval to place the request's grid over. Both ``None``
        (the default) scans the service's full base grid, the grid of a
        standalone :func:`~repro.core.parallel.parallel_scan` with the
        service's config, with the same bits.
    n_positions:
        Grid density over the region; defaults to the service config's
        grid size. A single-position grid sits at the region midpoint,
        mirroring :class:`~repro.core.grid.GridSpec`.
    deadline_seconds:
        Reject the request at admission unless the calibrated cost model
        predicts completion (including the current backlog) within this
        many seconds. ``None`` accepts any wait.
    priority:
        Dispatch ordering: lower values dispatch first; requests with
        equal priority dispatch FIFO.
    """

    start_bp: Optional[float] = None
    stop_bp: Optional[float] = None
    n_positions: Optional[int] = None
    deadline_seconds: Optional[float] = None
    priority: int = 0

    def __post_init__(self) -> None:
        if (self.start_bp is None) != (self.stop_bp is None):
            raise ScanConfigError(
                "start_bp and stop_bp must be given together"
            )
        if self.start_bp is not None and not self.start_bp < self.stop_bp:
            raise ScanConfigError(
                f"need start_bp < stop_bp, got [{self.start_bp}, "
                f"{self.stop_bp}]"
            )
        if self.n_positions is not None and self.n_positions < 1:
            raise ScanConfigError(
                f"n_positions must be >= 1, got {self.n_positions}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ScanConfigError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )

    @classmethod
    def from_payload(cls, payload: dict) -> "ScanRequest":
        """Build a request from a wire-protocol JSON object (unknown keys
        are rejected so client typos fail loudly)."""
        known = {
            "start_bp", "stop_bp", "n_positions",
            "deadline_seconds", "priority",
        }
        unknown = set(payload) - known
        if unknown:
            raise ServiceError(
                f"unknown scan request field(s): {sorted(unknown)}"
            )
        try:
            return cls(
                start_bp=payload.get("start_bp"),
                stop_bp=payload.get("stop_bp"),
                n_positions=(
                    None
                    if payload.get("n_positions") is None
                    else int(payload["n_positions"])
                ),
                deadline_seconds=payload.get("deadline_seconds"),
                priority=int(payload.get("priority", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed scan request: {exc}") from exc


@dataclass(frozen=True)
class RequestEstimate:
    """What the admission controller predicted for one request.

    ``cpu_seconds`` is the calibrated model's ``estimate_seconds`` over
    the request's position plans — *summed worker* seconds, the unit the
    ``scheduler.block_seconds`` calibration histograms measure.
    ``wall_seconds`` divides that across the pool's workers (the ideal
    load-balanced wall clock) and ``backlog_seconds`` adds the wall-clock
    share of work admitted ahead of this request. Both second fields are
    ``None`` until a parallel scan has calibrated ``seconds_per_unit``
    (the model can count cost units but cannot price them).
    """

    n_positions: int
    total_cost: float
    cpu_seconds: Optional[float]
    wall_seconds: Optional[float]
    backlog_seconds: float = 0.0

    @property
    def predicted_seconds(self) -> Optional[float]:
        """Deadline-comparable prediction: own wall share + backlog."""
        if self.wall_seconds is None:
            return None
        return self.wall_seconds + self.backlog_seconds

    def to_payload(self) -> dict:
        return {
            "n_positions": self.n_positions,
            "total_cost": self.total_cost,
            "cpu_seconds": self.cpu_seconds,
            "wall_seconds": self.wall_seconds,
            "backlog_seconds": self.backlog_seconds,
            "predicted_seconds": self.predicted_seconds,
        }
