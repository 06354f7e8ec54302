"""The in-process scan service: admission, queueing, dispatch.

:class:`ScanService` owns one persistent
:class:`~repro.core.parallel.ParallelScanSession` (shared alignment
segments, warm worker pool) that also keeps the shared r² tile band
(:class:`~repro.core.tilestore.SharedR2TileStore`), and multiplexes many
concurrent :class:`~repro.service.model.ScanRequest` jobs over it. The
asyncio front end stays thin: admission and queueing run on the event
loop; each dispatched job fans its scheduling blocks into the shared
pool from a worker thread (`asyncio.to_thread`), so several requests'
blocks interleave in the pool's task queue at once.

Observability: every request gets its own
:class:`~repro.obs.metrics.MetricsRegistry` — the session's
thread-safe :meth:`~repro.core.parallel.ParallelScanSession.scan_positions`
records its scheduler metrics there, never in the process registry —
and every span the request emits carries the request id. The per-request
snapshot lands on ``ScanJob.metrics``; service-lifetime totals merge
into one service registry reported by :meth:`ScanService.status`.

Metric names (all ``service.*``; see ``docs/OBSERVABILITY.md``):
``requests_admitted``, ``requests_unpriced``,
``requests_rejected_deadline``, ``requests_rejected_queue_full``,
``requests_completed``, ``requests_failed``, ``deadlines_met``,
``deadlines_missed``, ``queue_wait_seconds`` (histogram),
``request_wall_seconds`` (histogram), ``backlog_cost_units`` (gauge).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.obs as obs
from repro.core.costmodel import get_cost_model
from repro.core.grid import PositionPlan, make_blocks
from repro.core.parallel import ParallelScanSession, plans_for_positions
from repro.obs.eta import estimate_eta
from repro.obs.ledger import ProgressLedger
from repro.core.results import ScanResult
from repro.core.scan import OmegaConfig
from repro.datasets.alignment import SNPAlignment
from repro.service.jobqueue import JobQueue
from repro.service.model import (
    DeadlineInfeasibleError,
    QueueFullError,
    RequestEstimate,
    ScanRequest,
    ServiceError,
)

__all__ = [
    "AdmissionController",
    "ScanJob",
    "ScanService",
]


class _BandSession(ParallelScanSession):
    """The service's session: it also publishes the shared r² tile band.
    Requests revisit sites (overlapping regions, repeated grids), so a
    tile one request filled serves every later request."""

    _r2_band = True


@dataclass
class ScanJob:
    """One admitted request travelling through the service."""

    request_id: str
    request: ScanRequest
    grid_positions: np.ndarray
    #: The positions' evaluation plans (priced at admission; they order
    #: the request's blocks at dispatch).
    plans: List[PositionPlan]
    estimate: RequestEstimate
    future: "asyncio.Future[ScanResult]"
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Per-request metrics snapshot (set on completion): worker parts +
    #: this request's scheduler/service metrics, nothing from any other
    #: request.
    metrics: Optional[dict] = field(default=None, repr=False)
    #: Progress-ledger slot this request publishes into while running
    #: (slots are per dispatcher; -1 = no ledger configured).
    slot_index: int = -1

    async def wait(self) -> ScanResult:
        """The request's :class:`~repro.core.results.ScanResult` (or the
        failure that ended it)."""
        return await asyncio.shield(self.future)

    @property
    def done(self) -> bool:
        return self.future.done()

    @property
    def queue_seconds(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def wall_seconds(self) -> Optional[float]:
        if self.finished_at is None or self.started_at is None:
            return None
        return self.finished_at - self.started_at


class AdmissionController:
    """Prices requests with the calibrated Eq. 4 cost model.

    The price of a request is ``estimate_seconds`` over its position
    plans — the same model, the same units, and the same running-sum
    calibration that the block scheduler fits after every parallel scan
    (`seconds_per_unit = Σ measured block seconds / Σ estimated cost`).
    An uncalibrated model (no parallel scan yet) admits optimistically:
    it can count cost units but cannot price them.
    """

    def __init__(self, alignment: SNPAlignment, config: OmegaConfig):
        self._alignment = alignment
        self._config = config

    def grid_positions_for(self, request: ScanRequest) -> np.ndarray:
        """The request's grid: explicit region bounds or the alignment's
        SNP-covered span, ``n_positions`` equidistant points (midpoint
        for a single-position grid — mirroring
        :meth:`repro.core.grid.GridSpec.positions_from` exactly, so a
        default request's grid is bitwise the base config's)."""
        pos = self._alignment.positions
        lo = float(pos[0]) if request.start_bp is None else float(request.start_bp)
        hi = float(pos[-1]) if request.stop_bp is None else float(request.stop_bp)
        n = (
            self._config.grid.n_positions
            if request.n_positions is None
            else request.n_positions
        )
        if n == 1:
            return np.array([(lo + hi) / 2.0])
        return np.linspace(lo, hi, n)

    def estimate(
        self,
        request: ScanRequest,
        *,
        n_workers: int,
        backlog_cost: float = 0.0,
    ):
        """Price one request; returns ``(grid_positions, plans,
        RequestEstimate)``.

        The request runs on at most as many workers as it has blocks, so
        its wall-clock price divides the CPU price by
        ``min(n_workers, blocks)``, the blocks cut by
        :func:`~repro.core.grid.make_blocks`, the cut
        :class:`ScanService` dispatches.
        """
        grid_positions = self.grid_positions_for(request)
        plans = plans_for_positions(
            self._alignment.positions, grid_positions, self._config.grid
        )
        model = get_cost_model()
        total_cost = float(model.position_costs(plans).sum())
        cpu = model.estimate_seconds(total_cost)
        n_blocks = len(make_blocks(int(grid_positions.size)))
        wall = None if cpu is None else cpu / min(n_workers, n_blocks)
        backlog = model.estimate_seconds(backlog_cost)
        estimate = RequestEstimate(
            n_positions=int(grid_positions.size),
            total_cost=total_cost,
            cpu_seconds=cpu,
            wall_seconds=wall,
            backlog_seconds=0.0 if backlog is None else backlog / n_workers,
        )
        return grid_positions, plans, estimate

    def check_deadline(
        self, request: ScanRequest, estimate: RequestEstimate
    ) -> None:
        """Raise :class:`DeadlineInfeasibleError` when the priced
        prediction exceeds the request's deadline."""
        if request.deadline_seconds is None:
            return
        predicted = estimate.predicted_seconds
        if predicted is not None and predicted > request.deadline_seconds:
            raise DeadlineInfeasibleError(
                f"deadline {request.deadline_seconds:.3g}s infeasible: "
                f"model predicts {predicted:.3g}s "
                f"({estimate.wall_seconds:.3g}s for {estimate.n_positions} "
                f"positions / {estimate.total_cost:.3g} cost units + "
                f"{estimate.backlog_seconds:.3g}s backlog)",
                estimate,
            )


class ScanService:
    """Async multi-tenant scan service over one shared worker pool.

    Lifecycle: ``await start()`` (or ``async with``) forks the shared
    session and the dispatcher tasks; :meth:`submit` admits (or rejects)
    a request and returns its :class:`ScanJob`; ``await job.wait()``
    yields the :class:`~repro.core.results.ScanResult`. Each request is
    cut into the blocks every scan path shares
    (:func:`~repro.core.grid.make_blocks`), so its result is
    byte-identical to a sequential scan of the request's grid, on every
    run and whatever other requests share the pool (see
    :meth:`~repro.core.parallel.ParallelScanSession.scan_positions`).
    ``await close()`` fails pending
    jobs and tears the pool and shared segments down (leak-guarded, as
    the underlying session is).
    """

    def __init__(
        self,
        alignment: SNPAlignment,
        config: OmegaConfig,
        *,
        n_workers: int = 2,
        mp_context: Optional[str] = None,
        queue_limit: int = 32,
        max_concurrent: int = 4,
        ledger_path: Optional[str] = None,
    ):
        if queue_limit < 1:
            raise ServiceError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        if max_concurrent < 1:
            raise ServiceError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        self._session = _BandSession(
            alignment,
            config,
            n_workers=n_workers,
            mp_context=mp_context,
        )
        self.admission = AdmissionController(alignment, config)
        self._queue = JobQueue(queue_limit)
        self._max_concurrent = max_concurrent
        self._dispatchers: list = []
        self._started = False
        self._closed = False
        self._next_id = 0
        self._in_flight: Dict[str, ScanJob] = {}
        self._backlog_cost = 0.0
        self._served = 0
        self._failed = 0
        self._rejected = 0
        #: Service-lifetime metrics (per-request registries fold in here).
        self.registry = obs.MetricsRegistry()
        #: Live progress ledger: one slot per dispatcher, keyed by the
        #: request id it is currently running (see repro.obs.ledger).
        self._ledger_path = ledger_path
        self._ledger: Optional[ProgressLedger] = None

    # -------------------------------------------------------------- #
    # lifecycle

    async def start(self) -> "ScanService":
        if self._closed:
            raise ServiceError("service already closed")
        if self._started:
            return self
        await asyncio.to_thread(self._session.start)
        if self._ledger_path:
            # Introspection only: a daemon that cannot write its ledger
            # still serves scans.
            try:
                self._ledger = ProgressLedger.create(
                    self._ledger_path, self._max_concurrent
                )
                for i in range(self._max_concurrent):
                    self._ledger.init_slot(i, key="idle", phase="idle")
            except Exception:
                self._ledger = None
        self._dispatchers = [
            asyncio.create_task(
                self._dispatch_loop(i), name=f"dispatch-{i}"
            )
            for i in range(self._max_concurrent)
        ]
        self._started = True
        return self

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for job in self._queue.drain():
            if not job.future.done():
                job.future.set_exception(
                    ServiceError("scan service closed before dispatch")
                )
        # Let in-flight jobs finish BEFORE cancelling the dispatchers:
        # a dispatcher cancelled mid-`await to_thread` would abandon its
        # job — the future never resolves (waiters hang) and the scan
        # thread races the pool teardown below. With the queue drained
        # and in-flight futures settled, every dispatcher is parked at
        # `queue.get()` and cancellation is clean.
        for job in list(self._in_flight.values()):
            if not job.future.done():
                try:
                    await job.future
                except Exception:
                    pass
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._dispatchers = []
        await asyncio.to_thread(self._session.close)
        if self._ledger is not None:
            try:
                self._ledger.close()
            except Exception:
                pass
            self._ledger = None

    async def __aenter__(self) -> "ScanService":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # -------------------------------------------------------------- #
    # submission

    async def submit(self, request: ScanRequest) -> ScanJob:
        """Admit one request (pricing it against its deadline) and
        enqueue it; raises an
        :class:`~repro.service.model.AdmissionError` subclass when the
        queue is full or the deadline is infeasible."""
        if not self._started or self._closed:
            raise ServiceError("service is not running (call start())")
        if self._queue.full:
            self._rejected += 1
            self.registry.counter(
                "service.requests_rejected_queue_full"
            ).inc()
            raise QueueFullError(
                f"job queue is full ({self._queue.maxsize} pending); "
                "retry later"
            )
        grid_positions, plans, estimate = self.admission.estimate(
            request,
            n_workers=self._session.n_workers,
            backlog_cost=self._backlog_cost,
        )
        try:
            self.admission.check_deadline(request, estimate)
        except DeadlineInfeasibleError:
            self._rejected += 1
            self.registry.counter(
                "service.requests_rejected_deadline"
            ).inc()
            raise
        self._next_id += 1
        job = ScanJob(
            request_id=f"req-{self._next_id:06d}",
            request=request,
            grid_positions=grid_positions,
            plans=plans,
            estimate=estimate,
            future=asyncio.get_running_loop().create_future(),
            submitted_at=time.monotonic(),
        )
        self._queue.put_nowait(request.priority, job)
        self._backlog_cost += estimate.total_cost
        self.registry.counter("service.requests_admitted").inc()
        if estimate.cpu_seconds is None:
            self.registry.counter("service.requests_unpriced").inc()
        self.registry.gauge("service.backlog_cost_units").set(
            self._backlog_cost
        )
        return job

    async def scan(self, request: ScanRequest) -> ScanResult:
        """Submit and wait — the one-call convenience path."""
        job = await self.submit(request)
        return await job.wait()

    # -------------------------------------------------------------- #
    # dispatch

    async def _dispatch_loop(self, slot_index: int = -1) -> None:
        while True:
            _priority, job = await self._queue.get()
            if self._ledger is not None:
                job.slot_index = slot_index
            self._in_flight[job.request_id] = job
            try:
                result = await asyncio.to_thread(self._run_job, job)
            except Exception as exc:  # noqa: BLE001 - delivered to caller
                self._failed += 1
                self.registry.counter("service.requests_failed").inc()
                if not job.future.done():
                    job.future.set_exception(exc)
            else:
                self._served += 1
                self.registry.counter("service.requests_completed").inc()
                if not job.future.done():
                    job.future.set_result(result)
            finally:
                self._backlog_cost = max(
                    0.0, self._backlog_cost - job.estimate.total_cost
                )
                self.registry.gauge("service.backlog_cost_units").set(
                    self._backlog_cost
                )
                self._in_flight.pop(job.request_id, None)

    def _run_job(self, job: ScanJob) -> ScanResult:
        """Blocking job body (runs on a thread): one request, one
        registry, spans tagged with the request id."""
        job.started_at = time.monotonic()
        # Two registries so nothing is counted twice: scan_positions
        # folds ``sched`` into result.metrics itself; the service-level
        # timings land in ``svc`` and merge in exactly once below.
        sched = obs.MetricsRegistry()
        svc = obs.MetricsRegistry()
        svc.histogram("service.queue_wait_seconds").observe(
            job.started_at - job.submitted_at
        )
        writer = None
        if self._ledger is not None and job.slot_index >= 0:
            try:
                writer = self._ledger.slot_writer(job.slot_index)
                writer.bind(
                    key=job.request_id,
                    phase="scan",
                    positions_total=int(job.grid_positions.size),
                    est_cost_total=float(job.estimate.total_cost),
                )
            except Exception:
                writer = None
        tr = obs.get_tracer()
        try:
            with tr.span(
                "service_request",
                "service",
                args={
                    "request": job.request_id,
                    "positions": int(job.grid_positions.size),
                    "priority": job.request.priority,
                },
            ):
                result = self._session.scan_positions(
                    job.grid_positions,
                    plans=job.plans,
                    registry=sched,
                    request_id=job.request_id,
                    progress=writer,
                )
        except BaseException:
            if writer is not None:
                try:
                    writer.finish("failed")
                except Exception:
                    pass
            raise
        if writer is not None:
            try:
                writer.finish("done")
            except Exception:
                pass
        job.finished_at = time.monotonic()
        wall = job.finished_at - job.started_at
        svc.histogram("service.request_wall_seconds").observe(wall)
        deadline = job.request.deadline_seconds
        if deadline is not None:
            met = (job.finished_at - job.submitted_at) <= deadline
            svc.counter(
                "service.deadlines_met" if met else "service.deadlines_missed"
            ).inc()
        job.metrics = obs.merge_snapshots(result.metrics, svc.snapshot())
        result.metrics = job.metrics
        # job.metrics already contains ``sched`` (scan_positions folds it
        # into result.metrics) plus the worker parts' scan/omega/reuse
        # counters, so folding it makes the lifetime registry — and the
        # OpenMetrics exposition — carry the full pipeline picture.
        self.registry.merge_snapshot(job.metrics)
        return result

    # -------------------------------------------------------------- #

    def status(self) -> dict:
        """JSON-able service state (the wire protocol's ``status`` op)."""
        model = get_cost_model()
        now = time.monotonic()
        requests = []
        for job in list(self._in_flight.values()):
            entry = {
                "request_id": job.request_id,
                "priority": job.request.priority,
                "est_cost": job.estimate.total_cost,
                "n_positions": int(job.grid_positions.size),
                "admitted_seconds_ago": now - job.submitted_at,
                "running": job.started_at is not None,
                "fraction": None,
                "eta": None,
            }
            if self._ledger is not None and job.slot_index >= 0:
                try:
                    slot = self._ledger.read_slot(job.slot_index)
                    # The slot may still hold the dispatcher's previous
                    # request for a moment; only report it as ours when
                    # the key matches.
                    if slot.key == job.request_id:
                        entry["fraction"] = slot.fraction
                        entry["progress"] = slot.to_payload()
                        entry["eta"] = estimate_eta(slot).to_payload()
                except Exception:
                    pass
            requests.append(entry)
        status = {
            "started": self._started,
            "closed": self._closed,
            "queue_depth": len(self._queue),
            "queue_limit": self._queue.maxsize,
            "in_flight": len(self._in_flight),
            "served": self._served,
            "failed": self._failed,
            "rejected": self._rejected,
            "backlog_cost_units": self._backlog_cost,
            "n_workers": self._session.n_workers,
            "requests": requests,
            "cost_model": {
                "seconds_per_unit": model.seconds_per_unit,
                "calibration_blocks": model.calibration_blocks,
                "est_cost_sum": model.est_cost_sum,
                "seconds_sum": model.seconds_sum,
            },
        }
        if self._ledger is not None:
            try:
                status["ledger"] = {
                    "path": self._ledger_path,
                    "slots": [
                        dict(s.to_payload(), fraction=s.fraction)
                        for s in self._ledger.read_slots()
                    ],
                }
            except Exception:
                pass
        return status

    def metrics_snapshot(self) -> dict:
        """Merged service-lifetime metrics: every completed request's
        fold-in plus whatever the daemon process recorded on the side
        (the ``{"op": "metrics"}`` exposition renders this)."""
        return obs.merge_snapshots(
            self.registry.snapshot(), obs.get_metrics().snapshot()
        )
