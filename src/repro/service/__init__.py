"""Scan-as-a-service: a long-lived multi-tenant ω-scan daemon.

The paper's end goal is LD sweep scans fast enough to be routine
infrastructure. The library side of this repo already amortizes the
expensive setup — a persistent worker pool attached zero-copy to one
shared alignment (:class:`~repro.core.parallel.ParallelScanSession`).
This package wraps
that engine in a thin asyncio front end (the gwdetchar ``wdq``
wrapper-over-heavy-engine shape): many concurrent scan requests — each
naming a region, a grid density and optionally a deadline — multiplex
over the one pool, with

* **deadline pricing** — an admission controller prices every request
  with the calibrated Eq. 4 :class:`~repro.core.costmodel.ScanCostModel`
  (``estimate_seconds`` over the request's position plans plus the
  current backlog) and rejects requests that cannot meet their deadline,
  quoting the estimate in the error;
* **a bounded FIFO-with-priority job queue** — lower ``priority`` values
  dispatch first, FIFO within a priority level, and a full queue rejects
  instead of buffering unboundedly;
* **one partition** — each request is cut into the blocks every scan
  path shares (:func:`~repro.core.grid.make_blocks`), and each block
  restarts the window-sum DP where a sequential scan of the request's
  grid does, so every response is byte-identical to that scan;
* **per-request observability** — each request runs against its own
  metrics registry and its spans carry the request id, so one request's
  numbers never bleed into another's;
* **r² reuse across requests** — only the service's session keeps a
  shared r² tile band (:class:`~repro.core.tilestore.SharedR2TileStore`;
  batch scans fill each region once without one). A tile one request
  computed serves every later request, copied once, straight into the
  worker's region buffer. Workers keep no private cache of assembled
  blocks: request grids almost never ask for the same block twice. A
  band that would exceed its 1 GiB cap fails at start and names
  ``--maxwin``, the one remedy a user can reach.

Use in-process (tests, notebooks)::

    service = ScanService(alignment, config, n_workers=4)
    async with service:
        job = await service.submit(ScanRequest(deadline_seconds=30.0))
        result = await job.wait()

or as a daemon (``omegascan serve data.ms --maxwin 5e4 --socket s.sock``)
speaking line-delimited JSON over a Unix socket; :mod:`repro.service.client`
has the matching blocking client.
"""

from repro.service.model import (
    AdmissionError,
    DeadlineInfeasibleError,
    QueueFullError,
    RequestEstimate,
    ScanRequest,
    ServiceError,
)
from repro.service.jobqueue import JobQueue
from repro.service.service import AdmissionController, ScanJob, ScanService
from repro.service.server import serve_unix
from repro.service.client import request_scan, send_request

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "DeadlineInfeasibleError",
    "JobQueue",
    "QueueFullError",
    "RequestEstimate",
    "ScanJob",
    "ScanRequest",
    "ScanService",
    "ServiceError",
    "request_scan",
    "send_request",
    "serve_unix",
]
