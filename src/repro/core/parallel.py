"""Zero-copy shared-memory multiprocess genome scan.

The paper's multicore baseline (Table IV) is OmegaPlus-generic [31]:
pthreads that *share* one alignment and one LD workspace and partition the
grid positions. Python threads cannot parallelize this CPU-bound
NumPy-plus-control-flow loop under the GIL, so processes stand in for
pthreads, arranged to mirror the pthread model:

* **Shared segments** — the SNP matrix and positions live in POSIX shared
  memory (:class:`~repro.datasets.alignment.SharedAlignmentSegments`),
  created once by the parent; a persistent worker pool attaches zero-copy
  the first time a task names the segments. A task carries the segment
  names, its block's grid positions and its block index — a few hundred
  bytes whatever the alignment size.
* **Shared r² tile store** — fresh r² entries are computed once
  process-wide into a shared tile band
  (:class:`~repro.core.tilestore.SharedR2TileStore`) and served to every
  worker, recovering the region-overlap reuse that scheduling boundaries
  would otherwise lose. For the packed/auto LD backends the store also
  publishes the bit-packed word plane as a shared segment
  (:class:`~repro.datasets.packed.SharedPackedWords`), so workers attach
  it zero-copy instead of re-packing the alignment per process, and the
  ``auto`` crossover constants are calibrated in the parent pre-fork so
  every worker inherits them.
* **Dynamic block scheduling** — the grid is cut into many small
  contiguous blocks (contiguity preserves the within-block r²/DP reuse),
  which workers pull from the pool's shared task queue as they free up; a
  cost model (estimated ω evaluations plus region area per position, the
  Eq. 4 accounting) orders blocks largest-first so stragglers start
  early.
* **Observability** — per-worker phase breakdowns, DP sub-timings and
  :class:`~repro.core.reuse.ReuseStats` merge through the result; the
  merged breakdown's phase totals remain *summed worker CPU seconds*,
  while its ``wall_seconds`` field records true elapsed time (see
  :class:`~repro.utils.timing.TimeBreakdown`).

Every pool — the in-memory session, the scan service's requests and the
streamed chunks — runs the same worker body (:func:`_scan_block`) through
the same dispatch routine (:meth:`_PoolSession._dispatch`).
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing as mp
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.core.costmodel import (
    CalibrationPair,
    calibrate_from,
    get_cost_model,
    record_calibration_pair,
)
from repro.core.grid import (
    GridSpec,
    PositionPlan,
    build_plans,
    build_plans_from_positions,
    fixed_position_spec,
)
from repro.core.results import ScanResult, merge_scan_results
from repro.core.scan import OmegaConfig, OmegaPlusScanner
from repro.core.tilestore import SharedR2TileStore
from repro.datasets.alignment import SharedAlignmentSegments, SNPAlignment
from repro.datasets.streaming import AlignmentStreamSource
from repro.errors import ScanConfigError
from repro.utils.timing import TimeBreakdown

__all__ = [
    "ParallelScanSession",
    "StreamingScanSession",
    "fixed_position_spec",
    "make_blocks",
    "parallel_scan",
    "plans_for_positions",
]

#: Target number of scheduling blocks per worker. More blocks balance the
#: load better (a worker stuck on high-evaluation positions strands at
#: most one block); fewer blocks preserve more within-block reuse. Four
#: per worker keeps the straggler tail under ~25 % of one worker's share
#: while blocks stay tens of positions long on realistic grids.
BLOCKS_PER_WORKER = 4


def make_blocks(
    n_positions: int,
    n_workers: int,
    *,
    block_size: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Cut ``n_positions`` into contiguous [start, stop) scheduling blocks.

    The default block size targets :data:`BLOCKS_PER_WORKER` blocks per
    worker; pass ``block_size`` to override. Blocks are never empty.
    """
    if n_positions < 1:
        raise ScanConfigError(f"n_positions must be >= 1, got {n_positions}")
    if n_workers < 1:
        raise ScanConfigError(f"n_workers must be >= 1, got {n_workers}")
    if block_size is None:
        block_size = max(
            1, math.ceil(n_positions / (BLOCKS_PER_WORKER * n_workers))
        )
    if block_size < 1:
        raise ScanConfigError(f"block_size must be >= 1, got {block_size}")
    return [
        (lo, min(lo + block_size, n_positions))
        for lo in range(0, n_positions, block_size)
    ]


def plans_for_positions(
    site_positions: np.ndarray, grid_positions: np.ndarray, spec: GridSpec
):
    """Per-position evaluation plans for an explicit grid-position array
    (the admission controller prices requests from these)."""
    return build_plans_from_positions(
        site_positions, fixed_position_spec(spec, grid_positions)
    )


# ---------------------------------------------------------------------- #
# worker side
# ---------------------------------------------------------------------- #

#: Per-worker-process state: the pool initializer's arguments plus the
#: mappings of the last alignment a task named. A task naming another
#: alignment (the next streamed chunk) swaps the mappings.
_WORKER: dict = {}


def _init_worker(
    config: OmegaConfig,
    obs_spec: Optional[obs.ObsSpec],
    block_lru_bytes: int,
) -> None:
    obs.configure_worker(obs_spec)
    _WORKER.update(
        config=config,
        block_lru_bytes=block_lru_bytes,
        name=None,
        segments=None,
        store=None,
    )


def _attached(alignment_spec, tile_spec):
    """This worker's mapping of the segments a task names, attached on
    first sight (after releasing the previous alignment's mappings)."""
    state = _WORKER
    if state["name"] != alignment_spec.matrix_name:
        for held in ("store", "segments"):
            if state[held] is not None:
                state[held].close()
                state[held] = None
        state["name"] = None
        try:
            segments = SharedAlignmentSegments.attach(alignment_spec)
            state["segments"] = segments
            if tile_spec is not None:
                store = SharedR2TileStore.attach(
                    tile_spec, segments.alignment
                )
                state["store"] = store
                if state["block_lru_bytes"] > 0:
                    store.enable_block_lru(state["block_lru_bytes"])
        except Exception as exc:
            raise RuntimeError(
                "shared-memory worker failed to attach its segments"
            ) from exc
        state["name"] = alignment_spec.matrix_name
    return state["segments"], state["store"]


def _scan_block(task) -> Tuple[int, ScanResult]:
    """Worker body: scan one block of explicit grid positions against the
    shared alignment the task names; returns (block index, block result).

    The task is ``(block index, alignment spec, tile spec or None, grid
    positions, validity mask or None, request id)``, positions and mask
    as lists; a mask pins each position to the global plan's validity
    (streamed chunks).
    """
    idx, alignment_spec, tile_spec, grid_block, valid_mask, request_id = task
    segments, store = _attached(alignment_spec, tile_spec)
    config = _WORKER["config"]
    scanner = OmegaPlusScanner(
        dataclasses.replace(
            config, grid=fixed_position_spec(config.grid, grid_block)
        ),
        block_fn=store.block if store is not None else None,
        valid_mask=valid_mask,
    )
    if store is not None:
        computed0 = store.tile_entries_computed
        reused0 = store.tile_entries_reused
    tr = obs.get_tracer()
    with tr.span(
        "scan_block", "block", args={"block": idx, "request": request_id}
    ):
        result = scanner.scan(segments.alignment)
    if store is not None:
        result.reuse.tile_entries_computed += (
            store.tile_entries_computed - computed0
        )
        result.reuse.tile_entries_reused += store.tile_entries_reused - reused0
    tr.flush()
    return idx, result


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #


class _PoolSession:
    """A persistent worker pool plus the shared segments its tasks name
    (subclasses provide ``start``).

    Teardown (:meth:`close`, or leaving the ``with`` block) unlinks every
    segment even on error paths, so failed scans do not orphan
    ``/dev/shm`` entries.
    """

    def __init__(
        self,
        config: OmegaConfig,
        *,
        n_workers: int,
        mp_context: Optional[str] = None,
        block_lru_bytes: int = 0,
    ):
        if n_workers < 1:
            raise ScanConfigError(f"n_workers must be >= 1, got {n_workers}")
        self._config = config
        self._n_workers = n_workers
        self._mp_context = mp_context
        #: Capacity of each worker's private LRU of assembled multi-tile
        #: r² blocks (0 disables). Long-lived service sessions turn this
        #: on so repeated scans of hot regions stop re-memcpying
        #: assemblies.
        self._block_lru_bytes = block_lru_bytes
        self._pool = None
        self._segments: Optional[SharedAlignmentSegments] = None
        self._store: Optional[SharedR2TileStore] = None

    def _fork_pool(self) -> None:
        ctx = (
            mp.get_context(self._mp_context)
            if self._mp_context
            else mp.get_context()
        )
        self._pool = ctx.Pool(
            processes=self._n_workers,
            initializer=_init_worker,
            initargs=(self._config, obs.current_spec(), self._block_lru_bytes),
        )

    def _publish(self, alignment: SNPAlignment, max_pair_span: int) -> None:
        """Place ``alignment`` in shared memory, plus its r² tile band
        when some ω region holds a pair of sites."""
        with obs.get_tracer().span(
            "shm_publish", "shm", args={"sites": int(alignment.n_sites)}
        ):
            self._segments = SharedAlignmentSegments.create(alignment)
            if max_pair_span >= 1:
                self._store = SharedR2TileStore.create(
                    alignment,
                    max_pair_span=max_pair_span,
                    backend=self._config.ld_backend,
                )

    def _unpublish(self) -> None:
        if self._store is not None:
            self._store.close()
            self._store.unlink()
            self._store = None
        if self._segments is not None:
            self._segments.close()
            self._segments.unlink()
            self._segments = None

    def _dispatch(
        self,
        blocks: Sequence[Tuple[int, int, int]],
        plans: Sequence[PositionPlan],
        grid_positions: np.ndarray,
        valid: Optional[np.ndarray],
        registry: obs.MetricsRegistry,
        *,
        request_id: str = "",
        progress: Optional[obs.SlotWriter] = None,
        prefetch=None,
    ) -> Tuple[Dict[int, ScanResult], object]:
        """Scan grid blocks ``(index, lo, hi)`` over the published
        alignment; returns ``({index: block result}, prefetched)``.

        ``plans``, ``grid_positions`` and the optional validity mask
        ``valid`` are sliced ``[lo:hi]`` per block. Blocks run largest
        Eq. 4 cost first; ``registry`` receives the ``scheduler.*``
        metrics, every finished block is archived as a
        :class:`~repro.core.costmodel.CalibrationPair` and publishes live
        progress (to ``progress``, else the process slot), and the
        measured block times are folded into the process-wide cost model
        at the end. ``prefetch`` (optional, zero-argument) runs after
        dispatch and before collection, overlapping the next chunk's
        ingestion with this compute; its return value is passed through.
        """
        model = get_cost_model()
        terms = {}
        for idx, lo, hi in blocks:
            block = plans[lo:hi]
            terms[idx] = (
                hi - lo,
                float(model.position_costs(block).sum()),
                float(sum(p.n_evaluations for p in block)),
                float(sum(p.region_width**2 for p in block)),
            )
        alignment_spec = self._segments.spec
        tile_spec = self._store.spec if self._store is not None else None
        # Positions and mask travel as lists, not array slices: a worker
        # that unpickled an ndarray with every task gave back its heap
        # after each block and page-faulted it in again, 2.2x the minor
        # faults and ~5 % more worker CPU on a 128 x 8 000 scan (2 vCPU
        # Linux host, glibc malloc).
        tasks = sorted(
            (
                (
                    idx,
                    alignment_spec,
                    tile_spec,
                    grid_positions[lo:hi].tolist(),
                    None if valid is None else valid[lo:hi].tolist(),
                    request_id,
                )
                for idx, lo, hi in blocks
            ),
            key=lambda task: -terms[task[0]][1],
        )
        if progress is None:
            progress = obs.live_slot()
        secs_h = registry.histogram("scheduler.block_seconds")
        est_h = registry.histogram("scheduler.block_est_cost")
        depth_g = registry.gauge("scheduler.queue_depth")
        registry.counter("scheduler.blocks_dispatched").inc(len(tasks))
        parts: Dict[int, ScanResult] = {}
        with obs.get_tracer().span(
            "dispatch",
            "scheduler",
            args={"blocks": len(tasks), "request": request_id},
        ):
            for task in tasks:
                est_h.observe(terms[task[0]][1])
            pending = len(tasks)
            depth_g.set(pending)
            results = self._pool.imap_unordered(_scan_block, tasks, chunksize=1)
            prefetched = prefetch() if prefetch is not None else None
            for idx, part in results:
                parts[idx] = part
                pending -= 1
                depth_g.set(pending)
                seconds = part.breakdown.wall_seconds
                secs_h.observe(seconds)
                n_positions, cost, evals, area = terms[idx]
                if progress is not None:
                    progress.add_progress(n_positions, cost)
                # A least-squares row for ScanCostModel.fit_weights.
                record_calibration_pair(
                    CalibrationPair(
                        n_evaluations=evals,
                        region_area=area,
                        realized_seconds=seconds,
                        est_seconds=model.estimate_seconds(cost),
                        kind="block",
                    )
                )
        # Running-sum refit, atomic under the calibration lock, so the
        # next scan (and the GPU dispatcher) predict wall-clock from the
        # same constants.
        model = calibrate_from(registry.snapshot())
        if model.seconds_per_unit is not None:
            registry.gauge("scheduler.cost_seconds_per_unit").set(
                model.seconds_per_unit
            )
            registry.gauge("scheduler.cost_calibration_blocks").set(
                model.calibration_blocks
            )
        return parts, prefetched

    def close(self) -> None:
        """Tear down the pool and remove any shared segments still live."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self._unpublish()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()


class ParallelScanSession(_PoolSession):
    """Persistent shared-memory scan workers over one alignment.

    Creating a session places the alignment (and the r² tile band) in
    shared memory and forks a worker pool that attaches zero-copy; every
    :meth:`scan` then only moves small block tasks through the pool's
    task queue, so repeated scans reuse warm workers *and* the
    already-computed tiles. Use as a context manager (or call
    :meth:`close`).
    """

    def __init__(
        self,
        alignment: SNPAlignment,
        config: OmegaConfig,
        *,
        n_workers: int,
        mp_context: Optional[str] = None,
        block_size: Optional[int] = None,
        block_lru_bytes: int = 0,
    ):
        super().__init__(
            config,
            n_workers=n_workers,
            mp_context=mp_context,
            block_lru_bytes=block_lru_bytes,
        )
        self._alignment = alignment
        self._block_size = block_size
        self._grid_positions: Optional[np.ndarray] = None
        self._plans: Optional[List[PositionPlan]] = None

    def start(self) -> "ParallelScanSession":
        """Create the shared segments and the worker pool (idempotent)."""
        if self._pool is not None:
            return self
        alignment, config = self._alignment, self._config
        self._grid_positions = config.grid.positions(alignment)
        self._plans = build_plans(alignment, config.grid)
        max_span = max(
            (p.region_width for p in self._plans if p.valid), default=0
        )
        try:
            self._publish(alignment, max_span)
            self._fork_pool()
        except BaseException:
            self.close()
            raise
        return self

    def scan(self) -> ScanResult:
        """Run one full scan; the report matches the sequential scanner."""
        self.start()
        with obs.scoped_metrics() as registry:
            return self.scan_positions(
                self._grid_positions, plans=self._plans, registry=registry
            )

    # -------------------------------------------------------------- #
    # multi-request reuse (the scan service rides on this)

    @property
    def alignment(self) -> SNPAlignment:
        return self._alignment

    @property
    def config(self) -> OmegaConfig:
        return self._config

    @property
    def n_workers(self) -> int:
        return self._n_workers

    def scan_positions(
        self,
        grid_positions: np.ndarray,
        *,
        plans: Optional[Sequence[PositionPlan]] = None,
        block_size: Optional[int] = None,
        registry: Optional[obs.MetricsRegistry] = None,
        request_id: str = "",
        progress: Optional[obs.SlotWriter] = None,
    ) -> ScanResult:
        """Scan an explicit grid-position array over the shared pool.

        This is the multi-tenant entry point: the positions travel
        inside the block tasks, so many concurrent requests — each with
        its own region grid — multiplex over one worker pool, one shared
        alignment and one shared r² tile store. ``plans`` are the
        positions' evaluation plans when the caller already has them
        (:func:`plans_for_positions`); they price and order the blocks.
        The method is thread-safe: scheduler metrics go to the
        caller-supplied ``registry`` (never the process-global one,
        which ``obs.scoped_metrics`` would make a cross-request race),
        and the calibration fold is atomic. Results are bitwise-equal to
        a sequential scan of the same positions.
        """
        self.start()
        if registry is None:
            registry = obs.MetricsRegistry()
        grid_positions = np.asarray(grid_positions, dtype=np.float64)
        if grid_positions.size == 0:
            raise ScanConfigError("scan_positions needs >= 1 position")
        t_wall = time.perf_counter()
        if plans is None:
            plans = plans_for_positions(
                self._alignment.positions, grid_positions, self._config.grid
            )
        blocks = make_blocks(
            grid_positions.size,
            self._n_workers,
            block_size=block_size if block_size else self._block_size,
        )
        parts, _ = self._dispatch(
            [(idx, lo, hi) for idx, (lo, hi) in enumerate(blocks)],
            plans,
            grid_positions,
            None,
            registry,
            request_id=request_id,
            progress=progress,
        )
        result = merge_scan_results([parts[i] for i in range(len(blocks))])
        result.metrics = obs.merge_snapshots(
            result.metrics, registry.snapshot()
        )
        result.breakdown.wall_seconds = time.perf_counter() - t_wall
        return result


# ---------------------------------------------------------------------- #
# public entry point
# ---------------------------------------------------------------------- #


def parallel_scan(
    alignment: SNPAlignment,
    config: OmegaConfig,
    *,
    n_workers: int,
    mp_context: Optional[str] = None,
    block_size: Optional[int] = None,
) -> ScanResult:
    """Scan with ``n_workers`` processes; results match a sequential scan.

    Parameters
    ----------
    alignment, config:
        Same inputs as :class:`~repro.core.scan.OmegaPlusScanner`.
    n_workers:
        Number of worker processes. ``1`` short-circuits to the sequential
        scanner (no process overhead).
    mp_context:
        Multiprocessing start method (default: platform default, ``fork``
        on Linux).
    block_size:
        Scheduling-block length in grid positions; default targets
        :data:`BLOCKS_PER_WORKER` blocks per worker.

    The returned breakdown's phase totals sum CPU seconds *across
    workers*; its ``wall_seconds`` holds the true elapsed time of this
    call.
    """
    if n_workers < 1:
        raise ScanConfigError(f"n_workers must be >= 1, got {n_workers}")
    t_wall = time.perf_counter()
    if n_workers == 1:
        return OmegaPlusScanner(config).scan(alignment)
    with ParallelScanSession(
        alignment,
        config,
        n_workers=n_workers,
        mp_context=mp_context,
        block_size=block_size,
    ) as session:
        result = session.scan()
    result.breakdown.wall_seconds = time.perf_counter() - t_wall
    return result


# ---------------------------------------------------------------------- #
# streaming: persistent pool over shared-memory chunks
# ---------------------------------------------------------------------- #


class StreamingScanSession(_PoolSession):
    """Streaming counterpart of :class:`ParallelScanSession`: one
    persistent worker pool scans a *sequence* of shared-memory chunks.

    Each :meth:`scan_chunk` call publishes the chunk (and its r² tile
    band) to shared memory exactly once, ships only block tasks to the
    pool, and unpublishes before returning — so at most one chunk is
    resident at any time. Workers keep their mapping of the current chunk
    between blocks and swap it when the next chunk's tasks arrive.
    """

    def start(self) -> "StreamingScanSession":
        """Fork the worker pool (idempotent)."""
        if self._pool is None:
            self._fork_pool()
        return self

    def scan_chunk(
        self,
        chunk: SNPAlignment,
        blocks: Sequence[Tuple[int, int, int]],
        *,
        plans: Sequence[PositionPlan],
        grid_positions: np.ndarray,
        valid: np.ndarray,
        max_pair_span: int,
        prefetch=None,
    ):
        """Scan one chunk's grid blocks ``(index, lo, hi)``; returns
        ``(parts, prefetched)``.

        ``plans``, ``grid_positions`` and ``valid`` are the scan's global
        arrays (the chunk covers every ω region of the given blocks);
        ``prefetch`` is as for :meth:`_PoolSession._dispatch`.
        """
        self.start()
        try:
            self._publish(chunk, max_pair_span)
            parts, prefetched = self._dispatch(
                blocks,
                plans,
                grid_positions,
                valid,
                obs.get_metrics(),
                prefetch=prefetch,
            )
            obs.get_flight().record(
                "chunk", "stream.parallel_chunk",
                sites=int(chunk.n_sites), blocks=len(blocks),
            )
            return parts, prefetched
        finally:
            with obs.get_tracer().span("shm_unpublish", "shm"):
                self._unpublish()


def _block_spans(plans, blocks) -> List[Optional[Tuple[int, int]]]:
    """Per scheduling block, the [lo, hi) site range covering every one of
    its positions' ω regions — ``None`` for blocks whose positions all
    have empty regions (pure SNP desert, nothing to compute)."""
    spans: List[Optional[Tuple[int, int]]] = []
    for lo, hi in blocks:
        rs = min(p.region_start for p in plans[lo:hi])
        re1 = max(p.region_stop + 1 for p in plans[lo:hi])
        spans.append((rs, re1) if re1 > rs else None)
    return spans


def _group_stream_chunks(
    spans, snp_budget: int
) -> List[Tuple[int, int, List[int]]]:
    """Greedily group consecutive data blocks into chunk descriptors
    ``(site_lo, site_hi, data block indices)`` under the SNP budget.

    Block spans are non-decreasing in both endpoints (blocks follow the
    grid), so the resulting site ranges satisfy the streaming-source
    monotonicity contract.
    """
    chunks: List[Tuple[int, int, List[int]]] = []
    cur: Optional[list] = None
    for b, span in enumerate(spans):
        if span is None:
            continue
        rs, re1 = span
        if re1 - rs > snp_budget:
            raise ScanConfigError(
                f"snp_budget {snp_budget} cannot hold scheduling block {b} "
                f"({re1 - rs} SNPs); raise the budget, reduce max_window, "
                f"or use a smaller block_size"
            )
        if cur is None:
            cur = [rs, re1, [b]]
        elif max(cur[1], re1) - cur[0] <= snp_budget:
            cur[1] = max(cur[1], re1)
            cur[2].append(b)
        else:
            chunks.append((cur[0], cur[1], cur[2]))
            cur = [rs, re1, [b]]
    if cur is not None:
        chunks.append((cur[0], cur[1], cur[2]))
    return chunks



def _iter_scan_stream_parallel(
    source: AlignmentStreamSource,
    config: OmegaConfig,
    *,
    snp_budget: int,
    n_workers: int,
    block_size: Optional[int],
    mp_context: Optional[str],
):
    """Parallel streamed scan (driven via
    :func:`repro.core.scan.iter_scan_stream`), yielding one merged
    :class:`ScanResult` part per chunk.

    The grid partition is *identical* to :func:`parallel_scan`'s
    (:func:`make_blocks`), each worker computes its block from a chunk
    covering all of the block's ω regions, and globally invalid positions
    are masked — so every block's records are bitwise equal to the
    in-memory run's.
    """
    positions = source.positions
    tr = obs.get_tracer()
    _plan_bd = TimeBreakdown()
    with tr.phase(_plan_bd, "plan", "phase"):
        grid_positions = config.grid.positions_from(positions)
        plans = build_plans_from_positions(positions, config.grid)
        blocks = make_blocks(
            grid_positions.size, n_workers, block_size=block_size
        )
        valid = np.array([p.valid for p in plans], dtype=bool)
        spans = _block_spans(plans, blocks)
        chunk_descs = _group_stream_chunks(spans, snp_budget)
    plan_seconds = _plan_bd.totals["plan"]

    def ingest_next(window_iter):
        """Pull the next chunk, timed and traced on the ingest track."""
        bd = TimeBreakdown()
        with tr.phase(bd, "ingest", "ingest", thread="ingest"):
            chunk = next(window_iter)
        return chunk, bd.totals["ingest"]

    # Result-ordering coverage: chunk i merges every block after chunk
    # i-1's coverage up to its own last data block; dataless blocks in
    # between are synthesized in the parent (their positions have no
    # sites to scan), and the final chunk extends to the last block.
    coverage: List[Tuple[int, int]] = []
    prev_end = 0
    for ci, (_lo, _hi, data_blocks) in enumerate(chunk_descs):
        end = (
            data_blocks[-1] + 1
            if ci < len(chunk_descs) - 1
            else len(blocks)
        )
        coverage.append((prev_end, end))
        prev_end = end

    def synth_part(b: int) -> ScanResult:
        lo, hi = blocks[b]
        size = hi - lo
        return ScanResult(
            positions=grid_positions[lo:hi].copy(),
            omegas=np.zeros(size),
            left_borders_bp=np.full(size, np.nan),
            right_borders_bp=np.full(size, np.nan),
            n_evaluations=np.zeros(size, dtype=np.int64),
        )

    def chunk_max_span(data_blocks: List[int]) -> int:
        return max(
            (
                plans[k].region_width
                for b in data_blocks
                for k in range(*blocks[b])
                if plans[k].valid
            ),
            default=0,
        )

    def gen():
        window_iter = source.windows(
            [(lo, hi) for lo, hi, _ in chunk_descs]
        )
        session = StreamingScanSession(
            config, n_workers=n_workers, mp_context=mp_context
        )
        try:
            if not chunk_descs:
                part = merge_scan_results(
                    [synth_part(b) for b in range(len(blocks))]
                )
                part.breakdown.add("plan", plan_seconds)
                yield part
                return
            chunk, ingest_seconds = ingest_next(window_iter)
            for ci, (_lo, _hi, data_blocks) in enumerate(chunk_descs):
                prefetch = None
                if ci + 1 < len(chunk_descs):

                    def prefetch():
                        return ingest_next(window_iter)

                with obs.scoped_metrics() as registry:
                    parts, prefetched = session.scan_chunk(
                        chunk,
                        [(b, *blocks[b]) for b in data_blocks],
                        plans=plans,
                        grid_positions=grid_positions,
                        valid=valid,
                        max_pair_span=chunk_max_span(data_blocks),
                        prefetch=prefetch,
                    )
                    registry.counter("stream.chunks").inc()
                    registry.gauge("stream.chunk_rss_bytes").set(
                        obs.current_rss_bytes()
                    )
                    parent_snap = registry.snapshot()
                cov_lo, cov_hi = coverage[ci]
                merged = merge_scan_results(
                    [
                        parts[b] if b in parts else synth_part(b)
                        for b in range(cov_lo, cov_hi)
                    ]
                )
                merged.metrics = obs.merge_snapshots(
                    merged.metrics, parent_snap
                )
                merged.breakdown.add("ingest", ingest_seconds)
                if ci == 0:
                    merged.breakdown.add("plan", plan_seconds)
                yield merged
                if prefetched is not None:
                    chunk, ingest_seconds = prefetched
        finally:
            window_iter.close()
            session.close()

    return gen()
