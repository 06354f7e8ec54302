"""The OmegaPlus scanner: the complete workflow of Fig. 3 on the CPU.

For each grid position the scanner

1. derives the evaluation plan (region bounds, split, candidate borders —
   :mod:`repro.core.grid`),
2. obtains the region's r² matrix, reusing the overlap with the previous
   region (:mod:`repro.core.reuse` — the data-reuse optimization),
3. obtains the window-sum structure (:class:`~repro.core.dp.SumMatrix`,
   Eq. 3), relocating the previous region's prefix block and extending it
   with only the newly entered SNPs
   (:class:`~repro.core.reuse.SumMatrixCache` — the DP level of the same
   data-reuse optimization; sub-timed as ``dp_build`` vs ``dp_reuse``),
4. maximizes ω over all border combinations
   (:func:`~repro.core.omega.omega_max_at_split`, Eq. 2),

and attributes wall-clock time to the ``ld``, ``omega`` and ``plan``
phases, reproducing the profiling view of Section I (LD + ω >= 98 % of
total runtime).

This scanner is the CPU baseline every accelerator model is validated
against: the GPU and FPGA engines must produce the exact same ω report.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.core.batch import (
    DEFAULT_BATCH_POSITIONS,
    BatchedOmegaPlan,
    omega_max_batch,
)
from repro.core.costmodel import calibrate_from, get_cost_model
from repro.core.grid import (
    GridSpec,
    PositionPlan,
    build_plans,
    build_plans_from_positions,
)
from repro.core.omega import DENOMINATOR_OFFSET, omega_max_at_split
from repro.core.results import ScanResult, merge_scan_results
from repro.core.reuse import (
    DpSeed,
    R2RegionCache,
    ReuseStats,
    SumMatrixCache,
)
from repro.datasets.alignment import SNPAlignment
from repro.datasets.streaming import AlignmentStreamSource, InMemoryStreamSource
from repro.errors import ScanConfigError
from repro.ld.operands import LDBackendFiller, operands_for
from repro.utils.timing import TimeBreakdown

__all__ = [
    "OmegaConfig",
    "OmegaPlusScanner",
    "scan",
    "scan_stream",
    "iter_scan_stream",
]


@dataclass(frozen=True)
class OmegaConfig:
    """Scanner configuration (mirrors the OmegaPlus command line).

    Attributes
    ----------
    grid:
        Grid and window geometry (``-grid``, ``-maxwin``, ``-minwin``).
    eps:
        Denominator guard of Eq. (2); OmegaPlus's 1e-5 by default.
    ld_backend:
        ``"gemm"``, ``"packed"`` or ``"auto"`` — which LD formulation
        feeds the r² region cache. ``"auto"`` picks gemm-vs-packed per
        block from the calibrated cost-model crossover; all three are
        bitwise identical.
    reuse:
        Enable the overlap data-reuse optimization at the r² level.
        Disabling it is only useful for the ablation benchmark that
        quantifies its benefit.
    dp_reuse:
        Enable the overlap data-reuse optimization at the window-sum DP
        level (:class:`~repro.core.reuse.SumMatrixCache`): the prefix-sum
        block is relocated across overlapping regions and extended with
        only the newly entered SNPs instead of being rebuilt from scratch
        at every grid position. Disabling it recovers the
        rebuild-every-position baseline (``bench_ablation_dp_reuse.py``).
    omega_batch:
        Maximum grid positions packed per batched ω evaluation
        (:mod:`repro.core.batch`). ``1`` recovers the per-position
        evaluation path (A/B baseline for the ablation benchmark); the
        two paths are bitwise-equal. Positions whose score grid is at or
        above the cost model's ``batch_score_threshold`` always bypass
        packing — they amortize dispatch overhead on their own.
    backend:
        Optional *array backend* name (``"numpy"``, ``"cupy"``,
        ``"numba"``) routing the ω evaluation through the executable
        Kernel I/II paths of :mod:`repro.accel.gpu.kernels` via the
        dynamic dispatcher. ``None`` (the default) defers to the
        ``REPRO_BACKEND`` environment variable, and when that is unset
        too the scanner keeps its host scalar/batched path. The NumPy
        backend is bitwise-equal to the default path; an unavailable
        backend falls back to NumPy with a warning (see
        :mod:`repro.accel.backend`).
    """

    grid: GridSpec
    eps: float = DENOMINATOR_OFFSET
    ld_backend: str = "gemm"
    reuse: bool = True
    dp_reuse: bool = True
    omega_batch: int = DEFAULT_BATCH_POSITIONS
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.eps < 0:
            raise ScanConfigError(f"eps must be >= 0, got {self.eps}")
        if self.ld_backend not in ("gemm", "packed", "auto"):
            raise ScanConfigError(
                f"ld_backend must be 'gemm', 'packed' or 'auto', "
                f"got {self.ld_backend!r}"
            )
        if self.omega_batch < 1:
            raise ScanConfigError(
                f"omega_batch must be >= 1, got {self.omega_batch}"
            )
        if self.backend is not None and not isinstance(self.backend, str):
            raise ScanConfigError(
                f"backend must be a backend name or None, "
                f"got {self.backend!r}"
            )


class _OmegaBatchSink:
    """Routes per-position ω evaluation through the packed batch path.

    Positions are packed into a :class:`~repro.core.batch.BatchedOmegaPlan`
    (values copied out of the ``SumMatrix`` immediately, so DP cache
    relocation can't invalidate them) and flushed through
    :func:`~repro.core.batch.omega_max_batch` when the batch fills;
    results land in the caller's output arrays at flush. Large positions
    (score grid ≥ the cost model's ``batch_score_threshold``) and the
    ``omega_batch=1`` configuration take the direct per-position path —
    bitwise-equal either way, so batch boundaries (chunk ends, worker
    block ends) can never change a reported score.

    When the config resolves to an executable array backend
    (``config.backend`` or ``REPRO_BACKEND``), every evaluation —
    batched flushes *and* direct large positions — is served by
    :meth:`~repro.accel.gpu.dispatch.DynamicDispatcher.run_plan`
    instead: the packed arenas are scored by the Kernel I/II executable
    paths with Eq. 4 per-position kernel choice, recording realized
    launch timings. On the NumPy backend this is bitwise-equal to the
    host path, so the routing can never change a reported score either.

    ``add`` and ``flush`` must be called inside the ``omega`` phase timer
    so span sums keep matching the breakdown.
    """

    def __init__(self, config, site_positions, omegas, lefts, rights,
                 evals, registry):
        self._eps = config.eps
        self._site_positions = site_positions
        self._omegas = omegas
        self._lefts = lefts
        self._rights = rights
        self._evals = evals
        self._threshold = get_cost_model().batch_score_threshold
        self._plan = (
            BatchedOmegaPlan(max_positions=config.omega_batch)
            if config.omega_batch > 1
            else None
        )
        self._pending: List[Tuple[int, int]] = []
        self._batches = registry.counter("omega.batches")
        self._batched_positions = registry.counter("omega.batched_positions")
        self._direct_positions = registry.counter("omega.direct_positions")
        self._batch_fill = registry.histogram("omega.batch_positions")
        # Live progress ledger: resolved once per sink; None (a single
        # attribute check per position) unless this process bound a slot.
        self._live = obs.live_slot()
        self._live_model = get_cost_model() if self._live is not None else None
        # Lazy accel imports: repro.accel.gpu.omega_gpu imports this
        # module, so pulling the dispatcher in at module scope would be
        # a cycle. Resolution happens per sink so worker processes
        # honour REPRO_BACKEND on their own.
        self._executor = None
        from repro.accel.backend import resolve_backend

        backend = resolve_backend(config.backend)
        if backend is not None:
            from repro.accel.gpu.dispatch import (
                DEFAULT_EXEC_DEVICE,
                DynamicDispatcher,
            )

            self._executor = DynamicDispatcher(
                DEFAULT_EXEC_DEVICE, backend=backend
            )

    @property
    def executor(self):
        """The backend dispatcher serving evaluations (None = host path)."""
        return self._executor

    @property
    def pending(self) -> int:
        return len(self._pending)

    def add(self, out_idx: int, plan: PositionPlan, sums) -> None:
        """Evaluate (or pack) one valid position's ω maximization."""
        if self._live is not None:
            self._live.add_progress(
                1,
                self._live_model.position_cost(
                    plan.n_evaluations, plan.region_width
                ),
            )
        off = plan.region_start
        li = plan.left_borders - off
        rj = plan.right_borders - off
        c = plan.split_index - off
        if self._plan is None or plan.n_evaluations >= self._threshold:
            self._direct_positions.inc()
            if self._executor is not None:
                # One-position launch through the executable kernels
                # (large positions are exactly the Kernel II regime).
                single = BatchedOmegaPlan(max_positions=1)
                single.add(sums, li, c, rj)
                res = self._executor.run_plan(single, eps=self._eps)
                self._store(
                    out_idx, off, float(res.omegas[0]),
                    int(res.left_borders[0]), int(res.right_borders[0]),
                    int(res.n_evaluations[0]),
                )
                return
            res = omega_max_at_split(sums, li, c, rj, eps=self._eps)
            self._store(
                out_idx, off, res.omega, res.left_border,
                res.right_border, res.n_evaluations,
            )
            return
        self._plan.add(sums, li, c, rj)
        self._pending.append((out_idx, off))
        if self._plan.full:
            self.flush()

    def flush(self) -> None:
        """Score every packed position and write the results out."""
        if not self._pending:
            return
        if self._executor is not None:
            res = self._executor.run_plan(self._plan, eps=self._eps)
        else:
            res = omega_max_batch(self._plan, eps=self._eps)
        self._batches.inc()
        self._batched_positions.inc(len(self._pending))
        self._batch_fill.observe(len(self._pending))
        for slot, (out_idx, off) in enumerate(self._pending):
            self._store(
                out_idx,
                off,
                float(res.omegas[slot]),
                int(res.left_borders[slot]),
                int(res.right_borders[slot]),
                int(res.n_evaluations[slot]),
            )
        self._pending = []
        self._plan.reset()

    def _store(self, out_idx, off, omega, lb, rb, n_evals) -> None:
        self._omegas[out_idx] = omega
        self._evals[out_idx] = n_evals
        if lb >= 0:
            self._lefts[out_idx] = self._site_positions[lb + off]
            self._rights[out_idx] = self._site_positions[rb + off]


class OmegaPlusScanner:
    """Reference CPU implementation of the complete sweep-detection scan.

    Parameters
    ----------
    config:
        The scan configuration.
    block_fn:
        Optional fresh-block source handed to the
        :class:`~repro.core.reuse.R2RegionCache` (see its ``block_fn``
        parameter). The multiprocess scanner injects the shared r² tile
        store here; the default computes blocks with ``config.ld_backend``.
    valid_mask:
        Optional per-grid-position boolean mask; positions marked False
        are forced invalid (ω = 0, NaN borders) even if local planning
        would admit them. The streaming scanner plans on the *global*
        position array and scans *chunks*; the mask pins each chunk-local
        scan to the global plan's validity so a chunk boundary can never
        resurrect a position the full-alignment scan skipped.
    """

    def __init__(
        self,
        config: OmegaConfig,
        *,
        block_fn=None,
        valid_mask: Optional[Sequence[bool]] = None,
    ):
        self.config = config
        self._block_fn = block_fn
        self._valid_mask = valid_mask

    def scan(self, alignment: SNPAlignment) -> ScanResult:
        """Scan an alignment and return the per-grid-position ω report."""
        if alignment.n_sites < 2:
            raise ScanConfigError("scanning requires at least 2 SNPs")
        cfg = self.config
        tr = obs.get_tracer()
        t_wall = time.perf_counter()
        breakdown = TimeBreakdown()

        with obs.scoped_metrics() as registry:
            with tr.phase(breakdown, "plan", "phase"):
                plans = build_plans(alignment, cfg.grid)
                if self._valid_mask is not None:
                    plans = _apply_valid_mask(plans, self._valid_mask)

            cache = R2RegionCache(
                alignment, backend=cfg.ld_backend, block_fn=self._block_fn
            )
            dp_cache = SumMatrixCache(reuse=cfg.dp_reuse, stats=cache.stats)
            result = _scan_plans(
                cfg, plans, 0, len(plans), alignment.positions, cache,
                dp_cache, registry, breakdown,
            )
            breakdown.wall_seconds = time.perf_counter() - t_wall
            _mirror_reuse_metrics(registry, cache.stats)
            result.reuse = cache.stats
            result.metrics = registry.snapshot()
        return result


def _scan_plans(
    cfg: OmegaConfig,
    plans: List[PositionPlan],
    lo: int,
    hi: int,
    site_positions: np.ndarray,
    cache: R2RegionCache,
    dp_cache: SumMatrixCache,
    registry: obs.MetricsRegistry,
    breakdown: TimeBreakdown,
) -> ScanResult:
    """The position loop of Fig. 3 over ``plans[lo:hi]``: r² with overlap
    reuse, DP relocation, then the ω maximum, for every valid position.

    ``cache`` and ``dp_cache`` carry reuse state across calls (the
    streamed scan calls this once per chunk); ``breakdown`` receives the
    ``ld`` / ``omega`` phase seconds. Returns the positions' records with
    the DP sub-timings; reuse counters and metrics are the caller's.
    """
    tr = obs.get_tracer()
    n = hi - lo
    omegas = np.zeros(n)
    lefts = np.full(n, np.nan)
    rights = np.full(n, np.nan)
    evals = np.zeros(n, dtype=np.int64)
    subphases = TimeBreakdown()
    positions_evaluated = registry.counter("scan.positions_evaluated")
    sink = _OmegaBatchSink(
        cfg, site_positions, omegas, lefts, rights, evals, registry
    )
    for k in range(lo, hi):
        plan = plans[k]
        if not plan.valid:
            continue
        positions_evaluated.inc()
        with tr.phase(breakdown, "ld", "phase"):
            if not cfg.reuse:
                cache.reset()
            r2 = cache.region_matrix(plan.region_start, plan.region_stop)
        with tr.phase(breakdown, "omega", "phase"):
            t0ns = time.perf_counter_ns()
            sums = dp_cache.region_sums(
                plan.region_start, plan.region_stop, r2
            )
            dtns = time.perf_counter_ns() - t0ns
            dp_name = (
                "dp_build" if dp_cache.last_action == "build" else "dp_reuse"
            )
            subphases.add(dp_name, dtns / 1e9)
            tr.add_complete(dp_name, "dp", t0ns // 1000, dtns // 1000)
            sink.add(k - lo, plan, sums)
    if sink.pending:
        with tr.phase(breakdown, "omega", "phase"):
            sink.flush()
    if sink.executor is not None:
        # Fold the realized kernel timings these positions produced
        # (backend.block_est_cost / backend.block_seconds) into the
        # process-wide model, mirroring the parallel scheduler's fold —
        # sequential backend scans calibrate seconds_per_unit from real
        # launches too.
        model = calibrate_from(registry.snapshot())
        if model.seconds_per_unit is not None:
            registry.gauge("scheduler.cost_seconds_per_unit").set(
                model.seconds_per_unit
            )
    return ScanResult(
        positions=np.array([p.grid_position for p in plans[lo:hi]]),
        omegas=omegas,
        left_borders_bp=lefts,
        right_borders_bp=rights,
        n_evaluations=evals,
        breakdown=breakdown,
        omega_subphases=subphases,
    )


def scan(
    alignment: SNPAlignment,
    *,
    grid_size: int,
    max_window: float,
    min_window: float = 0.0,
    min_flank_snps: int = 2,
    eps: float = DENOMINATOR_OFFSET,
    ld_backend: str = "gemm",
    reuse: bool = True,
    dp_reuse: bool = True,
    backend: Optional[str] = None,
) -> ScanResult:
    """One-call convenience wrapper around :class:`OmegaPlusScanner`.

    Examples
    --------
    >>> from repro.datasets import sweep_signature_alignment
    >>> aln = sweep_signature_alignment(40, 300, seed=1)
    >>> result = scan(aln, grid_size=20, max_window=aln.length / 2)
    >>> 0 < result.best().omega
    True
    """
    config = OmegaConfig(
        grid=GridSpec(
            n_positions=grid_size,
            max_window=max_window,
            min_window=min_window,
            min_flank_snps=min_flank_snps,
        ),
        eps=eps,
        ld_backend=ld_backend,
        reuse=reuse,
        dp_reuse=dp_reuse,
        backend=backend,
    )
    return OmegaPlusScanner(config).scan(alignment)


# ---------------------------------------------------------------------- #
# streaming scan: bounded-memory chunked driver
# ---------------------------------------------------------------------- #

_EMPTY_BORDERS = np.zeros(0, dtype=np.intp)


def _apply_valid_mask(
    plans: List[PositionPlan], mask: np.ndarray
) -> List[PositionPlan]:
    """Force positions masked False to the invalid (skipped) state."""
    if len(mask) != len(plans):
        raise ScanConfigError(
            f"valid_mask has {len(mask)} entries for {len(plans)} grid "
            f"positions"
        )
    out: List[PositionPlan] = []
    for plan, ok in zip(plans, mask):
        if ok or not plan.valid:
            out.append(plan)
        else:
            out.append(
                dataclasses.replace(
                    plan,
                    left_borders=_EMPTY_BORDERS,
                    right_borders=_EMPTY_BORDERS,
                )
            )
    return out


def _mirror_reuse_metrics(registry, stats: ReuseStats) -> None:
    """Mirror the r²/DP reuse counters into the metrics registry.

    Tile-store counters (``tilestore.*``) are *not* mirrored here — the
    shared tile store increments those live at fill/hit time, and
    double-counting them would corrupt the merged snapshot.
    """
    registry.counter("ld.entries_computed").inc(stats.entries_computed)
    registry.counter("ld.entries_reused").inc(stats.entries_reused)
    registry.counter("dp.entries_computed").inc(stats.dp_entries_computed)
    registry.counter("dp.entries_reused").inc(stats.dp_entries_reused)
    registry.counter("dp.builds").inc(stats.dp_builds)


def _reuse_delta(stats: ReuseStats, snapshot: ReuseStats) -> ReuseStats:
    """Counter difference ``stats - snapshot`` (per-chunk attribution)."""
    delta = ReuseStats()
    for f in dataclasses.fields(ReuseStats):
        setattr(
            delta, f.name, getattr(stats, f.name) - getattr(snapshot, f.name)
        )
    return delta


def _plan_stream_chunks(
    plans: List[PositionPlan], snp_budget: int
) -> List[Tuple[int, int, int, int]]:
    """Group consecutive grid positions into chunk descriptors
    ``(site_lo, site_hi, plan_lo, plan_hi)``: the site range covers every
    grouped position's ω region, and never exceeds ``snp_budget`` SNPs.

    Region bounds are non-decreasing along the grid, so greedy grouping
    yields monotonic site ranges (the streaming-source contract). Invalid
    (SNP-desert) positions need no sites and ride with whichever group is
    open when they occur.
    """
    widest = max((p.region_width for p in plans if p.valid), default=0)
    if widest > snp_budget:
        raise ScanConfigError(
            f"snp_budget {snp_budget} is smaller than the widest omega "
            f"region ({widest} SNPs); raise the budget or reduce max_window"
        )
    groups: List[Tuple[int, int, int, int]] = []
    cur_lo: Optional[int] = None
    cur_hi = 0
    start_k = 0
    for k, plan in enumerate(plans):
        if not plan.valid:
            continue
        rs, re1 = plan.region_start, plan.region_stop + 1
        if cur_lo is None:
            cur_lo, cur_hi = rs, re1
        elif max(cur_hi, re1) - cur_lo <= snp_budget:
            cur_hi = max(cur_hi, re1)
        else:
            groups.append((cur_lo, cur_hi, start_k, k))
            start_k = k
            cur_lo, cur_hi = rs, re1
    if cur_lo is None:
        groups.append((0, 0, 0, len(plans)))
    else:
        groups.append((cur_lo, cur_hi, start_k, len(plans)))
    return groups


def _iter_stream_sequential(
    source: AlignmentStreamSource,
    config: OmegaConfig,
    snp_budget: int,
    dp_seed: Optional["DpSeed"] = None,
) -> Iterator[ScanResult]:
    """Sequential streamed scan, yielding one :class:`ScanResult` part per
    chunk.

    Bitwise equality with the in-memory scanner comes from replicating its
    arithmetic exactly: the plans are built once from the global position
    index, one :class:`R2RegionCache` and one :class:`SumMatrixCache`
    persist across chunks (addressed in global site coordinates), and the
    only difference is *where* fresh r² blocks come from — a chunk slice
    instead of the full matrix, which holds the same bytes for the same
    global sites.
    """
    cfg = config
    positions = source.positions
    tr = obs.get_tracer()
    _plan_bd = TimeBreakdown()
    with tr.phase(_plan_bd, "plan", "phase"):
        plans = build_plans_from_positions(positions, cfg.grid)
        groups = _plan_stream_chunks(plans, snp_budget)
    plan_seconds = _plan_bd.totals["plan"]

    # Fresh r² blocks are requested in global coordinates but computed
    # from the currently resident chunk; the chunk always covers the open
    # group's site range, so the translation below never misses.
    holder: dict = {}

    def block_fn(rows: slice, cols: slice) -> np.ndarray:
        lo = holder["lo"]
        r = slice(rows.start - lo, rows.stop - lo)
        c = slice(cols.start - lo, cols.stop - lo)
        return holder["filler"](r, c)

    def gen() -> Iterator[ScanResult]:
        cache = R2RegionCache(
            None, block_fn=block_fn, n_sites=positions.size
        )
        dp_cache = SumMatrixCache(reuse=cfg.dp_reuse, stats=cache.stats)
        if dp_seed is not None:
            dp_cache.seed(dp_seed)
        window_iter = source.windows(
            [(lo, hi) for lo, hi, _a, _b in groups if hi > lo]
        )
        try:
            first = True
            for site_lo, site_hi, plan_lo, plan_hi in groups:
                breakdown = TimeBreakdown()
                if first:
                    breakdown.add("plan", plan_seconds)
                live = obs.live_slot()
                with obs.scoped_metrics() as registry:
                    if site_hi > site_lo:
                        if live is not None:
                            live.set_phase("ingest")
                        with tr.phase(
                            breakdown, "ingest", "ingest", thread="ingest"
                        ):
                            chunk = next(window_iter)
                        if live is not None:
                            live.set_phase("scan")
                        obs.get_flight().record(
                            "chunk", "stream.ingest",
                            site_lo=site_lo, site_hi=site_hi,
                            plan_lo=plan_lo, plan_hi=plan_hi,
                        )
                        holder["lo"] = site_lo
                        # One operand-plane cache (and backend filler)
                        # per chunk; dead chunks drop their planes with
                        # the chunk object itself.
                        holder["filler"] = LDBackendFiller(
                            operands_for(chunk), cfg.ld_backend
                        )
                    snapshot = dataclasses.replace(cache.stats)
                    part = _scan_plans(
                        cfg, plans, plan_lo, plan_hi, positions, cache,
                        dp_cache, registry, breakdown,
                    )
                    part.reuse = _reuse_delta(cache.stats, snapshot)
                    registry.counter("stream.chunks").inc()
                    registry.counter("stream.chunk_sites").inc(
                        site_hi - site_lo
                    )
                    registry.gauge("stream.chunk_rss_bytes").set(
                        obs.current_rss_bytes()
                    )
                    _mirror_reuse_metrics(registry, part.reuse)
                    part.metrics = registry.snapshot()
                yield part
                first = False
        finally:
            window_iter.close()

    return gen()


def iter_scan_stream(
    source: Union[AlignmentStreamSource, SNPAlignment],
    config: OmegaConfig,
    *,
    snp_budget: int,
    n_workers: int = 1,
    block_size: Optional[int] = None,
    mp_context: Optional[str] = None,
    grid_positions: Optional[np.ndarray] = None,
    dp_seed: Optional[DpSeed] = None,
) -> Iterator[ScanResult]:
    """Streamed scan, yielding one :class:`ScanResult` part per chunk.

    Parameters
    ----------
    source:
        An :class:`~repro.datasets.streaming.AlignmentStreamSource`
        (e.g. :class:`~repro.datasets.streaming.StreamingAlignmentReader`)
        or a plain :class:`SNPAlignment` (wrapped in an
        :class:`~repro.datasets.streaming.InMemoryStreamSource`).
    config:
        Scan configuration, as for :class:`OmegaPlusScanner`.
    snp_budget:
        Maximum SNPs resident per chunk — the peak-memory knob. Must be
        at least the widest ω region (a region cannot straddle chunks).
    n_workers, block_size, mp_context:
        As in :func:`~repro.core.parallel.parallel_scan`; with
        ``n_workers > 1`` the chunks are scanned by a persistent worker
        pool (each chunk published once to shared memory).
    grid_positions:
        Explicit ω evaluation positions overriding the equidistant
        derivation from ``config.grid`` (window geometry is kept). Plans
        are still built against the source's *full* site index, so
        scanning a contiguous slice of a grid yields records bitwise
        equal to the same slice of the full scan — this is what lets a
        manifest shard reproduce exactly its portion of an unsharded
        scan (see :mod:`repro.shard`).
    dp_seed:
        Stride-history seed for the DP anchor cache (see
        :func:`~repro.core.reuse.dp_replay_seed`). Combined with a
        ``grid_positions`` slice that starts at a full-run anchor
        rebuild, it makes a mid-grid scan replay the full sequential
        run's float rounding exactly. Sequential only (``n_workers=1``).

    Closing the returned generator mid-iteration releases the input file
    handle and, for parallel runs, the worker pool and every shared
    segment.
    """
    if isinstance(source, SNPAlignment):
        source = InMemoryStreamSource(source)
    if not isinstance(source, AlignmentStreamSource):
        raise ScanConfigError(
            f"source must be an AlignmentStreamSource or SNPAlignment, "
            f"got {type(source).__name__}"
        )
    if snp_budget < 2:
        raise ScanConfigError(f"snp_budget must be >= 2, got {snp_budget}")
    if n_workers < 1:
        raise ScanConfigError(f"n_workers must be >= 1, got {n_workers}")
    if source.n_sites < 2:
        raise ScanConfigError("scanning requires at least 2 SNPs")
    if grid_positions is not None:
        from repro.core.grid import fixed_position_spec

        config = dataclasses.replace(
            config, grid=fixed_position_spec(config.grid, grid_positions)
        )
    if n_workers > 1:
        if dp_seed is not None:
            raise ScanConfigError(
                "dp_seed requires the sequential path (n_workers=1): "
                "parallel block scans do not carry DP anchor state "
                "across blocks"
            )
        from repro.core.parallel import _iter_scan_stream_parallel

        return _iter_scan_stream_parallel(
            source,
            config,
            snp_budget=snp_budget,
            n_workers=n_workers,
            block_size=block_size,
            mp_context=mp_context,
        )
    return _iter_stream_sequential(source, config, snp_budget, dp_seed)


def scan_stream(
    source: Union[AlignmentStreamSource, SNPAlignment],
    config: OmegaConfig,
    *,
    snp_budget: int,
    n_workers: int = 1,
    block_size: Optional[int] = None,
    mp_context: Optional[str] = None,
    grid_positions: Optional[np.ndarray] = None,
    dp_seed: Optional[DpSeed] = None,
) -> ScanResult:
    """Scan a streaming source chunk by chunk; the merged report is
    bitwise identical to scanning the fully loaded alignment the same way
    (sequentially, or in parallel with the same worker count and block
    size).

    See :func:`iter_scan_stream` for parameters; this wrapper drains the
    chunk iterator and merges the parts.
    """
    t_wall = time.perf_counter()
    parts = list(
        iter_scan_stream(
            source,
            config,
            snp_budget=snp_budget,
            n_workers=n_workers,
            block_size=block_size,
            mp_context=mp_context,
            grid_positions=grid_positions,
            dp_seed=dp_seed,
        )
    )
    result = merge_scan_results(parts)
    result.breakdown.wall_seconds = time.perf_counter() - t_wall
    return result
