"""The complete GPU-accelerated OmegaPlus engine (Fig. 3, GPU side).

The engine batches grid positions per device launch (the paper's future
work: "minimize data transfers"). Per *batch* it

1. obtains each region's r² sums on the host (LD stage — functionally the
   GEMM formulation; its *GPU* time is charged through
   :class:`~repro.accel.gpu.ld_gpu.GPULDModel`),
2. packs every batched position's kernel inputs (the LR/km border data
   and the per-combination TS sums) into one contiguous multi-position
   buffer — a :class:`~repro.core.batch.BatchedOmegaPlan`, whose arena
   sizes are exactly the floats a real packed launch ships, padded to
   work-group multiples at *batch* granularity,
3. ships the packed buffers over PCIe once, launches once (per-launch
   fixed costs paid once per batch), and reads the per-kernel output
   buffers back once,
4. evaluates the scores functionally with
   :func:`~repro.core.batch.omega_max_batch` — bitwise-equal to the CPU
   scanner, including argmax tie-breaking.

``batch_positions=1`` recovers the paper's evaluated per-position
behaviour exactly. The :class:`~repro.accel.base.ExecutionRecord` carries
the modelled time split into ``ld`` / ``prep`` / ``h2d`` / ``kernel`` /
``d2h`` phases; :meth:`GPUOmegaEngine.model_plans` charges batches through
the same accounting helper as the functional scan, so the two paths can
never drift apart.

Why end-to-end throughput *falls* past ~7 000 SNPs (Fig. 13): preparing a
position's TS buffer requires one random gather per ω combination out of
matrix M, and M (8·W² bytes) outgrows the host's cache hierarchy as
windows widen — each gather then costs progressively more (cache/TLB miss
depth grows with log M). The kernel keeps speeding up with load, but the
per-score gather keeps slowing down, so end-to-end throughput peaks and
rolls off. The constants live on the device model and the mechanism is
exercised by ``benchmarks/bench_fig13_gpu_complete.py``.

Overlap: the paper notes part of the transfer is hidden behind kernel
execution; ``overlap_fraction`` models that (default 0.3 — transfers for
batch k+1 start while kernel k runs, but prep cannot be hidden because it
produces the very bytes to ship).
"""

from __future__ import annotations

import math

import numpy as np

import repro.obs as obs
from repro.accel.base import ExecutionRecord
from repro.accel.gpu.device import GPUDevice
from repro.accel.gpu.dispatch import DynamicDispatcher, KernelChoice
from repro.accel.gpu.kernels import WORK_GROUP_SIZE, _padded
from repro.accel.gpu.ld_gpu import BINDER_GEMM_LD, GPULDModel
from repro.core.batch import BatchedOmegaPlan, omega_max_batch
from repro.core.grid import build_plans
from repro.core.results import ScanResult
from repro.core.reuse import R2RegionCache, SumMatrixCache, dp_resets
from repro.core.scan import OmegaConfig
from repro.datasets.alignment import SNPAlignment
from repro.errors import AcceleratorError
from repro.utils.timing import TimeBreakdown

__all__ = ["GPUOmegaEngine"]

#: Score budget never limits GPU batches — batch boundaries must be
#: position-count-driven so the timing-only model (which packs nothing)
#: groups identically to the functional scan.
_UNBOUNDED_SCORES = 1 << 62


class _BatchAccount:
    """Accumulated buffer/launch geometry of one multi-position batch.

    Mirrors the :class:`~repro.core.batch.BatchedOmegaPlan` arena layout
    without holding any values, so the timing-only ``model_plans`` path
    can charge byte-identical batches from plan geometry alone.
    """

    __slots__ = (
        "n_positions",
        "border_floats",
        "ts_floats",
        "scores_k1",
        "items_k2",
        "exec_seconds",
        "gather_seconds",
        "n_scores",
    )

    def __init__(self):
        self.n_positions = 0
        self.border_floats = 0  # Σ (L_p + R_p): packed LR/km border data
        self.ts_floats = 0  # Σ n_p: packed per-combination TS sums
        self.scores_k1 = 0  # Kernel I omega-buffer entries to read back
        self.items_k2 = 0  # Kernel II (max, index) pairs to read back
        self.exec_seconds = 0.0
        self.gather_seconds = 0.0
        self.n_scores = 0


class GPUOmegaEngine:
    """GPU-accelerated sweep-detection scan with modelled hardware time.

    Parameters
    ----------
    device:
        GPU platform model (:data:`~repro.accel.gpu.device.TESLA_K80` or
        :data:`~repro.accel.gpu.device.RADEON_HD8750M`).
    mode:
        ``"dynamic"`` (Eq. 4 dispatch), or force ``"kernel1"`` /
        ``"kernel2"`` for the single-kernel curves of Fig. 12.
    ld_model:
        Cost model for the GEMM LD stage.
    overlap_fraction:
        Fraction of PCIe transfer time hidden under kernel execution.
    batch_positions:
        Grid positions packed per device launch; per-launch fixed costs
        (kernel-launch overhead, PCIe round-trip latencies) and buffer
        padding are paid once per batch.
    """

    def __init__(
        self,
        device: GPUDevice,
        *,
        mode: KernelChoice = "dynamic",
        ld_model: GPULDModel = BINDER_GEMM_LD,
        overlap_fraction: float = 0.3,
        batch_positions: int = 1,
    ):
        if not 0.0 <= overlap_fraction < 1.0:
            raise AcceleratorError(
                f"overlap_fraction must be in [0, 1), got {overlap_fraction}"
            )
        if batch_positions < 1:
            raise AcceleratorError(
                f"batch_positions must be >= 1, got {batch_positions}"
            )
        self.device = device
        self.dispatcher = DynamicDispatcher(device, mode=mode)
        self.ld_model = ld_model
        self.overlap_fraction = overlap_fraction
        self.batch_positions = batch_positions

    # ------------------------------------------------------------------ #

    def _gather_seconds(self, n_scores: int, region_width: int) -> float:
        """Random-gather cost of pulling ``n_scores`` TS operands out of
        matrix M (8·W² bytes). Once M outgrows the host cache, each
        gather's cost rises logarithmically with M (cache/TLB miss depth)
        — the Fig. 13 roll-off mechanism. Batching cannot amortize this
        term: the gathers are per combination regardless of layout."""
        d = self.device
        m_bytes = 8.0 * region_width * region_width
        per_gather = d.gather_base
        if m_bytes > d.host_cache_bytes:
            per_gather *= 1.0 + d.gather_miss_per_doubling * math.log2(
                m_bytes / d.host_cache_bytes
            )
        return n_scores * per_gather

    def _prep_seconds(
        self, n_bytes: int, n_scores: int, region_width: int
    ) -> float:
        """Host data-preparation time: a sequential pack/pad pass over the
        outgoing bytes plus the per-combination gather term."""
        return n_bytes / self.device.host_pack_rate + self._gather_seconds(
            n_scores, region_width
        )

    def _transfer_seconds(self, n_bytes: int) -> float:
        d = self.device
        return d.pcie_latency + n_bytes / d.pcie_bandwidth

    def _note_position(
        self,
        acct: _BatchAccount,
        *,
        which: str,
        n_scores: int,
        n_borders: int,
        region_width: int,
        exec_seconds: float,
    ) -> None:
        """Fold one position's launch geometry into its batch account."""
        acct.n_positions += 1
        acct.border_floats += n_borders
        acct.ts_floats += n_scores
        acct.n_scores += n_scores
        acct.exec_seconds += exec_seconds
        acct.gather_seconds += self._gather_seconds(n_scores, region_width)
        if which == "kernel1":
            acct.scores_k1 += n_scores
        else:
            k2 = self.dispatcher.kernel2
            acct.items_k2 += -(-n_scores // k2.wild(n_scores))

    def _batch_bytes(self, acct: _BatchAccount) -> tuple[int, int]:
        """PCIe bytes of one packed multi-position launch.

        The h2d side is the device image of the
        :class:`~repro.core.batch.BatchedOmegaPlan` arenas — the per-
        border LR/km floats plus the per-combination TS floats, shipped
        as float32 and padded to a work-group multiple once per batch
        (not once per position). The d2h side reads each kernel's output
        buffer back once per batch: Kernel I's full omega buffer (4 bytes
        per score) and Kernel II's (max, index) pairs (8 bytes per
        work-item).
        """
        wg = WORK_GROUP_SIZE
        bytes_h2d = 4 * (
            _padded(acct.border_floats, wg) + _padded(acct.ts_floats, wg)
        )
        bytes_d2h = 0
        if acct.scores_k1:
            bytes_d2h += 4 * _padded(acct.scores_k1, wg)
        if acct.items_k2:
            bytes_d2h += 8 * _padded(acct.items_k2, wg)
        return bytes_h2d, bytes_d2h

    def _charge_batch(
        self, record: ExecutionRecord, acct: _BatchAccount
    ) -> None:
        """Attribute one batch's modelled time to the record.

        Per-launch fixed costs (kernel-launch overhead and the PCIe
        round-trip latencies) are paid once per batch — the
        transfer-batching optimization the paper lists as future work
        ("minimize data transfers"). ``batch_positions=1`` recovers the
        paper's evaluated per-position behaviour exactly. Both the
        functional scan and the timing-only ``model_plans`` charge
        through this one helper.
        """
        if acct.n_positions == 0:
            return
        d = self.device
        bytes_h2d, bytes_d2h = self._batch_bytes(acct)
        t_prep = (
            bytes_h2d / d.host_pack_rate + acct.gather_seconds
        )
        t_h2d = d.pcie_latency + bytes_h2d / d.pcie_bandwidth
        t_d2h = d.pcie_latency + bytes_d2h / d.pcie_bandwidth
        t_kernel = d.launch_overhead + acct.exec_seconds
        transfer = t_h2d + t_d2h
        hidden = self.overlap_fraction * min(transfer, t_kernel)
        record.add_time("prep", t_prep)
        if transfer > 0:
            record.add_time("h2d", t_h2d - hidden * t_h2d / transfer)
            record.add_time("d2h", t_d2h - hidden * t_d2h / transfer)
        record.add_time("kernel", t_kernel)
        record.add_scores("omega", acct.n_scores)
        record.add_bytes("h2d", bytes_h2d)
        record.add_bytes("d2h", bytes_d2h)
        record.kernel_launches += 1

    # ------------------------------------------------------------------ #

    def model_plans(self, plans, n_samples: int) -> ExecutionRecord:
        """Timing-only model of a scan over precomputed position plans.

        Used for paper-scale workloads (thousands of positions, 10⁴ SNPs,
        up to 6x10⁴ samples) where a functional scan is out of reach: only
        the per-position evaluation counts and border/region geometry
        enter the model, so the cost is O(grid size). Batches are grouped
        and charged exactly as the functional scan groups them.
        """
        from repro.core.reuse import simulate_fresh_entries

        record = ExecutionRecord(device=self.device.name)
        valid = [p for p in plans if p.valid]
        fresh_counts = simulate_fresh_entries(
            [(p.region_start, p.region_stop) for p in valid]
        )
        acct = _BatchAccount()
        for plan, fresh in zip(valid, fresh_counts):
            record.add_time("ld", self.ld_model.seconds(fresh, n_samples))
            record.add_scores("ld", fresh)
            n = plan.n_evaluations
            which = self.dispatcher.select(n)
            kern = (
                self.dispatcher.kernel1
                if which == "kernel1"
                else self.dispatcher.kernel2
            )
            t = kern.timing(n, plan.region_width)
            self._note_position(
                acct,
                which=which,
                n_scores=n,
                n_borders=plan.left_borders.size + plan.right_borders.size,
                region_width=plan.region_width,
                exec_seconds=t.exec_seconds,
            )
            if acct.n_positions >= self.batch_positions:
                self._charge_batch(record, acct)
                acct = _BatchAccount()
        self._charge_batch(record, acct)
        # One summary span per modelled phase on the virtual device track
        # (per-position spans would be noise at paper scale).
        obs.get_tracer().add_modeled(
            "gpu-model",
            [
                (p, record.seconds.get(p, 0.0))
                for p in ("ld", "prep", "h2d", "kernel", "d2h")
            ],
        )
        return record

    def scan(
        self, alignment: SNPAlignment, config: OmegaConfig
    ) -> tuple[ScanResult, ExecutionRecord]:
        """Scan with GPU-modelled timing; ω report identical to the CPU
        reference scanner."""
        if alignment.n_sites < 2:
            raise AcceleratorError("scanning requires at least 2 SNPs")
        tr = obs.get_tracer()
        with obs.scoped_metrics() as registry:
            plans = build_plans(alignment, config.grid)
            cache = R2RegionCache(alignment)
            # Same two-level reuse as the CPU reference scanner: the host
            # maintains matrix M incrementally across overlapping regions
            # and restarts it at the same block starts, so the omega
            # report stays identical to the CPU path.
            dp_cache = SumMatrixCache(
                reuse=config.dp_reuse, stats=cache.stats
            )
            resets = dp_resets(plans)
            record = ExecutionRecord(device=self.device.name)
            breakdown = TimeBreakdown()

            n = len(plans)
            omegas = np.zeros(n)
            lefts = np.full(n, np.nan)
            rights = np.full(n, np.nan)
            evals = np.zeros(n, dtype=np.int64)

            prev_computed = cache.stats.entries_computed
            # Modelled device time is laid out on the synthetic
            # "gpu-model" track as a continuous virtual timeline anchored
            # at the scan's start; one span group per batch.
            cursor_us = None
            before = dict(record.seconds)
            acct = _BatchAccount()
            packed = BatchedOmegaPlan(
                max_positions=self.batch_positions,
                score_budget=_UNBOUNDED_SCORES,
            )
            pending: list[tuple[int, int]] = []  # (grid index, offset)

            def flush() -> None:
                nonlocal acct, cursor_us, before
                if not pending:
                    return
                res = omega_max_batch(packed, eps=config.eps)
                for slot, (k, off) in enumerate(pending):
                    omegas[k] = res.omegas[slot]
                    evals[k] = res.n_evaluations[slot]
                    lb = int(res.left_borders[slot])
                    if lb >= 0:
                        lefts[k] = alignment.positions[lb + off]
                        rights[k] = alignment.positions[
                            int(res.right_borders[slot]) + off
                        ]
                self._charge_batch(record, acct)
                registry.counter("gpu.batches").inc()
                if tr.enabled:
                    after = record.seconds
                    cursor_us = tr.add_modeled(
                        "gpu-model",
                        [
                            (p, after.get(p, 0.0) - before.get(p, 0.0))
                            for p in ("ld", "prep", "h2d", "kernel", "d2h")
                        ],
                        start_us=cursor_us,
                    )
                before = dict(record.seconds)
                acct = _BatchAccount()
                packed.reset()
                pending.clear()

            for k, plan in enumerate(plans):
                if not plan.valid:
                    continue
                r2 = cache.region_matrix(plan.region_start, plan.region_stop)
                # Charge the GPU LD model for the *newly computed* r2
                # entries only — the data-reuse optimization also saves
                # GPU GEMM work.
                fresh = cache.stats.entries_computed - prev_computed
                prev_computed = cache.stats.entries_computed
                t_ld = self.ld_model.seconds(fresh, alignment.n_samples)
                record.add_time("ld", t_ld)
                record.add_scores("ld", fresh)

                if k in resets:
                    dp_cache.reset(resets[k])
                sums = dp_cache.region_sums(
                    plan.region_start, plan.region_stop, r2
                )
                off = plan.region_start
                li = plan.left_borders - off
                rj = plan.right_borders - off
                which, kern = self.dispatcher.select_and_note(
                    plan.n_evaluations, region_width=plan.region_width
                )
                t = kern.timing(plan.n_evaluations, plan.region_width)
                self._note_position(
                    acct,
                    which=which,
                    n_scores=plan.n_evaluations,
                    n_borders=li.size + rj.size,
                    region_width=plan.region_width,
                    exec_seconds=t.exec_seconds,
                )
                packed.add(sums, li, plan.split_index - off, rj)
                pending.append((k, off))
                if acct.n_positions >= self.batch_positions:
                    flush()
            flush()

            # Mirror the modelled phases into the ScanResult breakdown so
            # the Fig. 14 harness can treat CPU and GPU results uniformly.
            breakdown.add("ld", record.seconds.get("ld", 0.0))
            breakdown.add(
                "omega",
                sum(
                    record.seconds.get(p, 0.0)
                    for p in ("prep", "h2d", "kernel", "d2h")
                ),
            )
            registry.counter("gpu.kernel_launches").inc(
                record.kernel_launches
            )
            from repro.core.scan import _mirror_reuse_metrics

            _mirror_reuse_metrics(registry, cache.stats)
            metrics = registry.snapshot()
        scan_result = ScanResult(
            positions=np.array([p.grid_position for p in plans]),
            omegas=omegas,
            left_borders_bp=lefts,
            right_borders_bp=rights,
            n_evaluations=evals,
            breakdown=breakdown,
            reuse=cache.stats,
            metrics=metrics,
        )
        return scan_result, record
