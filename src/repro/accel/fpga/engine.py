"""The complete FPGA-accelerated sweep-detection engine (Section V).

Host/accelerator split, exactly as the paper describes it:

* the host computes LD and maintains matrix M (charged to the Bozikas LD
  model, as in the paper's own system estimate);
* for each grid position the host streams (TS, LS, RS, l, W-l) tuples to
  the ω pipeline(s); hardware executes ``floor(n_right / U) · U`` scores
  of every outer iteration, and the host executes the remainder in
  software at the CPU model's ω rate;
* the maximum reduction happens in the comparator stage of the pipeline,
  so only one (score, index) pair returns per position.

Functional output is produced by the same exact arithmetic as the CPU
scanner, but the hardware/software partition is emulated for real: the
hardware sub-launch computes scores for the first ``floor(R/U)·U`` right
borders of each position and the software path scores the rest, the two
maxima being merged — so the Section V remainder-handling logic is
exercised, not narrated.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

import repro.obs as obs
from repro.accel.base import ExecutionRecord
from repro.accel.cpu import AMD_A10_5757M, CPUModel
from repro.accel.fpga.ld_fpga import BOZIKAS_HC2EX_LD, FPGALDModel
from repro.accel.fpga.pipeline import PipelineModel
from repro.core.batch import BatchedOmegaPlan, omega_max_batch
from repro.core.grid import build_plans
from repro.core.results import ScanResult
from repro.core.reuse import R2RegionCache, SumMatrixCache, dp_resets
from repro.core.scan import OmegaConfig
from repro.datasets.alignment import SNPAlignment
from repro.errors import AcceleratorError
from repro.utils.timing import TimeBreakdown

__all__ = ["FPGAOmegaEngine"]

#: Host→pipeline stream payload per hardware-executed score: one
#: (TS, LS, RS, l, W−l) tuple of float32 operands.
STREAM_BYTES_PER_SCORE = 20


class FPGAOmegaEngine:
    """FPGA-accelerated scan with modelled cycle-accurate timing.

    Parameters
    ----------
    pipeline:
        The synthesized ω pipeline model (device + unroll factor).
    ld_model:
        FPGA LD throughput law for the LD phase.
    host_cpu:
        CPU model that executes the software remainder iterations.
    """

    def __init__(
        self,
        pipeline: PipelineModel,
        *,
        ld_model: FPGALDModel = BOZIKAS_HC2EX_LD,
        host_cpu: CPUModel = AMD_A10_5757M,
    ):
        self.pipeline = pipeline
        self.ld_model = ld_model
        self.host_cpu = host_cpu

    def model_plans(self, plans, n_samples: int) -> ExecutionRecord:
        """Timing-only model of a scan over precomputed position plans
        (counterpart of :meth:`GPUOmegaEngine.model_plans`; see there for
        why this exists). Uses the same
        :meth:`~repro.accel.fpga.pipeline.PipelineModel.position`
        arithmetic as the functional path."""
        from repro.core.reuse import simulate_fresh_entries

        record = ExecutionRecord(device=self.pipeline.device.name)
        valid = [p for p in plans if p.valid]
        fresh_counts = simulate_fresh_entries(
            [(p.region_start, p.region_stop) for p in valid]
        )
        clock = self.pipeline.device.clock_hz
        for plan, fresh in zip(valid, fresh_counts):
            record.add_time("ld", self.ld_model.seconds(fresh, n_samples))
            record.add_scores("ld", fresh)
            timing = self.pipeline.position(
                plan.left_borders.size, plan.right_borders.size
            )
            record.add_time("omega_hw", timing.seconds(clock))
            record.add_scores("omega_hw", timing.hw_scores)
            record.add_bytes(
                "stream", STREAM_BYTES_PER_SCORE * timing.hw_scores
            )
            if timing.sw_scores:
                record.add_time(
                    "omega_sw", self.host_cpu.omega_seconds(timing.sw_scores)
                )
                record.add_scores("omega_sw", timing.sw_scores)
            record.kernel_launches += 1
        # One summary span per modelled phase on the virtual device track.
        obs.get_tracer().add_modeled(
            "fpga-model",
            [
                (p, record.seconds.get(p, 0.0))
                for p in ("ld", "omega_hw", "omega_sw")
            ],
        )
        return record

    def scan(
        self, alignment: SNPAlignment, config: OmegaConfig
    ) -> Tuple[ScanResult, ExecutionRecord]:
        """Scan with FPGA-modelled timing; ω report identical to the CPU
        reference scanner."""
        if alignment.n_sites < 2:
            raise AcceleratorError("scanning requires at least 2 SNPs")
        tr = obs.get_tracer()
        with obs.scoped_metrics() as registry:
            plans = build_plans(alignment, config.grid)
            cache = R2RegionCache(alignment)
            # The host maintains matrix M; reuse it across overlapping
            # regions, and restart it at block starts, exactly as the CPU
            # reference scanner does.
            dp_cache = SumMatrixCache(
                reuse=config.dp_reuse, stats=cache.stats
            )
            resets = dp_resets(plans)
            record = ExecutionRecord(device=self.pipeline.device.name)

            n = len(plans)
            omegas = np.zeros(n)
            lefts = np.full(n, np.nan)
            rights = np.full(n, np.nan)
            evals = np.zeros(n, dtype=np.int64)

            u = self.pipeline.effective_unroll
            prev_computed = 0
            # Modelled device time on the synthetic "fpga-model" track,
            # one continuous virtual timeline anchored at the scan start.
            cursor_us = None
            # Host-side batched evaluation: each position contributes two
            # packed segments (hardware slice, software remainder) to one
            # multi-position buffer, flushed every config.omega_batch
            # positions through omega_max_batch — bitwise-equal to the
            # per-position evaluation it replaces.
            packed = BatchedOmegaPlan(
                max_positions=max(2, 2 * config.omega_batch),
                score_budget=1 << 62,
            )
            pending: list = []  # (grid index, region offset)

            def flush() -> None:
                if not pending:
                    return
                res = omega_max_batch(packed, eps=config.eps)
                registry.counter("fpga.host_batches").inc()
                for i, (k, off) in enumerate(pending):
                    hw, sw = 2 * i, 2 * i + 1
                    # Merge the two partition maxima exactly as the
                    # comparator stage + host reduction did per position:
                    # hardware's candidate wins ties (it is compared
                    # first), and a partition with no scores is never a
                    # candidate.
                    best = hw
                    if res.n_evaluations[hw] == 0 or (
                        res.n_evaluations[sw] > 0
                        and res.omegas[sw] > res.omegas[hw]
                    ):
                        best = sw
                    omegas[k] = res.omegas[best]
                    lefts[k] = alignment.positions[
                        int(res.left_borders[best]) + off
                    ]
                    rights[k] = alignment.positions[
                        int(res.right_borders[best]) + off
                    ]
                packed.reset()
                pending.clear()

            for k, plan in enumerate(plans):
                if not plan.valid:
                    continue
                r2 = cache.region_matrix(plan.region_start, plan.region_stop)
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
                c = plan.split_index - off
                rj = plan.right_borders - off

                # Hardware/software partition of the right borders: each
                # outer iteration's first floor(R/U)*U inner iterations
                # run on the pipeline instances, the remainder in host
                # software. Both slices are packed; empty slices score as
                # "no candidate".
                n_hw = (rj.size // u) * u
                packed.add(sums, li, c, rj[:n_hw])
                packed.add(sums, li, c, rj[n_hw:])
                pending.append((k, off))
                evals[k] = li.size * rj.size

                timing = self.pipeline.position(li.size, rj.size)
                t_hw = timing.seconds(self.pipeline.device.clock_hz)
                record.add_time("omega_hw", t_hw)
                record.add_scores("omega_hw", timing.hw_scores)
                record.add_bytes(
                    "stream", STREAM_BYTES_PER_SCORE * timing.hw_scores
                )
                t_sw = 0.0
                if timing.sw_scores:
                    t_sw = self.host_cpu.omega_seconds(timing.sw_scores)
                    record.add_time("omega_sw", t_sw)
                    record.add_scores("omega_sw", timing.sw_scores)
                    registry.counter("fpga.sw_remainder_scores").inc(
                        timing.sw_scores
                    )
                record.kernel_launches += 1
                if tr.enabled:
                    cursor_us = tr.add_modeled(
                        "fpga-model",
                        [
                            ("ld", t_ld),
                            ("omega_hw", t_hw),
                            ("omega_sw", t_sw),
                        ],
                        start_us=cursor_us,
                    )
                if len(pending) >= config.omega_batch:
                    flush()
            flush()

            breakdown = TimeBreakdown()
            breakdown.add("ld", record.seconds.get("ld", 0.0))
            breakdown.add(
                "omega",
                record.seconds.get("omega_hw", 0.0)
                + record.seconds.get("omega_sw", 0.0),
            )
            registry.counter("fpga.positions_launched").inc(
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
