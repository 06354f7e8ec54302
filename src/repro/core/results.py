"""Scan result containers and reporting.

A scan produces one record per grid position: the position, the maximum ω
over all window combinations, the maximizing borders (as genomic
coordinates) and the per-position evaluation count. :class:`ScanResult`
bundles those with the wall-clock phase breakdown (LD vs ω vs rest — the
quantity profiled in Section I and Fig. 14) and the data-reuse counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.reuse import ReuseStats
from repro.utils.timing import TimeBreakdown

__all__ = ["PositionResult", "ScanResult", "merge_scan_results"]


@dataclass(frozen=True)
class PositionResult:
    """ω outcome at one grid position."""

    position: float
    omega: float
    left_border_bp: float
    right_border_bp: float
    n_evaluations: int


@dataclass
class ScanResult:
    """Full outcome of a genome scan.

    Array attributes are aligned by grid-position index. Positions with no
    valid window (SNP deserts) carry ω = 0 and NaN borders, matching
    OmegaPlus's report lines for unevaluated positions.
    """

    positions: np.ndarray
    omegas: np.ndarray
    left_borders_bp: np.ndarray
    right_borders_bp: np.ndarray
    n_evaluations: np.ndarray
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    reuse: ReuseStats = field(default_factory=ReuseStats)
    #: Sub-timing of the omega phase's window-sum step: ``dp_build``
    #: (fresh construction) vs ``dp_reuse`` (relocated/extended from the
    #: previous region). These seconds are *contained in* the breakdown's
    #: ``omega`` phase, not additional to it.
    omega_subphases: TimeBreakdown = field(default_factory=TimeBreakdown)
    #: Merged :meth:`repro.obs.MetricsRegistry.snapshot` for this scan
    #: (tile-store hits vs fills, scheduler queue stats, per-chunk RSS,
    #: ...). ``None`` when the scan predates the metrics layer or the
    #: result was built by hand; worker parts carry their own snapshots
    #: and merges are lossless (see :mod:`repro.obs.metrics`).
    metrics: Optional[dict] = None

    def __post_init__(self) -> None:
        n = self.positions.shape[0]
        for name in ("omegas", "left_borders_bp", "right_borders_bp", "n_evaluations"):
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise ValueError(
                    f"{name} has length {arr.shape[0]}, expected {n}"
                )

    def __len__(self) -> int:
        return int(self.positions.shape[0])

    def __getitem__(self, k: int) -> PositionResult:
        return PositionResult(
            position=float(self.positions[k]),
            omega=float(self.omegas[k]),
            left_border_bp=float(self.left_borders_bp[k]),
            right_border_bp=float(self.right_borders_bp[k]),
            n_evaluations=int(self.n_evaluations[k]),
        )

    def best(self) -> PositionResult:
        """The grid position with the highest ω — the sweep candidate."""
        if len(self) == 0:
            raise ValueError("empty scan result")
        return self[int(np.argmax(self.omegas))]

    @property
    def total_evaluations(self) -> int:
        """Total ω computations across the scan (the throughput numerator
        in every performance figure of the paper)."""
        return int(self.n_evaluations.sum())

    def omega_throughput(self) -> float:
        """Measured host ω throughput in scores/second, using the scan's
        own 'omega' phase time. Returns 0.0 when that phase was not timed."""
        t = self.breakdown.totals.get("omega", 0.0)
        return self.total_evaluations / t if t > 0 else 0.0

    def to_tsv(self) -> str:
        """OmegaPlus-style report: one line per grid position."""
        lines = ["position\tomega\tleft_border\tright_border\tevaluations"]
        for k in range(len(self)):
            r = self[k]
            lines.append(
                f"{r.position:.2f}\t{r.omega:.6f}\t{r.left_border_bp:.2f}\t"
                f"{r.right_border_bp:.2f}\t{r.n_evaluations}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        """Human-readable digest used by the CLI and examples."""
        if len(self) == 0:
            return "empty scan"
        best = self.best()
        frac = self.breakdown.fractions()
        phases = ", ".join(
            f"{name} {share:.1%}" for name, share in sorted(frac.items())
        )
        # Parallel scans attribute phase seconds per worker, so the sum
        # exceeds the elapsed time; show the true wall clock alongside.
        wall = (
            f", wall {self.breakdown.wall_seconds:.3f}s"
            if self.breakdown.wall_seconds > 0
            else ""
        )
        lines = [
            f"{len(self)} grid positions, {self.total_evaluations} omega "
            f"evaluations",
            f"max omega = {best.omega:.4f} at position {best.position:.1f} "
            f"(window [{best.left_border_bp:.1f}, "
            f"{best.right_border_bp:.1f}])",
            f"time: {self.breakdown.total:.3f}s ({phases}{wall})",
            f"LD reuse: {self.reuse.reuse_fraction:.1%} of entries served "
            f"from cache",
            f"DP reuse: {self.reuse.dp_reuse_fraction:.1%} of window-sum "
            f"entries relocated",
        ]
        tile_total = (
            self.reuse.tile_entries_computed + self.reuse.tile_entries_reused
        )
        if tile_total > 0:
            hit_rate = self.reuse.tile_entries_reused / tile_total
            lines.append(
                f"tile store: {hit_rate:.1%} of fresh entries served from "
                f"published tiles"
            )
        if self.reuse.dp_builds > 0:
            lines.append(
                f"DP anchors: {self.reuse.dp_builds} built, "
                f"mean planned span {self.reuse.mean_anchor_span:.0f} SNPs"
            )
        sched = self._scheduler_summary()
        if sched:
            lines.append(sched)
        return "\n".join(lines)

    def _scheduler_summary(self) -> str:
        """One-line scheduler digest from the metrics snapshot (empty
        string for sequential scans, which dispatch no blocks)."""
        if not self.metrics:
            return ""
        counters = self.metrics.get("counters", {})
        blocks = counters.get("scheduler.blocks_dispatched", 0)
        if not blocks:
            return ""
        gauges = self.metrics.get("gauges", {})
        depth = gauges.get("scheduler.queue_depth", {})
        hist = self.metrics.get("histograms", {}).get(
            "scheduler.block_seconds", {}
        )
        line = f"scheduler: {blocks} blocks dispatched"
        if depth.get("n", 0):
            line += f", peak queue depth {depth['max']:.0f}"
        if hist.get("count", 0):
            line += (
                f", block time {hist['min'] * 1e3:.1f}-"
                f"{hist['max'] * 1e3:.1f} ms"
            )
        return line


def merge_scan_results(parts: Sequence[ScanResult]) -> ScanResult:
    """Concatenate per-part records (in the order given — callers supply
    grid order) and merge the observability sidecars losslessly.

    The scientific arrays (positions, ω, borders, evaluation counts) are
    a plain concatenation, so merging parts of a partitioned scan in grid
    order is bitwise-identical to the unpartitioned arrays. The sidecars
    merge associatively: phase seconds and :class:`ReuseStats` counters
    add, ``wall_seconds`` keeps the maximum (parts may have run
    concurrently), and metrics snapshots merge through
    :func:`repro.obs.metrics.merge_snapshots` (counters add, gauges
    min/max-combine, histograms add buckets — no information is lost, so
    merge order never matters).

    Used by the parallel block scheduler, `scan_stream`'s chunk drain,
    and the shard orchestrator's manifest merge.
    """
    if not parts:
        raise ValueError("merge_scan_results needs at least one part")
    # Lazy import: repro.obs imports are heavier than this module and the
    # obs exporters type against ScanResult.
    from repro.obs import merge_snapshots

    breakdown = TimeBreakdown()
    subphases = TimeBreakdown()
    reuse = ReuseStats()
    for part in parts:
        breakdown = breakdown.merged(part.breakdown)
        subphases = subphases.merged(part.omega_subphases)
        reuse.merge_from(part.reuse)
    snaps = [p.metrics for p in parts if p.metrics]
    metrics = merge_snapshots(*snaps) if snaps else None
    return ScanResult(
        positions=np.concatenate([p.positions for p in parts]),
        omegas=np.concatenate([p.omegas for p in parts]),
        left_borders_bp=np.concatenate([p.left_borders_bp for p in parts]),
        right_borders_bp=np.concatenate([p.right_borders_bp for p in parts]),
        n_evaluations=np.concatenate([p.n_evaluations for p in parts]),
        breakdown=breakdown,
        reuse=reuse,
        omega_subphases=subphases,
        metrics=metrics,
    )
