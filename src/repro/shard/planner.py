"""Manifest construction: unit enumeration, pricing, shard partitioning.

The planner turns bare input paths into a ready-to-run manifest:

1. **expand** — each VCF path becomes one work item per chromosome and
   each ms path one per replicate
   (:func:`~repro.datasets.streaming.enumerate_chromosomes`), so no
   user-supplied region list is needed;
2. **index** — every unit gets the streaming index pass
   (:class:`~repro.datasets.streaming.StreamingAlignmentReader`), which
   yields the global site positions the scan plans are built from.
   Units with fewer than two usable records, or fewer than two
   polymorphic sites after imputation, are recorded as ``skipped`` with
   a reason (empty chromosomes are data, not errors);
3. **price** — per-position costs come from the calibrated
   :class:`~repro.core.costmodel.ScanCostModel` (Eq. 4 accounting:
   ω evaluations plus region area), the same model the block scheduler
   and service admission use;
4. **partition** — each unit's grid is cut into contiguous
   cost-balanced shards of whole blocks
   (:func:`~repro.core.grid.make_blocks`). Contiguity preserves the
   within-shard r²/DP region-overlap reuse, exactly like scheduler
   blocks.

Shard boundaries never affect the scientific output: each shard's plans
are built from the unit's full site index, and a shard starts where the
window-sum DP restarts in every scan path. So the partition is free to
chase wall-clock balance, at block granularity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.costmodel import ScanCostModel, get_cost_model
from repro.core.grid import build_plans_from_positions, make_blocks
from repro.core.scan import OmegaConfig
from repro.datasets.streaming import (
    StreamingAlignmentReader,
    enumerate_chromosomes,
)
from repro.errors import ManifestError, ScanConfigError
from repro.shard.manifest import Manifest, ShardRecord, UnitSpec

__all__ = [
    "WorkItem",
    "build_manifest",
    "expand_inputs",
    "partition_costs",
]


@dataclass(frozen=True)
class WorkItem:
    """One prospective unit: a (file, chromosome-or-replicate) pair."""

    path: str
    format: str = "ms"
    chromosome: Optional[str] = None
    replicate: int = 0
    length: Optional[float] = None
    name: Optional[str] = None

    def display_name(self) -> str:
        if self.name:
            return self.name
        base = os.path.basename(self.path)
        if self.format == "vcf":
            return (
                f"{base}:{self.chromosome}" if self.chromosome else base
            )
        return f"{base}[{self.replicate}]"


#: (path, format) -> {unit name: usable-record count}, one census a path.
_Censuses = Dict[Tuple[str, str], Dict[str, int]]


def _census(path: str, format: str, censuses: _Censuses) -> Dict[str, int]:
    """Unit name -> usable-record count of ``path``, enumerated on the
    first request for that (path, format) and reused after."""
    key = (path, format)
    if key not in censuses:
        censuses[key] = {
            info.name: info.n_records
            for info in enumerate_chromosomes(path, format=format)
        }
    return censuses[key]


def expand_inputs(
    inputs: Sequence[Union[str, WorkItem]],
    *,
    format: str = "ms",
    length: Optional[float] = None,
) -> List[WorkItem]:
    """Expand bare paths into one :class:`WorkItem` per scannable unit.

    Paths are enumerated (every VCF chromosome, every ms replicate);
    explicit :class:`WorkItem` entries pass through untouched.
    """
    return _expand_inputs(inputs, format, length, {})


def _expand_inputs(
    inputs: Sequence[Union[str, WorkItem]],
    format: str,
    length: Optional[float],
    censuses: _Censuses,
) -> List[WorkItem]:
    items: List[WorkItem] = []
    for entry in inputs:
        if isinstance(entry, WorkItem):
            items.append(entry)
            continue
        for name in _census(entry, format, censuses):
            if format == "vcf":
                items.append(
                    WorkItem(
                        path=entry,
                        format="vcf",
                        chromosome=name,
                        length=length,
                    )
                )
            else:
                items.append(
                    WorkItem(
                        path=entry,
                        format="ms",
                        replicate=int(name),
                        length=length,
                    )
                )
    if not items:
        raise ManifestError("no scannable units found in the inputs")
    return items


def partition_costs(
    costs: np.ndarray, n_shards: int
) -> List[tuple]:
    """Cut a per-position cost array into ``n_shards`` contiguous
    ``[lo, hi)`` slices of near-equal total cost, each a run of whole
    blocks of the grid (:func:`~repro.core.grid.make_blocks`), so the
    shard count is clamped to the block count."""
    n = int(len(costs))
    if n < 1:
        raise ScanConfigError("cannot partition an empty grid")
    blocks = make_blocks(n)
    n_blocks = len(blocks)
    n_shards = max(1, min(int(n_shards), n_blocks))
    cum = np.cumsum(np.asarray(costs, dtype=np.float64))
    # Cost of blocks [0, b] at index b.
    block_cum = cum[[hi - 1 for _lo, hi in blocks]]
    total = float(block_cum[-1])
    cuts = [0]
    for k in range(1, n_shards):
        if total > 0:
            idx = int(np.searchsorted(block_cum, total * k / n_shards))
        else:
            idx = round(n_blocks * k / n_shards)
        idx = max(idx, cuts[-1] + 1)
        idx = min(idx, n_blocks - (n_shards - k))
        cuts.append(idx)
    edges = [blocks[b][0] for b in cuts] + [n]
    return list(zip(edges[:-1], edges[1:]))


def build_manifest(
    inputs: Sequence[Union[str, WorkItem]],
    config: OmegaConfig,
    *,
    manifest_path: str,
    snp_budget: int,
    shards_per_unit: int = 1,
    target_shard_cost: Optional[float] = None,
    workers_per_shard: int = 1,
    format: str = "ms",
    length: Optional[float] = None,
    cost_model: Optional[ScanCostModel] = None,
) -> Manifest:
    """Plan a sharded workload and persist its manifest ledger.

    ``shards_per_unit`` fixes the shard count per unit;
    ``target_shard_cost`` instead derives it from the cost model
    (``ceil(unit_cost / target)``). The manifest path must not already
    exist — re-running an existing manifest is the runner's job
    (crash-resume), not the planner's.
    """
    if os.path.exists(manifest_path):
        raise ManifestError(
            f"manifest {manifest_path!r} already exists; run it (resume) "
            f"or choose a new path"
        )
    if snp_budget < 2:
        raise ScanConfigError(
            f"snp_budget must be >= 2, got {snp_budget}"
        )
    if shards_per_unit < 1:
        raise ScanConfigError(
            f"shards_per_unit must be >= 1, got {shards_per_unit}"
        )
    if workers_per_shard < 1:
        raise ScanConfigError(
            f"workers_per_shard must be >= 1, got {workers_per_shard}"
        )
    if target_shard_cost is not None and target_shard_cost <= 0:
        raise ScanConfigError(
            f"target_shard_cost must be > 0, got {target_shard_cost}"
        )
    model = cost_model if cost_model is not None else get_cost_model()
    censuses: _Censuses = {}
    items = _expand_inputs(inputs, format, length, censuses)

    manifest = Manifest(
        path=manifest_path,
        config=config,
        snp_budget=snp_budget,
        workers_per_shard=workers_per_shard,
    )
    shard_id = 0
    for unit_id, item in enumerate(items):
        unit = UnitSpec(
            unit=unit_id,
            name=item.display_name(),
            path=os.path.abspath(item.path),
            format=item.format,
            chromosome=item.chromosome,
            replicate=item.replicate,
            length=item.length,
        )
        unit_key = (
            item.chromosome if item.format == "vcf" else str(item.replicate)
        )
        count = _census(item.path, item.format, censuses).get(unit_key)
        if count is None:
            target = (
                f"chromosome {item.chromosome!r}"
                if item.format == "vcf"
                else f"replicate {item.replicate}"
            )
            raise ManifestError(
                f"{item.path}: {target} not present in the input"
            )
        if count < 2:
            unit.status = "skipped"
            unit.reason = (
                f"{count} usable record(s); scanning needs at least 2"
            )
            manifest.units.append(unit)
            continue
        reader = StreamingAlignmentReader(
            item.path,
            format=item.format,
            length=item.length,
            replicate=item.replicate,
            chromosome=item.chromosome,
        )
        if reader.n_sites < 2:
            unit.status = "skipped"
            unit.reason = (
                f"{reader.n_sites} polymorphic site(s) after filtering; "
                f"scanning needs at least 2"
            )
            manifest.units.append(unit)
            continue
        unit.n_samples = reader.n_samples
        unit.n_sites = reader.n_sites
        unit.length = reader.length
        unit.n_grid = config.grid.n_positions
        plans = build_plans_from_positions(reader.positions, config.grid)
        widest = max(
            (p.region_width for p in plans if p.valid), default=0
        )
        if widest > snp_budget:
            raise ScanConfigError(
                f"unit {unit.name}: snp_budget {snp_budget} is smaller "
                f"than its widest omega region ({widest} SNPs); raise "
                f"the budget or reduce max_window"
            )
        costs = model.position_costs(plans)
        unit_cost = float(costs.sum())
        if target_shard_cost is not None:
            n_shards = int(np.ceil(unit_cost / target_shard_cost))
        else:
            n_shards = shards_per_unit
        manifest.units.append(unit)
        for lo, hi in partition_costs(costs, n_shards):
            manifest.shards.append(
                ShardRecord(
                    id=shard_id,
                    unit=unit_id,
                    grid_lo=int(lo),
                    grid_hi=int(hi),
                    est_cost=float(costs[lo:hi].sum()),
                )
            )
            shard_id += 1
    if not any(u.status == "ok" for u in manifest.units):
        raise ManifestError(
            "every unit was skipped — nothing to scan; reasons: "
            + "; ".join(
                f"{u.name}: {u.reason}" for u in manifest.units
            )
        )
    manifest.save()
    return manifest
