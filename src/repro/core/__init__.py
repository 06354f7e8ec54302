"""The paper's primary contribution domain: ω-statistic sweep detection.

* :mod:`repro.core.dp` — the OmegaPlus sum matrix M (Eq. 3).
* :mod:`repro.core.omega` — the ω statistic (Eq. 2) and its all-splits
  maximization.
* :mod:`repro.core.grid` — grid positions and window arithmetic (Fig. 2).
* :mod:`repro.core.reuse` — the overlap data-reuse optimization, at the
  r² level and at the window-sum DP level.
* :mod:`repro.core.scan` — the complete CPU scanner (Fig. 3 workflow).
* :mod:`repro.core.parallel` — zero-copy shared-memory multiprocess scan
  (the paper's multithreaded baseline).
* :mod:`repro.core.tilestore` — shared r² tile store feeding all workers.
"""

from repro.core.batch import (
    DEFAULT_BATCH_POSITIONS,
    BatchedOmegaPlan,
    BatchedOmegaResult,
    omega_max_batch,
)
from repro.core.costmodel import (
    ScanCostModel,
    get_cost_model,
    reset_cost_model,
    set_cost_model,
)
from repro.core.dp import SumMatrix, build_m_recurrence
from repro.core.grid import (
    GridSpec,
    PositionPlan,
    build_plans,
    build_plans_from_positions,
)
from repro.core.omega import (
    DENOMINATOR_OFFSET,
    OmegaMaximum,
    omega_brute_force,
    omega_from_sums,
    omega_max_at_split,
    omega_split_matrix,
)
from repro.core.parallel import (
    ParallelScanSession,
    StreamingScanSession,
    make_blocks,
    parallel_scan,
)
from repro.core.results import PositionResult, ScanResult
from repro.core.reuse import R2RegionCache, ReuseStats, SumMatrixCache
from repro.core.scan import (
    OmegaConfig,
    OmegaPlusScanner,
    iter_scan_stream,
    scan,
    scan_stream,
)
from repro.core.tilestore import SharedR2TileStore, TileStoreSpec

__all__ = [
    "DEFAULT_BATCH_POSITIONS",
    "BatchedOmegaPlan",
    "BatchedOmegaResult",
    "omega_max_batch",
    "ScanCostModel",
    "get_cost_model",
    "set_cost_model",
    "reset_cost_model",
    "SumMatrix",
    "build_m_recurrence",
    "GridSpec",
    "PositionPlan",
    "build_plans",
    "build_plans_from_positions",
    "DENOMINATOR_OFFSET",
    "OmegaMaximum",
    "omega_from_sums",
    "omega_brute_force",
    "omega_split_matrix",
    "omega_max_at_split",
    "ParallelScanSession",
    "StreamingScanSession",
    "make_blocks",
    "parallel_scan",
    "SharedR2TileStore",
    "TileStoreSpec",
    "PositionResult",
    "ScanResult",
    "R2RegionCache",
    "ReuseStats",
    "SumMatrixCache",
    "OmegaConfig",
    "OmegaPlusScanner",
    "iter_scan_stream",
    "scan",
    "scan_stream",
]
