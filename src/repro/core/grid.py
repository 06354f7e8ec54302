"""Grid positions and window-boundary arithmetic (Fig. 2).

OmegaPlus evaluates the ω statistic at a user-defined number of equidistant
positions ω₀ … ω_c along the input region. For each grid position the user
supplies a *maximum* window (bp) bounding the genomic region considered and
a *minimum* window (bp) that each sub-window must span. From those, this
module derives for every grid position:

* the split index ``c`` — the last SNP at or left of the position;
* the candidate left borders ``i`` — SNPs whose distance from the position
  lies in ``[min_window, max_window]`` on the left;
* the candidate right borders ``j`` — symmetric on the right.

Every (i, j) combination is one ω evaluation; the per-position evaluation
count ``len(i) * len(j)`` is the workload quantity the accelerators are
dimensioned against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.datasets.alignment import SNPAlignment
from repro.errors import ScanConfigError
from repro.utils.validation import as_int, check_positive

__all__ = [
    "GridSpec",
    "FixedGridSpec",
    "fixed_position_spec",
    "PositionPlan",
    "build_plans",
    "build_plans_from_positions",
    "make_blocks",
]

#: The block rule's constants (:func:`make_blocks`): a grid is cut into
#: about :data:`TARGET_BLOCKS` blocks, none shorter than
#: :data:`SHORTEST_BLOCK` positions or longer than :data:`LONGEST_BLOCK`.
#: Each block starts the window-sum DP cold, which costs about 3-7
#: positions of steady-state work at regions of 240 sites and 10-15 at
#: 1 200 (``benchmarks/bench_host_dp.py``), so blocks stay long; the cap
#: lets a long grid feed more workers. Changing a constant re-cuts, and
#: so moves the window-sum bits of, every grid it binds.
SHORTEST_BLOCK = 15
LONGEST_BLOCK = 64
TARGET_BLOCKS = 8


@dataclass(frozen=True)
class GridSpec:
    """Scan-grid configuration.

    Attributes
    ----------
    n_positions:
        Number of equidistant ω evaluation positions (OmegaPlus ``-grid``).
    max_window:
        Maximum sub-window extent in bp on each side of a grid position
        (OmegaPlus ``-maxwin``).
    min_window:
        Minimum sub-window extent in bp; borders closer than this to the
        position are not considered (OmegaPlus ``-minwin``). Zero admits
        every border inside the maximum window.
    min_flank_snps:
        Minimum number of SNPs each sub-window must contain. OmegaPlus
        requires at least 2 so the within-window pair count C(l, 2) is
        non-zero on at least one side; we apply it to both sides, its
        default behaviour.
    """

    n_positions: int
    max_window: float
    min_window: float = 0.0
    min_flank_snps: int = 2

    def __post_init__(self) -> None:
        as_int("n_positions", self.n_positions)
        if self.n_positions < 1:
            raise ScanConfigError(
                f"n_positions must be >= 1, got {self.n_positions}"
            )
        check_positive("max_window", self.max_window)
        if self.min_window < 0:
            raise ScanConfigError(
                f"min_window must be >= 0, got {self.min_window}"
            )
        if self.min_window >= self.max_window:
            raise ScanConfigError(
                f"min_window ({self.min_window}) must be smaller than "
                f"max_window ({self.max_window})"
            )
        if self.min_flank_snps < 1:
            raise ScanConfigError(
                f"min_flank_snps must be >= 1, got {self.min_flank_snps}"
            )

    def positions(self, alignment: SNPAlignment) -> np.ndarray:
        """Equidistant grid positions over the SNP-covered interval.

        OmegaPlus spaces the grid between the first and last SNP (omega is
        undefined where there is no flanking data). A single-position grid
        sits at the midpoint.
        """
        return self.positions_from(alignment.positions)

    def positions_from(self, site_positions: np.ndarray) -> np.ndarray:
        """Grid positions from a bare site-position array (streaming
        sources index positions without materializing an alignment)."""
        site_positions = np.asarray(site_positions)
        if site_positions.size < 2:
            raise ScanConfigError(
                "need at least 2 SNPs to place grid positions"
            )
        lo = float(site_positions[0])
        hi = float(site_positions[-1])
        if self.n_positions == 1:
            return np.array([(lo + hi) / 2.0])
        return np.linspace(lo, hi, self.n_positions)


@dataclass(frozen=True)
class FixedGridSpec(GridSpec):
    """A :class:`GridSpec` whose grid positions are an explicit array
    instead of the equidistant derivation, keeping the window geometry of
    the base spec.

    ``positions_from`` is the single source both ``positions()`` and
    :func:`build_plans_from_positions` draw from, so overriding it is
    enough to rerun the sequential machinery verbatim on an arbitrary
    position set (a scheduling block, a service request's region grid, a
    manifest shard). Unlike an ad-hoc subclass, this is a module-level
    dataclass, so configs carrying it survive pickling into worker
    processes.
    """

    #: The explicit grid positions. Excluded from equality/hash (arrays
    #: do not compare elementwise to a bool) — two fixed specs compare by
    #: geometry only.
    fixed_positions: Optional[np.ndarray] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fixed_positions is None:
            raise ScanConfigError("FixedGridSpec requires fixed_positions")
        arr = np.asarray(self.fixed_positions, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ScanConfigError(
                "fixed_positions must be a non-empty 1-D array"
            )
        if arr.size != self.n_positions:
            raise ScanConfigError(
                f"fixed_positions has {arr.size} entries but n_positions "
                f"is {self.n_positions}"
            )
        object.__setattr__(self, "fixed_positions", arr)

    def positions_from(self, site_positions: np.ndarray) -> np.ndarray:
        return self.fixed_positions


def fixed_position_spec(spec: GridSpec, fixed: np.ndarray) -> FixedGridSpec:
    """Wrap ``spec``'s window geometry around the explicit grid-position
    array ``fixed`` (see :class:`FixedGridSpec`)."""
    fixed = np.asarray(fixed, dtype=np.float64)
    if fixed.size == 0:
        raise ScanConfigError("fixed grid needs at least one position")
    return FixedGridSpec(
        n_positions=fixed.size,
        max_window=spec.max_window,
        min_window=spec.min_window,
        min_flank_snps=spec.min_flank_snps,
        fixed_positions=fixed,
    )


@dataclass(frozen=True)
class PositionPlan:
    """Everything needed to evaluate ω at one grid position.

    All site indices are *global* (into the full alignment). The scanner
    converts them to region-local indices after extracting the r² block
    for ``[region_start .. region_stop]``.

    Attributes
    ----------
    grid_position:
        Genomic coordinate of the ω location.
    split_index:
        Global index of the last SNP at or left of the position (the
        region-local split ``c`` after offsetting).
    region_start, region_stop:
        Inclusive global index range of SNPs inside the maximum window.
    left_borders, right_borders:
        Global candidate border indices (may be empty => position skipped,
        ω = 0, matching OmegaPlus's behaviour in SNP deserts).
    """

    grid_position: float
    split_index: int
    region_start: int
    region_stop: int
    left_borders: np.ndarray
    right_borders: np.ndarray

    @property
    def n_evaluations(self) -> int:
        """Number of ω computations this position requires."""
        return int(self.left_borders.size * self.right_borders.size)

    @property
    def region_width(self) -> int:
        """Number of SNPs in the bounded region (W in the paper)."""
        return self.region_stop - self.region_start + 1

    @property
    def valid(self) -> bool:
        """True when at least one (i, j) combination exists."""
        return self.n_evaluations > 0


def make_blocks(n_positions: int) -> List[Tuple[int, int]]:
    """Cut a grid of ``n_positions`` plans into the contiguous
    ``[start, stop)`` blocks every scan path shares: ``[0, L), [L, 2L),
    …`` for ``L = min(LONGEST_BLOCK, max(SHORTEST_BLOCK, ⌈n / TARGET_BLOCKS⌉))``,
    the last block taking the remainder.

    The window-sum DP restarts at each block
    (:func:`~repro.core.reuse.dp_resets`), so a block is an independent
    computation: parallel workers, streamed chunks and manifest shards
    that cut only on these boundaries reproduce the sequential scan byte
    for byte. The cut reads nothing but the position count.
    """
    if n_positions < 1:
        raise ScanConfigError(f"n_positions must be >= 1, got {n_positions}")
    size = min(
        LONGEST_BLOCK,
        max(SHORTEST_BLOCK, math.ceil(n_positions / TARGET_BLOCKS)),
    )
    return [
        (lo, min(lo + size, n_positions))
        for lo in range(0, n_positions, size)
    ]


def build_plans(alignment: SNPAlignment, spec: GridSpec) -> List[PositionPlan]:
    """Compute the evaluation plan for every grid position.

    Runs entirely on the position array with searchsorted; cost is
    O(grid size * log sites).
    """
    return build_plans_from_positions(alignment.positions, spec)


def build_plans_from_positions(
    site_positions: np.ndarray, spec: GridSpec
) -> List[PositionPlan]:
    """:func:`build_plans` on a bare site-position array.

    The plan depends only on positions and window geometry, never on
    genotypes, so a streaming source can plan the whole scan from its
    index pass before any chunk is materialized. Each bound is one
    vectorized ``searchsorted`` over every grid position; only the border
    arrays (one pair per plan, never shared) are built per position.
    """
    pos = np.asarray(site_positions)
    n_sites = pos.size
    centres = np.asarray(spec.positions_from(pos))
    # Split: last SNP at or left of the grid position. Positions at or
    # beyond the last SNP clamp so a right window can still exist.
    split = np.searchsorted(pos, centres, side="right") - 1
    split = np.maximum(0, np.minimum(split, n_sites - 2))

    lo = np.searchsorted(pos, centres - spec.max_window, side="left")
    hi = np.searchsorted(pos, centres + spec.max_window, side="right") - 1

    if spec.min_window > 0.0:
        left_max = (
            np.searchsorted(pos, centres - spec.min_window, side="right") - 1
        )
        right_min = np.searchsorted(
            pos, centres + spec.min_window, side="left"
        )
    else:
        left_max, right_min = split, split + 1

    # Each flank must hold at least min_flank_snps SNPs: border i gives
    # a left window of (c - i + 1) SNPs; border j gives (j - c).
    left_max = np.minimum(left_max, split - (spec.min_flank_snps - 1))
    right_min = np.maximum(right_min, split + spec.min_flank_snps)

    return [
        PositionPlan(
            grid_position=float(centre),
            split_index=c,
            region_start=l0,
            region_stop=r1,
            # Empty when the flank cannot hold its minimum.
            left_borders=np.arange(l0, l1 + 1, dtype=np.intp),
            right_borders=np.arange(r0, r1 + 1, dtype=np.intp),
        )
        for centre, c, l0, l1, r0, r1 in zip(
            centres.tolist(), split.tolist(), lo.tolist(),
            left_max.tolist(), right_min.tolist(), hi.tolist(),
        )
    ]
