"""Two-step tiled LD driver for large datasets (the quickLD strategy).

quickLD (Theodoris et al. [18]) handles datasets that do not fit the naive
all-pairs formulation by separating *parsing* from *processing*: the packed
SNP data is loaded once, and the pair matrix is produced tile by tile, so
peak memory is O(tile²) instead of O(sites²) and arbitrary rectangular
regions (pairs of distant genomic windows) can be computed without touching
anything else. The paper adapts exactly this machinery for OmegaPlus's LD
stage (Section IV, "the work of Theodoris et al. is adapted for computing
LD as required by OmegaPlus").

:class:`TiledLDEngine` exposes:

* :meth:`tiles` — iterate (row-slice, col-slice, r²-tile) over an
  arbitrary rectangular request, upper triangle only if asked;
* :meth:`reduce_sum` — the streaming sum of r² over a region pair, which is
  the only quantity OmegaPlus ultimately needs from LD (window sums).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Tuple

import numpy as np

from repro.datasets.alignment import SNPAlignment
from repro.errors import LDError
from repro.ld.operands import LDBackendFiller, operands_for

__all__ = ["TiledLDEngine"]

TileCallback = Callable[[slice, slice, np.ndarray], None]


@dataclass
class TiledLDEngine:
    """Produce r² for large site ranges in cache-friendly tiles.

    Parameters
    ----------
    alignment:
        Source alignment (parsed once; the "parse" step of quickLD).
    tile:
        Edge length of a tile in sites. 512 keeps a float64 tile at 2 MB,
        comfortably inside L2/L3 for repeated passes.
    """

    alignment: SNPAlignment
    tile: int = 512
    _filler: LDBackendFiller = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.tile < 1:
            raise LDError(f"tile must be >= 1, got {self.tile}")
        self._filler = LDBackendFiller(operands_for(self.alignment))

    def tiles(
        self,
        rows: slice,
        cols: slice,
        *,
        upper_only: bool = False,
    ) -> Iterator[Tuple[slice, slice, np.ndarray]]:
        """Yield ``(row_slice, col_slice, r2_tile)`` covering rows x cols.

        With ``upper_only=True`` (meaningful when rows and cols address the
        same range) tiles strictly below the diagonal are skipped and the
        diagonal tiles are emitted whole; callers that need strict pair
        semantics mask within the tile.
        """
        n = self.alignment.n_sites
        r0, r1, rstep = rows.indices(n)
        c0, c1, cstep = cols.indices(n)
        if rstep != 1 or cstep != 1:
            raise LDError("tiles requires contiguous (step-1) slices")
        for ra in range(r0, r1, self.tile):
            rb = min(ra + self.tile, r1)
            for ca in range(c0, c1, self.tile):
                cb = min(ca + self.tile, c1)
                if upper_only and cb <= ra:
                    continue
                rs, cs = slice(ra, rb), slice(ca, cb)
                yield rs, cs, self._filler(rs, cs)

    def reduce_sum(
        self,
        rows: slice,
        cols: slice,
        *,
        distinct_pairs: bool = False,
    ) -> float:
        """Streaming sum of r² over all (i in rows, j in cols) pairs.

        With ``distinct_pairs=True`` the request must be a square region
        (rows == cols) and the result counts each unordered pair {i, j},
        i != j, exactly once — the Σ r² over a sub-window that appears in
        the omega numerator.
        """
        n = self.alignment.n_sites
        r_idx = rows.indices(n)
        c_idx = cols.indices(n)
        if distinct_pairs and r_idx != c_idx:
            raise LDError("distinct_pairs requires rows == cols")
        total = 0.0
        for rs, cs, tile in self.tiles(rows, cols, upper_only=distinct_pairs):
            if distinct_pairs:
                ri = np.arange(rs.start, rs.stop)
                ci = np.arange(cs.start, cs.stop)
                mask = ri[:, None] < ci[None, :]
                total += float(tile[mask].sum())
            else:
                total += float(tile.sum())
        return total

    def cross_region_sum(self, left: slice, right: slice) -> float:
        """Σ r² between every left-region site and every right-region site
        (the omega denominator's cross term). Regions must not overlap."""
        n = self.alignment.n_sites
        l0, l1, _ = left.indices(n)
        r0, r1, _ = right.indices(n)
        if max(l0, r0) < min(l1, r1):
            raise LDError(
                f"regions overlap: [{l0}, {l1}) and [{r0}, {r1})"
            )
        return self.reduce_sum(left, right)
