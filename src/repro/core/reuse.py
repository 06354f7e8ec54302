"""Data-reuse across overlapping grid regions — r² level and DP level.

Consecutive grid positions bound regions that largely overlap (Fig. 2), and
r² between two given SNPs does not depend on which region asks for it.
OmegaPlus exploits this by relocating already-computed values of matrix M
when it advances to the next grid position and computing only the values
involving newly entered SNPs (Fig. 3, "data-reuse optimization"). We apply
the same idea at *two* levels:

* :class:`R2RegionCache` — reuse of the r² matrix itself, where the
  expensive O(W² · samples) work lives: the overlapping SNP block stays
  where it is in an anchored buffer, only the new rows and columns are
  computed.
* :class:`SumMatrixCache` — reuse of the window-sum DP structure
  (:class:`~repro.core.dp.SumMatrix`, Eq. 3). The prefix-sum block built
  for the previous region is *relocated* (served as an offset view — every
  window-sum query is a four-corner rectangle difference, so the prefix
  anchor cancels) and extended with only the rows of newly entered SNPs
  over the region, making the per-position DP cost proportional to the
  non-overlapping fringe instead of the full O(W²) rebuild. Like the r²
  buffer, its prefix buffer stays region-sized: the live lower triangle
  moves back to the origin in place when an append runs past the edge.

Both caches keep reuse statistics in one :class:`ReuseStats` so the
benefit is measurable (``tests/test_reuse.py`` asserts the saving; the
ablation benchmarks report it).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.dp import SumMatrix, append_prefix_rows
from repro.core.grid import make_blocks
from repro.datasets.alignment import SNPAlignment
from repro.errors import ScanConfigError
from repro.ld.operands import LDBackendFiller, operands_for

__all__ = [
    "R2RegionCache",
    "ReuseStats",
    "SumMatrixCache",
    "dp_resets",
    "simulate_fresh_entries",
]


def simulate_fresh_entries(regions) -> list:
    """Per-region count of r² entries that would be *computed* (not
    reused) by :class:`R2RegionCache` serving the given sequence of
    inclusive ``(start, stop)`` regions.

    Pure arithmetic mirror of the cache's accounting — used by the
    paper-scale workload models, where the r² matrices themselves are
    never materialized. Kept next to the cache so the two stay in sync
    (``tests/test_reuse.py`` cross-checks them).
    """
    out = []
    prev: Optional[tuple] = None
    for start, stop in regions:
        if stop < start:
            raise ScanConfigError(f"bad region ({start}, {stop})")
        width = stop - start + 1
        if prev is None or max(start, prev[0]) > min(stop, prev[1]):
            out.append(width * width)
        else:
            # Everything outside the relocated overlap block is fresh —
            # exact even when fresh segments exist on *both* sides of the
            # overlap (a backward-then-forward jump).
            overlap = min(stop, prev[1]) - max(start, prev[0]) + 1
            out.append(width * width - overlap * overlap)
        prev = (start, stop)
    return out


@dataclass
class ReuseStats:
    """Counters for the two-level data-reuse optimization.

    ``entries_*`` count r² matrix cells (:class:`R2RegionCache`);
    ``dp_entries_*`` count window-sum DP cells (:class:`SumMatrixCache`),
    both in units of one region cell, so ``computed + reused`` equals the
    sum of served region areas at either level.

    ``dp_planned_span_total`` sums the anchor span the DP cache planned
    at each of its ``dp_builds`` builds (so the adaptive anchor policy is
    observable: :attr:`mean_anchor_span`). A span decides when the cache
    rebuilds, not what it allocates: its prefix buffer stays region-sized
    whatever the span. ``tile_entries_*``
    count r² cells a shared tile store computed vs served from
    already-published tiles (scan-service requests only; zero
    otherwise).
    """

    entries_computed: int = 0
    entries_reused: int = 0
    regions_served: int = 0
    dp_entries_computed: int = 0
    dp_entries_reused: int = 0
    dp_builds: int = 0
    dp_planned_span_total: int = 0
    tile_entries_computed: int = 0
    tile_entries_reused: int = 0

    @property
    def reuse_fraction(self) -> float:
        """Share of served r² entries that were copies, not computations."""
        total = self.entries_computed + self.entries_reused
        return self.entries_reused / total if total else 0.0

    @property
    def dp_reuse_fraction(self) -> float:
        """Share of served window-sum DP entries relocated, not rebuilt."""
        total = self.dp_entries_computed + self.dp_entries_reused
        return self.dp_entries_reused / total if total else 0.0

    @property
    def mean_anchor_span(self) -> float:
        """Mean planned SNP span of the DP prefix anchors built so far."""
        if self.dp_builds == 0:
            return 0.0
        return self.dp_planned_span_total / self.dp_builds

    def merge_from(self, other: "ReuseStats") -> None:
        """Accumulate another scan's counters (chunked/parallel scans)."""
        self.entries_computed += other.entries_computed
        self.entries_reused += other.entries_reused
        self.regions_served += other.regions_served
        self.dp_entries_computed += other.dp_entries_computed
        self.dp_entries_reused += other.dp_entries_reused
        self.dp_builds += other.dp_builds
        self.dp_planned_span_total += other.dp_planned_span_total
        self.tile_entries_computed += other.tile_entries_computed
        self.tile_entries_reused += other.tile_entries_reused


class R2RegionCache:
    """Serve per-region r² matrices, reusing the overlap with the previous
    region.

    Every region is a read-only view into one anchored buffer, the way
    :class:`SumMatrixCache` serves its prefix. The cache tracks the square
    of sites whose r² the buffer holds (the *valid* square) separately
    from the last served region: a call computes only the rows and
    columns of sites outside the valid square, so the overlap with the
    previous region is never recomputed or copied while the region stays
    inside the buffer. A forward region that runs past the buffer
    re-anchors it: the valid block moves to the origin in place. Only a
    backward jump or a region too wide for the buffer allocates a new
    one, with ``W + W // SLACK_DIVISOR`` rows and columns for a W-SNP
    region (capped by ``max_region_bytes``), so the cache holds about
    1.27 W² floats; :meth:`reserve` sizes the first buffer for the
    widest region a scan will ask for. A served view is valid until the next
    :meth:`region_matrix` or :meth:`reset` call; a caller that keeps one
    must copy it.

    Given a ``horizon`` (the last site later calls will ask for), sites
    entering on the right are filled *ahead*: their rows run to the
    buffer end in one tall block, so a forward scan makes one fill per
    ~W / SLACK_DIVISOR sites instead of one thin strip per region.
    :attr:`stats` keeps the paper's relocation accounting either way:
    each served region counts W² − V² fresh entries, V its overlap with
    the previous region (:func:`simulate_fresh_entries`).

    Parameters
    ----------
    alignment:
        The full alignment being scanned; by default fresh blocks are
        GEMM fills over its cached operand planes
        (:class:`~repro.ld.operands.LDBackendFiller`).
    block_fn:
        Optional override for the fresh-block source: a callable
        ``(rows, cols, *, out) -> out`` with :func:`~repro.ld.gemm.
        r_squared_block` semantics that writes the block into ``out``,
        a view of the cache's buffer, so every fill lands in place. The
        scan service's workers inject the shared-memory tile band here,
        so fresh entries one request computes are served to every later
        request.
    n_sites:
        Global site count when ``alignment`` is ``None`` — the streaming
        scanner addresses regions in global coordinates while only the
        current chunk is materialized, so it supplies a chunk-dispatching
        ``block_fn`` plus the global bound instead of an alignment.
    """

    #: Default cap on one region's r² matrix (512 MB of float64): wide
    #: enough for several-thousand-SNP windows, small enough to fail
    #: with a clear message instead of an opaque MemoryError when a
    #: misconfigured max_window asks for a chromosome-sized region.
    DEFAULT_MAX_REGION_BYTES = 512 * 1024 * 1024
    #: A fresh buffer spares W // SLACK_DIVISOR sites beyond its W-SNP
    #: region, so a forward scan re-anchors once per ~W/8 sites; W // 4
    #: raised a 1 200-SNP-window worker's peak RSS by ~15 MiB (glibc kept
    #: later large temporaries on the heap), W // 8 stays within noise.
    SLACK_DIVISOR = 8

    def __init__(
        self,
        alignment: Optional[SNPAlignment],
        *,
        max_region_bytes: Optional[int] = None,
        block_fn: Optional[Callable[..., np.ndarray]] = None,
        n_sites: Optional[int] = None,
    ):
        if alignment is None:
            if block_fn is None or n_sites is None:
                raise ScanConfigError(
                    "R2RegionCache without an alignment needs an explicit "
                    "block_fn and n_sites (the streaming scanner's setup)"
                )
            self._n_sites = int(n_sites)
        else:
            self._n_sites = alignment.n_sites
        self._alignment = alignment
        self._max_region_bytes = (
            self.DEFAULT_MAX_REGION_BYTES
            if max_region_bytes is None
            else max_region_bytes
        )
        if self._max_region_bytes < 8:
            raise ScanConfigError("max_region_bytes too small")
        self._block: Callable[..., np.ndarray] = (
            block_fn
            if block_fn is not None
            else LDBackendFiller(operands_for(alignment))
        )
        #: The last served region (the accounting's reference).
        self._served: Optional[Tuple[int, int]] = None
        #: Inclusive global site range whose full r² square the buffer
        #: holds (the values' reference).
        self._valid: Optional[Tuple[int, int]] = None
        #: The anchored buffer; row and column k hold global site
        #: ``_anchor + k``.
        self._buf: Optional[np.ndarray] = None
        self._anchor = 0
        self.stats = ReuseStats()

    def _capacity(self, width: int) -> int:
        """Side of a fresh buffer for a ``width``-SNP region."""
        return min(
            width + width // self.SLACK_DIVISOR,
            math.isqrt(self._max_region_bytes // 8),
        )

    def reserve(self, max_width: int) -> None:
        """Allocate the buffer for regions of up to ``max_width`` SNPs
        before the first region is served. A scan's first regions are
        cut short by the alignment's start, so growing the buffer with
        them reallocated it once per few positions; the freed buffers
        left heap holes whose residency depended on heap layout
        (``balanced_ms`` peaked at 123.5 or 130.0 MiB after unrelated
        code changes). No-op once a buffer exists."""
        if self._buf is None and max_width > 0:
            side = self._capacity(max_width)
            self._buf = np.empty((side, side))
            # Past every site: the first region re-anchors in place.
            self._anchor = self._n_sites

    @classmethod
    def fill_span(cls, max_width: int) -> int:
        """Widest pair span, in sites, a fill can reach when no region is
        wider than ``max_width``: the edge of that region's buffer."""
        return max_width + max_width // cls.SLACK_DIVISOR

    def region_matrix(
        self, start: int, stop: int, horizon: Optional[int] = None
    ) -> np.ndarray:
        """r² matrix for global sites ``[start .. stop]`` (inclusive), as
        a read-only view valid until the next call or :meth:`reset`.

        Only sites outside the valid square are computed. ``horizon`` is
        the last site any later call will ask for: when sites enter on
        the right, their rows are computed up to
        ``min(horizon, buffer end, n_sites - 1)`` in one block. Without a
        horizon exactly the region is filled.
        """
        n = self._n_sites
        if not (0 <= start <= stop < n):
            raise ScanConfigError(
                f"region [{start}, {stop}] out of bounds for {n} sites"
            )
        width = stop - start + 1
        needed = 8 * width * width
        if needed > self._max_region_bytes:
            raise ScanConfigError(
                f"region of {width} SNPs needs a {needed / 1e6:.0f} MB r2 "
                f"matrix (cap {self._max_region_bytes / 1e6:.0f} MB); "
                f"reduce max_window or raise max_region_bytes"
            )
        # The paper's relocation model (Fig. 3): a region reuses its
        # overlap with the previous one and computes the rest, however
        # far ahead the values were actually filled.
        overlap = 0
        if self._served is not None:
            overlap = max(
                0, min(stop, self._served[1]) - max(start, self._served[0]) + 1
            )
        self.stats.entries_reused += overlap * overlap
        self.stats.entries_computed += width * width - overlap * overlap
        self.stats.regions_served += 1
        self._served = (start, stop)

        valid = self._valid
        if valid is not None and (start > valid[1] or stop < valid[0]):
            valid = None
        buf = self._buf
        if (
            buf is None
            or start < self._anchor
            or stop - self._anchor >= buf.shape[0]
        ):
            # Re-anchor at ``start``, keeping the valid sites from
            # ``start`` on: in place when the buffer has room and the
            # block only moves towards the origin, else into a new buffer.
            capacity = self._capacity(width)
            in_place = (
                buf is not None
                and capacity <= buf.shape[0]
                and (valid is None or start > self._anchor)
            )
            size = buf.shape[0] if in_place else capacity
            if valid is not None:
                valid = (max(start, valid[0]), min(valid[1], start + size - 1))
            if not in_place:
                fresh = np.empty((capacity, capacity))
                if valid is not None:
                    src = slice(
                        valid[0] - self._anchor, valid[1] - self._anchor + 1
                    )
                    dst = slice(valid[0] - start, valid[1] - start + 1)
                    fresh[dst, dst] = buf[src, src]  # type: ignore[index]
                buf = self._buf = fresh
            elif valid is not None:
                _move_block_back(
                    buf, valid[0] - self._anchor, valid[0] - start,
                    valid[1] - valid[0] + 1,
                )
            self._anchor = start

        if valid is None:
            self._fill(start, stop, start)
            self._valid = (start, stop)
        else:
            lo, top = valid
            if start < lo:
                # A step back keeps only what the region itself uses.
                top = min(top, stop)
            hi = top
            if stop > top:
                # Sites enter on the right: fill their rows ahead.
                hi = stop
                if horizon is not None:
                    end = self._anchor + buf.shape[0] - 1
                    hi = max(stop, min(horizon, end, n - 1))
            # Rows entering on the left span every column; the rows
            # entering on the right then only need the columns from the
            # kept block on, or the left x right cross block would be
            # computed twice.
            if start < lo:
                self._fill(start, lo - 1, start, hi)
            if hi > top:
                self._fill(top + 1, hi, max(start, lo))
            if start < lo or hi > top:
                self._valid = (start, hi)
        a = start - self._anchor
        out = buf[a : a + width, a : a + width]
        out.flags.writeable = False
        return out

    def _fill(
        self, r_lo: int, r_hi: int, c_lo: int, c_hi: Optional[int] = None
    ) -> None:
        """Compute r² for global rows ``[r_lo, r_hi]`` x columns
        ``[c_lo, c_hi]`` (``c_hi`` defaults to ``r_hi``; the row range
        lies inside the column range) straight into the buffer, then
        mirror the columns outside the row range. The rows' own square
        is computed in both triangles, which are bitwise equal
        (:func:`~repro.ld.correlation.r_squared_from_counts` is
        symmetric under a pair swap)."""
        if c_hi is None:
            c_hi = r_hi
        a = self._anchor
        buf = self._buf
        r = slice(r_lo - a, r_hi - a + 1)
        block = buf[r, c_lo - a : c_hi - a + 1]  # type: ignore[index]
        self._block(slice(r_lo, r_hi + 1), slice(c_lo, c_hi + 1), out=block)
        if c_lo < r_lo:
            buf[c_lo - a : r_lo - a, r] = block[:, : r_lo - c_lo].T
        if c_hi > r_hi:
            buf[r_hi - a + 1 : c_hi - a + 1, r] = block[:, r_hi - c_lo + 1 :].T

    def reset(self) -> None:
        """Drop the cached values and the served region (e.g. when
        jumping to a new chromosome); the next region is computed in
        full. The buffer is kept."""
        self._served = self._valid = None


def _move_block_back(buf: np.ndarray, src: int, dst: int, size: int) -> None:
    """Move the square block ``buf[src:src+size, src:src+size]`` to
    ``[dst:dst+size, dst:dst+size]`` (``dst < src``) in place.

    Row chunks no taller than the shift ``src - dst`` keep each chunk's
    source and destination in disjoint memory, so NumPy copies directly
    instead of through a temporary; ascending order only overwrites rows
    an earlier chunk already moved.
    """
    step = src - dst
    for r in range(0, size, step):
        h = min(step, size - r)
        buf[dst + r : dst + r + h, dst : dst + size] = buf[
            src + r : src + r + h, src : src + size
        ]


def _copy_lower(dst: np.ndarray, src: np.ndarray, size: int, step: int):
    """Copy the lower triangle of ``src[:size, :size]`` into ``dst`` in
    chunks of ``step`` rows, each up to its last row's diagonal. ``src``
    may be ``dst`` shifted by ``step`` or more rows and columns: as in
    :func:`_move_block_back`, chunks then copy without a temporary."""
    for r in range(0, size, step):
        h = min(step, size - r)
        dst[r : r + h, : r + h] = src[r : r + h, : r + h]


def dp_resets(plans, blocks=None) -> Dict[int, Tuple[int, ...]]:
    """Where the window-sum DP restarts in a scan of ``plans``: the index
    of each block's first valid position, mapped to the region starts of
    the block's valid positions (:meth:`SumMatrixCache.reset` sizes the
    block's first anchor from them).

    ``blocks`` defaults to the shared cut of the plan list
    (:func:`~repro.core.grid.make_blocks`); a worker scanning one block
    of a longer grid passes ``[(0, len(plans))]``. Every loop that owns a
    :class:`SumMatrixCache` resets it here, so each block's sums depend
    on that block alone and every scan path rounds them the same way.
    """
    if blocks is None:
        blocks = make_blocks(len(plans)) if plans else []
    resets: Dict[int, Tuple[int, ...]] = {}
    for lo, hi in blocks:
        valid = [k for k in range(lo, hi) if plans[k].valid]
        if valid:
            resets[valid[0]] = tuple(plans[k].region_start for k in valid)
    return resets


class SumMatrixCache:
    """Serve per-region :class:`~repro.core.dp.SumMatrix` structures,
    relocating the previous prefix-sum block across overlapping regions.

    The paper's Fig. 3 data-reuse optimization moves matrix-M entries
    between grid positions so M stays region-sized; our production M is a
    lower-triangular 2-D prefix sum *anchored* at a past region start,
    held in one compact buffer that keeps only the live triangle (the
    prefix rows and columns from the current region start on):

    * an overlapping request is served as an offset **view** into the
      buffer — zero relocation cost, because every window-sum query
      (:meth:`SumMatrix.pair_sum` and friends) is a four-corner rectangle
      difference in which the anchor cancels;
    * SNPs entering on the right are **appended**: their prefix rows are
      computed over the region's columns only, in O(W · F) for F new
      SNPs, instead of the O(W²) rebuild-from-scratch of the seed scanner;
    * when an append would run past the buffer's edge, the live triangle
      **moves** to the origin in place (values move verbatim), so the
      buffer holds about ``(W + W / SLACK_DIVISOR)²`` floats however far
      the anchor lies behind;
    * when the anchored span outgrows its plan (or the request steps back
      or falls outside it), the cache **re-anchors** with one fresh build
      at the buffer's origin, so float magnitudes stay bounded.

    Serving is forward-only: a region starting before the previous one
    rebuilds, because the rows and columns the advancing region left
    behind are neither appended nor kept. A served ``SumMatrix`` is
    read-only and valid until the next :meth:`region_sums` or
    :meth:`reset` call; a caller that keeps one must copy it.

    The anchor span adapts to the grid stride: appending a stride-s
    fringe costs O(W · s) while a re-anchor costs O(W²), so the cache
    plans
    ``n = min(⌊√2·W/s⌋, ⌊W(W−s)/s²⌋)`` appends per anchor (the first
    term balances total append work against the amortized rebuild, the
    second stops planning appends once a single append would cost more
    than a rebuild) and plans a span of ``W + n·s``. Small strides
    therefore get long-lived anchors (many positions amortize one build);
    strides approaching the region width collapse to
    rebuild-per-position, which is genuinely cheaper there. The stride
    s is the median of the last :data:`STRIDE_WINDOW` forward strides;
    :meth:`reset` seeds them from the block ahead, so a block's first
    anchor is sized by its own region starts and its sums depend on
    nothing before it (:func:`dp_resets`). Planned spans are observable
    through ``ReuseStats.dp_planned_span_total``; they decide when to
    rebuild, not how much memory the buffer takes.

    The buffer is allocated uninitialized (``np.empty``) and reused by
    later builds when it fits; a build or an append writes only the rows
    a served view can reach, and nothing ever reads past them.

    With ``reuse=False`` the cache degenerates to a fresh build per
    request — bit-identical arithmetic to ``SumMatrix(r2)`` — which is the
    rebuild-every-position baseline of ``bench_ablation_dp_reuse.py``;
    either way it keeps the ``dp_entries_*`` counters, so the ablation is
    measurable in exact entry counts as well as wall-clock time.
    """

    #: Span factor planned when no stride is known (a block of one valid
    #: position), and hard cap on how far beyond the region width an
    #: anchor may plan (bounds prefix-sum float magnitudes).
    DEFAULT_GROWTH = 2.0
    MAX_ADAPTIVE_GROWTH = 6.0
    #: How many recent strides inform the adaptive estimate.
    STRIDE_WINDOW = 8
    #: A fresh buffer spares ``n // SLACK_DIVISOR`` rows and columns
    #: beyond the ``n = W + 1`` a W-SNP region's prefix needs, so a
    #: forward walk moves its live triangle once per ~W / SLACK_DIVISOR
    #: sites.
    SLACK_DIVISOR = 4

    def __init__(
        self,
        *,
        reuse: bool = True,
        stats: Optional[ReuseStats] = None,
    ):
        self._reuse = reuse
        #: Span bound of the current anchor (capacity / anchored width).
        self._growth = self.DEFAULT_GROWTH
        self._strides: deque = deque(maxlen=self.STRIDE_WINDOW)
        self._last_start: Optional[int] = None
        self.stats = stats if stats is not None else ReuseStats()
        #: What the most recent :meth:`region_sums` call did:
        #: ``"build"`` (fresh construction), ``"extend"`` (appended the
        #: fringe) or ``"view"`` (served entirely from the standing block).
        self.last_action: str = "build"
        self._anchor: Optional[int] = None
        self._hi: Optional[int] = None
        self._width = 0  # currently filled anchored width
        self._capacity = 0  # planned anchored span
        #: The prefix buffer; physical row and column k hold anchored
        #: prefix index ``_base + k``.
        self._buf: Optional[np.ndarray] = None
        self._base = 0

    # ------------------------------------------------------------------ #

    def _choose_capacity(self, width: int) -> int:
        """Planned anchor span for a fresh build of ``width`` SNPs."""
        strides = self._strides
        if not strides:
            return int(math.ceil(self.DEFAULT_GROWTH * width))
        stride = sorted(strides)[len(strides) // 2]
        # Append-vs-rebuild balance: √2·W/s appends equalize total append
        # work with the amortized O(W²) rebuild; W(W−s)/s² caps planning
        # where one stride-s append on a ≥W-wide anchor already exceeds a
        # rebuild. Small strides ⇒ many planned appends ⇒ larger anchors.
        n_appends = min(
            int(math.sqrt(2.0) * width / stride),
            int(width * max(0, width - stride) / (stride * stride)),
            int((self.MAX_ADAPTIVE_GROWTH - 1.0) * width / stride),
        )
        return width + max(0, n_appends) * stride

    def _alloc(self, need: int) -> np.ndarray:
        """A fresh uninitialized buffer for a ``need``-wide prefix square,
        with slack to append into."""
        side = need + need // self.SLACK_DIVISOR
        return np.empty((side, side))

    def _rebuild(self, start: int, stop: int, r2: np.ndarray) -> None:
        """Fresh anchored build — the rows of ``SumMatrix(r2)``, byte for
        byte, appended in place at the buffer's origin."""
        width = stop - start + 1
        self._capacity = self._choose_capacity(width)
        self._growth = max(1.0, self._capacity / width)
        self.stats.dp_planned_span_total += self._capacity
        if self._buf is None or self._buf.shape[0] < width + 1:
            self._buf = self._alloc(width + 1)
        self._buf[0, 0] = 0.0
        append_prefix_rows(self._buf, r2, 0, 0)
        self._base = 0
        self._anchor, self._hi = start, stop
        self._width = width
        self.stats.dp_entries_computed += width * width
        self.stats.dp_builds += 1
        self.last_action = "build"

    def _make_room(self, delta: int, new_w: int) -> None:
        """Ensure anchored prefix indices ``delta .. new_w`` fit the
        buffer: move the live triangle (indices ``delta .. _width``) to the
        origin, or into a larger buffer when the region outgrew it."""
        buf = self._buf
        assert buf is not None
        side = buf.shape[0]
        if new_w - self._base < side:
            return
        src = delta - self._base
        live = self._width - delta + 1
        if new_w - delta < side:
            _copy_lower(buf, buf[src:, src:], live, src)
        else:
            fresh = self._alloc(new_w - delta + 1)
            _copy_lower(fresh, buf[src:, src:], live, 32)  # any chunk
            self._buf = fresh
        self._base = delta

    def _extend(self, start: int, stop: int, r2: np.ndarray) -> None:
        """Append SNPs ``(_hi, stop]``: their prefix rows over the region's
        columns only (O(W x fringe)).

        Bit-for-bit what an append over every anchored column computes for
        those cells: there, each running sum first adds ``delta`` exact
        zeros (pairs before the region start, never computed at the r²
        level), which only turns a −0.0 partial sum into +0.0, and every
        prefix cell such a sum meets is +0.0 or larger."""
        assert self._anchor is not None and self._hi is not None
        width = stop - start + 1
        delta = start - self._anchor
        old_w = self._width
        overlap = self._hi + 1 - start
        fringe = width - overlap
        new_w = old_w + fringe
        self._make_room(delta, new_w)
        assert self._buf is not None
        append_prefix_rows(
            self._buf, r2[overlap:], old_w - self._base, delta - self._base
        )
        self._width = new_w
        self._hi = stop
        self.stats.dp_entries_computed += width * width - overlap * overlap
        self.stats.dp_entries_reused += overlap * overlap
        self.last_action = "extend"

    def _can_serve(self, start: int, stop: int) -> bool:
        """True when ``[start, stop]`` can be served from the standing
        anchored block (possibly after appending its right fringe)."""
        anchor, hi = self._anchor, self._hi
        if anchor is None or hi is None or self._last_start is None:
            return False
        if start < self._last_start or start > hi:
            return False  # steps back out of the live triangle, or disjoint
        if stop - anchor + 1 > self._capacity:
            return False  # would outgrow the planned span
        # Re-anchor once the span outgrows the region: keeps prefix-sum
        # magnitudes bounded.
        return stop - anchor + 1 <= self._growth * (stop - start + 1)

    # ------------------------------------------------------------------ #

    def region_sums(
        self, start: int, stop: int, r2: np.ndarray
    ) -> SumMatrix:
        """Window-sum structure for global sites ``[start .. stop]``
        (inclusive), given the region's r² matrix.

        Returns a :class:`SumMatrix` backed by a read-only offset view of
        the cache's prefix buffer, valid until the next call or
        :meth:`reset`: a later call may move, overwrite or reallocate the
        buffer. A caller that keeps the sums must copy them.
        """
        if stop < start:
            raise ScanConfigError(f"bad region ({start}, {stop})")
        width = stop - start + 1
        r2 = np.asarray(r2)
        if r2.shape != (width, width):
            raise ScanConfigError(
                f"r2 shape {r2.shape} does not match region width {width}"
            )
        serve = self._reuse and self._can_serve(start, stop)
        if self._last_start is not None and start > self._last_start:
            # Forward grid stride — the signal the adaptive anchor policy
            # sizes spans from (backward jumps rebuild regardless).
            self._strides.append(start - self._last_start)
        self._last_start = start
        if not serve:
            self._rebuild(start, stop, r2)
        elif stop > self._hi:  # type: ignore[operator]
            self._extend(start, stop, r2)
        else:
            self.stats.dp_entries_reused += width * width
            self.last_action = "view"
        assert self._buf is not None and self._anchor is not None
        a = start - self._anchor - self._base
        view = self._buf[a : a + width + 1, a : a + width + 1]
        view.flags.writeable = False
        return SumMatrix.from_prefix(view, width)

    def reset(self, starts=()) -> None:
        """Drop the anchored block and the stride history; the next
        region is built fresh. The buffer is kept.

        ``starts`` are the region starts of the valid positions ahead
        (:func:`dp_resets` passes a block's): their first forward strides
        seed the history, so the first anchor is sized from the block
        itself rather than from whatever ran before it."""
        self._anchor = self._hi = None
        self._width = self._capacity = 0
        self._strides.clear()
        self._last_start = None
        for prev, nxt in zip(starts, starts[1:]):
            if len(self._strides) == self.STRIDE_WINDOW:
                break
            if nxt > prev:
                self._strides.append(nxt - prev)
