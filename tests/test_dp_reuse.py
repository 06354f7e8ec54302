"""Property tests for the incremental window-sum DP cache.

The invariant under test: for *any* sequence of regions — overlapping,
disjoint, backward jumps — :meth:`SumMatrixCache.region_sums` answers
every window-sum query like a fresh ``SumMatrix`` built from the same
region r² matrix. Relocation shifts the prefix anchor, so incremental
answers differ from fresh ones only by float rounding of the cumulative
sums (observed ~1e-13 relative); fresh builds are bit-identical.
"""

import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import reuse as reuse_module
from repro.core.dp import SumMatrix, append_prefix_rows
from repro.core.omega import omega_max_at_split
from repro.core.reuse import (
    ReuseStats,
    SumMatrixCache,
    simulate_fresh_entries,
)
from repro.datasets.generators import (
    haplotype_block_alignment,
    random_alignment,
)
from repro.errors import ScanConfigError
from repro.ld.gemm import r_squared_block

N_SITES = 60


@pytest.fixture(scope="module")
def full_r2():
    """One full-alignment r² matrix all region requests slice from."""
    aln = random_alignment(25, N_SITES, seed=7)
    return r_squared_block(aln, slice(0, N_SITES), slice(0, N_SITES))


def _region_sequence(draw):
    """A random sequence of regions: forward walks, backward jumps and
    disjoint hops, widths 2..24."""
    n = draw(st.integers(2, 8))
    regions = []
    for _ in range(n):
        start = draw(st.integers(0, N_SITES - 2))
        width = draw(st.integers(2, min(24, N_SITES - start)))
        regions.append((start, start + width - 1))
    return regions


class TestIncrementalMatchesFresh:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_sequences(self, full_r2, data):
        cache = SumMatrixCache()
        for start, stop in _region_sequence(data.draw):
            r2 = full_r2[start : stop + 1, start : stop + 1]
            sums = cache.region_sums(start, stop, r2)
            fresh = SumMatrix(r2)
            np.testing.assert_allclose(
                sums.as_matrix(), fresh.as_matrix(), rtol=1e-9, atol=1e-9
            )

    def test_forward_scan_extends(self, full_r2):
        """A Fig. 2-style forward walk: after the first build, every step
        is served by appending the fringe, never rebuilding."""
        cache = SumMatrixCache()
        actions = []
        for start in range(0, 20, 2):
            stop = start + 19
            r2 = full_r2[start : stop + 1, start : stop + 1]
            sums = cache.region_sums(start, stop, r2)
            actions.append(cache.last_action)
            fresh = SumMatrix(r2)
            np.testing.assert_allclose(
                sums.as_matrix(), fresh.as_matrix(), rtol=1e-10, atol=1e-12
            )
        assert actions[0] == "build"
        assert all(a == "extend" for a in actions[1:])
        assert cache.stats.dp_builds >= 1

    def test_queries_match_fresh(self, full_r2):
        """All SumMatrix query entry points agree on a relocated view."""
        cache = SumMatrixCache()
        cache.region_sums(0, 19, full_r2[:20, :20])
        start, stop = 6, 27
        r2 = full_r2[start : stop + 1, start : stop + 1]
        sums = cache.region_sums(start, stop, r2)
        assert cache.last_action == "extend"
        fresh = SumMatrix(r2)
        w = stop - start + 1
        li = np.arange(0, 8)
        rj = np.arange(12, w)
        c = 10
        np.testing.assert_allclose(
            sums.pair_sum(0, w - 1), fresh.pair_sum(0, w - 1), rtol=1e-10
        )
        np.testing.assert_allclose(
            sums.left_sums(li, c), fresh.left_sums(li, c), rtol=1e-10
        )
        np.testing.assert_allclose(
            sums.right_sums(c, rj), fresh.right_sums(c, rj), rtol=1e-10
        )
        np.testing.assert_allclose(
            sums.cross_sums_grid(li, c, rj),
            fresh.cross_sums_grid(li, c, rj),
            rtol=1e-10,
            atol=1e-12,
        )

    def test_contained_region_served_as_view(self, full_r2):
        cache = SumMatrixCache()
        cache.region_sums(0, 29, full_r2[:30, :30])
        computed_before = cache.stats.dp_entries_computed
        r2 = full_r2[10:25, 10:25]
        sums = cache.region_sums(10, 24, r2)
        assert cache.last_action == "view"
        assert cache.stats.dp_entries_computed == computed_before
        fresh = SumMatrix(r2)
        np.testing.assert_allclose(
            sums.as_matrix(), fresh.as_matrix(), rtol=1e-10, atol=1e-12
        )

    def test_backward_jump_rebuilds(self, full_r2):
        """A request reaching before the anchor cannot be served (the
        columns were zero-filled there) — must rebuild, and correctly."""
        cache = SumMatrixCache()
        cache.region_sums(20, 39, full_r2[20:40, 20:40])
        r2 = full_r2[10:30, 10:30]
        sums = cache.region_sums(10, 29, r2)
        assert cache.last_action == "build"
        fresh = SumMatrix(r2)
        np.testing.assert_array_equal(sums.as_matrix(), fresh.as_matrix())

    def test_disjoint_region_rebuilds(self, full_r2):
        cache = SumMatrixCache()
        cache.region_sums(0, 9, full_r2[:10, :10])
        sums = cache.region_sums(30, 39, full_r2[30:40, 30:40])
        assert cache.last_action == "build"
        fresh = SumMatrix(full_r2[30:40, 30:40])
        np.testing.assert_array_equal(sums.as_matrix(), fresh.as_matrix())

    def test_served_view_is_read_only(self, full_r2):
        """A served structure is a read-only view into the cache's buffer
        (valid until the next call), whatever the action behind it."""
        cache = SumMatrixCache()
        actions = []
        for start, stop in [(0, 19), (5, 29), (8, 29)]:
            sums = cache.region_sums(
                start, stop, full_r2[start : stop + 1, start : stop + 1]
            )
            actions.append(cache.last_action)
            with pytest.raises(ValueError, match="read-only"):
                sums._prefix[0, 0] = 1.0
        assert actions == ["build", "extend", "view"]


class TestReuseOffBaseline:
    def test_bitwise_identical_to_fresh(self, full_r2):
        """reuse=False must reproduce SumMatrix(r2) *bit for bit* — this
        is what keeps dp_reuse=False scans exactly on the seed arithmetic."""
        cache = SumMatrixCache(reuse=False)
        for start, stop in [(0, 19), (5, 24), (10, 29)]:
            r2 = full_r2[start : stop + 1, start : stop + 1]
            sums = cache.region_sums(start, stop, r2)
            assert cache.last_action == "build"
            fresh = SumMatrix(r2)
            np.testing.assert_array_equal(sums.as_matrix(), fresh.as_matrix())

    def test_counts_builds(self, full_r2):
        cache = SumMatrixCache(reuse=False)
        for start, stop in [(0, 19), (5, 24), (10, 29)]:
            cache.region_sums(start, stop, full_r2[start : stop + 1, start : stop + 1])
        assert cache.stats.dp_builds == 3
        assert cache.stats.dp_entries_reused == 0
        assert cache.stats.dp_entries_computed == 3 * 400


class TestDpStats:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_area_conservation(self, full_r2, data):
        """dp computed + reused equals the total served region area for
        any request sequence — mirrors the r²-level invariant."""
        cache = SumMatrixCache()
        area = 0
        for start, stop in _region_sequence(data.draw):
            cache.region_sums(
                start, stop, full_r2[start : stop + 1, start : stop + 1]
            )
            area += (stop - start + 1) ** 2
        s = cache.stats
        assert s.dp_entries_computed + s.dp_entries_reused == area

    def test_extend_counts_match_simulator(self, full_r2):
        """A forward-overlapping walk: per-step fresh DP entries equal the
        r²-level analytical mirror (both are W² − V²)."""
        regions = [(0, 19), (4, 23), (8, 27)]
        cache = SumMatrixCache()
        real = []
        prev = 0
        for start, stop in regions:
            cache.region_sums(
                start, stop, full_r2[start : stop + 1, start : stop + 1]
            )
            real.append(cache.stats.dp_entries_computed - prev)
            prev = cache.stats.dp_entries_computed
        assert real == simulate_fresh_entries(regions)

    def test_shared_stats_object(self, full_r2):
        stats = ReuseStats()
        cache = SumMatrixCache(stats=stats)
        cache.region_sums(0, 19, full_r2[:20, :20])
        assert stats.dp_entries_computed == 400
        assert stats.dp_reuse_fraction == 0.0

    def test_fraction(self):
        s = ReuseStats(dp_entries_computed=25, dp_entries_reused=75)
        assert s.dp_reuse_fraction == pytest.approx(0.75)

    def test_merge_from(self):
        a = ReuseStats(
            entries_computed=1,
            entries_reused=2,
            regions_served=3,
            dp_entries_computed=4,
            dp_entries_reused=5,
            dp_builds=6,
        )
        a.merge_from(
            ReuseStats(
                entries_computed=10,
                entries_reused=20,
                regions_served=30,
                dp_entries_computed=40,
                dp_entries_reused=50,
                dp_builds=60,
            )
        )
        assert (a.entries_computed, a.entries_reused, a.regions_served) == (
            11,
            22,
            33,
        )
        assert (a.dp_entries_computed, a.dp_entries_reused, a.dp_builds) == (
            44,
            55,
            66,
        )


class TestAdaptiveGrowth:
    """The default anchor policy sizes capacities from the observed grid
    stride: small strides amortize one build over many appends (large
    anchors); strides near the region width collapse toward
    rebuild-per-position."""

    @staticmethod
    def _walk(cache, stride, width=20, n_sites=N_SITES, r2=None):
        for start in range(0, n_sites - width + 1, stride):
            stop = start + width - 1
            cache.region_sums(start, stop, r2[start : stop + 1, start : stop + 1])

    def test_anchor_allocations_are_counted(self, full_r2):
        cache = SumMatrixCache()
        self._walk(cache, stride=2, r2=full_r2)
        stats = cache.stats
        assert stats.dp_builds > 0
        # Every anchor at least spans its region (width 20).
        assert stats.dp_planned_span_total >= 20 * stats.dp_builds
        assert stats.mean_anchor_span == pytest.approx(
            stats.dp_planned_span_total / stats.dp_builds
        )
        assert stats.mean_anchor_span >= 20.0

    def test_small_strides_get_larger_anchors(self, full_r2):
        fine = SumMatrixCache()
        self._walk(fine, stride=1, r2=full_r2)
        coarse = SumMatrixCache()
        self._walk(coarse, stride=16, r2=full_r2)
        assert fine.stats.mean_anchor_span > coarse.stats.mean_anchor_span

    def test_near_width_stride_collapses_to_rebuild(self, full_r2):
        """Once one stride-s append costs more than a rebuild, the policy
        plans no appends: after the stride is observed, anchors are
        region-sized and every step is a fresh build."""
        cache = SumMatrixCache()
        self._walk(cache, stride=16, r2=full_r2)
        # Starts 0, 16, 32: the first anchor (no stride history) absorbs
        # start 16 as an extension; the re-anchor at 32 plans zero appends.
        assert cache.stats.dp_builds >= 2
        assert cache.stats.dp_planned_span_total == 40 + 20
        assert cache.last_action == "build"

    def test_reset_sizes_the_first_anchor_from_the_starts_ahead(
        self, full_r2
    ):
        """A reset seeded with the region starts ahead plans the first
        anchor from their stride, as a cache that had already walked them
        would: stride 16 plans no appends, where an unseeded cache plans
        twice the width."""
        cold, seeded = SumMatrixCache(), SumMatrixCache()
        seeded.reset((0, 16, 32))
        for cache in (cold, seeded):
            cache.region_sums(0, 19, full_r2[:20, :20])
        assert cold.stats.dp_planned_span_total == 40
        assert seeded.stats.dp_planned_span_total == 20
        # Zero and backward steps carry no stride; more than the window
        # of strides is cut at the window.
        cache = SumMatrixCache()
        cache.reset((5, 5, 3, 4) + tuple(range(10, 40, 2)))
        assert list(cache._strides) == [1, 6] + [2] * 6

    def test_adaptive_matches_fresh_build(self, full_r2):
        """Whatever capacities the policy picks, answers stay correct."""
        for stride in (1, 3, 7, 16):
            cache = SumMatrixCache()
            width = 20
            for start in range(0, N_SITES - width + 1, stride):
                stop = start + width - 1
                r2 = full_r2[start : stop + 1, start : stop + 1]
                sums = cache.region_sums(start, stop, r2)
                fresh = SumMatrix(r2)
                np.testing.assert_allclose(
                    sums.as_matrix(), fresh.as_matrix(), rtol=1e-9, atol=1e-9
                )

    def test_mean_anchor_span_empty(self):
        assert ReuseStats().mean_anchor_span == 0.0

    def test_merge_carries_anchor_and_tile_counters(self):
        a = ReuseStats(
            dp_builds=1,
            dp_planned_span_total=40,
            tile_entries_computed=5,
            tile_entries_reused=6,
        )
        a.merge_from(
            ReuseStats(
                dp_builds=2,
                dp_planned_span_total=60,
                tile_entries_computed=50,
                tile_entries_reused=60,
            )
        )
        assert a.dp_builds == 3
        assert a.dp_planned_span_total == 100
        assert a.tile_entries_computed == 55
        assert a.tile_entries_reused == 66
        assert a.mean_anchor_span == pytest.approx(100 / 3)


class TestValidation:
    def test_rejects_inverted_region(self, full_r2):
        with pytest.raises(ScanConfigError):
            SumMatrixCache().region_sums(5, 2, full_r2[:4, :4])

    def test_rejects_shape_mismatch(self, full_r2):
        with pytest.raises(ScanConfigError, match="shape"):
            SumMatrixCache().region_sums(0, 9, full_r2[:5, :5])

    def test_reset_forces_rebuild(self, full_r2):
        cache = SumMatrixCache()
        cache.region_sums(0, 19, full_r2[:20, :20])
        cache.reset()
        cache.region_sums(5, 24, full_r2[5:25, 5:25])
        assert cache.last_action == "build"
        assert cache.stats.dp_entries_reused == 0

    def test_from_prefix_shape_guard(self):
        with pytest.raises(ScanConfigError):
            SumMatrix.from_prefix(np.zeros((5, 5)), 5)


class _ZeroFilledCache:
    """The window-sum cache before its compact buffer, as the bit-level
    reference: a zero-filled prefix sized to the planned span, rows
    appended by the same kernel over every anchored column (r² zero
    before the region start), and a serve rule that tracks the first
    truthfully filled column of every row."""

    DEFAULT_GROWTH = SumMatrixCache.DEFAULT_GROWTH
    MAX_ADAPTIVE_GROWTH = SumMatrixCache.MAX_ADAPTIVE_GROWTH

    def __init__(self):
        self._growth = self.DEFAULT_GROWTH
        self._strides = deque(maxlen=SumMatrixCache.STRIDE_WINDOW)
        self._last_start = None
        self.stats = ReuseStats()
        self.last_action = "build"
        self._anchor = None
        self._hi = None
        self._width = 0
        self._capacity = 0
        self._prefix = None
        self._fill_starts = None

    def _can_serve(self, start, stop):
        if self._prefix is None:
            return False
        anchor, hi = self._anchor, self._hi
        if start < anchor or start > hi:
            return False
        if stop - anchor + 1 > self._capacity:
            return False
        width = stop - start + 1
        if stop - anchor + 1 > self._growth * width:
            return False
        lo = start - anchor
        hi_col = min(stop, hi) - anchor
        return int(self._fill_starts[lo : hi_col + 1].max()) <= start

    def _rebuild(self, start, stop, r2):
        width = stop - start + 1
        # The span policy itself is the cache's; this reference differs
        # only in the buffer it fills.
        self._capacity = SumMatrixCache._choose_capacity(self, width)
        self._growth = max(1.0, self._capacity / width)
        self.stats.dp_planned_span_total += self._capacity
        prefix = np.zeros((self._capacity + 1, self._capacity + 1))
        append_prefix_rows(prefix, r2, 0, 0)
        self._prefix = prefix
        self._anchor, self._hi = start, stop
        self._width = width
        self._fill_starts = np.full(width, start, dtype=np.intp)
        self.stats.dp_entries_computed += width * width
        self.stats.dp_builds += 1
        self.last_action = "build"

    def _extend(self, start, stop, r2):
        width = stop - start + 1
        delta = start - self._anchor
        old_w = self._width
        fringe = stop - self._hi
        new_w = old_w + fringe
        rows = np.zeros((fringe, new_w - 1))
        rows[:, delta:] = r2[self._hi + 1 - start :, : width - 1]
        append_prefix_rows(self._prefix, rows, old_w, 0)
        self._fill_starts = np.concatenate(
            [self._fill_starts, np.full(fringe, start, dtype=np.intp)]
        )
        self._width = new_w
        self._hi = stop
        overlap = width - fringe
        self.stats.dp_entries_computed += width * width - overlap * overlap
        self.stats.dp_entries_reused += overlap * overlap
        self.last_action = "extend"

    def region_sums(self, start, stop, r2):
        width = stop - start + 1
        if self._last_start is not None and start > self._last_start:
            self._strides.append(start - self._last_start)
        self._last_start = start
        if not self._can_serve(start, stop):
            self._rebuild(start, stop, r2)
        elif stop > self._hi:
            self._extend(start, stop, r2)
        else:
            self.stats.dp_entries_reused += width * width
            self.last_action = "view"
        delta = start - self._anchor
        view = self._prefix[
            delta : delta + width + 1, delta : delta + width + 1
        ]
        return SumMatrix.from_prefix(view, width)


_REAL_EMPTY = np.empty


def _nan_empty(shape, dtype=float, *args, **kwargs):
    """``np.empty`` whose float arrays hold NaN, so a read of any cell
    nobody wrote poisons the sums it reaches."""
    out = _REAL_EMPTY(shape, dtype, *args, **kwargs)
    if out.dtype.kind == "f":
        out.fill(np.nan)
    return out


def _signed_r2(seed, n_sites):
    """A symmetric r²-like matrix with exact zeros and negative zeros
    mixed into its [0, 1) entries."""
    rng = np.random.default_rng(seed)
    r2 = rng.random((n_sites, n_sites))
    r2[rng.random((n_sites, n_sites)) < 0.15] = 0.0
    r2 = np.triu(r2) + np.triu(r2, 1).T
    r2[rng.random((n_sites, n_sites)) < 0.1] = -0.0
    return r2


def _lower(prefix):
    """The cells of a prefix that readers reach (on and below the
    diagonal), as bytes, with zeros above."""
    return np.tril(prefix).tobytes()


class TestInPlaceBuild:
    """The compact buffer against the full-anchor cache it replaced: on
    forward sequences both take the same actions and serve prefixes
    byte-equal on and below the diagonal, while every cell nobody wrote
    holds NaN."""

    N_SITES = 420

    def _serve_both(self, r2, regions):
        new = SumMatrixCache()
        ref = _ZeroFilledCache()
        for start, stop in regions:
            region = r2[start : stop + 1, start : stop + 1]
            with mock.patch.object(np, "empty", _nan_empty):
                got = new.region_sums(start, stop, region)
            want = ref.region_sums(start, stop, region)
            assert new.last_action == ref.last_action
            assert _lower(got._prefix) == _lower(want._prefix)
        return new

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_served_prefixes_bitwise_equal_reference(self, data):
        n = self.N_SITES
        r2 = _signed_r2(data.draw(st.integers(0, 2**32 - 1)), n)
        start = data.draw(st.integers(0, n - 1))
        width = data.draw(st.integers(1, min(150, n - start)))
        regions = [(start, start + width - 1)]
        for _ in range(data.draw(st.integers(0, 12))):
            if data.draw(st.booleans()):
                step = data.draw(st.integers(0, 30))
            else:  # past the region's stop
                step = width + data.draw(st.integers(0, 40))
            start = min(n - 1, start + step)
            width = max(1, width + data.draw(st.integers(-5, 40)))
            width = min(width, n - start, 150)
            regions.append((start, start + width - 1))
        self._serve_both(r2, regions)

    def test_forward_walk_extends_bitwise(self):
        """A regions-shaped walk (W = 240, stride 20) extends its anchor,
        moves the live triangle back to the origin as it runs past the
        buffer's edge, and still serves the reference's bits."""
        r2 = _signed_r2(5, self.N_SITES)
        regions = [(s, s + 239) for s in range(0, 180, 20)]
        with mock.patch.object(
            reuse_module, "_copy_lower", wraps=reuse_module._copy_lower
        ) as moves:
            cache = self._serve_both(r2, regions)
        assert cache.stats.dp_builds < len(regions)
        assert moves.call_count >= 1

    def test_region_outgrowing_buffer_and_narrow_rebuild(self):
        """An append whose region no longer fits the buffer copies the
        live triangle into a larger one; a later narrower build reuses
        it."""
        r2 = _signed_r2(9, self.N_SITES)
        new = self._serve_both(r2, [(0, 99), (10, 149)])
        assert new.last_action == "extend"
        assert new._buf.shape == (141 + 141 // 4,) * 2
        buf = new._buf
        region = r2[300:350, 300:350]
        new.region_sums(300, 349, region)
        assert new.last_action == "build" and new._buf is buf

    def test_step_back_rebuilds(self):
        """A region starting before the previous one rebuilds, where the
        full-anchor cache served it as a view, and serves fresh bits."""
        r2 = _signed_r2(13, self.N_SITES)
        new = SumMatrixCache()
        ref = _ZeroFilledCache()
        for start, stop in [(0, 99), (20, 119), (10, 99)]:
            region = r2[start : stop + 1, start : stop + 1]
            got = new.region_sums(start, stop, region)
            ref.region_sums(start, stop, region)
        assert (new.last_action, ref.last_action) == ("build", "view")
        fresh = SumMatrix(region)
        assert _lower(got._prefix) == _lower(fresh._prefix)


def _walk_moves(r2, width=240, stride=20, n_positions=12):
    """A forward walk of ``width``-site regions at ``stride`` sites: a
    build, appends and moves of the live triangle to the origin."""
    for start in range(0, n_positions * stride, stride):
        stop = start + width - 1
        yield start, stop, r2[start : stop + 1, start : stop + 1]


def _reads(sums):
    """Everything the scan and the GPU/FPGA packing read from one served
    region, as bytes: split operands by the run and gather routes, the
    direct ω maximum, pair and cross sums, and the magnitude."""
    w = sums.n_sites
    out = []
    for c, flank in ((w // 2 - 1, 1), (w // 3, 2), (1, 1), (w - 3, 2)):
        li, rj = np.arange(0, c - flank + 2), np.arange(c + flank, w)
        ops = sums.split_operands(li, c, rj)
        gathered = sums.split_operands(li[::-1], c, rj)
        best = omega_max_at_split(sums, li, c, rj)
        out += [np.ascontiguousarray(a).tobytes() for a in ops + gathered]
        out += [np.float64(best.omega).tobytes(), best.left_border,
                best.right_border]
        out += [np.float64(sums.pair_sum(li[0], rj[-1])).tobytes(),
                np.float64(sums.cross_sum(li[0], c, rj[-1])).tobytes()]
    out.append(np.float64(sums.magnitude).tobytes())
    return out


class TestLowerTriangle:
    """The prefix is computed and read on and below its diagonal only."""

    def test_upper_triangle_is_never_read(self):
        """After every serve, the cells above the buffer's diagonal turn
        NaN; the walk still serves every read byte-equal to a clean cache
        (so neither the readers, the row append nor the move read them)."""
        r2 = _signed_r2(21, 480)
        clean, poisoned = SumMatrixCache(), SumMatrixCache()
        actions = []
        with mock.patch.object(
            reuse_module, "_copy_lower", wraps=reuse_module._copy_lower
        ) as moves:
            for start, stop, region in _walk_moves(r2):
                want = _reads(clean.region_sums(start, stop, region))
                got = poisoned.region_sums(start, stop, region)
                buf = poisoned._buf
                buf[np.triu_indices(buf.shape[0], 1)] = np.nan
                assert _reads(got) == want
                actions.append(poisoned.last_action)
        assert moves.call_count >= 1
        assert actions[0] == "build" and "extend" in actions

    @staticmethod
    def _assert_monotone(p):
        """P[i, j] <= P[i+1, j] and P[i, j] <= P[i, j+1] for j < i, and
        P[i, i-1] <= P[i, i] <= P[i+1, i]: the order DESIGN §5's margin
        needs, exact in floating point."""
        n = p.shape[0]
        down = np.tril(np.ones((n - 1, n), dtype=bool), -1)
        assert np.all(p[:-1][down] <= p[1:][down])
        right = np.tril(np.ones((n, n - 1), dtype=bool), -1)
        assert np.all(p[:, :-1][right] <= p[:, 1:][right])
        diag = np.diagonal(p)
        assert np.all(np.diagonal(p, -1) <= diag[1:])
        assert np.all(diag[:-1] <= np.diagonal(p, -1))

    @pytest.mark.parametrize("source", ["signed", "random", "blocks"])
    def test_lower_triangle_is_monotone(self, source):
        n_sites = 480
        if source == "signed":
            r2 = _signed_r2(17, n_sites)
        else:
            make = (
                random_alignment if source == "random"
                else haplotype_block_alignment
            )
            aln = make(40, n_sites, seed=3)
            r2 = r_squared_block(aln, slice(0, n_sites), slice(0, n_sites))
        cache = SumMatrixCache()
        for start, stop, region in _walk_moves(r2):
            self._assert_monotone(
                cache.region_sums(start, stop, region)._prefix
            )
            self._assert_monotone(SumMatrix(region)._prefix)
        assert cache.stats.dp_builds < 12


class TestBufferBound:
    def test_forward_walk_holds_one_compact_buffer(self):
        """A 1 200-site, stride-22 walk over 6 000 sites holds at most
        (W + 1 + (W + 1) // SLACK_DIVISOR)² floats of prefix, however
        far the anchor lies behind the region, plus O(W x stride) of
        per-append temporaries."""
        width, stride, n_sites = 1200, 22, 6000
        r2 = _signed_r2(3, width)  # the values do not matter here
        need = width + 1
        bound = 8 * (need + need // SumMatrixCache.SLACK_DIVISOR) ** 2
        cache = SumMatrixCache()
        tracemalloc.start()
        try:
            for start in range(0, n_sites - width + 1, stride):
                cache.region_sums(start, start + width - 1, r2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cache.stats.dp_builds < 30
        assert peak <= bound + 8 * 8 * width * stride
