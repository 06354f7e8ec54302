"""Unit tests for the r2 data-reuse cache."""

import numpy as np
import pytest

from repro.core.reuse import R2RegionCache, ReuseStats, simulate_fresh_entries
from repro.datasets.generators import random_alignment
from repro.datasets.packed import PackedAlignment
from repro.errors import ScanConfigError
from repro.ld.gemm import r_squared_block
from repro.ld.packed_kernels import r_squared_block_packed


def _reference(aln, kind):
    """``(rows, cols) -> r²`` by the GEMM formulation or by the
    word-level popcount reference."""
    if kind == "gemm":
        return lambda rows, cols: r_squared_block(aln, rows, cols)
    packed = PackedAlignment.from_alignment(aln)
    return lambda rows, cols: r_squared_block_packed(packed, rows, cols)


class TestReuseStats:
    def test_fraction_empty(self):
        assert ReuseStats().reuse_fraction == 0.0

    def test_fraction(self):
        s = ReuseStats(entries_computed=25, entries_reused=75)
        assert s.reuse_fraction == pytest.approx(0.75)


class TestR2RegionCache:
    def test_first_region_computed(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        r2 = cache.region_matrix(0, 19)
        expected = r_squared_block(small_alignment, slice(0, 20), slice(0, 20))
        np.testing.assert_allclose(r2, expected, atol=1e-12)
        assert cache.stats.entries_reused == 0
        assert cache.stats.entries_computed == 400

    def test_overlapping_region_correct(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(0, 19)
        r2 = cache.region_matrix(10, 29)
        expected = r_squared_block(small_alignment, slice(10, 30), slice(10, 30))
        np.testing.assert_allclose(r2, expected, atol=1e-12)
        assert cache.stats.entries_reused == 100  # 10x10 overlap block

    def test_forward_scan_reuses_majority(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        for start in range(0, 30, 2):
            cache.region_matrix(start, start + 29)
        assert cache.stats.reuse_fraction > 0.5

    def test_disjoint_region_recomputed(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(0, 9)
        cache.region_matrix(30, 39)
        assert cache.stats.entries_reused == 0

    def test_backward_overlap_also_works(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(20, 39)
        r2 = cache.region_matrix(10, 29)
        expected = r_squared_block(small_alignment, slice(10, 30), slice(10, 30))
        np.testing.assert_allclose(r2, expected, atol=1e-12)
        assert cache.stats.entries_reused == 100

    def test_region_shrinks_inside_previous(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(0, 39)
        r2 = cache.region_matrix(10, 19)
        expected = r_squared_block(small_alignment, slice(10, 20), slice(10, 20))
        np.testing.assert_allclose(r2, expected, atol=1e-12)

    def test_region_grows_both_sides(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(20, 29)
        r2 = cache.region_matrix(10, 39)
        expected = r_squared_block(small_alignment, slice(10, 40), slice(10, 40))
        np.testing.assert_allclose(r2, expected, atol=1e-12)

    def test_packed_backend_equivalent(self, small_alignment):
        """Served regions equal the packed popcount reference bitwise."""
        cache = R2RegionCache(small_alignment)
        packed = _reference(small_alignment, "packed")
        for start, stop in [(0, 19), (10, 29), (25, 45)]:
            sites = slice(start, stop + 1)
            got = cache.region_matrix(start, stop)
            assert got.tobytes() == packed(sites, sites).tobytes()

    def test_reserve_allocates_once_for_widest_region(self, small_alignment):
        """Regions that grow up to the reserved width are served from
        the one reserved buffer, with unchanged values and accounting."""
        cache = R2RegionCache(small_alignment)
        plain = R2RegionCache(small_alignment)
        cache.reserve(40)
        buf = cache._buf
        cache.reserve(59)  # no-op once a buffer exists
        assert cache._buf is buf and buf.shape == (45, 45)
        for start, stop in [(0, 9), (0, 19), (0, 29), (5, 44), (10, 49)]:
            got = cache.region_matrix(start, stop, horizon=59)
            want = plain.region_matrix(start, stop, horizon=59)
            assert got.tobytes() == want.tobytes()
        assert cache._buf is buf
        assert cache.stats == plain.stats

    def test_bounds(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        with pytest.raises(ScanConfigError):
            cache.region_matrix(-1, 5)
        with pytest.raises(ScanConfigError):
            cache.region_matrix(0, 999)
        with pytest.raises(ScanConfigError):
            cache.region_matrix(10, 5)

    def test_reset_drops_cache(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(0, 19)
        cache.reset()
        cache.region_matrix(5, 24)
        assert cache.stats.entries_reused == 0

    def test_memory_guard(self, small_alignment):
        """An over-wide region fails with a clear message instead of an
        opaque MemoryError."""
        cache = R2RegionCache(small_alignment, max_region_bytes=1000)
        with pytest.raises(ScanConfigError, match="reduce max_window"):
            cache.region_matrix(0, 59)
        # small regions still fine under the tiny cap
        cache.region_matrix(0, 5)

    def test_memory_guard_rejects_silly_cap(self, small_alignment):
        with pytest.raises(ScanConfigError):
            R2RegionCache(small_alignment, max_region_bytes=0)

    def test_cached_matrix_not_aliased(self, small_alignment):
        """A served matrix is a read-only view: writing into it raises,
        so it cannot corrupt the overlap the next region reuses."""
        cache = R2RegionCache(small_alignment)
        first = cache.region_matrix(0, 19)
        with pytest.raises(ValueError):
            first[15, 15] = 123.0  # inside the overlap with (10, 29)
        second = cache.region_matrix(10, 29)
        np.testing.assert_array_equal(
            second,
            r_squared_block(small_alignment, slice(10, 30), slice(10, 30)),
        )


class TestAnchoredViews:
    """Random region sequences: each served view is read-only and
    bitwise equal to a fresh block of the GEMM formulation and of the
    packed popcount reference, and the counters match
    :func:`simulate_fresh_entries` between resets."""

    @staticmethod
    def _requests(rng, n_sites, n_calls):
        """Forward strides of drifting width (in-place re-anchors), with
        occasional backward jumps, disjoint jumps, wide regions and
        resets mixed in."""
        start, width = 0, 30
        for _ in range(n_calls):
            kind = rng.choice(
                ["forward"] * 12 + ["backward", "disjoint", "wide", "reset"]
            )
            if kind == "reset":
                yield None
                continue
            if kind == "forward":
                start += int(rng.integers(0, 9))
                width = int(np.clip(width + rng.integers(-4, 5), 8, 60))
            elif kind == "backward":
                start -= int(rng.integers(1, width))
            elif kind == "disjoint":
                start = int(rng.integers(0, n_sites))
            else:
                width = int(rng.integers(70, 120))
            start = int(np.clip(start, 0, n_sites - width))
            yield start, start + width - 1

    @pytest.mark.parametrize("reference", ["gemm", "packed"])
    def test_random_sequences(self, reference):
        aln = random_alignment(24, 400, seed=17)
        cache = R2RegionCache(aln)
        block = _reference(aln, reference)
        rng = np.random.default_rng(23)
        fresh, simulated, segment = [], [], []
        moves = reallocs = 0
        for request in self._requests(rng, aln.n_sites, 400):
            if request is None:
                cache.reset()
                simulated += simulate_fresh_entries(segment)
                segment = []
                continue
            start, stop = request
            overlaps = bool(segment) and max(start, segment[-1][0]) <= min(
                stop, segment[-1][1]
            )
            segment.append(request)
            buf, anchor = cache._buf, cache._anchor
            computed = cache.stats.entries_computed
            reused = cache.stats.entries_reused
            got = cache.region_matrix(start, stop)
            fresh.append(cache.stats.entries_computed - computed)
            width = stop - start + 1
            assert fresh[-1] + cache.stats.entries_reused - reused == width**2
            reallocs += cache._buf is not buf
            moves += overlaps and cache._buf is buf and cache._anchor != anchor
            assert not got.flags.writeable
            want = block(slice(start, stop + 1), slice(start, stop + 1))
            assert got.tobytes() == want.tobytes()
        simulated += simulate_fresh_entries(segment)
        assert fresh == simulated
        # The sequence moved overlaps in place and allocated new buffers.
        assert moves > 10 and reallocs > 3


class TestDualFreshSegments:
    """Regression tests for the dual-fresh-segment case: a backward jump
    whose region grows past the previous one on *both* sides, leaving
    fresh SNPs left and right of the relocated overlap block.

    The original implementation computed the full-width left rows and the
    full-width right rows independently, so the left-fresh x right-fresh
    cross block was written (and counted) twice — the counters over-stated
    the computed entries even though the matrix values came out right.
    """

    def test_matrix_correct(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(20, 29)
        r2 = cache.region_matrix(10, 39)
        expected = r_squared_block(small_alignment, slice(10, 40), slice(10, 40))
        np.testing.assert_allclose(r2, expected, atol=1e-12)

    def test_counter_exact(self, small_alignment):
        """Fresh entries = W^2 - V^2 (V = overlap width): the 30x30 region
        reuses the 10x10 block, so exactly 800 entries are computed — the
        double-counted cross block would have reported 1000."""
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(20, 29)
        before = cache.stats.entries_computed
        cache.region_matrix(10, 39)
        assert cache.stats.entries_computed - before == 30 * 30 - 10 * 10
        assert cache.stats.entries_reused == 10 * 10

    def test_counter_conservation(self, small_alignment):
        """computed + reused must equal the sum of served region areas —
        the invariant the double-count broke."""
        cache = R2RegionCache(small_alignment)
        regions = [(20, 29), (10, 39), (35, 50), (30, 59), (0, 29)]
        for start, stop in regions:
            cache.region_matrix(start, stop)
        area = sum((b - a + 1) ** 2 for a, b in regions)
        assert cache.stats.entries_computed + cache.stats.entries_reused == area

    def test_simulator_cross_check_backward_forward(self, small_alignment):
        """simulate_fresh_entries must agree *exactly* with the corrected
        cache accounting on a sequence containing a dual-fresh region."""
        regions = [(20, 29), (10, 39), (5, 44), (50, 59), (40, 59), (0, 19)]
        cache = R2RegionCache(small_alignment)
        real = []
        prev = 0
        for start, stop in regions:
            cache.region_matrix(start, stop)
            real.append(cache.stats.entries_computed - prev)
            prev = cache.stats.entries_computed
        assert simulate_fresh_entries(regions) == real

    def test_simulator_dual_fresh_value(self):
        # (20,29) then (10,39): 30^2 minus the relocated 10^2 block.
        assert simulate_fresh_entries([(20, 29), (10, 39)]) == [100, 800]


class _CountingBlock:
    """``block_fn`` over :func:`r_squared_block` that counts its calls
    and, like every block source, fills the buffer view it is handed."""

    def __init__(self, alignment):
        self.alignment = alignment
        self.calls = 0

    def __call__(self, rows, cols, *, out):
        self.calls += 1
        return r_squared_block(self.alignment, rows, cols, out=out)


class _PackedBlock:
    """``block_fn`` serving the packed popcount reference."""

    def __init__(self, alignment):
        self._block = _reference(alignment, "packed")

    def __call__(self, rows, cols, *, out):
        out[...] = self._block(rows, cols)
        return out


def _cache(aln, source):
    """A region cache over the production fill (``"gemm"``) or over one
    of the test block sources."""
    if source == "counting":
        return R2RegionCache(aln, block_fn=_CountingBlock(aln))
    if source == "packed":
        return R2RegionCache(aln, block_fn=_PackedBlock(aln))
    return R2RegionCache(aln)


class TestFillAhead:
    """A fill horizon changes how many and how tall the fills are,
    never the served bytes or the relocation accounting."""

    @staticmethod
    def _horizon(rng, start, stop, n_sites):
        kind = rng.choice(["none", "short", "inside", "past", "end"])
        if kind == "none":
            return None
        if kind == "short":  # at or before the region's own stop
            return int(rng.integers(start, stop + 1))
        if kind == "inside":  # a few sites ahead, inside the buffer
            return stop + int(rng.integers(1, 8))
        if kind == "past":  # beyond the buffer end
            return stop + int(rng.integers(40, 200))
        return n_sites + int(rng.integers(0, 50))  # past n_sites - 1

    @pytest.mark.parametrize("source", ["gemm", "packed", "counting"])
    def test_random_sequences_with_horizons(self, source):
        aln = random_alignment(24, 400, seed=19)
        cache = _cache(aln, source)
        rng = np.random.default_rng(29)
        fresh, simulated, segment = [], [], []
        for request in TestAnchoredViews._requests(rng, aln.n_sites, 400):
            if request is None:
                cache.reset()
                simulated += simulate_fresh_entries(segment)
                segment = []
                continue
            start, stop = request
            segment.append(request)
            computed = cache.stats.entries_computed
            got = cache.region_matrix(
                start, stop, self._horizon(rng, start, stop, aln.n_sites)
            )
            fresh.append(cache.stats.entries_computed - computed)
            assert not got.flags.writeable
            want = r_squared_block(
                aln, slice(start, stop + 1), slice(start, stop + 1)
            )
            assert got.tobytes() == want.tobytes()
        simulated += simulate_fresh_entries(segment)
        assert fresh == simulated
        assert cache.stats.regions_served == len(fresh)

    @pytest.mark.parametrize("width,step", [(64, 1), (64, 3), (100, 7)])
    def test_forward_scan_fills_once_per_slack(self, width, step):
        """One tall fill per ~W/8 sites of progress: at most
        ceil(n / (W // 8)) + 1 block calls over a forward scan, where one
        strip per region would make one call per position."""
        aln = random_alignment(30, 600, seed=31)
        source = _CountingBlock(aln)
        cache = R2RegionCache(aln, block_fn=source)
        n = aln.n_sites
        starts = range(0, n - width + 1, step)
        horizon = n - 1
        for start in starts:
            got = cache.region_matrix(start, start + width - 1, horizon)
            want = r_squared_block(
                aln, slice(start, start + width), slice(start, start + width)
            )
            assert got.tobytes() == want.tobytes()
        assert source.calls <= -(-n // (width // 8)) + 1
        assert source.calls < len(starts)
        regions = [(s, s + width - 1) for s in starts]
        assert cache.stats.entries_computed == sum(
            simulate_fresh_entries(regions)
        )

    def test_fill_stops_at_horizon(self):
        """No block reaches past the horizon (a streamed chunk's last
        resident site) or past the alignment."""
        aln = random_alignment(20, 200, seed=37)
        reached = []

        def block_fn(rows, cols, *, out):
            reached.append(max(rows.stop, cols.stop) - 1)
            return r_squared_block(aln, rows, cols, out=out)

        cache = R2RegionCache(aln, block_fn=block_fn)
        for start in range(0, 100, 2):
            cache.region_matrix(start, start + 39, 150)
        assert max(reached) <= 150
        for start in range(100, 160, 2):
            cache.region_matrix(start, start + 39, 10_000)
        assert max(reached) == aln.n_sites - 1

    def test_no_horizon_fills_exactly_the_region(self):
        aln = random_alignment(20, 200, seed=41)
        reached = []

        def block_fn(rows, cols, *, out):
            reached.append(max(rows.stop, cols.stop) - 1)
            return r_squared_block(aln, rows, cols, out=out)

        cache = R2RegionCache(aln, block_fn=block_fn)
        for start in range(0, 100, 3):
            cache.region_matrix(start, start + 39)
            assert reached[-1] == start + 39

    def test_reset_drops_filled_values(self):
        aln = random_alignment(20, 200, seed=43)
        source = _CountingBlock(aln)
        cache = R2RegionCache(aln, block_fn=source)
        cache.region_matrix(0, 39, 199)
        cache.region_matrix(2, 41, 199)
        calls = source.calls
        cache.reset()
        cache.region_matrix(4, 43, 199)
        assert source.calls == calls + 1
        assert cache.stats.entries_reused == 38 * 38
