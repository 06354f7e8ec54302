"""Unit + property tests for the omega statistic (Eq. 2)."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.omega as omega_mod
from repro.core.dp import SumMatrix
from repro.core.omega import (
    DENOMINATOR_OFFSET,
    omega_brute_force,
    omega_from_sums,
    omega_max_at_split,
    omega_split_matrix,
)
from repro.core.reuse import SumMatrixCache
from repro.datasets.alignment import SNPAlignment
from repro.datasets.generators import (
    haplotype_block_alignment,
    random_alignment,
    sweep_signature_alignment,
)
from repro.errors import ScanConfigError
from repro.ld.gemm import r_squared_matrix


class TestOmegaFromSums:
    def test_hand_computed(self):
        # l = 3, r = 2: C(3,2)+C(2,2) = 4 within pairs, 6 cross pairs
        omega = omega_from_sums(2.0, 1.0, 0.6, 3, 2, eps=0.0)
        expected = ((2.0 + 1.0) / 4.0) / (0.6 / 6.0)
        assert omega == pytest.approx(expected)

    def test_eps_guards_zero_cross(self):
        omega = omega_from_sums(1.0, 1.0, 0.0, 3, 3)
        assert np.isfinite(omega)
        assert omega == pytest.approx((2.0 / 6.0) / DENOMINATOR_OFFSET)

    def test_both_singleton_windows_zero(self):
        assert omega_from_sums(0.0, 0.0, 0.5, 1, 1) == 0.0

    def test_one_singleton_window(self):
        # l = 1 contributes no within pairs but normalization uses C(r,2)
        omega = omega_from_sums(0.0, 3.0, 1.2, 1, 4, eps=0.0)
        expected = (3.0 / 6.0) / (1.2 / 4.0)
        assert omega == pytest.approx(expected)

    def test_vectorized_broadcast(self):
        out = omega_from_sums(
            np.array([1.0, 2.0]), 1.0, np.array([0.5, 0.5]), 3, 3
        )
        assert out.shape == (2,)
        assert out[1] > out[0]

    def test_rejects_zero_window(self):
        with pytest.raises(ScanConfigError):
            omega_from_sums(1.0, 1.0, 1.0, 0, 3)

    def test_higher_cross_ld_lowers_omega(self):
        low = omega_from_sums(2.0, 2.0, 0.1, 4, 4)
        high = omega_from_sums(2.0, 2.0, 3.0, 4, 4)
        assert low > high


class TestBruteForceOracle:
    def test_matches_vectorized_single(self, small_alignment):
        r2 = r_squared_matrix(small_alignment)
        sm = SumMatrix(r2)
        for a, c, b in [(0, 10, 30), (5, 20, 40), (2, 3, 6)]:
            bf = omega_brute_force(r2, a, c, b)
            res = omega_max_at_split(sm, np.array([a]), c, np.array([b]))
            assert res.omega == pytest.approx(bf, rel=1e-9)

    def test_rejects_bad_geometry(self, small_alignment):
        r2 = r_squared_matrix(small_alignment)
        with pytest.raises(ScanConfigError):
            omega_brute_force(r2, 5, 4, 10)
        with pytest.raises(ScanConfigError):
            omega_brute_force(r2, 0, 10, 10)
        with pytest.raises(ScanConfigError):
            omega_brute_force(r2, 0, 10, 999)


class TestSplitMatrix:
    def test_shape_and_orientation(self, small_alignment):
        r2 = r_squared_matrix(small_alignment)
        sm = SumMatrix(r2)
        li = np.array([0, 5, 10])
        rj = np.array([30, 40])
        scores = omega_split_matrix(sm, li, 20, rj)
        assert scores.shape == (2, 3)
        for jj, j in enumerate(rj):
            for ii, i in enumerate(li):
                bf = omega_brute_force(r2, int(i), 20, int(j))
                assert scores[jj, ii] == pytest.approx(bf, rel=1e-9)

    def test_empty_gives_empty(self, small_alignment):
        sm = SumMatrix(r_squared_matrix(small_alignment))
        out = omega_split_matrix(sm, np.array([], dtype=int), 10, np.array([20]))
        assert out.shape == (1, 0)

    def test_scores_non_negative(self, small_alignment):
        r2 = r_squared_matrix(small_alignment)
        sm = SumMatrix(r2)
        li = np.arange(0, 21)
        rj = np.arange(21, 60)
        scores = omega_split_matrix(sm, li, 20, rj)
        assert (scores >= 0).all()


class TestOmegaMax:
    def test_max_is_argmax(self, small_alignment):
        r2 = r_squared_matrix(small_alignment)
        sm = SumMatrix(r2)
        li = np.arange(0, 15)
        rj = np.arange(16, 50)
        res = omega_max_at_split(sm, li, 15, rj)
        scores = omega_split_matrix(sm, li, 15, rj)
        assert res.omega == pytest.approx(scores.max())
        assert res.n_evaluations == scores.size
        bf = omega_brute_force(r2, res.left_border, 15, res.right_border)
        assert res.omega == pytest.approx(bf, rel=1e-9)

    def test_empty_candidates(self, small_alignment):
        sm = SumMatrix(r_squared_matrix(small_alignment))
        res = omega_max_at_split(sm, np.array([], dtype=int), 5, np.array([10]))
        assert res.omega == 0.0
        assert res.left_border == -1
        assert res.n_evaluations == 0

    def test_sweep_signal_beats_random(self):
        """omega at the centre of a planted sweep must dominate omega on
        an LD-free alignment of the same shape — the statistic's purpose."""
        sweep = sweep_signature_alignment(60, 200, seed=5)
        neutral = random_alignment(60, 200, length=sweep.length, seed=5)

        def centre_omega(aln):
            r2 = r_squared_matrix(aln)
            sm = SumMatrix(r2)
            c = aln.n_sites // 2
            li = np.arange(0, c - 1)
            rj = np.arange(c + 2, aln.n_sites)
            return omega_max_at_split(sm, li, c, rj).omega

        assert centre_omega(sweep) > 5 * centre_omega(neutral)

    @given(
        n_sites=st.integers(6, 20),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_vectorized_equals_brute(self, n_sites, seed):
        aln = random_alignment(10, n_sites, seed=seed)
        r2 = r_squared_matrix(aln)
        sm = SumMatrix(r2)
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, n_sites - 2))
        a = int(rng.integers(0, c + 1))
        b = int(rng.integers(c + 1, n_sites))
        bf = omega_brute_force(r2, a, c, b)
        res = omega_max_at_split(sm, np.array([a]), c, np.array([b]))
        assert res.omega == pytest.approx(bf, rel=1e-9, abs=1e-12)


def _dyadic_sums(rng, w):
    """SumMatrix over r² values in {0, 1/8, ..., 1}: every prefix sum and
    window sum is exact, so exact ties and exact zero cross sums occur."""
    r2 = np.tril(rng.integers(0, 9, size=(w, w)) / 8.0, k=-1)
    return SumMatrix(r2 + r2.T)


def _kernel_matches_reference(sums, li, c, rj, eps=DENOMINATOR_OFFSET):
    """Assert omega_max_at_split equals np.argmax over the full-matrix
    reference byte for byte; returns the winning (row, column)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = omega_split_matrix(sums, li, c, rj, eps=eps)
        got = omega_max_at_split(sums, li, c, rj, eps=eps)
    jj, ii = np.unravel_index(int(np.argmax(scores)), scores.shape)
    assert np.float64(got.omega).tobytes() == scores[jj, ii].tobytes()
    assert got.left_border == li[ii] and got.right_border == rj[jj]
    assert got.n_evaluations == scores.size
    return int(jj), int(ii)


class TestPanelKernel:
    """The row-panel kernel against the full-matrix reference."""

    def test_single_row_panels(self, monkeypatch):
        monkeypatch.setattr(omega_mod, "PANEL_ELEMENTS", 8)
        rng = np.random.default_rng(3)
        sums = SumMatrix(r_squared_matrix(random_alignment(20, 70, seed=3)))
        li, rj = np.arange(5, 36), np.arange(36, 70)  # L = 31 > 8
        _kernel_matches_reference(sums, li, 35, rj)
        _kernel_matches_reference(_dyadic_sums(rng, 70), li, 35, rj)

    @pytest.mark.parametrize("panel", [7, 16, 45, 1 << 15])
    def test_ties_span_panel_edges(self, monkeypatch, panel):
        monkeypatch.setattr(omega_mod, "PANEL_ELEMENTS", panel)
        li, rj = np.arange(0, 15), np.arange(15, 40)
        # Constant r²: every split scores the same, so the maximum ties
        # across every panel edge and the first element must win.
        r2 = np.full((40, 40), 0.5)
        assert _kernel_matches_reference(SumMatrix(r2), li, 14, rj) == (0, 0)
        rng = np.random.default_rng(panel)
        for _ in range(20):
            _kernel_matches_reference(_dyadic_sums(rng, 40), li, 14, rj)

    def test_first_nan_in_later_panel(self, monkeypatch):
        monkeypatch.setattr(omega_mod, "PANEL_ELEMENTS", 20)
        r2 = np.tril(
            np.random.default_rng(5).integers(1, 9, size=(40, 40)) / 8.0, k=-1
        )
        r2[20, 19] = 0.0  # the l = r = 1 split at c = 19 has Σ_LR = 0
        sums = SumMatrix(r2 + r2.T)
        li = np.arange(5, 20)  # L = 15: one row per panel
        rj = np.arange(39, 19, -1)  # row of j = c + 1 comes last
        jj, _ = _kernel_matches_reference(sums, li, 19, rj, eps=0.0)
        with np.errstate(invalid="ignore"):
            scores = omega_split_matrix(sums, li, 19, rj, eps=0.0)
        assert np.isnan(scores).sum() == 1 and np.isnan(scores[-1, -1])
        assert jj == rj.size - 1

    @pytest.mark.parametrize("row", [0, 9, 19])
    def test_single_snp_flanks_in_any_panel(self, monkeypatch, row):
        """min_flank_snps=1 admits the l = r = 1 split; its patched cell
        may sit in the first, a middle or the last panel."""
        monkeypatch.setattr(omega_mod, "PANEL_ELEMENTS", 30)
        rng = np.random.default_rng(row)
        sums = _dyadic_sums(rng, 40)
        li = np.arange(5, 20)
        rj = np.insert(np.arange(21, 40), row, 20)  # j = c + 1 at `row`
        for eps in (DENOMINATOR_OFFSET, 0.0):
            _kernel_matches_reference(sums, li, 19, rj, eps=eps)
        plain = SumMatrix(r_squared_matrix(random_alignment(16, 40, seed=row)))
        _kernel_matches_reference(plain, li, 19, rj)
        # A prefix whose one-SNP windows [c..c] and [c+1..c+1] sum to 0.5
        # each: only the patched numerator keeps that split at ω = 0.
        prefix = np.zeros((41, 41))
        prefix[19, 19] = prefix[21, 21] = 1.0
        _kernel_matches_reference(SumMatrix.from_prefix(prefix, 40), li, 19, rj)

    @given(seed=st.integers(0, 10_000), panel=st.integers(1, 300))
    @settings(max_examples=40, deadline=None)
    def test_property_random_border_sets(self, seed, panel):
        """Contiguous, permuted, subsampled and duplicated border sets."""
        rng = np.random.default_rng(seed)
        w = int(rng.integers(4, 60))
        c = int(rng.integers(0, w - 1))
        sums = (
            _dyadic_sums(rng, w)
            if rng.random() < 0.5
            else SumMatrix(r_squared_matrix(random_alignment(12, w, seed=seed)))
        )
        li = np.arange(int(rng.integers(0, c + 1)), c + 1)
        rj = np.arange(c + 1, int(rng.integers(c + 1, w)) + 1)
        shape = rng.integers(0, 4)
        if shape == 1:
            li, rj = rng.permutation(li), rng.permutation(rj)
        elif shape == 2:
            li = np.sort(rng.choice(li, size=int(rng.integers(1, li.size + 1))))
            rj = np.sort(rng.choice(rj, size=int(rng.integers(1, rj.size + 1))))
        elif shape == 3:
            li = rng.choice(li, size=li.size + 2)
            rj = rng.choice(rj, size=rj.size + 2)
        with patch.object(omega_mod, "PANEL_ELEMENTS", panel):
            for eps in (DENOMINATOR_OFFSET, 0.0):
                _kernel_matches_reference(sums, li, c, rj, eps=eps)


def _linked_sums(w, blocks):
    """SumMatrix over r² = 1 within each inclusive site range of
    ``blocks`` and 0 elsewhere: exact sums with long flat stretches."""
    r2 = np.zeros((w, w))
    for a, b in blocks:
        r2[a : b + 1, a : b + 1] = 1.0
    return SumMatrix(r2)


def _anchored_sums(rng, w):
    """Linked blocks read far from the prefix anchor: the block prefix
    sits on a large constant plus row and column terms (r² between
    earlier sites and the region), so every window sum rounds, and flat
    stretches and zero cross sums come out a few ulps apart."""
    r2 = np.zeros((w, w))
    for _ in range(int(rng.integers(1, 5))):
        a = int(rng.integers(0, w - 2))
        rows, cols = rng.integers(2, 11, size=2)
        r2[a : a + rows, a : a + cols] = 1.0
    r2 = np.maximum(r2, r2.T)
    np.fill_diagonal(r2, 0.0)
    prefix = np.zeros((w + 1, w + 1))
    prefix[1:, 1:] = r2.cumsum(axis=0).cumsum(axis=1)
    k = np.arange(w + 1.0)
    prefix += 2.0**20 + rng.random() + rng.random() * (k[:, None] + k)
    return SumMatrix.from_prefix(prefix, w)


def _block_ld_sums(rng, w):
    """r² of an alignment whose sites repeat a few random columns in
    runs: 1 within a run, random values between runs."""
    base = rng.integers(0, 2, size=(24, w)).astype(np.uint8)
    cuts = np.sort(rng.choice(np.arange(1, w), size=w // 6, replace=False))
    matrix = base[:, np.repeat(np.r_[0, cuts], np.diff(np.r_[0, cuts, w]))]
    matrix[0] = 1 - matrix[1]  # every column polymorphic
    aln = SNPAlignment(matrix, np.arange(w) * 10.0 + 1.0, length=10.0 * w)
    return SumMatrix(r_squared_matrix(aln))


def _cache_served_sums(rng, w):
    """Views a SumMatrixCache serves on a stride-3 walk of 40-site regions
    (a build, appends, and a live square moved to the origin)."""
    aln = haplotype_block_alignment(30, w + 60, block_size=15, seed=rng)
    r2 = r_squared_matrix(aln)
    cache = SumMatrixCache()
    cache.reset(tuple(range(0, 61, 3)))
    for start in range(0, 61, 3):
        stop = start + w - 1
        region = r2[start : stop + 1, start : stop + 1]
        yield cache.region_sums(start, stop, region)


def _pruned_cases(kind, seed):
    """``(sums, left borders, c, right borders)`` runs over 20-80-site
    regions, one- and two-SNP minimum flanks alternating."""
    rng = np.random.default_rng(seed)
    w = int(rng.integers(20, 81))
    if kind == "block_ld":
        sums = [_block_ld_sums(rng, w)]
        sums.append(SumMatrix(r_squared_matrix(
            haplotype_block_alignment(30, w, block_size=8, seed=seed)
        )))
    elif kind == "zero":
        sums = [SumMatrix(np.zeros((w, w)))]
    elif kind == "one":
        sums = [SumMatrix(np.ones((w, w)))]
    elif kind == "anchored":
        sums = [_anchored_sums(rng, w) for _ in range(3)]
    elif kind == "dyadic":
        sums = [_dyadic_sums(rng, w) for _ in range(3)]
    elif kind == "cache":  # each view is read before the next is served
        w = 40
        sums = _cache_served_sums(rng, w)
    for k, s in enumerate(sums):
        c = int(rng.integers(w // 4, 3 * w // 4))
        flank = 1 + (seed + k) % 2
        lo = int(rng.integers(0, c // 2 + 1))
        hi = int(rng.integers(c + flank + (w - c) // 2, w))
        yield s, np.arange(lo, c + 2 - flank), c, np.arange(c + flank, hi)


_KINDS = ["block_ld", "zero", "one", "dyadic", "cache", "anchored"]


class TestPrunedKernel:
    """The tile-bound pruned path against the full-matrix reference. The
    gate is patched down so that 20-80-site grids take it, in 8 x 8 tiles
    and 64-row bands, or small tiles and bands so that tile and band
    edges fall inside those grids."""

    @pytest.fixture(
        autouse=True,
        params=[(8, 8), (3, 1), (4, 2)],
        ids=lambda p: f"{p[0]}x{p[1]}",
    )
    def geometry(self, request, monkeypatch):
        tile, band = request.param
        monkeypatch.setattr(omega_mod, "PRUNE_MIN_SCORES", 1)
        monkeypatch.setattr(omega_mod, "TILE", tile)
        monkeypatch.setattr(omega_mod, "BAND_TILES", band)
        real = omega_mod._pruned_max
        self.pruned = 0

        def spy(*args):
            self.pruned += 1
            return real(*args)

        monkeypatch.setattr(omega_mod, "_pruned_max", spy)

    def _matches(self, sums, li, c, rj, eps=DENOMINATOR_OFFSET):
        before = self.pruned
        jj, ii = _kernel_matches_reference(sums, li, c, rj, eps=eps)
        assert self.pruned == before + 1
        return jj, ii

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference(self, kind, seed):
        for sums, li, c, rj in _pruned_cases(kind, seed):
            self._matches(sums, li, c, rj)

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_no_score_exceeds_its_tile_bound(self, kind, seed):
        t = omega_mod.TILE
        for sums, li, c, rj in _pruned_cases(kind, seed):
            ops = sums.split_operands(li, c, rj)
            bounds = omega_mod._tile_bounds(
                ops, omega_mod._rounding_margin(sums), DENOMINATOR_OFFSET
            )
            scores = omega_split_matrix(sums, li, c, rj)
            n_r, n_l = scores.shape
            tiles = np.full((bounds.shape[0] * t, bounds.shape[1] * t), -1.0)
            tiles[:n_r, :n_l] = scores
            tiles = tiles.reshape(bounds.shape[0], t, bounds.shape[1], t)
            assert (tiles.max(axis=(1, 3)) <= bounds).all()

    def test_ties_across_tile_and_band_edges(self):
        """Linked left and right blocks without cross LD: every split
        whose windows stay inside the blocks scores exactly 1 / ε. With
        blocks over the whole region the first element must win over
        ties in every tile and band; with shorter blocks the first tie
        sits inside a tile, mostly off the seed sample."""
        li, rj = np.arange(0, 30), np.arange(31, 60)
        sums = _linked_sums(60, [(0, 30), (31, 59)])
        assert self._matches(sums, li, 30, rj) == (0, 0)
        for edge in (4, 9, 17):
            sums = _linked_sums(60, [(30 - edge, 30), (31, 31 + edge)])
            self._matches(sums, li, 30, rj)
        rng = np.random.default_rng(11)
        li, rj = np.arange(0, 25), np.arange(25, 50)
        for _ in range(20):
            self._matches(_dyadic_sums(rng, 50), li, 24, rj)

    def test_bound_equal_to_maximum_is_kept(self, monkeypatch):
        """A tile whose bound equals the standing maximum may hold an
        earlier tie, so only a bound strictly below it is skipped.

        Sites 14..19 are linked and so are 20 and 21; the sums are exact,
        so the margin can be 0 and tile bounds meet scores. Every split
        with a two-SNP right window and a left window inside the block
        scores 1 / ε. The seed samples the tie at column 15; the first
        one, column 14, ends a tile whose bound is exactly 1 / ε."""
        monkeypatch.setattr(omega_mod, "TILE", 3)
        monkeypatch.setattr(omega_mod, "BAND_TILES", 1)
        monkeypatch.setattr(omega_mod, "PREFIX_ULPS", 0.0)
        sums = _linked_sums(40, [(14, 19), (20, 21)])
        li, rj = np.arange(0, 19), np.arange(21, 40)
        assert self._matches(sums, li, 19, rj) == (0, 14)

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_single_snp_flanks(self, row):
        """min_flank_snps=1: the l = r = 1 split is the grid's top-right
        cell, in the seed sample, the first-row strip or a band."""
        rng = np.random.default_rng(row)
        for sums in (_dyadic_sums(rng, 60), _linked_sums(60, [(10, 50)])):
            li, rj = np.arange(row, 31), np.arange(31, 60 - row)
            self._matches(sums, li, 30, rj)
        # Only the patched numerator keeps that split at ω = 0 here.
        prefix = np.zeros((61, 61))
        prefix[30:, 30:] = 1.0
        prefix[32:, 32:] = 2.0
        li, rj = np.arange(0, 31), np.arange(31, 60)
        self._matches(SumMatrix.from_prefix(prefix, 60), li, 30, rj)

    @pytest.mark.parametrize(
        "shape", ["permuted", "subsampled", "duplicated", "eps0"]
    )
    def test_other_border_sets_stay_exhaustive(self, shape):
        rng = np.random.default_rng(4)
        sums = _dyadic_sums(rng, 60)
        li, rj, eps = np.arange(0, 30), np.arange(30, 60), DENOMINATOR_OFFSET
        if shape == "permuted":
            li = rng.permutation(li)
        elif shape == "subsampled":
            rj = rj[::2]
        elif shape == "duplicated":
            li = np.r_[li, li[-1]]
        else:
            eps = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            got = omega_max_at_split(sums, li, 29, rj, eps=eps)
        assert self.pruned == 0
        assert got.n_scored == got.n_evaluations == li.size * rj.size
        _kernel_matches_reference(sums, li, 29, rj, eps=eps)
