"""Unit + property tests for the OmegaPlus sum matrix M (Eq. 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dp import SumMatrix, build_m_recurrence
from repro.datasets.generators import random_alignment
from repro.errors import ScanConfigError
from repro.ld.gemm import r_squared_matrix


def brute_pair_sum(r2: np.ndarray, a: int, b: int) -> float:
    """Oracle: sum r2 over unordered pairs within [a, b]."""
    total = 0.0
    for i in range(a, b + 1):
        for j in range(a, i):
            total += r2[i, j]
    return total


@pytest.fixture
def r2(small_alignment):
    return r_squared_matrix(small_alignment)


class TestRecurrence:
    def test_base_cases(self, r2):
        m = build_m_recurrence(r2)
        w = r2.shape[0]
        for i in range(w):
            assert m[i, i] == 0.0
        for i in range(1, w):
            assert m[i, i - 1] == pytest.approx(r2[i, i - 1])

    def test_matches_brute_force(self, r2):
        m = build_m_recurrence(r2)
        for a, b in [(0, 5), (3, 10), (0, 20), (15, 25)]:
            assert m[b, a] == pytest.approx(brute_pair_sum(r2, a, b), rel=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ScanConfigError, match="square"):
            build_m_recurrence(np.zeros((3, 4)))

    def test_monotone_in_window_growth(self, r2):
        """Enlarging a window can only add non-negative r2 terms."""
        m = build_m_recurrence(r2)
        w = r2.shape[0]
        for b in range(2, w):
            assert m[b, 0] >= m[b - 1, 0] - 1e-12
            assert m[b, 1] <= m[b, 0] + 1e-12


class TestSumMatrix:
    def test_pair_sum_matches_recurrence(self, r2):
        sm = SumMatrix(r2)
        m = build_m_recurrence(r2)
        for a, b in [(0, 0), (0, 1), (2, 7), (0, 59), (30, 59)]:
            assert sm.pair_sum(a, b) == pytest.approx(m[b, a], abs=1e-9)

    def test_as_matrix_matches_recurrence(self, r2):
        sm = SumMatrix(r2[:20, :20])
        m = build_m_recurrence(r2[:20, :20])
        np.testing.assert_allclose(sm.as_matrix(), np.tril(m), atol=1e-9)

    def test_single_site_window_is_zero(self, r2):
        sm = SumMatrix(r2)
        assert sm.pair_sum(7, 7) == 0.0

    def test_cross_sum_additivity(self, r2):
        """M[b][a] = sum_L + sum_R + sum_LR for every split — the identity
        OmegaPlus's O(1) lookups rely on."""
        sm = SumMatrix(r2)
        a, b = 3, 40
        for c in range(a, b):
            total = sm.pair_sum(a, b)
            parts = (
                sm.pair_sum(a, c)
                + (sm.pair_sum(c + 1, b) if c + 1 <= b else 0.0)
                + sm.cross_sum(a, c, b)
            )
            assert parts == pytest.approx(total, rel=1e-10)

    def test_cross_sum_brute(self, r2):
        sm = SumMatrix(r2)
        a, c, b = 2, 10, 25
        expected = sum(
            r2[i, j] for i in range(c + 1, b + 1) for j in range(a, c + 1)
        )
        assert sm.cross_sum(a, c, b) == pytest.approx(expected, rel=1e-10)

    def test_bounds_checking(self, r2):
        sm = SumMatrix(r2)
        with pytest.raises(ScanConfigError):
            sm.pair_sum(-1, 5)
        with pytest.raises(ScanConfigError):
            sm.pair_sum(0, 60)
        with pytest.raises(ScanConfigError):
            sm.cross_sum(5, 4, 10)
        with pytest.raises(ScanConfigError):
            sm.cross_sum(0, 10, 10)

    def test_left_sums_vectorized(self, r2):
        sm = SumMatrix(r2)
        c = 30
        borders = np.array([0, 5, 12, 30])
        got = sm.left_sums(borders, c)
        for k, i in enumerate(borders):
            assert got[k] == pytest.approx(sm.pair_sum(int(i), c), abs=1e-9)

    def test_right_sums_vectorized(self, r2):
        sm = SumMatrix(r2)
        c = 20
        borders = np.array([21, 25, 40, 59])
        got = sm.right_sums(c, borders)
        for k, j in enumerate(borders):
            assert got[k] == pytest.approx(sm.pair_sum(c + 1, int(j)), abs=1e-9)

    def test_cross_sums_grid(self, r2):
        sm = SumMatrix(r2)
        c = 25
        li = np.array([3, 10, 25])
        rj = np.array([26, 33, 50])
        grid = sm.cross_sums_grid(li, c, rj)
        assert grid.shape == (3, 3)
        for jj, j in enumerate(rj):
            for ii, i in enumerate(li):
                assert grid[jj, ii] == pytest.approx(
                    sm.cross_sum(int(i), c, int(j)), abs=1e-9
                )

    @pytest.mark.parametrize("order", ["run", "shuffled"])
    def test_cross_sums_grid_bitwise_scalar(self, r2, order):
        """The slice path (runs of consecutive borders) and the gather
        path both reproduce cross_sum's four-corner arithmetic exactly."""
        sm = SumMatrix(r2)
        c = 25
        li, rj = np.arange(3, 26), np.arange(26, 51)
        if order == "shuffled":
            rng = np.random.default_rng(0)
            li, rj = rng.permutation(li), rng.permutation(rj)
        grid = sm.cross_sums_grid(li, c, rj)
        want = [[sm.cross_sum(int(i), c, int(j)) for i in li] for j in rj]
        assert grid.tobytes() == np.array(want).tobytes()

    def test_empty_borders(self, r2):
        sm = SumMatrix(r2)
        assert sm.left_sums(np.array([], dtype=int), 5).size == 0
        assert sm.right_sums(5, np.array([], dtype=int)).size == 0
        assert sm.cross_sums_grid(np.array([1]), 5, np.array([], dtype=int)).shape == (0, 1)

    @given(
        n_sites=st.integers(3, 25),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_prefix_equals_recurrence(self, n_sites, seed):
        aln = random_alignment(12, n_sites, seed=seed)
        r2 = r_squared_matrix(aln)
        sm = SumMatrix(r2)
        m = build_m_recurrence(r2)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            a = int(rng.integers(0, n_sites))
            b = int(rng.integers(a, n_sites))
            assert sm.pair_sum(a, b) == pytest.approx(m[b, a], abs=1e-9)


def _signed_sym(rng, n_sites):
    """A symmetric r²-like matrix with exact zeros and negative zeros
    among its [0, 1) entries."""
    r2 = rng.random((n_sites, n_sites))
    r2[rng.random((n_sites, n_sites)) < 0.15] = 0.0
    r2 = np.triu(r2) + np.triu(r2, 1).T
    r2[rng.random((n_sites, n_sites)) < 0.1] = -0.0
    return r2


def _gathered_operands(sums, li, c, rj):
    """The operands by the gathering methods."""
    return (
        sums.left_sums(li, c),
        sums.right_sums(c, rj),
        *sums.cross_sum_terms(li, c, rj),
        (c + 1.0) - li,
        rj - float(c),
    )


def _assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == (
        np.ascontiguousarray(want).tobytes()
    )


def _check_split(sums, li, c, rj):
    """``split_operands`` on run borders against the gathering methods,
    byte for byte, plus the pair counts of ``omega_from_sums``."""
    from repro.core.dp import _is_run

    assert _is_run(li) and _is_run(rj)
    ops = sums.split_operands(li, c, rj)
    direct = sums.run_operands(
        int(li[0]), int(li[-1]), c, int(rj[0]), int(rj[-1])
    )
    for a, b in zip(ops, direct):
        _assert_same_bytes(a, b)
    want = _gathered_operands(sums, li, c, rj)
    names = ("sum_l", "sum_r", "head", "block", "tail", "n_left", "n_right")
    for name, ref in zip(names, want):
        _assert_same_bytes(getattr(ops, name), ref)
    for n, pairs in ((ops.n_left, ops.pairs_l), (ops.n_right, ops.pairs_r)):
        _assert_same_bytes(pairs, n * (n - 1.0) / 2.0)
    # Served views must not let a caller write into the prefix.
    for view in (ops.block, ops.tail, ops.n_left, ops.pairs_r):
        assert not view.flags.writeable
    # The gather route of split_operands (non-run borders) agrees too.
    perm = np.random.default_rng(c).permutation(li.size)
    gathered = sums.split_operands(li[perm], c, rj)
    _assert_same_bytes(gathered.sum_l, ops.sum_l[perm])
    _assert_same_bytes(gathered.block, ops.block[:, perm])
    _assert_same_bytes(gathered.pairs_l, ops.pairs_l[perm])
    return ops


class TestSplitOperands:
    """One ``split_operands`` read per position, byte-equal to the
    gathering methods it replaces on the scan path."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sites=st.integers(3, 160),
        n_positions=st.integers(1, 40),
        window_frac=st.floats(0.05, 0.7),
        min_frac=st.sampled_from([0.0, 0.0, 0.2, 0.6]),
        flank=st.sampled_from([1, 2]),
    )
    @settings(max_examples=120, deadline=None)
    def test_scan_plans_through_cache(
        self, seed, n_sites, n_positions, window_frac, min_frac, flank,
    ):
        """Plans of a real grid (ends of the sequence, minimum windows,
        one- and two-SNP flanks) over prefixes a SumMatrixCache serves:
        fresh builds, appends, live squares moved to the origin, and
        restarts at block starts."""
        from repro.core.grid import GridSpec, build_plans_from_positions
        from repro.core.reuse import SumMatrixCache, dp_resets

        rng = np.random.default_rng(seed)
        r2 = _signed_sym(rng, n_sites)
        positions = np.sort(rng.integers(0, 4 * n_sites, n_sites)).astype(
            np.float64
        )
        span = positions[-1] - positions[0] + 1.0
        spec = GridSpec(
            n_positions=n_positions,
            max_window=window_frac * span,
            min_window=min_frac * window_frac * span,
            min_flank_snps=flank,
        )
        cache = SumMatrixCache()
        plans = build_plans_from_positions(positions, spec)
        resets = dp_resets(plans)
        for k, plan in enumerate(plans):
            if not plan.valid:
                continue
            if k in resets:
                cache.reset(resets[k])
            lo, hi = plan.region_start, plan.region_stop
            sums = cache.region_sums(lo, hi, r2[lo : hi + 1, lo : hi + 1])
            _check_split(
                sums, plan.left_borders - lo, plan.split_index - lo,
                plan.right_borders - lo,
            )

    def test_moved_live_square(self):
        """A 240-site, stride-20 walk moves the cache's live triangle back
        to the origin; the moved prefixes still read byte-equal."""
        from unittest import mock

        import repro.core.reuse as reuse_module
        from repro.core.reuse import SumMatrixCache

        r2 = _signed_sym(np.random.default_rng(7), 420)
        cache = SumMatrixCache()
        with mock.patch.object(
            reuse_module, "_copy_lower", wraps=reuse_module._copy_lower,
        ) as moves:
            for start in range(0, 180, 20):
                stop = start + 239
                sums = cache.region_sums(
                    start, stop, r2[start : stop + 1, start : stop + 1]
                )
                for c, flank in ((119, 1), (119, 2), (1, 1), (237, 2)):
                    li = np.arange(0, c - flank + 2)
                    rj = np.arange(c + flank, 240)
                    _check_split(sums, li, c, rj)
        assert moves.call_count >= 1

    def test_borders_at_region_ends(self):
        r2 = _signed_sym(np.random.default_rng(3), 6)
        sums = SumMatrix(r2)
        for c in range(5):
            for l0 in range(c + 1):
                for r1 in range(c + 1, 6):
                    _check_split(
                        sums, np.arange(l0, c + 1), c, np.arange(c + 1, r1 + 1)
                    )

    def test_range_checks(self):
        sums = SumMatrix(np.zeros((6, 6)))
        for bad in [(-1, 1, 2, 3, 5), (0, 3, 2, 3, 5), (0, 1, 2, 2, 5),
                    (0, 1, 2, 3, 6), (2, 1, 2, 3, 5), (0, 1, 2, 5, 4)]:
            with pytest.raises(ScanConfigError):
                sums.run_operands(*bad)
        with pytest.raises(ScanConfigError):
            sums.split_operands(np.arange(0, 4), 2, np.arange(3, 6))
        with pytest.raises(ScanConfigError):
            sums.split_operands(np.array([0, 2]), 2, np.array([7, 3]))

    def test_empty_borders(self):
        sums = SumMatrix(np.zeros((6, 6)))
        ops = sums.split_operands(np.arange(0), 2, np.arange(3, 6))
        assert ops.block.shape == (3, 0)
        assert ops.sum_l.size == 0 and ops.n_left.size == 0
