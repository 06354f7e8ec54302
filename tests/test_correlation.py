"""Unit + property tests for repro.ld.correlation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generators import random_alignment
from repro.errors import LDError
from repro.ld.correlation import (
    r_squared_from_counts,
    r_squared_pair,
    r_squared_pairs,
)


def reference_r2(col_i: np.ndarray, col_j: np.ndarray) -> float:
    """Squared Pearson correlation computed by numpy.corrcoef (oracle)."""
    c = np.corrcoef(col_i, col_j)[0, 1]
    return float(c * c)


class TestRSquaredFromCounts:
    def test_perfect_ld(self):
        # identical columns: p_i = p_j = p_ij = 0.5 over 4 samples
        r2 = r_squared_from_counts(
            np.array([2]), np.array([2]), np.array([2]), 4
        )
        assert r2[0] == pytest.approx(1.0)

    def test_no_ld_independent(self):
        # p_i = p_j = 0.5, p_ij = 0.25 -> numerator 0
        r2 = r_squared_from_counts(
            np.array([1]), np.array([2]), np.array([2]), 4
        )
        assert r2[0] == pytest.approx(0.0)

    def test_monomorphic_maps_to_zero(self):
        r2 = r_squared_from_counts(
            np.array([0]), np.array([0]), np.array([2]), 4
        )
        assert r2[0] == 0.0

    def test_monomorphic_strict_raises(self):
        with pytest.raises(LDError, match="monomorphic"):
            r_squared_from_counts(
                np.array([0]), np.array([0]), np.array([2]), 4, strict=True
            )

    def test_rejects_zero_samples(self):
        with pytest.raises(LDError):
            r_squared_from_counts(np.array([0]), np.array([0]), np.array([0]), 0)

    @pytest.mark.parametrize(
        "out", [np.empty((2, 2)), np.empty((3, 2), dtype=np.float32)]
    )
    def test_rejects_mismatched_out(self, out):
        """A wrong-shaped ``out``, or one that would round the float64
        result, is refused instead of broadcast or cast into."""
        with pytest.raises(LDError, match="out must be float64"):
            r_squared_from_counts(
                np.ones((3, 2)), np.ones((3, 1)), np.ones((1, 2)), 4, out=out
            )

    def test_clipped_to_unit_interval(self):
        rng = np.random.default_rng(0)
        n = 50
        c_i = rng.integers(1, n, 200)
        c_j = rng.integers(1, n, 200)
        n11 = np.minimum(c_i, c_j)
        r2 = r_squared_from_counts(n11, c_i, c_j, n)
        assert (r2 >= 0).all() and (r2 <= 1).all()

    def test_anticorrelation_is_positive_r2(self):
        # complementary columns: n11 = 0, both freq 0.5 -> r = -1, r2 = 1
        r2 = r_squared_from_counts(
            np.array([0]), np.array([2]), np.array([2]), 4
        )
        assert r2[0] == pytest.approx(1.0)


class TestRSquaredPair:
    def test_matches_corrcoef(self, small_alignment):
        m = small_alignment.matrix
        for i, j in [(0, 1), (3, 17), (10, 59)]:
            expected = reference_r2(m[:, i], m[:, j])
            assert r_squared_pair(small_alignment, i, j) == pytest.approx(
                expected, abs=1e-12
            )

    def test_self_pair_is_one(self, small_alignment):
        assert r_squared_pair(small_alignment, 4, 4) == pytest.approx(1.0)

    def test_symmetric(self, small_alignment):
        a = r_squared_pair(small_alignment, 2, 9)
        b = r_squared_pair(small_alignment, 9, 2)
        assert a == pytest.approx(b)

    def test_out_of_range(self, small_alignment):
        with pytest.raises(LDError):
            r_squared_pair(small_alignment, 0, 999)


class TestRSquaredPairs:
    def test_matches_scalar(self, small_alignment):
        i = np.array([0, 3, 10, 5])
        j = np.array([1, 17, 59, 5])
        batch = r_squared_pairs(small_alignment, i, j)
        for k in range(i.size):
            assert batch[k] == pytest.approx(
                r_squared_pair(small_alignment, int(i[k]), int(j[k])), abs=1e-12
            )

    def test_empty(self, small_alignment):
        out = r_squared_pairs(small_alignment, np.array([]), np.array([]))
        assert out.size == 0

    def test_shape_mismatch(self, small_alignment):
        with pytest.raises(LDError, match="shapes differ"):
            r_squared_pairs(small_alignment, np.array([0, 1]), np.array([0]))

    def test_out_of_range(self, small_alignment):
        with pytest.raises(LDError, match="out of range"):
            r_squared_pairs(small_alignment, np.array([0]), np.array([-1]))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_corrcoef(self, seed):
        aln = random_alignment(15, 10, seed=seed)
        rng = np.random.default_rng(seed + 1)
        i = rng.integers(0, 10, size=5)
        j = rng.integers(0, 10, size=5)
        got = r_squared_pairs(aln, i, j)
        m = aln.matrix
        for k in range(5):
            if i[k] == j[k]:
                continue
            expected = reference_r2(m[:, i[k]], m[:, j[k]])
            assert got[k] == pytest.approx(expected, abs=1e-10)


def _broadcast_r2(n11, c_i, c_j, n_samples):
    """The full-shape formulation: every operand broadcast to the result
    shape before any arithmetic (the reference for the per-site tail)."""
    shape = np.broadcast_shapes(
        np.shape(n11), np.shape(c_i), np.shape(c_j)
    )
    n = float(n_samples)
    p_ij = np.broadcast_to(np.asarray(n11, dtype=np.float64), shape) / n
    p_i = np.broadcast_to(np.asarray(c_i, dtype=np.float64), shape) / n
    p_j = np.broadcast_to(np.asarray(c_j, dtype=np.float64), shape) / n
    denom = (p_i * (1.0 - p_i)) * (p_j * (1.0 - p_j))
    bad = denom <= 0.0
    num = p_ij - p_i * p_j
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(bad, 0.0, (num * num) / np.where(bad, 1.0, denom))
    return np.clip(r2, 0.0, 1.0)


class TestPerSiteTail:
    """Per-site counts shaped (R, 1) / (1, C) give the broadcast
    formulation's bytes, whatever the input layout and n11 dtype."""

    @staticmethod
    def _block(n_samples, n_rows, n_cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, size=(n_samples, n_rows + n_cols))
        a[:, 1] = 0  # monomorphic ancestral
        a[:, n_rows + 2] = 1  # monomorphic derived
        rows, cols = a[:, :n_rows], a[:, n_rows:]
        n11 = rows.T @ cols
        return n11, rows.sum(axis=0), cols.sum(axis=0)

    @pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 1000])
    @pytest.mark.parametrize(
        "dtype", [np.int64, np.uint32, np.float32, np.float64]
    )
    def test_column_row_counts(self, n_samples, dtype):
        n11, c_i, c_j = self._block(n_samples, 17, 23, seed=n_samples)
        want = _broadcast_r2(n11, c_i[:, None], c_j[None, :], n_samples)
        got = r_squared_from_counts(
            n11.astype(dtype), c_i[:, None], c_j[None, :], n_samples
        )
        assert got.dtype == np.float64 and got.shape == (17, 23)
        assert got.tobytes() == want.tobytes()
        # The monomorphic row and column score 0.
        assert not got[1].any() and not got[:, 2].any()

    def test_full_shape_counts(self):
        n11, c_i, c_j = self._block(200, 12, 9, seed=3)
        full_i = np.broadcast_to(c_i[:, None], n11.shape)
        full_j = np.broadcast_to(c_j[None, :], n11.shape)
        want = _broadcast_r2(n11, full_i, full_j, 200)
        got = r_squared_from_counts(n11, full_i, full_j, 200)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == r_squared_from_counts(
            n11, c_i[:, None], c_j[None, :], 200
        ).tobytes()

    def test_one_dimensional_pairs(self):
        n11, c_i, c_j = self._block(90, 10, 10, seed=4)
        i = np.array([0, 1, 3, 9, 4])
        j = np.array([2, 5, 2, 0, 7])
        want = _broadcast_r2(n11[i, j], c_i[i], c_j[j], 90)
        got = r_squared_from_counts(n11[i, j], c_i[i], c_j[j], 90)
        assert got.shape == (5,)
        assert got.tobytes() == want.tobytes()

    def test_inputs_left_untouched(self):
        n11, c_i, c_j = self._block(40, 6, 7, seed=5)
        n11 = n11.astype(np.float64)
        before = n11.copy()
        r_squared_from_counts(n11, c_i[:, None], c_j[None, :], 40)
        np.testing.assert_array_equal(n11, before)

    def test_undefined_denominator_scores_zero(self):
        # A count above n_samples makes p(1 - p) negative: r² 0, as in
        # the broadcast formulation, not the squared numerator.
        n11 = np.array([[3.0, 1.0]])
        c_i, c_j = np.array([[5.0]]), np.array([[3.0, 2.0]])
        got = r_squared_from_counts(n11, c_i, c_j, 4)
        assert got.tobytes() == _broadcast_r2(n11, c_i, c_j, 4).tobytes()
        assert not got.any()

    def test_strict_raises_on_monomorphic_site(self):
        n11, c_i, c_j = self._block(50, 8, 8, seed=6)
        with pytest.raises(LDError, match="monomorphic"):
            r_squared_from_counts(
                n11, c_i[:, None], c_j[None, :], 50, strict=True
            )
        # Without the monomorphic sites strict mode serves the same bytes.
        keep_i, keep_j = np.arange(8) != 1, np.arange(8) != 2
        sub = n11[keep_i][:, keep_j]
        got = r_squared_from_counts(
            sub, c_i[keep_i][:, None], c_j[keep_j][None, :], 50, strict=True
        )
        want = _broadcast_r2(
            sub, c_i[keep_i][:, None], c_j[keep_j][None, :], 50
        )
        assert got.tobytes() == want.tobytes()

    @given(
        n_samples=st.integers(1, 300),
        n_rows=st.integers(1, 12),
        n_cols=st.integers(3, 12),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_matches_broadcast(self, n_samples, n_rows, n_cols, seed):
        n11, c_i, c_j = self._block(n_samples, n_rows, n_cols, seed)
        want = _broadcast_r2(n11, c_i[:, None], c_j[None, :], n_samples)
        got = r_squared_from_counts(
            n11.astype(np.float32), c_i[:, None], c_j[None, :], n_samples
        )
        assert got.tobytes() == want.tobytes()
