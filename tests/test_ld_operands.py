"""Tests for the LD operand-plane layer and the production r² fill.

Covers the invariants: operand planes are materialized once per
alignment and shared, the production GEMM fill (and every consumer of
it: region cache, scan) is bitwise identical to the word-level packed
popcount reference, and the blocked popcount kernel is exact on awkward
shapes.
"""

import gc
import mmap
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.grid import GridSpec
from repro.core.reuse import R2RegionCache
from repro.core.scan import OmegaConfig, OmegaPlusScanner
from repro.datasets.alignment import SNPAlignment
from repro.datasets.generators import haplotype_block_alignment, random_alignment
from repro.datasets.missing import MaskedAlignment
from repro.datasets.packed import PackedAlignment
from repro.errors import LDError
from repro.ld.gemm import cooccurrence_gemm, r_squared_block
from repro.ld.operands import (
    DEFAULT_MAX_GEMM_PLANE_BYTES,
    LDBackendFiller,
    LDOperands,
    gemm_plane_dtype,
    operands_for,
)
from repro.ld.packed_kernels import (
    cooccurrence_block_packed,
    r_squared_block_packed,
)


def _alignment(n_samples: int, n_sites: int = 120, seed: int = 7):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2, size=(n_samples, n_sites)).astype(np.uint8)
    positions = np.arange(1.0, n_sites + 1.0)
    return SNPAlignment(matrix, positions, float(n_sites + 1))


class TestLDOperands:
    def test_planes_are_cached(self):
        aln = random_alignment(20, 60, seed=1)
        ops = LDOperands(aln)
        assert ops.gemm_plane() is ops.gemm_plane()
        assert ops.packed() is ops.packed()
        assert ops.derived_counts() is ops.derived_counts()
        np.testing.assert_array_equal(
            ops.derived_counts(), aln.derived_counts()
        )

    def test_gemm_columns_is_view_of_plane(self):
        aln = random_alignment(20, 60, seed=2)
        ops = LDOperands(aln)
        cols = ops.gemm_columns(10, 30)
        assert cols.base is ops.gemm_plane()
        np.testing.assert_array_equal(
            cols, aln.matrix[:, 10:30].astype(np.float64)
        )

    def test_gemm_plane_lives_on_its_own_mapping(self):
        # Freed planes go back to the OS instead of leaving heap holes.
        aln = random_alignment(20, 60, seed=4)
        plane = LDOperands(aln).gemm_plane()
        assert isinstance(plane.base, mmap.mmap)
        assert plane.tobytes() == aln.matrix.astype(plane.dtype).tobytes()

    def test_over_cap_falls_back_to_slice_conversion(self):
        aln = random_alignment(20, 60, seed=3)
        ops = LDOperands(aln, max_gemm_plane_bytes=8)
        assert ops.gemm_plane() is None
        cols = ops.gemm_columns(5, 25)
        assert cols.base is None  # fresh conversion, not a view
        np.testing.assert_array_equal(
            cols, aln.matrix[:, 5:25].astype(np.float64)
        )
        # The blocked fill stays bitwise identical above the cap.
        filler = LDBackendFiller(ops)
        np.testing.assert_array_equal(
            filler(slice(0, 40), slice(20, 60)),
            r_squared_block(aln, slice(0, 40), slice(20, 60)),
        )

    def test_default_cap_is_generous(self):
        assert DEFAULT_MAX_GEMM_PLANE_BYTES >= 1 << 30

    def test_operands_for_memoizes_per_alignment(self):
        a = random_alignment(10, 30, seed=4)
        b = random_alignment(10, 30, seed=5)
        assert operands_for(a) is operands_for(a)
        assert operands_for(a) is not operands_for(b)

    def test_nbytes_counts_materialized_planes_only(self):
        aln = random_alignment(10, 30, seed=7)
        ops = LDOperands(aln)
        assert ops.nbytes() == 0
        ops.packed()
        mid = ops.nbytes()
        assert mid > 0
        ops.gemm_plane()
        assert ops.nbytes() > mid


class TestOperandsLifetime:
    """The memo shares an instance while someone holds it, and lets go
    of it (planes and alignment) once nobody does."""

    def test_memo_does_not_keep_operands_alive(self):
        aln = random_alignment(10, 30, seed=8)
        ops = operands_for(aln)
        ops.gemm_plane()
        ref = weakref.ref(ops)
        del ops
        gc.collect()
        assert ref() is None

    def test_memo_does_not_keep_alignment_alive(self):
        aln = random_alignment(10, 30, seed=9)
        filler = LDBackendFiller(operands_for(aln))
        filler(slice(0, 5), slice(0, 10))
        ref = weakref.ref(aln)
        del aln, filler
        gc.collect()
        assert ref() is None

    def test_holder_keeps_the_shared_instance(self):
        aln = random_alignment(10, 30, seed=10)
        filler = LDBackendFiller(operands_for(aln))
        assert operands_for(aln) is filler.operands


def _float64_reference(aln, rows: slice, cols: slice) -> np.ndarray:
    """r² block from a float64 GEMM and the full-shape broadcast tail,
    written out here as the reference the float32 plane must match."""
    a = aln.matrix.astype(np.float64)
    n11 = a[:, rows].T @ a[:, cols]
    counts = aln.matrix.sum(axis=0).astype(np.float64)
    n = float(aln.n_samples)
    p_i = np.broadcast_to(counts[rows, None], n11.shape) / n
    p_j = np.broadcast_to(counts[None, cols], n11.shape) / n
    denom = (p_i * (1.0 - p_i)) * (p_j * (1.0 - p_j))
    bad = denom <= 0.0
    num = n11 / n - p_i * p_j
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(bad, 0.0, (num * num) / np.where(bad, 1.0, denom))
    return np.clip(r2, 0.0, 1.0)


class _SamplesOnly:
    """An alignment stand-in with a sample count but no matrix."""

    def __init__(self, n_samples: int, n_sites: int = 100):
        self.n_samples = n_samples
        self.n_sites = n_sites


class TestFloat32Plane:
    """Below 2**24 samples the GEMM plane is float32 and every fill is
    byte-identical to the float64 formulation."""

    @pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 1000])
    def test_fills_match_float64_reference(self, n_samples):
        aln = _alignment(n_samples, n_sites=90, seed=n_samples + 40)
        ops = LDOperands(aln)
        assert ops.gemm_plane().dtype == np.float32
        filler = LDBackendFiller(ops)
        for rows, cols in [
            (slice(0, 90), slice(0, 90)),
            (slice(10, 16), slice(3, 90)),
            (slice(40, 41), slice(0, 45)),
        ]:
            want = _float64_reference(aln, rows, cols).tobytes()
            assert filler(rows, cols).tobytes() == want
            assert r_squared_block(aln, rows, cols).tobytes() == want
        np.testing.assert_array_equal(
            cooccurrence_gemm(aln, operands=ops),
            aln.matrix.T.astype(np.int64) @ aln.matrix.astype(np.int64),
        )

    def test_over_cap_slices_use_the_plane_dtype(self):
        aln = _alignment(70, n_sites=50, seed=44)
        ops = LDOperands(aln, max_gemm_plane_bytes=8)
        assert ops.gemm_plane() is None
        assert ops.gemm_columns(5, 25).dtype == np.float32
        want = _float64_reference(aln, slice(0, 30), slice(20, 50))
        got = LDBackendFiller(ops)(slice(0, 30), slice(20, 50))
        assert got.tobytes() == want.tobytes()

    @given(
        n_samples=st.integers(1, 1200),
        n_sites=st.integers(2, 50),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_matches_float64_reference(
        self, n_samples, n_sites, seed
    ):
        aln = _alignment(n_samples, n_sites=n_sites, seed=seed)
        rows, cols = slice(0, max(1, n_sites // 2)), slice(n_sites // 3, n_sites)
        got = LDBackendFiller(LDOperands(aln))(rows, cols)
        assert got.tobytes() == _float64_reference(aln, rows, cols).tobytes()

    def test_dtype_rule_at_the_exactness_limit(self):
        assert gemm_plane_dtype(2**24) == np.float32
        assert gemm_plane_dtype(2**24 + 1) == np.float64
        assert LDOperands(_SamplesOnly(2**24)).gemm_dtype == np.float32
        assert LDOperands(_SamplesOnly(2**24 + 1)).gemm_dtype == np.float64

    def test_plane_cap_counts_the_plane_dtype(self):
        # 4 bytes x 2**24 samples x 100 sites is over the default cap:
        # refused before the (absent) matrix is touched.
        assert LDOperands(_SamplesOnly(2**24)).gemm_plane() is None
        small = LDOperands(
            _alignment(64, n_sites=10, seed=45),
            max_gemm_plane_bytes=4 * 64 * 10,
        )
        assert small.gemm_plane() is not None


class TestBlockedPackedKernel:
    @pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 130, 1000])
    def test_cooccurrence_exact(self, n_samples):
        aln = _alignment(n_samples, n_sites=40, seed=n_samples)
        packed = PackedAlignment.from_alignment(aln)
        n11 = cooccurrence_block_packed(packed.words[:25], packed.words[10:40])
        a = aln.matrix.astype(np.int64)
        expected = a[:, :25].T @ a[:, 10:40]
        assert n11.dtype == np.uint32
        np.testing.assert_array_equal(n11.astype(np.int64), expected)

    def test_empty_shapes(self):
        empty = np.zeros((0, 3), dtype=np.uint64)
        other = np.zeros((5, 3), dtype=np.uint64)
        assert cooccurrence_block_packed(empty, other).shape == (0, 5)
        assert cooccurrence_block_packed(other, empty).shape == (5, 0)
        zero_words = np.zeros((4, 0), dtype=np.uint64)
        np.testing.assert_array_equal(
            cooccurrence_block_packed(zero_words, zero_words),
            np.zeros((4, 4), dtype=np.uint32),
        )

    def test_rejects_mismatched_word_counts(self):
        with pytest.raises(LDError, match="word counts"):
            cooccurrence_block_packed(
                np.zeros((2, 3), dtype=np.uint64),
                np.zeros((2, 4), dtype=np.uint64),
            )

    def test_rejects_wrong_dtype(self):
        with pytest.raises(LDError, match="uint64"):
            cooccurrence_block_packed(
                np.zeros((2, 3), dtype=np.int64),
                np.zeros((2, 3), dtype=np.uint64),
            )


class _PackedReferenceBlocks:
    """``block_fn`` serving the word-level popcount reference."""

    def __init__(self, alignment):
        self.packed = PackedAlignment.from_alignment(alignment)

    def __call__(self, rows, cols, *, out):
        out[...] = r_squared_block_packed(self.packed, rows, cols)
        return out


class TestBackendBitIdentity:
    """The production GEMM fill equals the packed popcount reference,
    byte for byte."""

    @pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 1000])
    def test_fixed_sample_ladder(self, n_samples):
        aln = _alignment(n_samples, n_sites=80, seed=n_samples + 1)
        self._assert_fill_matches_packed_reference(aln)

    def test_monomorphic_columns(self):
        aln = _alignment(50, n_sites=60, seed=13)
        matrix = aln.matrix.copy()
        matrix[:, 5] = 0  # all-ancestral site
        matrix[:, 17] = 1  # all-derived site
        aln = SNPAlignment(matrix, aln.positions, aln.length)
        self._assert_fill_matches_packed_reference(aln)

    def test_imputed_missing_alignment(self):
        base = _alignment(40, n_sites=70, seed=14)
        rng = np.random.default_rng(15)
        mask = rng.random(base.matrix.shape) < 0.15
        aln = MaskedAlignment.from_alignment(base, mask).impute_major()
        self._assert_fill_matches_packed_reference(aln)

    @given(
        n_samples=st.sampled_from([1, 63, 64, 65, 1000]),
        n_sites=st.integers(2, 60),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_bitwise_identical(self, n_samples, n_sites, seed):
        aln = _alignment(n_samples, n_sites=n_sites, seed=seed)
        self._assert_fill_matches_packed_reference(aln)

    @staticmethod
    def _assert_fill_matches_packed_reference(aln):
        n = aln.n_sites
        rows, cols = slice(0, max(1, n // 2)), slice(n // 3, n)
        want = r_squared_block_packed(
            PackedAlignment.from_alignment(aln), rows, cols
        ).tobytes()
        assert LDBackendFiller(operands_for(aln))(rows, cols).tobytes() == want
        assert r_squared_block(aln, rows, cols).tobytes() == want

    def test_region_cache_matches_packed_reference(self):
        aln = haplotype_block_alignment(30, 100, seed=21)
        cache = R2RegionCache(aln)
        packed = PackedAlignment.from_alignment(aln)
        for start, stop in [(0, 40), (20, 70), (60, 99)]:
            sites = slice(start, stop + 1)
            want = r_squared_block_packed(packed, sites, sites)
            got = cache.region_matrix(start, stop)
            assert got.tobytes() == want.tobytes()

    def test_scan_reports_identical_across_backends(self):
        """A scan over the production fill reports the same bits as one
        whose region cache is fed by the packed reference."""
        aln = haplotype_block_alignment(30, 150, seed=23)
        config = OmegaConfig(
            grid=GridSpec(n_positions=12, max_window=aln.length / 3)
        )
        ref = OmegaPlusScanner(
            config, block_fn=_PackedReferenceBlocks(aln)
        ).scan(aln)
        got = OmegaPlusScanner(config).scan(aln)
        np.testing.assert_array_equal(got.positions, ref.positions)
        assert got.omegas.tobytes() == ref.omegas.tobytes()
        np.testing.assert_array_equal(got.left_borders_bp, ref.left_borders_bp)
        np.testing.assert_array_equal(
            got.right_borders_bp, ref.right_borders_bp
        )


class TestFillCounter:
    def test_fills_counted(self):
        aln = random_alignment(10, 40, seed=34)
        filler = LDBackendFiller(operands_for(aln))
        with obs.scoped_metrics() as registry:
            filler(slice(0, 10), slice(0, 10))
            filler(slice(0, 10), slice(10, 20))
            snap = registry.snapshot()
        assert snap["counters"]["ld.fills"] == 2
