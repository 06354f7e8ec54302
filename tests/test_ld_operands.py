"""Tests for the LD operand-plane layer and the auto backend.

Covers the tentpole invariants: operand planes are materialized once per
alignment and shared, every backend (gemm / packed / auto / the broadcast
reference kernel) produces bitwise-identical r², the blocked popcount
kernel is exact on awkward shapes, and the shared packed segment never
leaks.
"""

import glob

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.costmodel import (
    calibrate_ld_crossover,
    get_cost_model,
    reset_cost_model,
)
from repro.core.reuse import R2RegionCache
from repro.core.scan import scan
from repro.datasets.alignment import SHM_NAME_PREFIX, SNPAlignment
from repro.datasets.generators import haplotype_block_alignment, random_alignment
from repro.datasets.missing import MaskedAlignment
from repro.datasets.packed import (
    PackedAlignment,
    SharedPackedWords,
)
from repro.errors import AlignmentError, LDError, ScanConfigError
from repro.ld.gemm import r_squared_block
from repro.ld.operands import (
    DEFAULT_MAX_GEMM_PLANE_BYTES,
    LDBackendFiller,
    LDOperands,
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
        filler = LDBackendFiller(ops, "gemm")
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

    def test_operands_for_accepts_prebuilt_packed(self):
        aln = random_alignment(10, 30, seed=6)
        packed = PackedAlignment.from_alignment(aln)
        ops = operands_for(aln, packed=packed)
        assert ops.packed() is packed

    def test_nbytes_counts_materialized_planes_only(self):
        aln = random_alignment(10, 30, seed=7)
        ops = LDOperands(aln)
        assert ops.nbytes() == 0
        ops.packed()
        mid = ops.nbytes()
        assert mid > 0
        ops.gemm_plane()
        assert ops.nbytes() > mid


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


class TestBackendBitIdentity:
    """gemm == packed == auto, byte for byte."""

    @pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 1000])
    def test_fixed_sample_ladder(self, n_samples):
        aln = _alignment(n_samples, n_sites=80, seed=n_samples + 1)
        self._assert_all_backends_identical(aln)

    def test_monomorphic_columns(self):
        aln = _alignment(50, n_sites=60, seed=13)
        matrix = aln.matrix.copy()
        matrix[:, 5] = 0  # all-ancestral site
        matrix[:, 17] = 1  # all-derived site
        aln = SNPAlignment(matrix, aln.positions, aln.length)
        self._assert_all_backends_identical(aln)

    def test_imputed_missing_alignment(self):
        base = _alignment(40, n_sites=70, seed=14)
        rng = np.random.default_rng(15)
        mask = rng.random(base.matrix.shape) < 0.15
        aln = MaskedAlignment.from_alignment(base, mask).impute_major()
        self._assert_all_backends_identical(aln)

    @given(
        n_samples=st.sampled_from([1, 63, 64, 65, 1000]),
        n_sites=st.integers(2, 60),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_bitwise_identical(self, n_samples, n_sites, seed):
        aln = _alignment(n_samples, n_sites=n_sites, seed=seed)
        self._assert_all_backends_identical(aln)

    @staticmethod
    def _assert_all_backends_identical(aln):
        n = aln.n_sites
        rows, cols = slice(0, max(1, n // 2)), slice(n // 3, n)
        ref = r_squared_block(aln, rows, cols)
        packed = PackedAlignment.from_alignment(aln)
        candidates = {
            "packed": r_squared_block_packed(packed, rows, cols),
        }
        ops = operands_for(aln)
        for backend in ("gemm", "packed", "auto"):
            candidates[f"filler-{backend}"] = LDBackendFiller(ops, backend)(
                rows, cols
            )
        for name, got in candidates.items():
            assert got.tobytes() == ref.tobytes(), name

    def test_region_cache_auto_matches_gemm(self):
        aln = haplotype_block_alignment(30, 100, seed=21)
        auto = R2RegionCache(aln, backend="auto")
        gemm = R2RegionCache(aln, backend="gemm")
        for start, stop in [(0, 40), (20, 70), (60, 99)]:
            a = auto.region_matrix(start, stop)
            g = gemm.region_matrix(start, stop)
            assert a.tobytes() == g.tobytes()

    def test_region_cache_rejects_unknown_backend(self):
        aln = random_alignment(10, 30, seed=22)
        with pytest.raises(ScanConfigError, match="backend"):
            R2RegionCache(aln, backend="cuda")

    def test_scan_reports_identical_across_backends(self):
        aln = haplotype_block_alignment(30, 150, seed=23)
        results = {
            backend: scan(
                aln,
                grid_size=12,
                max_window=aln.length / 3,
                ld_backend=backend,
            )
            for backend in ("gemm", "packed", "auto")
        }
        ref = results["gemm"]
        for backend in ("packed", "auto"):
            got = results[backend]
            np.testing.assert_array_equal(got.omegas, ref.omegas)
            np.testing.assert_array_equal(got.positions, ref.positions)


class TestAutoPick:
    def test_filler_rejects_unknown_backend(self):
        aln = random_alignment(10, 30, seed=31)
        with pytest.raises(LDError, match="backend"):
            LDBackendFiller(operands_for(aln), "cuda")

    def test_fixed_backends_pick_themselves(self):
        aln = random_alignment(10, 30, seed=32)
        ops = operands_for(aln)
        assert LDBackendFiller(ops, "gemm").pick(8, 8) == "gemm"
        assert LDBackendFiller(ops, "packed").pick(8, 8) == "packed"

    def test_auto_pick_follows_cost_model(self):
        aln = random_alignment(10, 30, seed=33)
        filler = LDBackendFiller(operands_for(aln), "auto")
        model = get_cost_model()
        assert filler.pick(16, 16) == model.ld_backend_for_tile(
            16, 16, aln.n_samples
        )

    def test_backend_fill_metrics(self):
        aln = random_alignment(10, 40, seed=34)
        filler = LDBackendFiller(
            operands_for(aln), "packed", metric_prefix="ld"
        )
        with obs.scoped_metrics() as registry:
            filler(slice(0, 10), slice(0, 10))
            filler(slice(0, 10), slice(10, 20))
            snap = registry.snapshot()
        assert snap["counters"]["ld.backend_packed_fills"] == 2

    def test_calibration_sets_sample_stamp(self):
        try:
            model = calibrate_ld_crossover(128, repeats=1)
            assert model.ld_calibration_samples == 128
            assert model.ld_gemm_cell_sample_seconds > 0
            assert model.ld_packed_cell_word_seconds > 0
            # The published model is the calibrated one.
            assert get_cost_model().ld_calibration_samples == 128
        finally:
            reset_cost_model()

    def test_model_crossover_prefers_packed_for_many_samples(self):
        # With the shipped constants, packed wins once samples dwarf the
        # word count (the PLINK 2 regime) and gemm wins tiny tiles with
        # few samples relative to the fixed word-pass overhead.
        model = get_cost_model()
        assert model.ld_backend_for_tile(64, 64, 100_000) == "packed"
        gemm_t = model.ld_tile_seconds("gemm", 64, 64, 100_000)
        packed_t = model.ld_tile_seconds("packed", 64, 64, 100_000)
        assert packed_t < gemm_t
        with pytest.raises(ValueError, match="backend"):
            model.ld_tile_seconds("cuda", 8, 8, 10)


class TestSharedPackedWords:
    def test_roundtrip_and_zero_copy(self):
        aln = random_alignment(70, 50, seed=41)
        packed = PackedAlignment.from_alignment(aln)
        with SharedPackedWords.create(packed) as owner:
            attached = SharedPackedWords.attach(owner.spec)
            try:
                twin = attached.packed_for(aln.positions, aln.length)
                np.testing.assert_array_equal(twin.words, packed.words)
                assert not twin.words.flags.writeable
                assert np.shares_memory(twin.words, attached.words)
                # Counts and pairs computed off the shared plane agree.
                np.testing.assert_array_equal(
                    twin.derived_counts(), packed.derived_counts()
                )
            finally:
                attached.close()

    def test_owner_side_has_no_view(self):
        aln = random_alignment(10, 20, seed=42)
        packed = PackedAlignment.from_alignment(aln)
        with SharedPackedWords.create(packed) as owner:
            with pytest.raises(AlignmentError, match="attach"):
                _ = owner.words

    def test_no_leak_on_normal_exit(self):
        before = set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))
        aln = random_alignment(30, 40, seed=43)
        packed = PackedAlignment.from_alignment(aln)
        with SharedPackedWords.create(packed) as owner:
            assert len(set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))) == (
                len(before) + 1
            )
            spec = owner.spec
        assert set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*")) == before
        with pytest.raises(FileNotFoundError):
            SharedPackedWords.attach(spec)

    def test_no_leak_when_attach_fails(self):
        before = set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))
        aln = random_alignment(30, 40, seed=44)
        packed = PackedAlignment.from_alignment(aln)
        owner = SharedPackedWords.create(packed)
        try:
            bad_spec = type(owner.spec)(
                words_name="repro-shm-does-not-exist",
                n_sites=1,
                n_words=1,
                n_samples=1,
            )
            with pytest.raises(FileNotFoundError):
                SharedPackedWords.attach(bad_spec)
        finally:
            owner.close()
            owner.unlink()
        assert set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*")) == before

    def test_unlink_is_idempotent(self):
        aln = random_alignment(10, 20, seed=45)
        packed = PackedAlignment.from_alignment(aln)
        owner = SharedPackedWords.create(packed)
        owner.close()
        owner.unlink()
        owner.unlink()  # second call must be a no-op
