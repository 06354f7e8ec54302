"""Integration tests for the full OmegaPlus scanner."""

import numpy as np
import pytest

from repro.core.dp import SumMatrix
from repro.core.grid import GridSpec, build_plans
from repro.core.omega import omega_max_at_split
from repro.core.scan import OmegaConfig, OmegaPlusScanner, scan
from repro.datasets.alignment import SNPAlignment
from repro.datasets.generators import random_alignment
from repro.datasets.packed import PackedAlignment
from repro.errors import ScanConfigError
from repro.ld.gemm import r_squared_block
from repro.ld.packed_kernels import r_squared_block_packed


class TestScanBasics:
    def test_result_shape(self, sweep_alignment):
        result = scan(
            sweep_alignment, grid_size=15, max_window=sweep_alignment.length / 2
        )
        assert len(result) == 15
        assert result.positions.shape == (15,)
        assert (result.omegas >= 0).all()

    def test_detects_planted_sweep(self, sweep_alignment):
        """The top-scoring position must fall inside the sweep-affected
        region (the planted flanks span centre +/- 25% of the length; the
        sharp LD-block edges at the region boundary are legitimate omega
        peaks too, so containment — not exact centring — is the correct
        claim for this generator)."""
        result = scan(
            sweep_alignment, grid_size=25, max_window=sweep_alignment.length / 2
        )
        best = result.best()
        centre = 0.5 * sweep_alignment.length
        half = 0.25 * sweep_alignment.length
        margin = 0.05 * sweep_alignment.length
        assert centre - half - margin <= best.position <= centre + half + margin
        # and scores inside the affected region dominate scores far outside
        inside = result.omegas[
            np.abs(result.positions - centre) <= half
        ]
        outside = result.omegas[
            np.abs(result.positions - centre) > half + margin
        ]
        assert inside.max() > 2 * outside.max()

    def test_neutral_scores_lower(self, sweep_alignment):
        neutral = random_alignment(
            sweep_alignment.n_samples,
            sweep_alignment.n_sites,
            length=sweep_alignment.length,
            seed=99,
        )
        r_sweep = scan(
            sweep_alignment, grid_size=15, max_window=sweep_alignment.length / 2
        )
        r_neutral = scan(
            neutral, grid_size=15, max_window=neutral.length / 2
        )
        assert r_sweep.best().omega > 3 * r_neutral.best().omega

    def test_breakdown_phases_recorded(self, small_alignment):
        result = scan(
            small_alignment, grid_size=5, max_window=small_alignment.length / 3
        )
        assert {"plan", "ld", "omega"} <= set(result.breakdown.totals)

    def test_rejects_too_few_snps(self):
        aln = SNPAlignment(
            np.array([[1], [0]], dtype=np.uint8), np.array([5.0]), 10.0
        )
        with pytest.raises(ScanConfigError):
            scan(aln, grid_size=2, max_window=5.0)

    def test_negative_eps_rejected(self):
        with pytest.raises(ScanConfigError):
            OmegaConfig(
                grid=GridSpec(n_positions=2, max_window=10.0), eps=-1.0
            )


class TestScanCorrectness:
    def test_matches_manual_per_position(self, block_alignment):
        """Every reported omega must equal an independent recomputation
        from scratch at that grid position."""
        cfg = OmegaConfig(grid=GridSpec(n_positions=7, max_window=block_alignment.length / 3))
        result = OmegaPlusScanner(cfg).scan(block_alignment)
        plans = build_plans(block_alignment, cfg.grid)
        for k, plan in enumerate(plans):
            if not plan.valid:
                assert result.omegas[k] == 0.0
                continue
            r2 = r_squared_block(
                block_alignment,
                slice(plan.region_start, plan.region_stop + 1),
                slice(plan.region_start, plan.region_stop + 1),
            )
            off = plan.region_start
            res = omega_max_at_split(
                SumMatrix(r2),
                plan.left_borders - off,
                plan.split_index - off,
                plan.right_borders - off,
            )
            assert result.omegas[k] == pytest.approx(res.omega, rel=1e-9)
            assert result.n_evaluations[k] == res.n_evaluations

    def test_reuse_on_off_identical_scores(self, block_alignment):
        """The data-reuse optimization must not change any score."""
        on = scan(
            block_alignment, grid_size=9, max_window=block_alignment.length / 3,
            reuse=True,
        )
        off = scan(
            block_alignment, grid_size=9, max_window=block_alignment.length / 3,
            reuse=False,
        )
        np.testing.assert_allclose(on.omegas, off.omegas, rtol=1e-12)
        assert on.reuse.entries_reused > 0
        assert off.reuse.entries_reused == 0

    def test_backends_identical_scores(self, block_alignment):
        """The production GEMM fill and the packed popcount reference
        feed the scan the same r² bits."""
        words = PackedAlignment.from_alignment(block_alignment)

        def packed_blocks(rows, cols, *, out):
            out[...] = r_squared_block_packed(words, rows, cols)
            return out

        config = OmegaConfig(
            grid=GridSpec(
                n_positions=9, max_window=block_alignment.length / 3
            )
        )
        gemm = OmegaPlusScanner(config).scan(block_alignment)
        packed = OmegaPlusScanner(config, block_fn=packed_blocks).scan(
            block_alignment
        )
        assert gemm.omegas.tobytes() == packed.omegas.tobytes()

    def test_borders_bracket_position(self, sweep_alignment):
        result = scan(
            sweep_alignment, grid_size=11, max_window=sweep_alignment.length / 2
        )
        for k in range(len(result)):
            r = result[k]
            if np.isnan(r.left_border_bp):
                continue
            assert r.left_border_bp <= r.position + 1e-6
            assert r.right_border_bp >= r.position - 1e-6


class TestScanResultAPI:
    def test_tsv_format(self, small_alignment):
        result = scan(small_alignment, grid_size=4, max_window=100.0)
        tsv = result.to_tsv()
        lines = tsv.splitlines()
        assert lines[0].startswith("position\t")
        assert len(lines) == 5

    def test_summary_mentions_best(self, sweep_alignment):
        result = scan(
            sweep_alignment, grid_size=5, max_window=sweep_alignment.length / 2
        )
        s = result.summary()
        assert "max omega" in s
        assert "grid positions" in s

    def test_indexing(self, small_alignment):
        result = scan(small_alignment, grid_size=4, max_window=100.0)
        r = result[0]
        assert r.position == pytest.approx(result.positions[0])

    def test_total_evaluations(self, small_alignment):
        result = scan(small_alignment, grid_size=4, max_window=100.0)
        assert result.total_evaluations == int(result.n_evaluations.sum())

    def test_throughput_positive_after_scan(self, sweep_alignment):
        result = scan(
            sweep_alignment, grid_size=10, max_window=sweep_alignment.length / 2
        )
        assert result.omega_throughput() > 0

    def test_mismatched_arrays_rejected(self):
        from repro.core.results import ScanResult

        with pytest.raises(ValueError):
            ScanResult(
                positions=np.zeros(3),
                omegas=np.zeros(2),
                left_borders_bp=np.zeros(3),
                right_borders_bp=np.zeros(3),
                n_evaluations=np.zeros(3, dtype=int),
            )
