"""Integration tests for the complete GPU engine (functional equality with
the CPU scanner + modelled accounting)."""

import numpy as np
import pytest

from repro.accel.gpu import GPUOmegaEngine, RADEON_HD8750M, TESLA_K80
from repro.core.grid import GridSpec
from repro.core.scan import OmegaConfig, OmegaPlusScanner
from repro.errors import AcceleratorError


@pytest.fixture
def config(block_alignment):
    return OmegaConfig(
        grid=GridSpec(n_positions=10, max_window=block_alignment.length / 3)
    )


@pytest.fixture
def cpu_result(block_alignment, config):
    return OmegaPlusScanner(config).scan(block_alignment)


class TestFunctionalEquality:
    @pytest.mark.parametrize("device", [TESLA_K80, RADEON_HD8750M])
    def test_omegas_match_cpu(self, block_alignment, config, cpu_result, device):
        res, _ = GPUOmegaEngine(device).scan(block_alignment, config)
        np.testing.assert_array_equal(res.omegas, cpu_result.omegas)
        np.testing.assert_array_equal(
            res.n_evaluations, cpu_result.n_evaluations
        )

    def test_borders_match_cpu(self, block_alignment, config, cpu_result):
        res, _ = GPUOmegaEngine(TESLA_K80).scan(block_alignment, config)
        np.testing.assert_array_equal(
            res.left_borders_bp, cpu_result.left_borders_bp
        )
        np.testing.assert_array_equal(
            res.right_borders_bp, cpu_result.right_borders_bp
        )

    @pytest.mark.parametrize("mode", ["kernel1", "kernel2", "dynamic"])
    def test_all_modes_identical_results(
        self, block_alignment, config, cpu_result, mode
    ):
        res, _ = GPUOmegaEngine(TESLA_K80, mode=mode).scan(
            block_alignment, config
        )
        np.testing.assert_array_equal(res.omegas, cpu_result.omegas)


class TestRecordAccounting:
    def test_phases_present(self, block_alignment, config):
        _, rec = GPUOmegaEngine(TESLA_K80).scan(block_alignment, config)
        assert {"ld", "prep", "h2d", "kernel", "d2h"} <= set(rec.seconds)
        assert all(v >= 0 for v in rec.seconds.values())

    def test_score_counts_match_scan(self, block_alignment, config, cpu_result):
        _, rec = GPUOmegaEngine(TESLA_K80).scan(block_alignment, config)
        assert rec.scores["omega"] == cpu_result.total_evaluations

    def test_one_launch_per_valid_position(self, block_alignment, config, cpu_result):
        _, rec = GPUOmegaEngine(TESLA_K80).scan(block_alignment, config)
        valid = int((cpu_result.n_evaluations > 0).sum())
        assert rec.kernel_launches == valid

    def test_bytes_accounted(self, block_alignment, config):
        _, rec = GPUOmegaEngine(TESLA_K80).scan(block_alignment, config)
        assert rec.bytes_moved["h2d"] > 0
        assert rec.bytes_moved["d2h"] > 0

    def test_throughput_accessor(self, block_alignment, config):
        _, rec = GPUOmegaEngine(TESLA_K80).scan(block_alignment, config)
        assert rec.throughput("omega") > 0

    def test_ld_charged_only_for_fresh_entries(self, block_alignment, config):
        """The data-reuse optimization must reduce the GPU LD bill too:
        LD scores charged < total r2 entries requested."""
        res, rec = GPUOmegaEngine(TESLA_K80).scan(block_alignment, config)
        total_requested = (
            res.reuse.entries_computed + res.reuse.entries_reused
        )
        assert rec.scores["ld"] == res.reuse.entries_computed
        assert rec.scores["ld"] < total_requested


class TestOverlapModel:
    def test_overlap_reduces_transfer_time(self, block_alignment, config):
        _, none = GPUOmegaEngine(TESLA_K80, overlap_fraction=0.0).scan(
            block_alignment, config
        )
        _, some = GPUOmegaEngine(TESLA_K80, overlap_fraction=0.5).scan(
            block_alignment, config
        )
        t_none = none.seconds["h2d"] + none.seconds["d2h"]
        t_some = some.seconds["h2d"] + some.seconds["d2h"]
        assert t_some < t_none
        # kernel time unchanged
        assert some.seconds["kernel"] == pytest.approx(none.seconds["kernel"])

    def test_invalid_overlap_rejected(self):
        with pytest.raises(AcceleratorError):
            GPUOmegaEngine(TESLA_K80, overlap_fraction=1.0)


class TestErrors:
    def test_too_few_snps(self, config):
        from repro.datasets.alignment import SNPAlignment

        aln = SNPAlignment(
            np.array([[1], [0]], dtype=np.uint8), np.array([5.0]), 10.0
        )
        with pytest.raises(AcceleratorError):
            GPUOmegaEngine(TESLA_K80).scan(aln, config)
