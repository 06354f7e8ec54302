"""Integration tests for the complete FPGA engine."""

import numpy as np
import pytest

from repro.accel.fpga import (
    ALVEO_U200,
    ZCU102,
    FPGAOmegaEngine,
    PipelineModel,
)
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
    @pytest.mark.parametrize("device", [ZCU102, ALVEO_U200])
    def test_omegas_match_cpu(self, block_alignment, config, cpu_result, device):
        engine = FPGAOmegaEngine(PipelineModel(device))
        res, _ = engine.scan(block_alignment, config)
        np.testing.assert_array_equal(res.omegas, cpu_result.omegas)
        np.testing.assert_array_equal(
            res.n_evaluations, cpu_result.n_evaluations
        )

    def test_borders_match_cpu(self, block_alignment, config, cpu_result):
        engine = FPGAOmegaEngine(PipelineModel(ALVEO_U200))
        res, _ = engine.scan(block_alignment, config)
        np.testing.assert_array_equal(
            res.left_borders_bp, cpu_result.left_borders_bp
        )

    def test_unroll_does_not_change_results(self, block_alignment, config):
        """Any hardware/software partition must yield the same report —
        the remainder logic is purely an execution split."""
        results = []
        for unroll in (1, 2, 4):
            engine = FPGAOmegaEngine(PipelineModel(ZCU102, unroll=unroll))
            res, _ = engine.scan(block_alignment, config)
            results.append(res.omegas)
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])


class TestPartitionAccounting:
    def test_hw_plus_sw_equals_total(self, block_alignment, config, cpu_result):
        engine = FPGAOmegaEngine(PipelineModel(ZCU102))
        _, rec = engine.scan(block_alignment, config)
        total = rec.scores.get("omega_hw", 0) + rec.scores.get("omega_sw", 0)
        assert total == cpu_result.total_evaluations

    def test_sw_fraction_bounded_by_unroll(self, block_alignment, config):
        """At most (U-1) of every U right borders can land in software."""
        engine = FPGAOmegaEngine(PipelineModel(ZCU102))  # unroll 4
        _, rec = engine.scan(block_alignment, config)
        sw = rec.scores.get("omega_sw", 0)
        hw = rec.scores.get("omega_hw", 0)
        assert sw <= (sw + hw)  # trivially
        # every outer iteration leaves < U scores in software
        assert sw < rec.kernel_launches * 1000 * 4  # loose structural bound

    def test_phases_present(self, block_alignment, config):
        engine = FPGAOmegaEngine(PipelineModel(ALVEO_U200))
        _, rec = engine.scan(block_alignment, config)
        assert "ld" in rec.seconds
        assert "omega_hw" in rec.seconds
        assert rec.total_seconds > 0

    def test_ld_scores_are_fresh_entries(self, block_alignment, config):
        engine = FPGAOmegaEngine(PipelineModel(ALVEO_U200))
        res, rec = engine.scan(block_alignment, config)
        assert rec.scores["ld"] == res.reuse.entries_computed


class TestTimingSanity:
    def test_bigger_unroll_faster_omega(self):
        """Needs windows wide enough that the per-outer-iteration software
        remainder (< U scores) stays negligible — the regime the wide
        accelerator is built for. On tiny windows a large unroll factor
        legitimately loses to a small one (most scores fall to software),
        which the ablation benchmark demonstrates separately."""
        from repro.datasets.generators import random_alignment

        aln = random_alignment(15, 800, seed=41)
        cfg = OmegaConfig(
            grid=GridSpec(n_positions=6, max_window=aln.length / 3)
        )
        slow_engine = FPGAOmegaEngine(PipelineModel(ALVEO_U200, unroll=2))
        fast_engine = FPGAOmegaEngine(PipelineModel(ALVEO_U200, unroll=32))
        _, slow = slow_engine.scan(aln, cfg)
        _, fast = fast_engine.scan(aln, cfg)
        assert (
            fast.seconds["omega_hw"] + fast.seconds.get("omega_sw", 0.0)
            < slow.seconds["omega_hw"] + slow.seconds.get("omega_sw", 0.0)
        )

    def test_alveo_faster_than_zcu102(self, block_alignment, config):
        _, z = FPGAOmegaEngine(PipelineModel(ZCU102)).scan(
            block_alignment, config
        )
        _, a = FPGAOmegaEngine(PipelineModel(ALVEO_U200)).scan(
            block_alignment, config
        )
        assert a.seconds["omega_hw"] < z.seconds["omega_hw"]


class TestErrors:
    def test_too_few_snps(self, config):
        from repro.datasets.alignment import SNPAlignment

        aln = SNPAlignment(
            np.array([[1], [0]], dtype=np.uint8), np.array([5.0]), 10.0
        )
        with pytest.raises(AcceleratorError):
            FPGAOmegaEngine(PipelineModel(ZCU102)).scan(aln, config)
