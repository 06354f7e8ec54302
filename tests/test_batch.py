"""Batched ω evaluation: bitwise equivalence, dispatch, cost model.

The batching contract is *bitwise* equality with the per-position
reference (``omega_max_at_split``) — scores, winning borders and
evaluation counts — across every packing the scanner can produce,
including empty border sets, single-SNP windows, NaN scores (eps = 0)
and the direct-path bypass for large positions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.batch import (
    DEFAULT_BATCH_POSITIONS,
    BatchedOmegaPlan,
    omega_max_batch,
)
from repro.core.costmodel import (
    ScanCostModel,
    get_cost_model,
    reset_cost_model,
    set_cost_model,
)
from repro.core.dp import SumMatrix
from repro.core.grid import GridSpec
from repro.core.omega import omega_max_at_split
from repro.core.parallel import parallel_scan
from repro.core.scan import OmegaConfig, OmegaPlusScanner, scan_stream
from repro.datasets.generators import (
    haplotype_block_alignment,
    random_alignment,
)
from repro.errors import ScanConfigError
from repro.ld.gemm import r_squared_matrix


@pytest.fixture(autouse=True)
def _fresh_cost_model():
    reset_cost_model()
    yield
    reset_cost_model()


def _sum_matrix(n_sites: int, seed: int) -> SumMatrix:
    aln = random_alignment(24, n_sites, seed=seed)
    return SumMatrix(r_squared_matrix(aln))


@st.composite
def packed_positions(draw):
    """A SumMatrix plus a handful of border configurations over it,
    including empty and single-element border sets."""
    n = draw(st.integers(min_value=4, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n_positions = draw(st.integers(min_value=1, max_value=6))
    positions = []
    for _ in range(n_positions):
        c = draw(st.integers(min_value=0, max_value=n - 2))
        max_l = draw(st.integers(min_value=0, max_value=c + 1))
        max_r = draw(st.integers(min_value=0, max_value=n - 1 - c))
        li = np.arange(c + 1 - max_l, c + 1, dtype=np.intp)
        rj = np.arange(c + 1, c + 1 + max_r, dtype=np.intp)
        positions.append((c, li, rj))
    return n, seed, positions


class TestBitwiseEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(packed_positions(), st.sampled_from([1e-5, 1e-2, 0.0]))
    def test_matches_per_position(self, case, eps):
        n, seed, positions = case
        sums = _sum_matrix(n, seed)
        plan = BatchedOmegaPlan(max_positions=len(positions))
        for c, li, rj in positions:
            plan.add(sums, li, c, rj)
        res = omega_max_batch(plan, eps=eps)
        for slot, (c, li, rj) in enumerate(positions):
            ref = omega_max_at_split(sums, li, c, rj, eps=eps)
            # Bitwise: NaN == NaN via array_equal with equal_nan.
            assert np.array_equal(
                [res.omegas[slot]], [ref.omega], equal_nan=True
            )
            assert res.left_borders[slot] == ref.left_border
            assert res.right_borders[slot] == ref.right_border
            assert res.n_evaluations[slot] == ref.n_evaluations

    def test_single_snp_windows(self):
        sums = _sum_matrix(6, seed=3)
        plan = BatchedOmegaPlan()
        # One border on each side: a single 2-SNP window.
        plan.add(sums, np.array([2]), 2, np.array([3]))
        res = omega_max_batch(plan)
        ref = omega_max_at_split(
            sums, np.array([2]), 2, np.array([3]), eps=1e-5
        )
        assert res.omegas[0] == ref.omega
        assert (res.left_borders[0], res.right_borders[0]) == (
            ref.left_border,
            ref.right_border,
        )

    def test_empty_borders_are_no_valid_split(self):
        sums = _sum_matrix(8, seed=4)
        plan = BatchedOmegaPlan()
        plan.add(sums, np.array([], dtype=np.intp), 3, np.array([4, 5]))
        plan.add(sums, np.array([2, 3]), 3, np.array([], dtype=np.intp))
        res = omega_max_batch(plan)
        assert list(res.omegas) == [0.0, 0.0]
        assert list(res.left_borders) == [-1, -1]
        assert list(res.right_borders) == [-1, -1]
        assert list(res.n_evaluations) == [0, 0]

    def test_empty_plan(self):
        res = omega_max_batch(BatchedOmegaPlan())
        assert res.omegas.size == 0


class TestScannerEquivalence:
    @pytest.mark.parametrize("omega_batch", [1, 2, 7, DEFAULT_BATCH_POSITIONS])
    def test_scan_is_batch_size_invariant(self, omega_batch):
        aln = haplotype_block_alignment(30, 400, seed=9)
        grid = GridSpec(n_positions=16, max_window=aln.length / 4)
        base = OmegaPlusScanner(
            OmegaConfig(grid=grid, omega_batch=1)
        ).scan(aln)
        got = OmegaPlusScanner(
            OmegaConfig(grid=grid, omega_batch=omega_batch)
        ).scan(aln)
        assert np.array_equal(got.omegas, base.omegas)
        assert np.array_equal(
            got.left_borders_bp, base.left_borders_bp, equal_nan=True
        )
        assert np.array_equal(
            got.right_borders_bp, base.right_borders_bp, equal_nan=True
        )
        assert np.array_equal(got.n_evaluations, base.n_evaluations)

    def test_tiny_threshold_forces_direct_path(self):
        """Dropping the dispatch threshold to 1 sends everything down the
        per-position path — results must not move."""
        aln = haplotype_block_alignment(30, 300, seed=10)
        grid = GridSpec(n_positions=10, max_window=aln.length / 4)
        base = OmegaPlusScanner(OmegaConfig(grid=grid)).scan(aln)
        set_cost_model(ScanCostModel(batch_score_threshold=1))
        direct = OmegaPlusScanner(OmegaConfig(grid=grid)).scan(aln)
        assert np.array_equal(direct.omegas, base.omegas)
        counters = direct.metrics["counters"]
        assert counters.get("omega.batched_positions", 0) == 0

    def test_parallel_is_batch_size_invariant(self):
        """Bitwise invariance among parallel scans (parallel-vs-sequential
        itself differs in the last bits from DP block anchoring, which is
        orthogonal to batching and covered by test_parallel)."""
        aln = haplotype_block_alignment(30, 400, seed=11)
        grid = GridSpec(n_positions=14, max_window=aln.length / 4)
        base = parallel_scan(
            aln, OmegaConfig(grid=grid, omega_batch=1), n_workers=2
        )
        par = parallel_scan(
            aln, OmegaConfig(grid=grid, omega_batch=5), n_workers=2
        )
        assert np.array_equal(par.omegas, base.omegas)
        assert np.array_equal(
            par.left_borders_bp, base.left_borders_bp, equal_nan=True
        )
        assert np.array_equal(par.n_evaluations, base.n_evaluations)

    def test_streaming_matches_in_memory(self):
        aln = haplotype_block_alignment(30, 400, seed=12)
        grid = GridSpec(n_positions=12, max_window=aln.length / 8)
        config = OmegaConfig(grid=grid)
        whole = OmegaPlusScanner(config).scan(aln)
        streamed = scan_stream(aln, config, snp_budget=200)
        assert np.array_equal(streamed.omegas, whole.omegas)

    def test_batch_metrics_emitted(self):
        aln = haplotype_block_alignment(30, 400, seed=13)
        grid = GridSpec(n_positions=16, max_window=aln.length / 4)
        # Raise the dispatch threshold so every position batches.
        set_cost_model(ScanCostModel(batch_score_threshold=1 << 30))
        result = OmegaPlusScanner(OmegaConfig(grid=grid)).scan(aln)
        counters = result.metrics["counters"]
        assert counters.get("omega.batches", 0) >= 1
        total = counters.get("omega.batched_positions", 0) + counters.get(
            "omega.direct_positions", 0
        )
        assert total == int(np.sum(result.n_evaluations > 0))


class TestPlanValidation:
    def test_rejects_bad_limits(self):
        with pytest.raises(ScanConfigError):
            BatchedOmegaPlan(max_positions=0)
        with pytest.raises(ScanConfigError):
            BatchedOmegaPlan(score_budget=0)

    def test_rejects_bad_omega_batch(self):
        with pytest.raises(ScanConfigError):
            OmegaConfig(
                grid=GridSpec(n_positions=4, max_window=100.0),
                omega_batch=0,
            )

    def test_full_flag(self):
        sums = _sum_matrix(8, seed=5)
        plan = BatchedOmegaPlan(max_positions=2)
        assert not plan.full
        plan.add(sums, np.array([2, 3]), 3, np.array([4, 5]))
        plan.add(sums, np.array([2, 3]), 3, np.array([4, 5]))
        assert plan.full
        plan.reset()
        assert not plan.full
        budget = BatchedOmegaPlan(score_budget=3)
        budget.add(sums, np.array([2, 3]), 3, np.array([4, 5]))
        assert budget.full  # 4 packed scores >= budget of 3

    def test_packed_float_accounting(self):
        sums = _sum_matrix(8, seed=6)
        plan = BatchedOmegaPlan()
        plan.add(sums, np.array([2, 3]), 3, np.array([4, 5, 6]))
        assert plan.packed_border_floats == 5
        assert plan.packed_score_floats == 6


class TestCostModel:
    def test_position_cost_formula(self):
        model = ScanCostModel(eval_weight=2.0, area_weight=0.5)
        assert model.position_cost(100, 10) == 2.0 * 100 + 0.5 * 100

    def test_estimate_requires_calibration(self):
        model = ScanCostModel()
        assert model.estimate_seconds(1000.0) is None
        fit = ScanCostModel(seconds_per_unit=1e-6)
        assert fit.estimate_seconds(1000.0) == pytest.approx(1e-3)

    def test_calibrated_from_snapshot(self):
        model = ScanCostModel()
        snap = {
            "histograms": {
                "scheduler.block_est_cost": {"count": 4, "sum": 2e6},
                "scheduler.block_seconds": {"count": 4, "sum": 0.5},
            }
        }
        fit = model.calibrated(snap)
        assert fit.seconds_per_unit == pytest.approx(0.5 / 2e6)
        assert fit.calibration_blocks == 4
        assert fit.est_cost_sum == pytest.approx(2e6)
        assert fit.seconds_sum == pytest.approx(0.5)
        # Unusable snapshots never discard an earlier calibration.
        assert fit.calibrated({}) is fit
        assert fit.calibrated({"histograms": {}}) is fit

    def test_recalibration_accumulates_running_sums(self):
        """Regression: a later (small) scan must refine the fit as a
        weighted ratio of *all* measured blocks, not replace it with the
        last scan's ratio alone."""

        def snap(blocks, est, sec):
            return {
                "histograms": {
                    "scheduler.block_est_cost": {
                        "count": blocks, "sum": est,
                    },
                    "scheduler.block_seconds": {
                        "count": blocks, "sum": sec,
                    },
                }
            }

        first = ScanCostModel().calibrated(snap(10, 1000.0, 100.0))
        assert first.seconds_per_unit == pytest.approx(0.1)
        # One tiny, noisy block: naive last-scan fit would jump to 5.0.
        second = first.calibrated(snap(1, 1.0, 5.0))
        assert second.seconds_per_unit == pytest.approx(105.0 / 1001.0)
        assert second.seconds_per_unit != pytest.approx(5.0)
        assert second.calibration_blocks == 11
        assert second.est_cost_sum == pytest.approx(1001.0)
        assert second.seconds_sum == pytest.approx(105.0)
        # A third scan keeps folding into the same running sums.
        third = second.calibrated(snap(4, 999.0, 95.0))
        assert third.seconds_per_unit == pytest.approx(200.0 / 2000.0)
        assert third.calibration_blocks == 15

    def test_calibrate_from_updates_global_model(self):
        from repro.core.costmodel import calibrate_from

        snap = {
            "histograms": {
                "scheduler.block_est_cost": {"count": 2, "sum": 100.0},
                "scheduler.block_seconds": {"count": 2, "sum": 1.0},
            }
        }
        fit = calibrate_from(snap)
        assert fit is get_cost_model()
        assert fit.seconds_per_unit == pytest.approx(0.01)
        again = calibrate_from(snap)
        assert again.calibration_blocks == 4
        assert again.seconds_per_unit == pytest.approx(0.01)
        # Metrics-free snapshots are a no-op, never a reset.
        assert calibrate_from({}) is again

    def test_parallel_scan_publishes_calibration(self):
        aln = haplotype_block_alignment(30, 400, seed=14)
        config = OmegaConfig(
            grid=GridSpec(n_positions=12, max_window=aln.length / 4)
        )
        assert get_cost_model().seconds_per_unit is None
        result = parallel_scan(aln, config, n_workers=2)
        model = get_cost_model()
        assert model.seconds_per_unit is not None
        assert model.seconds_per_unit > 0.0
        assert model.calibration_blocks > 0
        gauges = result.metrics["gauges"]
        assert gauges["scheduler.cost_seconds_per_unit"]["last"] == (
            pytest.approx(model.seconds_per_unit)
        )

    def test_calibration_feeds_gpu_dispatch_estimate(self):
        from repro.accel.gpu.device import TESLA_K80
        from repro.accel.gpu.dispatch import DynamicDispatcher

        dispatcher = DynamicDispatcher(TESLA_K80)
        assert dispatcher.estimate_seconds(1000, 50) is None
        set_cost_model(ScanCostModel(seconds_per_unit=1e-7))
        est = dispatcher.estimate_seconds(1000, 50)
        assert est == pytest.approx((1000 + 50**2) * 1e-7)

    def test_obs_off_scan_still_works(self):
        """Cost-model reads must not require an active metrics scope."""
        obs.reset()
        aln = haplotype_block_alignment(20, 200, seed=15)
        config = OmegaConfig(
            grid=GridSpec(n_positions=6, max_window=aln.length / 4)
        )
        result = OmegaPlusScanner(config).scan(aln)
        assert np.all(np.isfinite(result.omegas))
