"""Tests for the multiprocess scanner."""

import contextlib
import glob
import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.grid as grid
from repro.core.grid import GridSpec
from repro.core.parallel import (
    ParallelScanSession,
    make_blocks,
    parallel_scan,
)
from repro.core.scan import OmegaConfig, OmegaPlusScanner, scan_stream
from repro.datasets.alignment import SHM_NAME_PREFIX
from repro.datasets.generators import haplotype_block_alignment
from repro.errors import ScanConfigError

#: Name suffixes of the shared r² tile band's segments.
R2_BAND_SUFFIXES = ("-r2tiles", "-r2flags")


def _shm_entries():
    return set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))


def assert_same_records(got, want):
    """The five result arrays, byte for byte (NaN borders included)."""
    for name in (
        "positions", "omegas", "left_borders_bp", "right_borders_bp",
        "n_evaluations",
    ):
        assert np.array_equal(
            getattr(got, name), getattr(want, name), equal_nan=True
        ), name


def assert_no_r2_band(shm_names, *results):
    """The scan published its alignment but no r² tile band, and its
    results report no tile-store work."""
    assert shm_names, "no shared segment was opened at all"
    assert not [n for n in shm_names if n.endswith(R2_BAND_SUFFIXES)]
    for result in results:
        counters = result.metrics["counters"]
        assert not any(
            v for k, v in counters.items() if k.startswith("tilestore.")
        )
        assert result.reuse.tile_entries_computed == 0
        assert result.reuse.tile_entries_reused == 0


class TestMakeBlocks:
    def test_covers_everything_no_overlap(self):
        for n in [1, 17, 100, 3, 640, 5000]:
            blocks = make_blocks(n)
            flat = [k for a, b in blocks for k in range(a, b)]
            assert flat == list(range(n))

    def test_no_empty_blocks(self):
        for n in [1, 5, 23, 129]:
            assert all(b > a for a, b in make_blocks(n))

    def test_short_grid_gets_fewer_longer_blocks(self):
        # No block is shorter than SHORTEST_BLOCK unless the grid is.
        assert make_blocks(30) == [(0, 15), (15, 30)]
        assert make_blocks(8) == [(0, 8)]
        assert make_blocks(1) == [(0, 1)]
        # The high-omega benchmark's 360-position grid: 8 blocks of 45.
        assert make_blocks(360) == [(lo, lo + 45) for lo in range(0, 360, 45)]

    @given(n=st.integers(1, 3000))
    @settings(max_examples=300, deadline=None)
    def test_default_partition_properties(self, n):
        blocks = make_blocks(n)
        assert [k for a, b in blocks for k in range(a, b)] == list(range(n))
        assert all(b > a for a, b in blocks)
        size = min(
            grid.LONGEST_BLOCK,
            max(grid.SHORTEST_BLOCK, math.ceil(n / grid.TARGET_BLOCKS)),
        )
        assert all(b - a == size for a, b in blocks[:-1])
        assert len(blocks) == math.ceil(n / size)
        if grid.SHORTEST_BLOCK * grid.TARGET_BLOCKS < n <= (
            grid.LONGEST_BLOCK * grid.TARGET_BLOCKS
        ):
            assert len(blocks) == grid.TARGET_BLOCKS
        # Longer grids get more blocks, so more workers still help.
        assert len(blocks) >= n // grid.LONGEST_BLOCK

    def test_more_blocks_than_workers(self):
        """Dynamic scheduling needs more blocks than workers so the pool
        queue can rebalance."""
        assert len(make_blocks(64)) > 4

    def test_invalid(self):
        with pytest.raises(ScanConfigError):
            make_blocks(0)


class TestParallelScan:
    @pytest.fixture
    def config(self, block_alignment):
        return OmegaConfig(
            grid=GridSpec(n_positions=12, max_window=block_alignment.length / 3)
        )

    def test_single_worker_short_circuit(self, block_alignment, config):
        seq = OmegaPlusScanner(config).scan(block_alignment)
        par = parallel_scan(block_alignment, config, n_workers=1)
        assert_same_records(par, seq)

    # Workers restart the window-sum DP at the block starts where the
    # sequential scan restarts it, so the records are byte-identical.
    def test_matches_sequential(self, block_alignment, config, block_length):
        block_length(4)
        seq = OmegaPlusScanner(config).scan(block_alignment)
        par = parallel_scan(block_alignment, config, n_workers=3)
        assert_same_records(par, seq)

    def test_worker_count_invariance(
        self, block_alignment, config, block_length
    ):
        block_length(5)
        two = parallel_scan(block_alignment, config, n_workers=2)
        four = parallel_scan(block_alignment, config, n_workers=4)
        assert_same_records(two, four)

    def test_more_workers_than_positions(self, block_alignment):
        """Oversubscription (more workers than blocks) must still produce
        the full, sequential-identical report."""
        config = OmegaConfig(
            grid=GridSpec(n_positions=3, max_window=block_alignment.length / 3)
        )
        seq = OmegaPlusScanner(config).scan(block_alignment)
        par = parallel_scan(block_alignment, config, n_workers=8)
        assert len(par) == 3
        assert_same_records(par, seq)

    def test_rejects_zero_workers(self, block_alignment, config):
        with pytest.raises(ScanConfigError):
            parallel_scan(block_alignment, config, n_workers=0)

    def test_breakdown_aggregated(self, block_alignment, config):
        par = parallel_scan(block_alignment, config, n_workers=2)
        assert par.breakdown.totals.get("omega", 0.0) > 0

    def test_reuse_stats_aggregated(
        self, block_alignment, config, block_length
    ):
        """Per-chunk reuse counters merge; the total served area (computed
        + reused, at both levels) is worker-count invariant because every
        worker serves the same set of valid regions overall, and the DP
        does the sequential scan's work exactly."""
        block_length(4)
        seq = OmegaPlusScanner(config).scan(block_alignment)
        par = parallel_scan(block_alignment, config, n_workers=3)
        assert (
            par.reuse.entries_computed + par.reuse.entries_reused
            == seq.reuse.entries_computed + seq.reuse.entries_reused
        )
        assert (
            par.reuse.dp_entries_computed + par.reuse.dp_entries_reused
            == seq.reuse.dp_entries_computed + seq.reuse.dp_entries_reused
        )
        assert par.reuse.regions_served == seq.reuse.regions_served
        # Chunking loses one r² region overlap per boundary, never gains
        # one; the DP restarts at the same blocks either way.
        assert par.reuse.entries_reused <= seq.reuse.entries_reused
        assert par.reuse.dp_builds == seq.reuse.dp_builds

    def test_omega_subphases_aggregated(self, block_alignment, config):
        par = parallel_scan(block_alignment, config, n_workers=2)
        sub = par.omega_subphases.totals
        assert sum(sub.values()) > 0
        assert set(sub) <= {"dp_build", "dp_reuse"}


class TestFixedGridScanner:
    """A scanner over a ``fixed_position_spec`` grid: how each worker
    scans its block."""

    def test_chunk_positions_used_verbatim(self, block_alignment):
        import dataclasses

        from repro.core.parallel import fixed_position_spec

        config = OmegaConfig(
            grid=GridSpec(n_positions=6, max_window=block_alignment.length / 3)
        )
        all_positions = config.grid.positions(block_alignment)
        scanner = OmegaPlusScanner(
            dataclasses.replace(
                config,
                grid=fixed_position_spec(config.grid, all_positions[2:5]),
            )
        )
        result = scanner.scan(block_alignment)
        np.testing.assert_allclose(result.positions, all_positions[2:5])


class TestParallelEquivalenceProperty:
    """parallel_scan must be byte-identical to the sequential scanner for
    any grid size / worker count / block length."""

    _ALN = haplotype_block_alignment(40, 120, seed=202)

    @given(
        n_positions=st.integers(2, 10),
        n_workers=st.integers(2, 6),
        block_len=st.one_of(st.none(), st.integers(1, 5)),
    )
    @settings(max_examples=8, deadline=None)
    def test_matches_sequential(self, n_positions, n_workers, block_len):
        aln = self._ALN
        config = OmegaConfig(
            grid=GridSpec(n_positions=n_positions, max_window=aln.length / 3),
        )
        forced = (
            contextlib.nullcontext()
            if block_len is None
            else mock.patch.multiple(
                grid, SHORTEST_BLOCK=block_len, LONGEST_BLOCK=block_len
            )
        )
        with forced:
            seq = OmegaPlusScanner(config).scan(aln)
            par = parallel_scan(aln, config, n_workers=n_workers)
        assert_same_records(par, seq)
        assert par.reuse.regions_served == seq.reuse.regions_served
        assert (
            par.reuse.entries_computed + par.reuse.entries_reused
            == seq.reuse.entries_computed + seq.reuse.entries_reused
        )
        assert (
            par.reuse.dp_entries_computed + par.reuse.dp_entries_reused
            == seq.reuse.dp_entries_computed + seq.reuse.dp_entries_reused
        )


def _boom(task):
    raise RuntimeError("injected worker failure")


class TestSharedScheduler:
    @pytest.fixture
    def config(self, block_alignment):
        return OmegaConfig(
            grid=GridSpec(n_positions=12, max_window=block_alignment.length / 3)
        )

    def test_wall_seconds_recorded(self, block_alignment, config):
        par = parallel_scan(block_alignment, config, n_workers=2)
        assert par.breakdown.wall_seconds > 0.0
        # Phase totals are CPU-attributed across workers, so they are not
        # bounded by the wall clock — but both must be populated.
        assert par.breakdown.total > 0.0

    def test_batch_scan_publishes_no_r2_band(
        self, block_alignment, config, shm_names
    ):
        """Each block fills its own r² regions; nothing but the alignment
        goes to shared memory."""
        par = parallel_scan(block_alignment, config, n_workers=2)
        assert_no_r2_band(shm_names, par)

    def test_streamed_scan_publishes_no_r2_band(
        self, block_alignment, config, shm_names
    ):
        par = scan_stream(
            block_alignment, config, snp_budget=120, n_workers=2
        )
        assert_no_r2_band(shm_names, par)
        want = parallel_scan(block_alignment, config, n_workers=2)
        assert par.to_tsv() == want.to_tsv()

    def test_no_segments_leak_after_scan(self, block_alignment, config):
        before = _shm_entries()
        parallel_scan(block_alignment, config, n_workers=2)
        assert _shm_entries() == before

    def test_failing_worker_does_not_orphan_segments(
        self, block_alignment, config, monkeypatch
    ):
        """Regression: a crash inside a worker task must surface the
        exception AND unlink every shared segment."""
        import repro.core.parallel as parallel_mod

        before = _shm_entries()
        monkeypatch.setattr(parallel_mod, "_scan_block", _boom)
        with pytest.raises(RuntimeError, match="injected worker failure"):
            parallel_scan(block_alignment, config, n_workers=2)
        assert _shm_entries() == before

    def test_worker_attach_failure_surfaces_and_cleans_up(
        self, block_alignment, config, monkeypatch
    ):
        """An initializer that cannot attach must not crash-loop the pool
        (workers record the error and the first task reports it) and must
        not orphan segments."""
        from repro.datasets.alignment import SharedAlignmentSegments

        def broken_attach(spec):
            raise RuntimeError("no segments for you")

        before = _shm_entries()
        monkeypatch.setattr(
            SharedAlignmentSegments, "attach", staticmethod(broken_attach)
        )
        with pytest.raises(RuntimeError, match="failed to attach"):
            parallel_scan(block_alignment, config, n_workers=2)
        assert _shm_entries() == before


class TestParallelScanSession:
    @pytest.fixture
    def config(self, block_alignment):
        return OmegaConfig(
            grid=GridSpec(n_positions=10, max_window=block_alignment.length / 3)
        )

    def test_repeated_scans_identical(self, block_alignment, config):
        with ParallelScanSession(
            block_alignment, config, n_workers=2
        ) as session:
            first = session.scan()
            second = session.scan()
        np.testing.assert_array_equal(first.omegas, second.omegas)

    def test_session_scans_publish_no_r2_band(
        self, block_alignment, config, shm_names
    ):
        """A session's blocks fill their own r² regions, scan after scan,
        with the same bits."""
        with ParallelScanSession(
            block_alignment, config, n_workers=2
        ) as session:
            first = session.scan()
            second = session.scan()
            some = session.scan_positions(first.positions[2:7])
        assert_no_r2_band(shm_names, first, second, some)
        assert second.to_tsv() == first.to_tsv()
        # Each scan's blocks fill their regions themselves, the same way.
        fills = [
            r.metrics["counters"]["ld.fills"]
            for r in (first, second)
        ]
        assert fills[0] == fills[1] > 0

    def test_long_alignment_starts_and_scans(self, long_alignment):
        """A band over the whole alignment would exceed its 1 GiB cap;
        without one the session starts and scans."""
        config = OmegaConfig(grid=GridSpec(n_positions=4, max_window=30_000))
        with ParallelScanSession(
            long_alignment, config, n_workers=2
        ) as session:
            result = session.scan_positions(
                np.array([1.0e6, 1.0e6 + 500.0, 2.0e6])
            )
        assert result.omegas.size == 3
        assert (result.n_evaluations > 0).all()

    def test_exit_removes_segments(self, block_alignment, config):
        before = _shm_entries()
        with ParallelScanSession(
            block_alignment, config, n_workers=2
        ) as session:
            session.scan()
            assert len(_shm_entries()) > len(before)
        assert _shm_entries() == before

    def test_close_idempotent(self, block_alignment, config):
        session = ParallelScanSession(block_alignment, config, n_workers=2)
        session.start()
        session.close()
        session.close()

    def test_rejects_zero_workers(self, block_alignment, config):
        with pytest.raises(ScanConfigError):
            ParallelScanSession(block_alignment, config, n_workers=0)


class TestFixedPositionSpec:
    def test_positions_used_verbatim(self, block_alignment):
        from repro.core.parallel import fixed_position_spec

        base = GridSpec(
            n_positions=10, max_window=block_alignment.length / 3
        )
        fixed = np.array([10.0, 55.5, 90.0])
        spec = fixed_position_spec(base, fixed)
        np.testing.assert_array_equal(
            spec.positions_from(block_alignment.positions), fixed
        )
        # Window geometry rides along from the base spec.
        assert spec.max_window == base.max_window
        assert spec.min_window == base.min_window

    def test_plans_match_trusted_builder(self, block_alignment):
        """plans_for_positions over the base grid's own positions must
        reproduce build_plans_from_positions on the base spec exactly —
        admission pricing and the scheduler price the same plans."""
        from repro.core.costmodel import ScanCostModel
        from repro.core.grid import build_plans_from_positions
        from repro.core.parallel import plans_for_positions

        base = GridSpec(
            n_positions=10, max_window=block_alignment.length / 3
        )
        site_pos = block_alignment.positions
        direct = build_plans_from_positions(site_pos, base)
        via_helper = plans_for_positions(
            site_pos, base.positions_from(site_pos), base
        )
        model = ScanCostModel()
        np.testing.assert_array_equal(
            model.position_costs(via_helper), model.position_costs(direct)
        )

    def test_rejects_empty(self, block_alignment):
        from repro.core.parallel import fixed_position_spec

        base = GridSpec(
            n_positions=10, max_window=block_alignment.length / 3
        )
        with pytest.raises(ScanConfigError):
            fixed_position_spec(base, np.array([]))


class TestScanPositions:
    @pytest.fixture
    def config(self, block_alignment):
        return OmegaConfig(
            grid=GridSpec(
                n_positions=10, max_window=block_alignment.length / 3
            )
        )

    def test_full_grid_matches_session_scan(self, block_alignment, config):
        with ParallelScanSession(
            block_alignment, config, n_workers=2
        ) as session:
            own = session.scan()
            explicit = session.scan_positions(
                config.grid.positions_from(block_alignment.positions)
            )
        np.testing.assert_array_equal(explicit.positions, own.positions)
        np.testing.assert_array_equal(explicit.omegas, own.omegas)
        np.testing.assert_array_equal(
            explicit.n_evaluations, own.n_evaluations
        )

    def test_subgrid_matches_sequential(self, block_alignment, config):
        import dataclasses

        from repro.core.parallel import fixed_position_spec
        from repro.core.scan import OmegaPlusScanner

        sub = np.linspace(20.0, 100.0, 6)
        with ParallelScanSession(
            block_alignment, config, n_workers=2
        ) as session:
            got = session.scan_positions(sub)
        seq = OmegaPlusScanner(
            dataclasses.replace(
                config, grid=fixed_position_spec(config.grid, sub)
            )
        ).scan(block_alignment)
        assert_same_records(got, seq)

    def test_caller_registry_gets_scheduler_metrics(
        self, block_alignment, config
    ):
        """The request's registry gets every block's measured and
        estimated cost, each block is archived as a calibration pair,
        and the fold publishes the cost-model gauges — as for
        ``parallel_scan``."""
        import repro.obs as obs_mod
        from repro.core.costmodel import calibration_pairs, reset_cost_model

        registry = obs_mod.MetricsRegistry()
        reset_cost_model()
        try:
            with ParallelScanSession(
                block_alignment, config, n_workers=2
            ) as session:
                session.scan_positions(
                    np.linspace(20.0, 100.0, 6),
                    registry=registry,
                    request_id="req-test",
                )
            n_pairs = len(calibration_pairs())
        finally:
            reset_cost_model()
        snap = registry.snapshot()
        blocks = snap["counters"]["scheduler.blocks_dispatched"]
        assert blocks > 0
        assert snap["histograms"]["scheduler.block_seconds"]["count"] == blocks
        assert snap["histograms"]["scheduler.block_est_cost"]["count"] == blocks
        assert n_pairs == blocks
        assert "scheduler.cost_seconds_per_unit" in snap["gauges"]
        assert "scheduler.cost_calibration_blocks" in snap["gauges"]

    def test_rejects_empty_positions(self, block_alignment, config):
        with ParallelScanSession(
            block_alignment, config, n_workers=2
        ) as session:
            with pytest.raises(ScanConfigError):
                session.scan_positions(np.array([]))

    def test_calibration_converges_across_scans(
        self, block_alignment, config
    ):
        """Each scan folds its measured blocks into the running-sum fit:
        block counts accumulate and the fitted rate is always the ratio
        of the accumulated sums (regression for the fit previously being
        replaced by the last scan's ratio alone)."""
        from repro.core.costmodel import get_cost_model, reset_cost_model

        reset_cost_model()
        try:
            with ParallelScanSession(
                block_alignment, config, n_workers=2
            ) as session:
                seen_blocks = []
                for _ in range(3):
                    session.scan_positions(
                        config.grid.positions_from(block_alignment.positions)
                    )
                    model = get_cost_model()
                    seen_blocks.append(model.calibration_blocks)
                    assert model.seconds_per_unit == pytest.approx(
                        model.seconds_sum / model.est_cost_sum
                    )
            assert seen_blocks[0] > 0
            assert seen_blocks[0] < seen_blocks[1] < seen_blocks[2]
        finally:
            reset_cost_model()
