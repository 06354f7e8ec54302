"""Unit tests for grid positions and window planning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import GridSpec, build_plans
from repro.datasets.alignment import SNPAlignment
from repro.datasets.generators import random_alignment
from repro.errors import ScanConfigError


def uniform_alignment(n_sites=50, spacing=10.0):
    """Sites at 5, 15, 25, ... for predictable window arithmetic."""
    positions = np.arange(n_sites) * spacing + spacing / 2
    rng = np.random.default_rng(0)
    matrix = rng.integers(0, 2, size=(10, n_sites)).astype(np.uint8)
    return SNPAlignment(matrix, positions, n_sites * spacing)


class TestGridSpec:
    def test_valid(self):
        GridSpec(n_positions=10, max_window=100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_positions": 0, "max_window": 10.0},
            {"n_positions": 5, "max_window": 0.0},
            {"n_positions": 5, "max_window": 10.0, "min_window": -1.0},
            {"n_positions": 5, "max_window": 10.0, "min_window": 10.0},
            {"n_positions": 5, "max_window": 10.0, "min_flank_snps": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises((ScanConfigError, ValueError)):
            GridSpec(**kwargs)

    def test_positions_span_snp_range(self):
        aln = uniform_alignment(50)
        spec = GridSpec(n_positions=5, max_window=100.0)
        pos = spec.positions(aln)
        assert pos[0] == pytest.approx(aln.positions[0])
        assert pos[-1] == pytest.approx(aln.positions[-1])
        assert np.all(np.diff(pos) > 0)

    def test_single_position_at_midpoint(self):
        aln = uniform_alignment(50)
        spec = GridSpec(n_positions=1, max_window=100.0)
        pos = spec.positions(aln)
        mid = (aln.positions[0] + aln.positions[-1]) / 2
        assert pos[0] == pytest.approx(mid)

    def test_needs_two_snps(self):
        aln = SNPAlignment(
            np.array([[1], [0]], dtype=np.uint8), np.array([5.0]), 10.0
        )
        with pytest.raises(ScanConfigError, match="at least 2"):
            GridSpec(n_positions=2, max_window=5.0).positions(aln)


class TestBuildPlans:
    def test_plan_count_matches_grid(self):
        aln = uniform_alignment(50)
        spec = GridSpec(n_positions=7, max_window=100.0)
        assert len(build_plans(aln, spec)) == 7

    def test_region_respects_max_window(self):
        aln = uniform_alignment(100, spacing=10.0)
        spec = GridSpec(n_positions=5, max_window=55.0)
        for plan in build_plans(aln, spec):
            if not plan.valid:
                continue
            left_pos = aln.positions[plan.region_start]
            right_pos = aln.positions[plan.region_stop]
            assert plan.grid_position - left_pos <= 55.0 + 1e-9
            assert right_pos - plan.grid_position <= 55.0 + 1e-9

    def test_split_is_left_of_position(self):
        aln = uniform_alignment(60)
        spec = GridSpec(n_positions=9, max_window=80.0)
        for plan in build_plans(aln, spec):
            # split SNP at or left of the position (except the boundary
            # clamp at the extreme right)
            if plan.split_index < aln.n_sites - 2:
                assert aln.positions[plan.split_index] <= plan.grid_position + 1e-9

    def test_min_window_excludes_near_borders(self):
        aln = uniform_alignment(100, spacing=10.0)
        near = GridSpec(n_positions=3, max_window=200.0, min_window=0.0)
        far = GridSpec(n_positions=3, max_window=200.0, min_window=50.0)
        plans_near = build_plans(aln, near)
        plans_far = build_plans(aln, far)
        for pn, pf in zip(plans_near, plans_far):
            if pf.valid:
                assert pf.n_evaluations < pn.n_evaluations
                # all far left borders at least 50 bp away
                d = pf.grid_position - aln.positions[pf.left_borders]
                assert (d >= 50.0 - 1e-9).all()

    def test_min_flank_snps(self):
        aln = uniform_alignment(60)
        spec = GridSpec(n_positions=5, max_window=100.0, min_flank_snps=3)
        for plan in build_plans(aln, spec):
            if not plan.valid:
                continue
            # left window from border i to split has >= 3 SNPs
            assert (plan.split_index - plan.left_borders + 1 >= 3).all()
            assert (plan.right_borders - plan.split_index >= 3).all()

    def test_snp_desert_positions_invalid(self):
        """A grid position with no SNPs in window range must yield an
        invalid (skipped) plan, not an error."""
        positions = np.concatenate(
            [np.linspace(5, 100, 20), np.linspace(900, 995, 20)]
        )
        rng = np.random.default_rng(1)
        matrix = rng.integers(0, 2, size=(8, 40)).astype(np.uint8)
        aln = SNPAlignment(matrix, positions, 1000.0)
        spec = GridSpec(n_positions=11, max_window=50.0)
        plans = build_plans(aln, spec)
        mid_plans = [p for p in plans if 200 < p.grid_position < 800]
        assert mid_plans and all(not p.valid for p in mid_plans)

    def test_n_evaluations_product(self):
        aln = uniform_alignment(40)
        spec = GridSpec(n_positions=3, max_window=150.0)
        for plan in build_plans(aln, spec):
            assert plan.n_evaluations == plan.left_borders.size * plan.right_borders.size

    def test_region_width(self):
        aln = uniform_alignment(40)
        spec = GridSpec(n_positions=3, max_window=150.0)
        for plan in build_plans(aln, spec):
            assert plan.region_width == plan.region_stop - plan.region_start + 1

    def test_borders_inside_region(self):
        aln = random_alignment(10, 80, seed=5)
        spec = GridSpec(n_positions=13, max_window=aln.length / 4)
        for plan in build_plans(aln, spec):
            if not plan.valid:
                continue
            assert plan.left_borders.min() >= plan.region_start
            assert plan.right_borders.max() <= plan.region_stop
            assert (plan.left_borders <= plan.split_index).all()
            assert (plan.right_borders > plan.split_index).all()


def _loop_plans(site_positions, spec):
    """The per-position planning loop that ``build_plans_from_positions``
    replaced, kept verbatim as the reference: four scalar searchsorted
    calls per grid position."""
    from repro.core.grid import PositionPlan

    pos = np.asarray(site_positions)
    n_sites = pos.size
    plans = []
    for centre in spec.positions_from(pos):
        c = int(np.searchsorted(pos, centre, side="right")) - 1
        c = max(0, min(c, n_sites - 2))

        lo = int(np.searchsorted(pos, centre - spec.max_window, side="left"))
        hi = int(np.searchsorted(pos, centre + spec.max_window, side="right")) - 1

        if spec.min_window > 0.0:
            left_max = (
                int(np.searchsorted(pos, centre - spec.min_window, side="right"))
                - 1
            )
            right_min = int(
                np.searchsorted(pos, centre + spec.min_window, side="left")
            )
        else:
            left_max, right_min = c, c + 1

        left_max = min(left_max, c - (spec.min_flank_snps - 1))
        right_min = max(right_min, c + spec.min_flank_snps)

        left_borders = (
            np.arange(lo, left_max + 1, dtype=np.intp)
            if left_max >= lo
            else np.zeros(0, dtype=np.intp)
        )
        right_borders = (
            np.arange(right_min, hi + 1, dtype=np.intp)
            if hi >= right_min
            else np.zeros(0, dtype=np.intp)
        )
        plans.append(
            PositionPlan(
                grid_position=float(centre),
                split_index=c,
                region_start=lo,
                region_stop=hi,
                left_borders=left_borders,
                right_borders=right_borders,
            )
        )
    return plans


def _assert_plans_identical(got, want):
    """Every field equal in value and type, borders in dtype and bytes,
    and no border array shared between two plans."""
    assert len(got) == len(want)
    seen = []
    for g, w in zip(got, want):
        for name in ("grid_position", "split_index", "region_start",
                     "region_stop"):
            a, b = getattr(g, name), getattr(w, name)
            assert type(a) is type(b), name
            assert a == b or (a != a and b != b), name
        for name in ("left_borders", "right_borders"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
            seen.append(a)
    for i, a in enumerate(seen):
        for b in seen[i + 1:]:
            assert not np.shares_memory(a, b)


class TestVectorizedPlanning:
    """``build_plans_from_positions`` plans every position with one
    vectorized ``searchsorted`` per bound; the plans must equal the old
    per-position loop's in every field."""

    @staticmethod
    def _positions(draw_ints, scale):
        # Sorted site positions with ties (duplicate coordinates).
        return np.sort(np.asarray(draw_ints, dtype=np.float64)) * scale

    @given(
        sites=st.lists(st.integers(0, 400), min_size=2, max_size=80),
        scale=st.sampled_from([1.0, 0.37, 125.0]),
        n_positions=st.integers(1, 40),
        max_window=st.floats(0.5, 300.0),
        min_frac=st.sampled_from([0.0, 0.0, 0.1, 0.5, 0.9]),
        flank=st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_equidistant_grid_matches_loop(
        self, sites, scale, n_positions, max_window, min_frac, flank
    ):
        from repro.core.grid import build_plans_from_positions

        pos = self._positions(sites, scale)
        spec = GridSpec(
            n_positions=n_positions,
            max_window=max_window * scale,
            min_window=min_frac * max_window * scale,
            min_flank_snps=flank,
        )
        _assert_plans_identical(
            build_plans_from_positions(pos, spec), _loop_plans(pos, spec)
        )

    @given(
        sites=st.lists(st.integers(0, 400), min_size=2, max_size=60),
        points=st.lists(
            st.floats(-100.0, 500.0, allow_nan=False), min_size=1,
            max_size=30,
        ),
        max_window=st.floats(0.5, 300.0),
        min_frac=st.sampled_from([0.0, 0.25, 0.75]),
        flank=st.integers(1, 3),
        int_sites=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_fixed_grid_matches_loop(
        self, sites, points, max_window, min_frac, flank, int_sites
    ):
        """Explicit grids, unsorted and with points outside the sites,
        over float or integer site coordinates."""
        from repro.core.grid import (
            build_plans_from_positions,
            fixed_position_spec,
        )

        pos = np.sort(np.asarray(sites, dtype=np.int64))
        if not int_sites:
            pos = pos.astype(np.float64)
        spec = fixed_position_spec(
            GridSpec(
                n_positions=1,
                max_window=max_window,
                min_window=min_frac * max_window,
                min_flank_snps=flank,
            ),
            np.asarray(points),
        )
        _assert_plans_identical(
            build_plans_from_positions(pos, spec), _loop_plans(pos, spec)
        )

    def test_alignment_scale_grid_matches_loop(self):
        aln = random_alignment(8, 3000, seed=4)
        spec = GridSpec(n_positions=500, max_window=aln.length / 30,
                        min_window=aln.length / 3000)
        _assert_plans_identical(
            build_plans(aln, spec), _loop_plans(aln.positions, spec)
        )
