"""Host window-sum DP and block cold-start costs, at the region shapes of
the end-to-end benchmark's ``regions_serve`` (W = 240 sites, grid stride
20 sites) and ``highomega_parallel`` (W = 1 200, stride 22) workloads.

* **DP build + 3 extends** — what one scheduling block's
  :class:`~repro.core.reuse.SumMatrixCache` does over its first four
  positions: a reset seeded with the block's region starts, a cold
  anchored build whose planned span comes from their stride, then three
  appended fringes, all in one prefix buffer of about (W + W / 4)²
  floats.
* **DP forward walk** — 60 consecutive positions, as a sequential scan
  or a long block makes them: the time per appended fringe, and how
  often the live triangle moved back to the buffer's origin.
* **Block cold start in a worker** — a scanner over 4 and over 8
  consecutive grid positions that fills its own r² regions from the
  alignment's operand planes, held across scans as a pool worker holds
  them. ``t(n) = cold + n · step`` gives the per-position step
  ``(t8 - t4) / 4`` and the cold start ``t4 - 4 · step``: the first r²
  region, the DP build and the scanner set-up.
* **Block cold start through the pool** — the same 8 positions sent
  through a one-worker :class:`~repro.core.parallel.ParallelScanSession`
  as one block and as two blocks of 4; the difference adds the task's
  dispatch and the result's return and merge to the above.

The cold start in units of ``step`` is what the block rule's shortest
block, ``repro.core.grid.SHORTEST_BLOCK``, is weighed against.
"""

import dataclasses
import statistics
import time
from unittest import mock

import pytest

from repro.core import grid as grid_module
from repro.core import reuse
from repro.core.grid import GridSpec, build_plans, fixed_position_spec
from repro.core.parallel import ParallelScanSession
from repro.core.reuse import SumMatrixCache
from repro.core.scan import OmegaConfig, OmegaPlusScanner
from repro.datasets.generators import haplotype_block_alignment
from repro.ld.gemm import r_squared_block
from repro.ld.operands import operands_for

#: name -> (haplotypes, sites, length bp, max window bp, grid stride bp,
#: region width W and grid stride in sites). SNP density, window and
#: stride follow the e2e workloads; the chromosome is shortened to what
#: eight positions reach.
SHAPES = {
    "regions": (96, 1200, 100_000, 10_000, 50_000 / 29, 240, 20),
    "highomega": (128, 2000, 200_000, 60_000, 800_000 / 359, 1200, 22),
}

#: Positions in the DP forward walk: twice a 30-position service request.
WALK_POSITIONS = 60


def _alignment(shape, n_sites=None):
    n_hap, shape_sites, length = SHAPES[shape][:3]
    n_sites = n_sites or shape_sites
    return haplotype_block_alignment(
        n_hap, n_sites, length=length * n_sites / shape_sites, seed=91
    )


def _buffer(cache):
    """The DP cache's prefix buffer, described for a report."""
    side = cache._buf.shape[0]
    return f"buffer {side} x {side} = {cache._buf.nbytes / 2**20:.2f} MiB"


@pytest.mark.parametrize("shape", list(SHAPES))
def test_dp_build_and_extends(timed, report, shape):
    width, stride = SHAPES[shape][5:]
    aln = _alignment(shape)
    span = slice(0, width + 3 * stride)
    r2 = r_squared_block(aln, span, span)
    regions = [(k * stride, k * stride + width - 1) for k in range(4)]

    def block_start():
        cache = SumMatrixCache()
        cache.reset(tuple(start for start, _stop in regions))
        actions = []
        for start, stop in regions:
            cache.region_sums(
                start, stop, r2[start : stop + 1, start : stop + 1]
            )
            actions.append(cache.last_action)
        return actions, cache

    (actions, cache), mean = timed(block_start)
    report(
        f"host DP: one build + 3 extends, W = {width}, stride {stride}",
        f"{mean * 1e3:.3f} ms ({_buffer(cache)})",
    )
    assert actions == ["build", "extend", "extend", "extend"]


@pytest.mark.parametrize("shape", list(SHAPES))
def test_dp_forward_walk(timed, report, shape):
    width, stride = SHAPES[shape][5:]
    n_sites = width + (WALK_POSITIONS - 1) * stride
    span = slice(0, n_sites)
    r2 = r_squared_block(_alignment(shape, n_sites), span, span)
    regions = [
        (k * stride, k * stride + width - 1) for k in range(WALK_POSITIONS)
    ]
    per_extend = []

    def walk():
        cache = SumMatrixCache()
        seconds, extends = 0.0, 0
        for start, stop in regions:
            region = r2[start : stop + 1, start : stop + 1]
            t0 = time.perf_counter()
            cache.region_sums(start, stop, region)
            if cache.last_action == "extend":
                seconds += time.perf_counter() - t0
                extends += 1
        per_extend.append(seconds / extends)
        return cache

    timed(walk)
    ms_per_extend = statistics.median(per_extend) * 1e3
    with mock.patch.object(
        reuse, "_copy_lower", wraps=reuse._copy_lower
    ) as moves:
        cache = walk()
    builds = cache.stats.dp_builds
    report(
        f"host DP: forward walk of {WALK_POSITIONS} positions, W = {width}, "
        f"stride {stride}",
        f"{ms_per_extend:.3f} ms per extend "
        f"({WALK_POSITIONS - builds} extends, {builds} builds), "
        f"{moves.call_count} moves, {_buffer(cache)}",
    )
    assert builds < WALK_POSITIONS // 4


def _grid(shape):
    """Eight consecutive grid positions mid-chromosome and their config."""
    length, maxwin, stride_bp = SHAPES[shape][2:5]
    centre = length / 2 - 3.5 * stride_bp
    positions = [centre + k * stride_bp for k in range(8)]
    grid = GridSpec(n_positions=8, max_window=maxwin)
    return positions, OmegaConfig(grid=grid)


def _in_steps(step, cold):
    return (
        f"{step * 1e3:.2f} ms per position, cold start {cold * 1e3:.2f} ms "
        f"= {cold / step:.1f} positions"
    )


@pytest.fixture(scope="module", params=list(SHAPES))
def block_scan(request):
    """``(shape, max region width, scan(n))``: ``scan(n)`` scans the first
    ``n`` of eight grid positions, as one block of a pool worker."""
    shape = request.param
    aln = _alignment(shape)
    positions, base = _grid(shape)
    plans = build_plans(aln, fixed_position_spec(base.grid, positions))
    max_width = max(p.region_width for p in plans if p.valid)
    operands = operands_for(aln)  # held, as a worker holds its planes

    def scan(n):
        config = dataclasses.replace(
            base, grid=fixed_position_spec(base.grid, positions[:n])
        )
        return OmegaPlusScanner(config).scan(aln)

    scan(8)  # build the operand planes every block below reads
    yield shape, max_width, scan
    del operands


def test_block_cold_start(timed, report, block_scan):
    shape, max_width, scan = block_scan
    seconds = {4: [], 8: []}

    def both():
        for n in seconds:
            t0 = time.perf_counter()
            result = scan(n)
            seconds[n].append(time.perf_counter() - t0)
            assert result.omegas.size == n

    timed(both)
    t4 = statistics.median(seconds[4])
    t8 = statistics.median(seconds[8])
    step = (t8 - t4) / 4
    report(
        f"host block cold start in a worker ({shape}, regions up to "
        f"{max_width} sites)",
        f"4 positions {t4 * 1e3:.2f} ms, 8 positions {t8 * 1e3:.2f} ms: "
        + _in_steps(step, t4 - 4 * step),
    )


@pytest.mark.parametrize("shape", list(SHAPES))
def test_block_cold_start_in_pool(timed, report, shape):
    positions, config = _grid(shape)
    runs = {(4, 4): [], (8, 8): [], (8, 4): []}  # (positions, block size)
    with ParallelScanSession(
        _alignment(shape), config, n_workers=1
    ) as session:

        def all_runs():
            for n, size in runs:
                t0 = time.perf_counter()
                with mock.patch.multiple(
                    grid_module, SHORTEST_BLOCK=size, LONGEST_BLOCK=size
                ):
                    result = session.scan_positions(positions[:n])
                runs[n, size].append(time.perf_counter() - t0)
                assert result.omegas.size == n

        session.scan_positions(positions)  # warm the worker
        timed(all_runs)
    t4, t8, t8_split = (statistics.median(v) for v in runs.values())
    report(
        f"host block cold start through a 1-worker pool ({shape})",
        f"4 positions {t4 * 1e3:.2f} ms, 8 positions {t8 * 1e3:.2f} ms as "
        f"1 block and {t8_split * 1e3:.2f} ms as 2: "
        + _in_steps((t8 - t4) / 4, t8_split - t8),
    )
