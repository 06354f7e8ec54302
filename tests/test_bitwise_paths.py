"""One contract for every entry point: byte-identical records.

Every path cuts its grid into the blocks of
:func:`repro.core.grid.make_blocks` and restarts the window-sum DP at
each block's first valid position, so each block is an independent
computation on history-free r². Each path's five result arrays must
therefore equal those of a sequential :class:`OmegaPlusScanner` scan of
the same grid, byte for byte — not to a tolerance.

The grid has 48 positions: four blocks of 15, 15, 15 and 3.
"""

import asyncio
import dataclasses
import glob

import numpy as np
import pytest

from repro.accel.fpga import ALVEO_U200, FPGAOmegaEngine, PipelineModel
from repro.accel.gpu import TESLA_K80, GPUOmegaEngine
from repro.core.grid import (
    GridSpec,
    build_plans,
    fixed_position_spec,
    make_blocks,
)
from repro.core.parallel import ParallelScanSession, parallel_scan
from repro.core.scan import OmegaConfig, OmegaPlusScanner, scan, scan_stream
from repro.datasets.alignment import SHM_NAME_PREFIX
from repro.datasets.generators import sweep_signature_alignment
from repro.datasets.msformat import parse_ms, write_ms
from repro.service import ScanRequest, ScanService
from repro.shard import build_manifest, merge_manifest, run_manifest

N_POSITIONS = 48
FIELDS = (
    "positions", "omegas", "left_borders_bp", "right_borders_bp",
    "n_evaluations",
)


@pytest.fixture(scope="module")
def ms_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bitwise") / "sweep.ms"
    write_ms([sweep_signature_alignment(40, 400, seed=2611)], str(path))
    return str(path)


@pytest.fixture(scope="module")
def aln(ms_path):
    return parse_ms(ms_path, length=1.0)[0].alignment


@pytest.fixture(scope="module")
def config():
    return OmegaConfig(
        grid=GridSpec(n_positions=N_POSITIONS, max_window=0.08)
    )


@pytest.fixture(scope="module")
def sequential(aln, config):
    return OmegaPlusScanner(config).scan(aln)


def _widest_block(aln, config):
    """Sites spanned by the widest block's ω regions: the smallest budget
    a pooled streamed scan accepts."""
    plans = build_plans(aln, config.grid)
    return max(
        max(p.region_stop for p in plans[lo:hi] if p.valid)
        - min(p.region_start for p in plans[lo:hi] if p.valid) + 1
        for lo, hi in make_blocks(len(plans))
    )


def _scan(aln, config, ms_path, tmp_path):
    return scan(
        aln, grid_size=N_POSITIONS, max_window=config.grid.max_window
    )


def _stream(aln, config, ms_path, tmp_path):
    plans = build_plans(aln, config.grid)
    widest = max(p.region_width for p in plans if p.valid)
    return scan_stream(aln, config, snp_budget=widest + 1)


def _stream_two_workers(aln, config, ms_path, tmp_path):
    return scan_stream(
        aln, config, snp_budget=_widest_block(aln, config), n_workers=2
    )


def _parallel(aln, config, ms_path, tmp_path):
    return parallel_scan(aln, config, n_workers=2)


def _session_twice(aln, config, ms_path, tmp_path):
    with ParallelScanSession(aln, config, n_workers=2) as session:
        first = session.scan()
        second = session.scan()
    _assert_same(second, first)
    return first


def _manifest(workers_per_shard):
    def run(aln, config, ms_path, tmp_path):
        manifest = build_manifest(
            [ms_path],
            config,
            manifest_path=str(tmp_path / "scan.manifest"),
            snp_budget=aln.n_sites,
            shards_per_unit=3,
            workers_per_shard=workers_per_shard,
            length=1.0,
        )
        assert len(manifest.shards) == 3
        assert not run_manifest(manifest, max_workers=2).failed
        return merge_manifest(manifest).combined

    return run


def _gpu(aln, config, ms_path, tmp_path):
    return GPUOmegaEngine(TESLA_K80).scan(aln, config)[0]


def _fpga(aln, config, ms_path, tmp_path):
    return FPGAOmegaEngine(PipelineModel(ALVEO_U200)).scan(aln, config)[0]


def _assert_same(got, want):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b, equal_nan=True), name


PATHS = {
    "scan": _scan,
    "scan_stream": _stream,
    "scan_stream_2_workers": _stream_two_workers,
    "parallel_scan": _parallel,
    "session_scan_twice": _session_twice,
    "manifest_3_shards": _manifest(1),
    "manifest_3_shards_2_workers": _manifest(2),
    "gpu_engine": _gpu,
    "fpga_engine": _fpga,
}


@pytest.mark.parametrize("path", list(PATHS))
def test_entry_point_equals_sequential_scan(
    path, aln, config, sequential, ms_path, tmp_path
):
    before = set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))
    got = PATHS[path](aln, config, ms_path, tmp_path)
    assert len(make_blocks(N_POSITIONS)) == 4
    _assert_same(got, sequential)
    assert set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*")) == before


def test_service_requests_equal_scans_of_their_grids(aln, config):
    """Each in-process service request — concurrent, over one pool —
    equals a sequential scan of that request's own grid."""
    requests = [
        ScanRequest(start_bp=0.05, stop_bp=0.6, n_positions=30),
        ScanRequest(start_bp=0.3, stop_bp=0.9, n_positions=30),
        ScanRequest(n_positions=N_POSITIONS),
    ]

    async def main():
        async with ScanService(aln, config, n_workers=2) as service:
            jobs = [await service.submit(r) for r in requests]
            results = await asyncio.gather(*(j.wait() for j in jobs))
            return [j.grid_positions for j in jobs], results

    before = set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))
    grids, results = asyncio.run(main())
    for grid, got in zip(grids, results):
        want = OmegaPlusScanner(
            dataclasses.replace(
                config, grid=fixed_position_spec(config.grid, grid)
            )
        ).scan(aln)
        _assert_same(got, want)
    assert set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*")) == before
