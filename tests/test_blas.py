"""Tests for the OpenBLAS thread count of pool workers (``repro.utils.blas``).

Every pool, with or without the shared r² band, forks its workers on one
BLAS thread: the count is set in the parent around the fork and
restored, spawned workers read it from the environment, and no process
forked after import ever calls OpenBLAS's setter.
"""

import ctypes
import os
import sys
import types

import pytest

import repro.core.parallel as parallel
from repro.core.grid import GridSpec
from repro.core.parallel import ParallelScanSession, parallel_scan
from repro.core.scan import OmegaConfig
from repro.datasets.generators import haplotype_block_alignment
from repro.datasets.msformat import write_ms
from repro.service.service import _BandSession
from repro.shard import build_manifest, run_manifest
from repro.utils import blas

_scan_block = parallel._scan_block
#: Where :func:`_recording_scan_block` appends each block's thread count.
_THREADS_LOG = None


def _recording_scan_block(task):
    with open(_THREADS_LOG, "a", encoding="ascii") as fh:
        fh.write(f"{blas.blas_threads()}\n")
    return _scan_block(task)


def _forked_flag() -> bool:
    return blas._forked


@pytest.fixture(scope="module")
def aln():
    return haplotype_block_alignment(32, 200, seed=17)


@pytest.fixture(scope="module")
def config(aln):
    return OmegaConfig(
        grid=GridSpec(n_positions=12, max_window=aln.length / 4)
    )


@pytest.fixture
def lookup(monkeypatch):
    """``monkeypatch`` with the library lookup re-run under the test's
    patches and again afterwards."""
    lookup_fn = blas._openblas
    lookup_fn.cache_clear()
    yield monkeypatch
    lookup_fn.cache_clear()


@pytest.fixture
def openblas_threads():
    count = blas.blas_threads()
    if count is None:
        pytest.skip("numpy's bundled OpenBLAS is not available here")
    return count


def _worker_counts(session, n=4):
    return [session._pool.apply(blas.blas_threads) for _ in range(n)]


class TestPoolThreads:
    @pytest.mark.parametrize("mp_context", [None, "spawn"])
    def test_band_free_workers_run_one_thread(
        self, aln, config, openblas_threads, mp_context
    ):
        env = os.environ.get(blas.THREADS_ENV)
        session = ParallelScanSession(
            aln, config, n_workers=2, mp_context=mp_context
        )
        try:
            session.start()
            assert blas.blas_threads() == openblas_threads
            assert _worker_counts(session) == [1, 1, 1, 1]
        finally:
            session.close()
        assert blas.blas_threads() == openblas_threads
        assert os.environ.get(blas.THREADS_ENV) == env

    def test_band_workers_run_one_thread(
        self, aln, config, openblas_threads
    ):
        with _BandSession(aln, config, n_workers=2) as session:
            counts = _worker_counts(session)
            assert blas.blas_threads() == openblas_threads
        assert counts == [1, 1, 1, 1]

    def test_forked_workers_know_they_were_forked(self, aln, config):
        assert not blas._forked
        with ParallelScanSession(aln, config, n_workers=1) as session:
            assert session._pool.apply(_forked_flag)

    def test_shard_pool_workers_run_one_thread(
        self, tmp_path, monkeypatch, openblas_threads
    ):
        """A forked shard process may not set the count, so the runner
        starts it on one thread and its pool's workers inherit that."""
        path = str(tmp_path / "two.ms")
        write_ms(
            [
                haplotype_block_alignment(20, 80, seed=11),
                haplotype_block_alignment(20, 60, seed=12),
            ],
            path,
        )
        log = tmp_path / "threads.log"
        monkeypatch.setattr(sys.modules[__name__], "_THREADS_LOG", str(log))
        monkeypatch.setattr(parallel, "_scan_block", _recording_scan_block)
        manifest = build_manifest(
            [path],
            OmegaConfig(grid=GridSpec(n_positions=12, max_window=0.25)),
            manifest_path=str(tmp_path / "manifest.jsonl"),
            # A pooled shard's chunks hold whole blocks.
            snp_budget=90,
            workers_per_shard=2,
        )
        assert not run_manifest(manifest, max_workers=2).failed
        counts = log.read_text(encoding="ascii").split()
        assert counts and set(counts) == {"1"}
        assert blas.blas_threads() == openblas_threads


class TestChildBlasThreads:
    def _fake(self, lookup, count=4, variable=False):
        """A fake library whose count lives in a ``c_int``, as OpenBLAS's
        ``blas_cpu_number`` does; ``variable`` exports it."""
        calls = []
        cell = ctypes.c_int(count)

        def set_(n):
            calls.append(n)
            cell.value = n

        fake = blas._OpenBLAS(
            lambda: cell.value, set_, cell if variable else None
        )
        lookup.setattr(blas, "_openblas", lambda: fake)
        return calls, cell

    def test_sets_and_restores_by_the_variable(self, lookup):
        calls, cell = self._fake(lookup, variable=True)
        with blas.child_blas_threads():
            assert cell.value == 1
            assert os.environ[blas.THREADS_ENV] == "1"
        assert cell.value == 4
        assert calls == [1]

    def test_restores_by_the_setter_without_the_variable(self, lookup):
        calls, cell = self._fake(lookup)
        with blas.child_blas_threads():
            assert cell.value == 1
        assert calls == [1, 4]

    def test_never_calls_the_setter_in_a_forked_process(self, lookup):
        calls, cell = self._fake(lookup, variable=True)
        lookup.setattr(blas, "_forked", True)
        with blas.child_blas_threads():
            assert os.environ[blas.THREADS_ENV] == "1"
        assert calls == []
        assert cell.value == 4

    def test_skips_the_setter_at_the_target_count(self, lookup):
        calls, _ = self._fake(lookup, count=1)
        with blas.child_blas_threads():
            pass
        assert calls == []

    def test_restores_an_existing_environment_value(self, lookup):
        self._fake(lookup)
        lookup.setenv(blas.THREADS_ENV, "3")
        with blas.child_blas_threads():
            assert os.environ[blas.THREADS_ENV] == "1"
        assert os.environ[blas.THREADS_ENV] == "3"


class _NoSymbols:
    """A loaded library without OpenBLAS's thread symbols."""

    def __init__(self, path):
        self.path = path


def _missing_library(path):
    raise OSError(f"cannot load {path}")


class TestMissingOpenBLAS:
    @pytest.mark.parametrize("loader", [_missing_library, _NoSymbols])
    def test_helper_is_a_no_op_and_scans_are_identical(
        self, aln, config, lookup, loader
    ):
        want = parallel_scan(aln, config, n_workers=2)
        lookup.setattr(ctypes, "CDLL", loader)
        blas._openblas.cache_clear()
        assert blas.blas_threads() is None
        got = parallel_scan(aln, config, n_workers=2)
        assert got.to_tsv() == want.to_tsv()
        for field in ("omegas", "left_borders_bp", "right_borders_bp"):
            assert (
                getattr(got, field).tobytes() == getattr(want, field).tobytes()
            )

    def test_no_numpy_libs_directory(self, lookup):
        lookup.setattr(
            blas, "glob", types.SimpleNamespace(glob=lambda pattern: [])
        )
        assert blas.blas_threads() is None
