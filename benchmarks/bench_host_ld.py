"""Host-side LD throughput: the three interchangeable r² implementations
measured for real on this machine (GEMM / packed popcount / tiled).

Not a paper artefact per se, but the measured counterpart of the LD cost
laws every model builds on — EXPERIMENTS.md quotes these numbers when
discussing what "one CPU core" means on modern hardware vs the paper's
2013-era laptop parts.
"""

import numpy as np

from repro.datasets.generators import random_alignment
from repro.datasets.packed import PackedAlignment
from repro.ld.gemm import r_squared_matrix
from repro.ld.packed_kernels import r_squared_matrix_packed
from repro.ld.tiled import TiledLDEngine

N_SAMPLES, N_SITES = 200, 600


def _pairs():
    return N_SITES * N_SITES


def test_ld_gemm(timed, report):
    aln = random_alignment(N_SAMPLES, N_SITES, seed=41)
    result, mean = timed(lambda: r_squared_matrix(aln))
    rate = _pairs() / mean
    report(
        "host LD throughput: GEMM backend",
        f"{rate / 1e6:.1f} Mscores/s at {N_SAMPLES} samples "
        f"(paper CPU law at this sample count: "
        f"{1e-6 / (5.2e-8 + 3.98e-11 * N_SAMPLES):.1f} M/s)",
    )
    assert result.shape == (N_SITES, N_SITES)


def test_ld_packed(timed, report):
    aln = random_alignment(N_SAMPLES, N_SITES, seed=41)
    packed = PackedAlignment.from_alignment(aln)
    result, mean = timed(lambda: r_squared_matrix_packed(packed, block=256))
    rate = _pairs() / mean
    report(
        "host LD throughput: packed popcount backend",
        f"{rate / 1e6:.1f} Mscores/s at {N_SAMPLES} samples",
    )
    assert result.shape == (N_SITES, N_SITES)


def test_ld_tiled_window_sums(benchmark, report):
    aln = random_alignment(N_SAMPLES, N_SITES, seed=41)
    engine = TiledLDEngine(aln, tile=128)

    def run():
        return engine.reduce_sum(
            slice(0, N_SITES), slice(0, N_SITES), distinct_pairs=True
        )

    total = benchmark(run)
    report(
        "host LD throughput: tiled window-sum (quickLD-style)",
        f"sum over {N_SITES * (N_SITES - 1) // 2} pairs = {total:.1f}",
    )
    assert total > 0


def test_backends_agree(benchmark, report):
    aln = random_alignment(N_SAMPLES, 200, seed=42)
    packed = PackedAlignment.from_alignment(aln)

    def run():
        return (
            r_squared_matrix(aln),
            r_squared_matrix_packed(packed, block=128),
        )

    gemm, pk = benchmark.pedantic(run, rounds=1, iterations=1)
    diff = float(np.abs(gemm - pk).max())
    report(
        "host LD backends cross-validation",
        f"max |gemm - packed| = {diff:.2e}",
    )
    assert diff < 1e-12
