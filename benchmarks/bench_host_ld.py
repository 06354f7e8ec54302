"""Host-side LD throughput: the three interchangeable r² implementations
measured for real on this machine (GEMM / packed popcount / tiled).

Not a paper artefact per se, but the measured counterpart of the LD cost
laws every model builds on — EXPERIMENTS.md quotes these numbers when
discussing what "one CPU core" means on modern hardware vs the paper's
2013-era laptop parts.
"""

import time

import numpy as np

from repro.datasets.generators import random_alignment
from repro.datasets.packed import PackedAlignment
from repro.ld.gemm import r_squared_matrix
from repro.ld.packed_kernels import r_squared_matrix_packed
from repro.ld.tiled import TiledLDEngine

N_SAMPLES, N_SITES = 200, 600

#: The r² fill shape of a high-LD streamed scan (5 000 haplotypes,
#: 380-SNP regions, ~6 sites entering per grid position).
STRIP_SAMPLES, STRIP_COLS, STRIP_ROWS = 5000, 380, 6


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


def test_ld_thin_strips_vs_tall(benchmark, report):
    """Co-occurrence GEMM of the entering rows against the region's
    columns, as strided column views of one operand plane: one thin
    strip per grid position vs one strip W // 8 rows tall per buffer
    re-anchor, on a float64 plane and on the exact float32 plane."""
    tall = STRIP_COLS // 8
    rng = np.random.default_rng(43)
    bits = rng.integers(
        0, 2, size=(STRIP_SAMPLES, STRIP_COLS + tall), dtype=np.uint8
    )
    planes = {"float64": bits.astype(np.float64),
              "float32": bits.astype(np.float32)}
    variants = {
        f"{kind} {name}": (plane, rows)
        for name, plane in planes.items()
        for kind, rows in (("thin", STRIP_ROWS), ("tall", tall))
    }

    def strip(plane, rows):
        # The last ``rows`` sites entering against the region's columns.
        return plane[:, -rows:].T @ plane[:, -STRIP_COLS:]

    def run():
        # Best of 6 round-robin passes, so a slow spell of the BLAS
        # thread pool lands on every variant alike.
        best = dict.fromkeys(variants, float("inf"))
        for _ in range(6):
            for key, (plane, rows) in variants.items():
                t0 = time.perf_counter()
                strip(plane, rows)
                best[key] = min(best[key], time.perf_counter() - t0)
        # Per equivalent STRIP_ROWS-row strip.
        return {k: t * STRIP_ROWS / variants[k][1] for k, t in best.items()}

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "host LD fill: thin per-position strips vs tall fill-ahead strips",
        f"{STRIP_ROWS} x {STRIP_COLS} strips at {STRIP_SAMPLES} samples "
        f"(tall: {tall} rows), ms per {STRIP_ROWS}-row strip\n"
        + "\n".join(f"{k:14s} {v * 1e3:7.3f}" for k, v in times.items()),
    )
    # float32 products of 0/1 columns are exact: same counts as float64.
    np.testing.assert_array_equal(
        strip(planes["float32"], tall), strip(planes["float64"], tall)
    )
