"""Host-side ω throughput: what this machine's NumPy scanner actually
sustains, next to the paper's CPU rates.

The direct maximization is measured at several window sizes, as Eq. 2
evaluations (left x right border pairs) per second. The paper's CPU
model charges a flat cost per evaluation, and its single-core C code
scores 60-100 M a second. The host scores every evaluation only below
the tile-pruning gate: larger grids skip the tiles whose bound falls
short of the maximum, so each case also reports the share of the grid
it scored (``n_scored / n_evaluations``). Evaluations per second over a
partly scored grid are an effective rate, not a per-score cost.
"""

import time

import numpy as np
import pytest

from repro.core.batch import BatchedOmegaPlan, omega_max_batch
from repro.core.dp import SumMatrix
from repro.core.omega import omega_max_at_split
from repro.datasets.generators import (
    random_alignment,
    sweep_signature_alignment,
)
from repro.ld.gemm import r_squared_matrix


def _setup(n_sites, make=random_alignment):
    aln = make(40, n_sites, seed=51)
    sums = SumMatrix(r_squared_matrix(aln))
    c = n_sites // 2
    li = np.arange(0, c - 1)
    rj = np.arange(c + 2, n_sites)
    return sums, li, c, rj


def test_omega_crossover_window(timed, report):
    """16 x 16 borders (~2^8 scores): the cost model's
    batch_score_threshold, where positions start taking the direct path."""
    sums, li, c, rj = _setup(200)
    li, rj = li[-16:], rj[:16]
    _, mean = timed(lambda: omega_max_at_split(sums, li, c, rj))
    report(
        "host omega direct path at the batching crossover (16 x 16)",
        f"{mean * 1e6:.1f} us per position "
        f"({li.size * rj.size / mean / 1e6:.1f} Mscores/s)",
    )


def _throughput(timed, n_sites):
    """``(evaluations per second, scored share, report text)`` of the
    direct maximization at the centre split of an ``n_sites`` region."""
    sums, li, c, rj = _setup(n_sites)
    res, mean = timed(lambda: omega_max_at_split(sums, li, c, rj))
    rate = res.n_evaluations / mean
    share = res.n_scored / res.n_evaluations
    text = (
        f"{li.size} x {rj.size} borders: {rate / 1e6:.1f} M evaluations/s, "
        f"scoring {100.0 * share:.1f} % of them "
        f"(paper CPU core: 60-100 M scores/s, every evaluation scored)"
    )
    return rate, share, text


def test_omega_small_window(timed, report):
    _, share, text = _throughput(timed, 200)
    report("host omega throughput: ~10k evaluations/position", text)
    assert share == 1.0  # below the pruning gate


def test_omega_large_window(timed, report):
    rate, share, text = _throughput(timed, 1200)
    report("host omega throughput: ~360k evaluations/position", text)
    assert 0.0 < share < 1.0  # above the pruning gate
    assert rate > 1e6  # sanity floor


def test_dp_matrix_construction(timed, report):
    aln = random_alignment(40, 1000, seed=52)
    r2 = r_squared_matrix(aln)
    _, mean = timed(lambda: SumMatrix(r2))
    report(
        "host SumMatrix construction (1000-SNP region)",
        f"{mean * 1e3:.2f} ms per region "
        f"(O(W^2) prefix sums; amortized across all window sums at the "
        f"position)",
    )


def _seconds_per_call(fn, number, repeats=5):
    """Fastest of ``repeats`` means over ``number`` back-to-back calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


@pytest.mark.parametrize(
    "path, n_sites, make",
    [
        pytest.param("direct", 240, random_alignment, id="direct-240"),
        pytest.param("direct", 1200, random_alignment, id="direct-1200"),
        pytest.param(
            "direct", 240, sweep_signature_alignment, id="direct-sweep-240"
        ),
        pytest.param(
            "direct", 1200, sweep_signature_alignment, id="direct-sweep-1200"
        ),
        pytest.param("batched", 20, random_alignment, id="batched-20"),
    ],
)
def test_omega_per_position(report, path, n_sites, make):
    """Per-position cost of the ω evaluation at scan-plan borders (two-SNP
    flanks) and the share of it spent preparing operands: the one
    ``SumMatrix.split_operands`` read on the direct path (240-site
    regions are ``regions_serve``'s, 1 200-site ones ``balanced_ms``'s),
    and ``BatchedOmegaPlan.add`` next to its position's share of the
    batch evaluation on the batched path. The direct path also reports
    the share of the grid it scored: 1 200-site grids clear the pruning
    gate, and the sweep input carries the LD that real scans see, where
    the random input has almost none."""
    sums = _setup(n_sites, make)[0]
    c = n_sites // 2 - 1
    li = np.arange(0, c, dtype=np.intp)
    rj = np.arange(c + 2, n_sites, dtype=np.intp)
    if path == "direct":
        number = {240: 400, 1200: 10}[n_sites]
        prep = _seconds_per_call(
            lambda: sums.split_operands(li, c, rj), number
        )
        total = _seconds_per_call(
            lambda: omega_max_at_split(sums, li, c, rj), number
        )
        res = omega_max_at_split(sums, li, c, rj)
        how = (
            f"omega_max_at_split scoring {res.n_scored} "
            f"({100.0 * res.n_scored / res.n_evaluations:.0f} %)"
        )
    else:
        plan = BatchedOmegaPlan()
        per = plan.max_positions

        def pack():
            plan.reset()
            for _ in range(per):
                plan.add(sums, li, c, rj)

        prep = _seconds_per_call(pack, 30) / per
        pack()
        flush = _seconds_per_call(lambda: omega_max_batch(plan), 30)
        total = prep + flush / per
        how = f"BatchedOmegaPlan.add + omega_max_batch / {per}"
    report(
        f"host omega per position, {path} path, {n_sites}-site "
        f"{make.__name__} region",
        f"{li.size} x {rj.size} borders ({li.size * rj.size} scores), "
        f"{how}: {total * 1e6:.1f} us per position; operand preparation "
        f"{prep * 1e6:.1f} us ({100.0 * prep / total:.0f} %)",
    )
    assert 0.0 < prep < total
