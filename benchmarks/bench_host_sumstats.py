"""Host throughput of the summary-statistics layer (signatures a/b).

Not a paper artefact; measures the sliding-window machinery that the
signature-tour example and the non-equilibrium analyses rely on, so
regressions in the supporting statistics are caught alongside the core.
"""

import numpy as np

from repro.analysis.sumstats import sliding_windows, tajimas_d
from repro.datasets.generators import random_alignment


def test_sliding_window_throughput(timed, report):
    aln = random_alignment(60, 3000, seed=61)

    def run():
        return sliding_windows(
            aln,
            window_bp=aln.length / 30,
            statistics=("theta_w", "pi", "tajimas_d", "fay_wu_h"),
        )

    windows, mean = timed(run)
    rate = len(windows) * 4 / mean
    report(
        "host sumstats throughput",
        f"{len(windows)} windows x 4 statistics on 60x3000: "
        f"{rate:.0f} statistic evaluations/s",
    )
    assert len(windows) >= 30


def test_tajimas_d_throughput(benchmark, report):
    alignments = [random_alignment(60, 500, seed=s) for s in range(10)]

    def run():
        return [tajimas_d(a) for a in alignments]

    values = benchmark(run)
    report(
        "host Tajima's D throughput",
        f"10 alignments (60x500) per call, mean D = {np.mean(values):+.3f}",
    )
    assert len(values) == 10
