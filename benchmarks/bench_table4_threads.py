"""E10 — Table IV: generic multithreaded OmegaPlus ω throughput for an
increasing number of threads on the 4-core i7-6700HQ.

The scaling law (near-linear to 4 cores, saturating SMT bonus beyond) is
printed against the published column; the benchmark also runs the *real*
multiprocess scanner to verify the partitioning machinery on this host
(single-core containers show no wall-clock gain, but report equality is
asserted), and measures the serialized payload of each block task the
shared-memory scheduler submits (segment names, never the alignment).
"""

import pickle
from multiprocessing.pool import Pool

import numpy as np

from repro.analysis.tables import render_table, table4_rows
from repro.core.grid import GridSpec
from repro.core.parallel import ParallelScanSession, parallel_scan
from repro.core.scan import OmegaConfig, OmegaPlusScanner
from repro.datasets.generators import haplotype_block_alignment


def test_table4_reproduction(benchmark, report):
    rows = benchmark(table4_rows)
    report(
        "E10: Table IV — multithreaded omega throughput (model vs paper)",
        render_table(rows),
    )
    for row in rows:
        assert abs(float(row["deviation"].rstrip("%"))) < 3.0


def test_real_multiprocess_scan(benchmark, report):
    alignment = haplotype_block_alignment(50, 600, seed=21)
    config = OmegaConfig(
        grid=GridSpec(n_positions=16, max_window=alignment.length / 4)
    )
    sequential = OmegaPlusScanner(config).scan(alignment)

    def run():
        return parallel_scan(alignment, config, n_workers=4)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    identical = bool(
        np.allclose(result.omegas, sequential.omegas, rtol=1e-12)
    )
    report(
        "E10b: real multiprocess scan (4 workers)",
        f"report identical to sequential scanner: {identical}\n"
        f"host core count bounds the wall-clock gain; the paper's "
        f"4-core scaling lives in the Table IV model above",
    )
    assert identical


def test_task_payload_bytes(report, monkeypatch):
    """Per-task serialized payload of the tasks the session actually
    submits: each names its shared segments instead of carrying the
    alignment, so a task is the same size whatever the alignment size."""
    submitted = []
    imap_unordered = Pool.imap_unordered

    def recording(self, func, iterable, chunksize=1):
        tasks = list(iterable)
        submitted.append(tasks)
        return imap_unordered(self, func, tasks, chunksize)

    monkeypatch.setattr(Pool, "imap_unordered", recording)
    config = OmegaConfig(grid=GridSpec(n_positions=24, max_window=6000.0))
    lines = []
    task_bytes = {}
    for n_sites in (600, 6000):
        alignment = haplotype_block_alignment(50, n_sites, seed=21)
        with ParallelScanSession(alignment, config, n_workers=4) as session:
            session.scan()
        tasks = submitted.pop()
        sizes = {len(pickle.dumps(task)) for task in tasks}
        task_bytes[n_sites] = sizes
        lines.append(
            f"{n_sites:>5} sites ({alignment.matrix.nbytes:>7d} B matrix): "
            f"{len(tasks)} tasks of {'/'.join(map(str, sorted(sizes)))} B"
        )
    report(
        "E10d: serialized bytes shipped to workers per block task",
        "\n".join(lines),
    )
    # The task does not grow with the alignment: it ships segment names,
    # the block's grid positions and its index, never the matrix.
    assert task_bytes[600] == task_bytes[6000]
    assert max(task_bytes[6000]) < 1024
