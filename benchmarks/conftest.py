"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper and reports
reproduced-vs-published values through the ``report`` fixture, which
writes the artefact to ``benchmarks/results/<name>.txt`` *and* echoes it
to the terminal (bypassing pytest capture), so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
contains the full comparison.

Set ``REPRO_FULL=1`` to run figure sweeps at paper-scale grid sizes
(1 000 positions instead of the CI default 100).
"""

from __future__ import annotations

import os
import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Grid size used by the figure sweeps: the paper evaluates 1 000 omega
#: positions; CI runs use 100 (identical mechanisms, 10x less work).
FULL = bool(int(os.environ.get("REPRO_FULL", "0")))
GRID_SIZE = 1000 if FULL else 100


@pytest.fixture
def report(request, capsys):
    """Write a named artefact file and echo it to the live terminal."""

    def _report(title: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        name = request.node.name.replace("/", "_")
        path = RESULTS_DIR / f"{name}.txt"
        content = f"== {title} ==\n{text}\n"
        path.write_text(content, encoding="utf-8")
        with capsys.disabled():
            print(f"\n{content}", end="")

    return _report


@pytest.fixture
def timed(benchmark):
    """``timed(fn)`` benchmarks ``fn`` and returns ``(result, mean seconds
    per call)``. Under ``--benchmark-disable`` pytest-benchmark calls
    ``fn`` once and keeps no statistics, so that one call is timed."""

    def _timed(fn):
        t0 = time.perf_counter()
        result = benchmark(fn)
        if benchmark.stats is None:
            return result, time.perf_counter() - t0
        return result, benchmark.stats["mean"]

    return _timed


@pytest.fixture(scope="session")
def grid_size() -> int:
    return GRID_SIZE
