"""Host ms ingest throughput: ``parse_ms`` and the streaming reader's
index and chunk passes, at the input shapes of the end-to-end
benchmark's ms workloads.

Regular files take the fixed-width row reader (whole-row batches,
checked and sliced by numpy); the padded-row case takes the line
parser the reader falls back to, so the two rates show what the layout
buys.
"""

import numpy as np
import pytest

from repro.datasets.msformat import parse_ms
from repro.datasets.streaming import StreamingAlignmentReader

#: ``balanced_ms`` and ``highld_ms_stream`` input shapes (haplotypes x
#: sites) of ``benchmarks/e2e``.
BALANCED = (2000, 4000)
HIGHLD = (5000, 4000)

#: Six overlapping 1 000-site windows, as ``scan_stream`` reads the
#: high-LD input at ``snp_budget=1000``.
WINDOWS = [(lo, min(HIGHLD[1], lo + 1000)) for lo in range(0, 3600, 700)]


def _write_ms(path, shape, seed, pad=b""):
    """One replicate of random haplotypes; ``pad`` follows every row."""
    n_hap, n_sites = shape
    cells = np.random.default_rng(seed).integers(
        0, 2, shape, dtype=np.uint8
    )
    rows = np.empty((n_hap, n_sites + len(pad) + 1), dtype=np.uint8)
    rows[:, :n_sites] = cells + ord("0")
    rows[:, n_sites:-1] = np.frombuffer(pad, dtype=np.uint8)
    rows[:, -1] = ord("\n")
    positions = " ".join(
        f"{(k + 0.5) / n_sites:.6f}" for k in range(n_sites)
    )
    head = (
        f"ms {n_hap} 1\n1 2 3\n\n//\nsegsites: {n_sites}\n"
        f"positions: {positions}\n"
    )
    path.write_bytes(head.encode("ascii") + rows.tobytes())
    return str(path), rows.size


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("ingest")
    return {
        "balanced": _write_ms(work / "balanced.ms", BALANCED, seed=71),
        "highld": _write_ms(work / "highld.ms", HIGHLD, seed=72),
        "padded": _write_ms(work / "padded.ms", HIGHLD, seed=72, pad=b" "),
    }


def _stream(path):
    reader = StreamingAlignmentReader(path, format="ms", length=1e6)
    return [chunk.n_sites for chunk in reader.windows(WINDOWS)]


def test_ingest_parse_ms(timed, report, inputs):
    path, row_bytes = inputs["balanced"]
    reps, mean = timed(lambda: parse_ms(path, length=1e6))
    report(
        "host ms ingest: parse_ms",
        f"{BALANCED[0]} x {BALANCED[1]}: {mean * 1e3:.1f} ms, "
        f"{row_bytes / mean / 1e6:.0f} MB/s of rows",
    )
    assert reps[0].alignment.matrix.shape == BALANCED


@pytest.mark.parametrize("case", ["highld", "padded"])
def test_ingest_stream_windows(timed, report, inputs, case):
    path, row_bytes = inputs[case]
    sites, mean = timed(lambda: _stream(path))
    passes = 1 + len(WINDOWS)
    route = "line parser" if case == "padded" else "fixed-width rows"
    report(
        f"host ms ingest: index + {len(WINDOWS)} windows ({route})",
        f"{HIGHLD[0]} x {HIGHLD[1]}: {mean * 1e3:.1f} ms for {passes} "
        f"passes over the rows, "
        f"{passes * row_bytes / mean / 1e6:.0f} MB/s of rows",
    )
    assert sum(sites) == sum(hi - lo for lo, hi in WINDOWS)
