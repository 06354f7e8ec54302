#!/usr/bin/env python
"""LD fill ladder: the production GEMM fill against the packed reference.

Fills one off-diagonal tile with the production GEMM fill
(:class:`~repro.ld.operands.LDBackendFiller`) and with the word-level
popcount reference (:func:`~repro.ld.packed_kernels.r_squared_block_packed`)
across an ``n_samples x tile-size`` ladder, and gates on one property:
the GEMM fill is **bitwise identical** to the packed reference at every
point.

Both fill times land in ``timings`` (gated lower-is-better by
``check_regression.py``). Run as::

    PYTHONPATH=src python benchmarks/bench_ld_backends.py \\
        --repeats 3 --out-dir benchmarks/results

Exits non-zero when the bitwise gate fails, so CI fails loudly.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

if __package__ in (None, ""):
    sys.path.insert(0, str(pathlib.Path(__file__).parent))

from metrics_io import emit_bench_metrics  # noqa: E402

from repro.datasets.alignment import SNPAlignment  # noqa: E402
from repro.ld.operands import LDBackendFiller, LDOperands  # noqa: E402
from repro.ld.packed_kernels import r_squared_block_packed  # noqa: E402


def _alignment(n_samples: int, n_sites: int, seed: int) -> SNPAlignment:
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2, size=(n_samples, n_sites)).astype(np.uint8)
    positions = np.arange(1.0, n_sites + 1.0)
    return SNPAlignment(matrix, positions, float(n_sites + 1))


def _best_of_interleaved(fns: dict, repeats: int) -> dict:
    """Best-of-``repeats`` per function, measured round-robin so slow
    drift (CPU contention, frequency scaling) lands on every fill
    equally instead of biasing whichever ran last."""
    best = {name: float("inf") for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def run_point(
    n_samples: int, tile: int, repeats: int, seed: int
) -> tuple[dict, bool]:
    """Fill one (tile x tile) diagonal-adjacent block both ways; return
    ``{fill: seconds}`` and whether the GEMM fill is bitwise identical
    to the packed reference."""
    aln = _alignment(n_samples, 2 * tile, seed)
    rows, cols = slice(0, tile), slice(tile, 2 * tile)
    # Pre-materialize the operand planes: the ladder times the per-tile
    # fill kernels, not the one-off plane construction the cache exists
    # to amortize.
    ops = LDOperands(aln)
    ops.gemm_plane()
    packed = ops.packed()
    counts = ops.derived_counts()
    fill = LDBackendFiller(ops)

    def gemm():
        return fill(rows, cols)

    def reference():
        return r_squared_block_packed(packed, rows, cols, counts=counts)

    identical = gemm().tobytes() == reference().tobytes()
    timings = _best_of_interleaved(
        {"gemm": gemm, "packed": reference}, repeats
    )
    return timings, identical


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=5,
                    help="best-of-N timing repeats per point")
    ap.add_argument("--samples", type=int, nargs="+",
                    default=[64, 256, 1024],
                    help="sample-count ladder")
    ap.add_argument("--tiles", type=int, nargs="+", default=[64, 256],
                    help="tile-size ladder")
    ap.add_argument("--full", action="store_true",
                    help="extend the ladder to paper-scale points "
                    "(adds n_samples=4096 and tile=512)")
    ap.add_argument("--out-dir", default=None,
                    help="directory for BENCH_ld_backends.json")
    args = ap.parse_args()

    samples = sorted(set(args.samples + ([4096] if args.full else [])))
    tiles = sorted(set(args.tiles + ([512] if args.full else [])))

    timings: dict = {}
    failures: list = []
    for n in samples:
        for tile in tiles:
            point, identical = run_point(
                n, tile, args.repeats, seed=n * 31 + tile
            )
            key = f"n{n}_t{tile}"
            for name in ("gemm", "packed"):
                timings[f"{key}_{name}_seconds"] = point[name]
            if not identical:
                failures.append(
                    f"n={n} tile={tile}: the GEMM fill is not bitwise "
                    f"identical to the packed reference"
                )
            print(
                f"n={n:>5} tile={tile:>4}: "
                f"gemm {point['gemm'] * 1e3:8.3f} ms  "
                f"packed reference {point['packed'] * 1e3:8.3f} ms"
            )

    path = emit_bench_metrics(
        "ld_backends",
        timings=timings,
        meta={
            "samples": samples,
            "tiles": tiles,
            "repeats": args.repeats,
            "note": "fill times are best-of-repeats for one tile x tile "
            "off-diagonal block with pre-built operand planes",
        },
        out_dir=args.out_dir,
    )
    print(f"wrote {path}")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("OK: the GEMM fill matched the packed reference at every point")
    return 0


if __name__ == "__main__":
    sys.exit(main())
