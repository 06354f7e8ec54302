#!/usr/bin/env python
"""LD backend ladder: gemm vs blocked-packed vs auto tile fills.

Measures the r² tile-fill time of every LD backend across an
``n_samples x tile-size`` ladder, asserting the properties the operand-
plane layer promises:

* all backends (gemm, blocked packed, and the cost-model-driven
  ``auto``) produce **bitwise identical** r² tiles;
* ``auto`` lands within ``--auto-tolerance`` (default 5 %) of the best
  fixed backend at every ladder point, after calibrating the crossover
  constants on this machine.

Absolute fill times land in ``timings`` (gated lower-is-better by
``check_regression.py``), together with the machine-portable worst-case
``auto_over_best_ratio``. Run as::

    PYTHONPATH=src python benchmarks/bench_ld_backends.py \\
        --repeats 3 --out-dir benchmarks/results

Exits non-zero when any assertion fails, so CI fails loudly.
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

from repro.core.costmodel import (  # noqa: E402
    calibrate_ld_crossover,
    get_cost_model,
    reset_cost_model,
)
from repro.datasets.alignment import SNPAlignment  # noqa: E402
from repro.datasets.packed import PackedAlignment  # noqa: E402
from repro.ld.gemm import r_squared_block  # noqa: E402
from repro.ld.operands import LDBackendFiller, LDOperands  # noqa: E402
from repro.ld.packed_kernels import r_squared_block_packed  # noqa: E402


def _alignment(n_samples: int, n_sites: int, seed: int) -> SNPAlignment:
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2, size=(n_samples, n_sites)).astype(np.uint8)
    positions = np.arange(1.0, n_sites + 1.0)
    return SNPAlignment(matrix, positions, float(n_sites + 1))


def _best_of_interleaved(fns: dict, repeats: int) -> dict:
    """Best-of-``repeats`` per function, measured round-robin so slow
    drift (CPU contention, frequency scaling) lands on every backend
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
) -> tuple[dict, list]:
    """Fill one (tile x tile) diagonal-adjacent block with every backend;
    return {backend: seconds} plus any bitwise-identity violations.

    Assumes :func:`calibrate_ld_crossover` already ran for this
    ``n_samples`` (the caller calibrates once per rung, at the ladder's
    own tile sizes, so the auto pick rests on in-situ measurements).
    """
    n_sites = 2 * tile
    aln = _alignment(n_samples, n_sites, seed)
    packed = PackedAlignment.from_alignment(aln)
    rows, cols = slice(0, tile), slice(tile, 2 * tile)
    # Pre-materialize the operand planes: the ladder times the per-tile
    # fill kernels, not the one-off plane construction the cache exists
    # to amortize.
    ops = LDOperands(aln)
    ops.gemm_plane()
    ops.packed()
    counts = ops.derived_counts()
    auto = LDBackendFiller(ops, "auto")

    # Warm-up pass doubles as the bitwise-identity corpus.
    ref = r_squared_block(aln, rows, cols, operands=ops)
    outputs = {
        "packed": r_squared_block_packed(packed, rows, cols, counts=counts),
        "auto": auto(rows, cols),
    }
    timings = _best_of_interleaved(
        {
            "gemm": lambda: r_squared_block(aln, rows, cols, operands=ops),
            "packed": lambda: r_squared_block_packed(
                packed, rows, cols, counts=counts
            ),
            "auto": lambda: auto(rows, cols),
        },
        repeats,
    )
    timings["auto_pick"] = 0.0 if auto.pick(tile, tile) == "gemm" else 1.0

    violations = []
    for name, got in outputs.items():
        if got.tobytes() != ref.tobytes():
            violations.append(
                f"n={n_samples} tile={tile}: backend {name!r} is not "
                f"bitwise identical to gemm"
            )
    return timings, violations


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
    ap.add_argument("--auto-tolerance", type=float, default=0.05,
                    help="allowed auto-vs-best relative slack")
    ap.add_argument("--auto-epsilon", type=float, default=50e-6,
                    help="absolute slack (seconds) added to the auto "
                    "gate so microsecond-scale points do not flap")
    ap.add_argument("--out-dir", default=None,
                    help="directory for BENCH_ld_backends.json")
    args = ap.parse_args()

    samples = sorted(set(args.samples + ([4096] if args.full else [])))
    tiles = sorted(set(args.tiles + ([512] if args.full else [])))

    timings: dict = {}
    values: dict = {}
    failures: list = []
    worst_auto_ratio = 0.0

    for n in samples:
        # Calibrate the crossover once per rung, at the ladder's own tile
        # sizes: the two-point fit is exact at its calibration tiles, so
        # the auto pick at every ladder point rests on in-situ
        # measurement rather than extrapolation.
        t_lo, t_hi = min(tiles), max(tiles)
        if t_lo == t_hi:
            t_lo = max(32, t_hi // 2)
        calibrate_ld_crossover(
            n, tiles=(t_lo, t_hi), repeats=max(3, args.repeats)
        )
        for tile in tiles:
            point, violations = run_point(
                n, tile, args.repeats, seed=n * 31 + tile
            )
            failures.extend(violations)
            key = f"n{n}_t{tile}"
            for backend in ("gemm", "packed", "auto"):
                timings[f"{key}_{backend}_seconds"] = point[backend]
            values[f"{key}_auto_picked_packed"] = point["auto_pick"]

            best_fixed = min(point["gemm"], point["packed"])
            auto_ratio = point["auto"] / max(best_fixed, 1e-12)
            worst_auto_ratio = max(worst_auto_ratio, auto_ratio)
            budget = best_fixed * (1.0 + args.auto_tolerance) + args.auto_epsilon
            if point["auto"] > budget:
                failures.append(
                    f"n={n} tile={tile}: auto fill {point['auto'] * 1e3:.3f} ms "
                    f"exceeds best fixed backend "
                    f"{best_fixed * 1e3:.3f} ms by more than "
                    f"{args.auto_tolerance:.0%} (+{args.auto_epsilon * 1e6:.0f} us)"
                )
            print(
                f"n={n:>5} tile={tile:>4}: "
                f"gemm {point['gemm'] * 1e3:8.3f} ms  "
                f"packed {point['packed'] * 1e3:8.3f} ms  "
                f"auto {point['auto'] * 1e3:8.3f} ms "
                f"({'packed' if point['auto_pick'] else 'gemm'})"
            )

    # Machine-portable ratio timing (lower is better, gateable across
    # hosts unlike the absolute fills).
    timings["auto_over_best_ratio"] = worst_auto_ratio

    model = get_cost_model()
    values["ld_gemm_cell_sample_seconds"] = model.ld_gemm_cell_sample_seconds
    values["ld_packed_cell_word_seconds"] = model.ld_packed_cell_word_seconds
    values["ld_calibration_samples"] = model.ld_calibration_samples
    reset_cost_model()

    path = emit_bench_metrics(
        "ld_backends",
        timings=timings,
        values=values,
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
    print(
        f"OK: bitwise identity held at every point; worst auto/best ratio "
        f"{worst_auto_ratio:.3f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
