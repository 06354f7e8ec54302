#!/usr/bin/env python
"""Sharded-scan scaling and resume-overhead benchmark.

Builds a manifest over a multi-replicate ms workload, runs it at
several orchestrator widths (``--workers`` shard processes), and
reports:

* wall time per width, with the 1-worker run as the speedup base;
* manifest planning and merge time (the serial ends of the pipeline);
* resume overhead — re-invoking ``run_manifest`` on a fully ``done``
  ledger, which must cost recovery + bookkeeping only;
* a correctness gate: the merged records must be *bitwise* equal to a
  single-process ``scan_stream`` per unit, at every width and for a
  manifest with two scan workers per shard (shards are cut on the
  blocks where every scan path restarts the window-sum DP), so the
  benchmark fails loudly if the numbers it times are wrong.

Run it as::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py \\
        --replicates 4 --sites 2000 --samples 40 --grid 100 \\
        --out-dir benchmarks/results

Emits ``BENCH_shard_scaling.json`` for ``check_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

import numpy as np

if __package__ in (None, ""):
    sys.path.insert(0, str(pathlib.Path(__file__).parent))

from metrics_io import emit_bench_metrics  # noqa: E402

from repro.core.grid import GridSpec  # noqa: E402
from repro.core.scan import OmegaConfig, scan_stream  # noqa: E402
from repro.datasets.generators import (  # noqa: E402
    haplotype_block_alignment,
)
from repro.datasets.msformat import write_ms  # noqa: E402
from repro.datasets.streaming import (  # noqa: E402
    StreamingAlignmentReader,
)
from repro.shard import (  # noqa: E402
    build_manifest,
    merge_manifest,
    run_manifest,
)


def _bitwise_equal(a, b) -> bool:
    # equal_nan: invalid grid positions legitimately carry NaN records,
    # and NaN-vs-NaN must compare as "same bits" here.
    return np.array_equal(
        a.n_evaluations, b.n_evaluations
    ) and all(
        np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
        for name in (
            "positions",
            "omegas",
            "left_borders_bp",
            "right_borders_bp",
        )
    )


def _gate(merged, refs, label: str) -> bool:
    """True when every unit equals its single-process scan; prints the
    first that does not."""
    for unit_result, ref in zip(merged.units, refs):
        if not _bitwise_equal(unit_result.result, ref):
            print(
                f"FAIL: {label}: unit {unit_result.unit.name} is not "
                f"bitwise-equal to the single-process scan",
                file=sys.stderr,
            )
            return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--replicates", type=int, default=4)
    ap.add_argument("--samples", type=int, default=40)
    ap.add_argument("--sites", type=int, default=2000)
    ap.add_argument("--grid", type=int, default=100)
    ap.add_argument("--maxwin", type=float, default=0.2)
    ap.add_argument("--snp-budget", type=int, default=1200)
    ap.add_argument("--shards-per-unit", type=int, default=4)
    ap.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="orchestrator widths to time (shard processes)",
    )
    ap.add_argument("--seed", type=int, default=29)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args(argv)

    config = OmegaConfig(
        grid=GridSpec(n_positions=args.grid, max_window=args.maxwin)
    )
    record: dict = {
        "replicates": args.replicates,
        "samples": args.samples,
        "sites": args.sites,
        "grid": args.grid,
        "shards_per_unit": args.shards_per_unit,
        "runs": [],
    }
    timings: dict = {}

    with tempfile.TemporaryDirectory(prefix="bench-shard-") as tmp:
        ms_path = str(pathlib.Path(tmp) / "workload.ms")
        write_ms(
            [
                haplotype_block_alignment(
                    args.samples, args.sites, seed=args.seed + k
                )
                for k in range(args.replicates)
            ],
            ms_path,
        )

        t0 = time.perf_counter()
        refs = [
            scan_stream(
                StreamingAlignmentReader(
                    ms_path, format="ms", length=1.0, replicate=k
                ),
                config,
                snp_budget=args.snp_budget,
            )
            for k in range(args.replicates)
        ]
        single_seconds = time.perf_counter() - t0
        record["single_process_seconds"] = round(single_seconds, 3)
        timings["single_process_seconds"] = single_seconds

        base_seconds = None
        for width in args.workers:
            manifest_path = str(
                pathlib.Path(tmp) / f"w{width}.manifest"
            )
            t0 = time.perf_counter()
            manifest = build_manifest(
                [ms_path],
                config,
                manifest_path=manifest_path,
                snp_budget=args.snp_budget,
                shards_per_unit=args.shards_per_unit,
                length=1.0,
            )
            plan_seconds = time.perf_counter() - t0

            t0 = time.perf_counter()
            report = run_manifest(manifest, max_workers=width)
            run_seconds = time.perf_counter() - t0
            if report.failed:
                print(
                    f"FAIL: width {width}: shards failed: "
                    f"{report.failed}",
                    file=sys.stderr,
                )
                return 1

            t0 = time.perf_counter()
            resume = run_manifest(manifest_path, max_workers=width)
            resume_seconds = time.perf_counter() - t0
            if resume.executed or resume.failed:
                print(
                    f"FAIL: width {width}: resume of a done manifest "
                    f"re-ran shards {resume.executed} "
                    f"(failed {resume.failed})",
                    file=sys.stderr,
                )
                return 1

            t0 = time.perf_counter()
            merged = merge_manifest(manifest)
            merge_seconds = time.perf_counter() - t0
            if not _gate(merged, refs, f"width {width}"):
                return 1

            if base_seconds is None:
                base_seconds = run_seconds
            record["runs"].append(
                {
                    "workers": width,
                    "shards": len(manifest.shards),
                    "plan_seconds": round(plan_seconds, 3),
                    "run_seconds": round(run_seconds, 3),
                    "resume_noop_seconds": round(resume_seconds, 3),
                    "merge_seconds": round(merge_seconds, 3),
                    "speedup_vs_1_worker": round(
                        base_seconds / run_seconds, 2
                    ),
                }
            )
            timings[f"run_seconds_workers_{width}"] = run_seconds
            if width == args.workers[0]:
                timings["plan_seconds"] = plan_seconds
                timings["merge_seconds"] = merge_seconds
                timings["resume_noop_seconds"] = resume_seconds

        pooled = build_manifest(
            [ms_path],
            config,
            manifest_path=str(pathlib.Path(tmp) / "pooled.manifest"),
            snp_budget=args.snp_budget,
            shards_per_unit=args.shards_per_unit,
            workers_per_shard=2,
            length=1.0,
        )
        report = run_manifest(pooled, max_workers=args.workers[0])
        if report.failed:
            print(
                f"FAIL: 2 workers per shard: shards failed: "
                f"{report.failed}",
                file=sys.stderr,
            )
            return 1
        if not _gate(merge_manifest(pooled), refs, "2 workers per shard"):
            return 1

    widest = max(args.workers)
    final = record["runs"][-1]
    record["bitwise_equal"] = True
    print(json.dumps(record, indent=2))
    print(
        f"OK: {args.replicates} units, {final['shards']} shards, "
        f"{widest} workers: {final['run_seconds']:.2f}s "
        f"(speedup {final['speedup_vs_1_worker']:.2f}x vs 1 worker), "
        f"bitwise-equal to single-process",
        file=sys.stderr,
    )
    if args.out_dir:
        emit_bench_metrics(
            "shard_scaling",
            timings=timings,
            values={
                "speedup_max_workers": final["speedup_vs_1_worker"],
                "units": args.replicates,
                "shards_per_unit": args.shards_per_unit,
                "grid": args.grid,
            },
            meta={"workers": args.workers},
            out_dir=args.out_dir,
        )
        out = pathlib.Path(args.out_dir) / "shard_scaling.json"
        out.write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
