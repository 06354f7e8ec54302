"""Command-line interface (the ``omegascan`` entry point).

Subcommands mirror the OmegaPlus workflow plus this reproduction's extras:

* ``omegascan scan`` — sweep-detection scan of an ms file (CPU reference
  or multiprocess).
* ``omegascan simulate`` — generate neutral or sweep replicates in ms
  format (the Hudson's-ms substitute).
* ``omegascan accel`` — run a scan through a modelled accelerator and
  print both the ω report and the modelled execution record.
* ``omegascan serve`` — long-lived multi-tenant scan daemon: one shared
  worker pool serving concurrent JSON scan requests over a Unix socket,
  with deadline-priced admission control (:mod:`repro.service`).
* ``omegascan shard-scan`` — manifest-driven sharded scan of
  multi-chromosome workloads with crash-resume and lossless merge
  (:mod:`repro.shard`); re-running with an existing ``--manifest``
  resumes it.
* ``omegascan top`` — live progress view of a running shard-scan (point
  it at the manifest) or scan daemon (point it at the socket): per-slot
  progress bars, throughput, ETA and stale-heartbeat warnings from the
  shared-memory progress ledger (:mod:`repro.obs.ledger`).
* ``omegascan tables`` — print the reproduced Tables I-IV next to the
  paper's published values.

Examples
--------
::

    omegascan simulate sweep --samples 40 --theta 200 --length 1e6 -o sw.ms
    omegascan scan sw.ms --length 1e6 --grid 50 --maxwin 250000
    omegascan accel sw.ms --length 1e6 --grid 50 --maxwin 250000 \\
        --platform fpga-u200
    omegascan tables
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

import repro.obs as obs
from repro.accel.fpga.device import ALVEO_U200, ZCU102
from repro.accel.fpga.engine import FPGAOmegaEngine
from repro.accel.fpga.pipeline import PipelineModel
from repro.accel.gpu.device import RADEON_HD8750M, TESLA_K80
from repro.accel.gpu.omega_gpu import GPUOmegaEngine
from repro.core.grid import GridSpec
from repro.core.parallel import parallel_scan
from repro.core.scan import OmegaConfig, OmegaPlusScanner
from repro.datasets.msformat import parse_ms, write_ms
from repro.errors import ReproError
from repro.simulate.coalescent import simulate_neutral
from repro.simulate.sweep import SweepParameters, simulate_sweep

__all__ = ["main", "build_parser"]

PLATFORMS = {
    "gpu-k80": lambda: GPUOmegaEngine(TESLA_K80),
    "gpu-hd8750m": lambda: GPUOmegaEngine(RADEON_HD8750M),
    "fpga-zcu102": lambda: FPGAOmegaEngine(PipelineModel(ZCU102)),
    "fpga-u200": lambda: FPGAOmegaEngine(PipelineModel(ALVEO_U200)),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="omegascan",
        description="LD-based selective sweep detection (OmegaPlus "
        "reproduction with GPU/FPGA accelerator models).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan_p = sub.add_parser("scan", help="scan an ms file for sweeps")
    scan_p.add_argument("input", help="input file (ms, FASTA or VCF)")
    scan_p.add_argument("--format", choices=("ms", "fasta", "vcf"),
                        default="ms", help="input file format")
    scan_p.add_argument("--length", type=float, default=None,
                        help="region length in bp (ms default 1.0; vcf "
                        "default: inferred from the last variant)")
    scan_p.add_argument("--grid", type=int, default=100,
                        help="number of omega evaluation positions")
    scan_p.add_argument("--maxwin", type=float, required=True,
                        help="maximum window (bp)")
    scan_p.add_argument("--minwin", type=float, default=0.0,
                        help="minimum window (bp)")
    scan_p.add_argument("--backend",
                        choices=("gemm", "packed", "auto",
                                 "numpy", "cupy", "numba"),
                        default="gemm",
                        help="gemm/packed pick the LD computation "
                        "backend and auto chooses between them per tile "
                        "from the calibrated cost model (all bitwise "
                        "identical); numpy/cupy/numba additionally run "
                        "the omega kernels on that array backend "
                        "(falling back to numpy when the device stack "
                        "is unavailable)")
    scan_p.add_argument("--omega-batch", type=int, default=None,
                        metavar="N",
                        help="grid positions packed per batched omega "
                        "evaluation (1 disables batching)")
    scan_p.add_argument("--workers", type=int, default=1,
                        help="worker processes")
    scan_p.add_argument("--stream", action="store_true",
                        help="stream the input in bounded-memory chunks "
                        "instead of loading the full matrix (ms/vcf only)")
    scan_p.add_argument("--snp-budget", type=int, default=8192,
                        help="max SNP columns resident per streamed chunk "
                        "(with --stream)")
    scan_p.add_argument("--replicate", type=int, default=0,
                        help="replicate index within the ms file")
    scan_p.add_argument("--all-replicates", action="store_true",
                        help="scan every replicate and write an "
                        "OmegaPlus-format report")
    scan_p.add_argument("-o", "--out", default=None,
                        help="write the TSV report here (default stdout)")
    scan_p.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome-trace/Perfetto JSONL span "
                        "trace covering every process")
    scan_p.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the scan metrics document (phase "
                        "times, reuse counters, merged metrics) as JSON")

    sim_p = sub.add_parser("simulate", help="generate ms-format datasets")
    sim_p.add_argument("model", choices=("neutral", "sweep"))
    sim_p.add_argument("--samples", type=int, required=True)
    sim_p.add_argument("--theta", type=float, required=True,
                       help="region-wide 4*N*mu")
    sim_p.add_argument("--rho", type=float, default=0.0,
                       help="region-wide 4*N*r (neutral model)")
    sim_p.add_argument("--length", type=float, default=1e6)
    sim_p.add_argument("--sweep-position", type=float, default=0.5)
    sim_p.add_argument("--footprint", type=float, default=0.15,
                       help="sweep footprint as fraction of the region")
    sim_p.add_argument("--replicates", type=int, default=1)
    sim_p.add_argument("--seed", type=int, default=None)
    sim_p.add_argument("-o", "--out", required=True)

    accel_p = sub.add_parser(
        "accel", help="scan through a modelled accelerator"
    )
    accel_p.add_argument("input")
    accel_p.add_argument("--format", choices=("ms", "fasta", "vcf"),
                         default="ms", help="input file format")
    accel_p.add_argument("--platform", choices=sorted(PLATFORMS),
                         required=True)
    accel_p.add_argument("--length", type=float, default=None)
    accel_p.add_argument("--grid", type=int, default=100)
    accel_p.add_argument("--maxwin", type=float, required=True)
    accel_p.add_argument("--minwin", type=float, default=0.0)
    accel_p.add_argument("--replicate", type=int, default=0)
    accel_p.add_argument("--batch", type=int, default=1,
                         help="grid positions per GPU kernel launch "
                         "(transfer batching; GPU platforms only)")
    accel_p.add_argument("--backend",
                         choices=("model", "numpy", "cupy", "numba"),
                         default="model",
                         help="execute the omega kernels on this array "
                         "backend instead of only modelling them "
                         "(GPU platforms only)")
    accel_p.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome-trace/Perfetto JSONL trace "
                        "(includes the modelled device track)")
    accel_p.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the scan metrics document as JSON")

    serve_p = sub.add_parser(
        "serve",
        help="run the multi-tenant scan daemon on a Unix socket",
    )
    serve_p.add_argument("input", help="alignment to serve (ms/fasta/vcf)")
    serve_p.add_argument("--format", choices=("ms", "fasta", "vcf"),
                         default="ms", help="input file format")
    serve_p.add_argument("--length", type=float, default=None,
                         help="region length in bp (ms default 1.0; vcf "
                         "default: inferred from the last variant)")
    serve_p.add_argument("--grid", type=int, default=100,
                         help="default grid size for requests that do "
                         "not name one")
    serve_p.add_argument("--maxwin", type=float, required=True,
                         help="maximum window (bp)")
    serve_p.add_argument("--minwin", type=float, default=0.0,
                         help="minimum window (bp)")
    serve_p.add_argument("--backend", choices=("gemm", "packed", "auto"),
                         default="gemm", help="LD computation backend "
                         "(auto picks gemm-vs-packed per tile)")
    serve_p.add_argument("--replicate", type=int, default=0,
                         help="replicate index within the ms file")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="scan worker processes (shared pool)")
    serve_p.add_argument("--socket", required=True, metavar="PATH",
                         help="Unix socket path to listen on")
    serve_p.add_argument("--queue-limit", type=int, default=32,
                         help="max queued requests before rejection")
    serve_p.add_argument("--max-concurrent", type=int, default=4,
                         help="requests dispatched into the pool at once")
    serve_p.add_argument("--lru-mb", type=float, default=32.0,
                         help="per-worker assembled r2 block LRU (MiB; "
                         "0 disables)")
    serve_p.add_argument("--trace", default=None, metavar="FILE",
                         help="write a Chrome-trace/Perfetto JSONL span "
                         "trace covering the daemon and its workers")

    shard_p = sub.add_parser(
        "shard-scan",
        help="manifest-driven sharded scan over every chromosome/"
        "replicate of the inputs, with crash-resume",
    )
    shard_p.add_argument(
        "inputs", nargs="+",
        help="input file(s); every VCF chromosome and every ms "
        "replicate becomes one independently scanned unit")
    shard_p.add_argument("--format", choices=("ms", "vcf"),
                         default="ms", help="input format")
    shard_p.add_argument(
        "--manifest", required=True, metavar="FILE",
        help="work-manifest ledger path; if the file exists the run "
        "RESUMES it (only non-done shards re-run; planning flags are "
        "ignored in favour of the recorded configuration)")
    shard_p.add_argument("--length", type=float, default=None,
                         help="region length (default: ms 1.0 / VCF "
                         "inferred per chromosome)")
    shard_p.add_argument("--grid", type=int, default=100,
                         help="omega grid positions per unit")
    shard_p.add_argument("--maxwin", type=float, default=None,
                         help="maximum window (bp); required when "
                         "creating a new manifest")
    shard_p.add_argument("--minwin", type=float, default=0.0,
                         help="minimum window (bp)")
    shard_p.add_argument("--snp-budget", type=int, default=8192,
                         help="max SNPs resident per shard chunk")
    shard_p.add_argument("--shards", type=int, default=4,
                         help="shards per unit")
    shard_p.add_argument(
        "--target-shard-cost", type=float, default=None,
        help="derive each unit's shard count from the calibrated cost "
        "model instead of --shards")
    shard_p.add_argument("--jobs", type=int, default=2,
                         help="concurrent shard processes")
    shard_p.add_argument("--workers-per-shard", type=int, default=1,
                         help="scan workers inside each shard process "
                         "(1 keeps shards bitwise-reproducible)")
    shard_p.add_argument("--plan-only", action="store_true",
                         help="write the manifest and print the plan "
                         "without executing shards")
    shard_p.add_argument("-o", "--out", default=None,
                         help="write the merged unit-tagged TSV report "
                         "here (default: stdout)")

    top_p = sub.add_parser(
        "top",
        help="live progress view of a running shard-scan or scan daemon",
    )
    top_p.add_argument(
        "target",
        help="what to watch: a manifest path (or its .ledger file, or "
        "the directory holding it), or a scan daemon's Unix socket",
    )
    top_p.add_argument("--once", action="store_true",
                       help="print one snapshot and exit instead of "
                       "refreshing")
    top_p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the snapshot as JSON (implies --once "
                       "unless --interval is given explicitly)")
    top_p.add_argument("--interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="refresh interval for the live view")
    top_p.add_argument("--stale-after", type=float, default=5.0,
                       metavar="SECONDS",
                       help="flag a slot stale when its heartbeat is "
                       "older than this")

    sub.add_parser("tables", help="print reproduced Tables I-IV")

    repro_p = sub.add_parser(
        "reproduce", help="write the one-page reproduction report"
    )
    repro_p.add_argument("-o", "--out", default=None,
                         help="output Markdown path (default stdout)")

    stats_p = sub.add_parser(
        "sumstats", help="sliding-window summary statistics"
    )
    stats_p.add_argument("input")
    stats_p.add_argument("--format", choices=("ms", "fasta", "vcf"),
                         default="ms")
    stats_p.add_argument("--length", type=float, default=None)
    stats_p.add_argument("--replicate", type=int, default=0)
    stats_p.add_argument("--window", type=float, required=True,
                         help="window width (bp)")
    stats_p.add_argument("--step", type=float, default=None,
                         help="window step (bp), default half the width")

    fig_p = sub.add_parser(
        "figures", help="print reproduced figure series (10-13)"
    )
    fig_p.add_argument(
        "--grid", type=int, default=100,
        help="grid positions per dataset for the GPU sweeps "
        "(paper uses 1000)",
    )
    return parser


def _ms_length(args) -> float:
    """The ms region length: the user's ``--length``, else ms's 1.0.

    ``--length`` defaults to ``None`` (not 1.0) so "flag left at default"
    and "user passed 1.0" are distinguishable — VCF paths must forward a
    user-supplied value verbatim, including values ``<= 1.0``.
    """
    length = getattr(args, "length", None)
    return 1.0 if length is None else float(length)


def _load_alignment(args):
    fmt = getattr(args, "format", "ms")
    if fmt == "fasta":
        from repro.datasets.fasta import parse_fasta

        masked = parse_fasta(args.input)
        return masked.impute_major().drop_monomorphic()
    if fmt == "vcf":
        from repro.datasets.vcf import parse_vcf

        masked = parse_vcf(args.input, length=args.length)
        return masked.impute_major().drop_monomorphic()
    reps = parse_ms(args.input, length=_ms_length(args))
    if not 0 <= args.replicate < len(reps):
        raise ReproError(
            f"replicate {args.replicate} out of range "
            f"(file has {len(reps)})"
        )
    return reps[args.replicate].alignment


def _config(args) -> OmegaConfig:
    kwargs = {}
    if getattr(args, "omega_batch", None) is not None:
        kwargs["omega_batch"] = args.omega_batch
    # "gemm"/"packed"/"auto" name the LD stage; the array-backend names
    # keep the default LD stage and bind the omega kernels to that
    # backend.
    chosen = getattr(args, "backend", "gemm")
    if chosen in ("gemm", "packed", "auto"):
        ld_backend = chosen
    else:
        ld_backend = "gemm"
        kwargs["backend"] = chosen
    return OmegaConfig(
        grid=GridSpec(
            n_positions=args.grid,
            max_window=args.maxwin,
            min_window=args.minwin,
        ),
        ld_backend=ld_backend,
        **kwargs,
    )


def _peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS.
    """
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _maybe_tracing(args):
    """``obs.tracing`` bound to ``--trace``, or a no-op context."""
    path = getattr(args, "trace", None)
    if path:
        return obs.tracing(path)
    return contextlib.nullcontext()


def _emit_obs(args, result, *, extra: Optional[dict] = None) -> None:
    """Post-scan ``--trace`` / ``--metrics-out`` reporting."""
    if getattr(args, "metrics_out", None):
        obs.write_scan_metrics(result, args.metrics_out, extra=extra)
        print(f"wrote metrics -> {args.metrics_out}", file=sys.stderr)
    if getattr(args, "trace", None):
        print(
            f"wrote trace -> {args.trace} "
            "(open at https://ui.perfetto.dev)",
            file=sys.stderr,
        )


def _stream_source(args):
    fmt = getattr(args, "format", "ms")
    if fmt == "fasta":
        raise ReproError(
            "--stream supports ms and vcf input (FASTA parsing needs the "
            "whole alignment to call its consensus)"
        )
    from repro.datasets.streaming import StreamingAlignmentReader

    if fmt == "vcf":
        return StreamingAlignmentReader(
            args.input,
            format="vcf",
            length=args.length,
        )
    return StreamingAlignmentReader(
        args.input,
        format="ms",
        length=_ms_length(args),
        replicate=args.replicate,
    )


def _cmd_scan(args) -> int:
    config = _config(args)
    if getattr(args, "stream", False):
        from repro.core.scan import scan_stream

        if getattr(args, "all_replicates", False):
            raise ReproError(
                "--stream scans one replicate at a time; drop "
                "--all-replicates or pick --replicate"
            )
        source = _stream_source(args)
        with _maybe_tracing(args):
            result = scan_stream(
                source,
                config,
                snp_budget=args.snp_budget,
                n_workers=args.workers,
            )
        report = result.to_tsv()
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(report + "\n")
        else:
            print(report)
        print(result.summary(), file=sys.stderr)
        print(
            f"streamed {source.n_sites} SNPs in chunks of "
            f"<= {args.snp_budget}; peak memory {_peak_rss_mib():.1f} MiB",
            file=sys.stderr,
        )
        _emit_obs(args, result)
        return 0
    if getattr(args, "all_replicates", False):
        import json

        from repro.core.report_io import write_report

        if getattr(args, "format", "ms") != "ms":
            raise ReproError("--all-replicates requires ms input")
        reps = parse_ms(args.input, length=_ms_length(args))
        results = []
        with _maybe_tracing(args):
            for rep in reps:
                if args.workers > 1:
                    results.append(
                        parallel_scan(
                            rep.alignment, config, n_workers=args.workers
                        )
                    )
                else:
                    results.append(
                        OmegaPlusScanner(config).scan(rep.alignment)
                    )
        if args.out:
            write_report(results, args.out)
        else:
            write_report(results, sys.stdout)
        print(
            f"scanned {len(results)} replicate(s)", file=sys.stderr
        )
        if getattr(args, "metrics_out", None):
            doc = {
                "schema": obs.export.SCHEMA,
                "replicates": [
                    obs.scan_metrics_document(r) for r in results
                ],
            }
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
            print(
                f"wrote metrics -> {args.metrics_out}", file=sys.stderr
            )
        if getattr(args, "trace", None):
            print(
                f"wrote trace -> {args.trace} "
                "(open at https://ui.perfetto.dev)",
                file=sys.stderr,
            )
        return 0
    alignment = _load_alignment(args)
    with _maybe_tracing(args):
        if args.workers > 1:
            result = parallel_scan(
                alignment, config, n_workers=args.workers
            )
        else:
            result = OmegaPlusScanner(config).scan(alignment)
    report = result.to_tsv()
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(report + "\n")
    else:
        print(report)
    print(result.summary(), file=sys.stderr)
    _emit_obs(args, result)
    return 0


def _cmd_shard_scan(args) -> int:
    import os

    from repro.shard import (
        Manifest,
        build_manifest,
        merge_manifest,
        run_manifest,
        shard_postmortem,
    )

    if os.path.exists(args.manifest):
        manifest = Manifest.load(args.manifest)
        print(f"resuming manifest {args.manifest}", file=sys.stderr)
    else:
        if args.maxwin is None:
            raise ReproError(
                "--maxwin is required when creating a new manifest"
            )
        config = _config(args)
        length = (
            args.length if args.format == "vcf" else _ms_length(args)
        )
        manifest = build_manifest(
            list(args.inputs),
            config,
            manifest_path=args.manifest,
            snp_budget=args.snp_budget,
            shards_per_unit=args.shards,
            target_shard_cost=args.target_shard_cost,
            workers_per_shard=args.workers_per_shard,
            format=args.format,
            length=length,
        )
    print(manifest.describe(), file=sys.stderr)
    if args.plan_only:
        return 0
    report = run_manifest(manifest, max_workers=args.jobs)
    done = len(report.executed) + len(report.already_done)
    print(
        f"{len(report.executed)} shard(s) executed, "
        f"{len(report.already_done)} already done, "
        f"{len(report.failed)} failed "
        f"({report.wall_seconds:.1f}s)",
        file=sys.stderr,
    )
    if report.swept:
        print(
            f"swept {len(report.swept)} stale shared-memory "
            f"segment(s) from dead workers",
            file=sys.stderr,
        )
    if report.failed:
        for sid, err in sorted(report.failed.items()):
            print(f"shard {sid} failed: {err}", file=sys.stderr)
            post = shard_postmortem(manifest, sid)
            if post["flight_path"]:
                print(
                    f"  flight recorder: {post['flight_path']}",
                    file=sys.stderr,
                )
            if post["stderr_tail"]:
                print(
                    f"  stderr tail ({post['stderr_path']}):",
                    file=sys.stderr,
                )
                for line in post["stderr_tail"]:
                    print(f"    {line}", file=sys.stderr)
        print(
            f"{done}/{len(manifest.shards)} shards done; re-run the "
            f"same command to retry the failed shards",
            file=sys.stderr,
        )
        return 3
    result = merge_manifest(manifest)
    tsv = result.to_tsv()
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(tsv + "\n")
    else:
        print(tsv)
    print(result.summary(), file=sys.stderr)
    return 0


TOP_SCHEMA = "repro.live-top/1"


def _top_resolve(target: str):
    """What ``omegascan top`` should watch: ``("daemon", socket_path)``
    or ``("ledger", ledger_path)``."""
    import glob
    import os
    import stat

    if os.path.exists(target):
        mode = os.stat(target).st_mode
        if stat.S_ISSOCK(mode):
            return "daemon", target
        if stat.S_ISDIR(mode):
            hits = sorted(glob.glob(os.path.join(target, "*.ledger")))
            if not hits:
                raise ReproError(
                    f"no *.ledger file in {target!r} — pass the manifest "
                    "path or the daemon socket instead"
                )
            return "ledger", hits[0]
        if target.endswith(".ledger"):
            return "ledger", target
    candidate = target + ".ledger"
    if os.path.exists(candidate):
        return "ledger", candidate
    raise ReproError(
        f"nothing to watch at {target!r}: expected a manifest (with a "
        f"{candidate!r} progress ledger next to it), a .ledger file, or "
        "a running daemon's Unix socket"
    )


def _top_slot_entry(slot, stale_after: float) -> dict:
    """One JSON-able per-slot row (progress + ETA + liveness)."""
    from repro.obs.eta import estimate_eta

    eta = estimate_eta(slot, stale_after=stale_after)
    entry = slot.to_payload()
    entry["fraction"] = slot.fraction
    entry["heartbeat_age_seconds"] = (
        slot.heartbeat_age_seconds() if slot.bound else None
    )
    entry["stale"] = slot.stale(stale_after)
    entry["eta"] = eta.to_payload()
    return entry


def _top_snapshot(kind: str, path: str, stale_after: float) -> dict:
    """One self-contained progress snapshot of the watched target."""
    from repro.obs.ledger import ProgressLedger, SlotView

    if kind == "daemon":
        from repro.service.client import request_status

        status = request_status(path)
        slots = []
        for payload in status.get("ledger", {}).get("slots", []):
            slots.append(
                SlotView(
                    index=payload["index"],
                    gen=0,
                    pid=payload["pid"],
                    started_ns=payload["started_ns"],
                    heartbeat_ns=payload["heartbeat_ns"],
                    positions_done=payload["positions_done"],
                    positions_total=payload["positions_total"],
                    est_cost_done=payload["est_cost_done"],
                    est_cost_total=payload["est_cost_total"],
                    rss_bytes=payload["rss_bytes"],
                    phase=payload["phase"],
                    key=payload["key"],
                    torn=payload["torn"],
                )
            )
        return {
            "schema": TOP_SCHEMA,
            "source": "daemon",
            "target": path,
            "slots": [_top_slot_entry(s, stale_after) for s in slots],
            "service": {
                k: status.get(k)
                for k in (
                    "queue_depth",
                    "in_flight",
                    "served",
                    "failed",
                    "rejected",
                    "backlog_cost_units",
                    "requests",
                )
            },
        }
    with ProgressLedger.open(path) as ledger:
        slots = ledger.read_slots()
    return {
        "schema": TOP_SCHEMA,
        "source": "ledger",
        "target": path,
        "slots": [_top_slot_entry(s, stale_after) for s in slots],
    }


def _top_render(doc: dict) -> str:
    """The human refresh-loop view: one bar per slot plus totals."""
    lines = [f"omegascan top — {doc['source']} {doc['target']}"]
    svc = doc.get("service")
    if svc:
        lines.append(
            f"  queue {svc['queue_depth']}  in-flight {svc['in_flight']}  "
            f"served {svc['served']}  failed {svc['failed']}  "
            f"rejected {svc['rejected']}"
        )
    total_done = total_all = 0
    for s in doc["slots"]:
        frac = s["fraction"]
        bar_w = 20
        filled = 0 if frac is None else int(round(frac * bar_w))
        bar = "#" * filled + "-" * (bar_w - filled)
        pct = "   ?" if frac is None else f"{frac * 100.0:4.0f}"
        eta = s["eta"]["eta_seconds"]
        eta_txt = "     --" if eta is None else f"{eta:6.1f}s"
        flags = []
        if s["stale"]:
            age = s["heartbeat_age_seconds"]
            flags.append(f"STALE {age:.0f}s")
        if s["torn"]:
            flags.append("torn")
        lines.append(
            f"  {s['key'] or '(slot ' + str(s['index']) + ')':<16s} "
            f"[{bar}] {pct}%  "
            f"{s['positions_done']}/{s['positions_total'] or '?'} pos  "
            f"eta {eta_txt}  {s['phase']:<8s}"
            + ("  [" + ", ".join(flags) + "]" if flags else "")
        )
        total_done += s["positions_done"]
        total_all += s["positions_total"]
    if total_all:
        lines.append(
            f"  total: {total_done}/{total_all} positions "
            f"({100.0 * total_done / total_all:.0f}%)"
        )
    return "\n".join(lines)


def _cmd_top(args) -> int:
    import json
    import time

    kind, path = _top_resolve(args.target)
    once = args.once or (args.as_json and args.interval == 1.0)
    while True:
        doc = _top_snapshot(kind, path, args.stale_after)
        if args.as_json:
            print(json.dumps(doc, indent=None if once else 2))
        else:
            if not once:
                print("\x1b[2J\x1b[H", end="")
            print(_top_render(doc))
        if once:
            return 0
        if kind == "ledger":
            bound = [s for s in doc["slots"] if s["bound"]]
            if bound and all(
                s["phase"] in ("done", "failed") for s in doc["slots"]
            ):
                return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            return 0


def _cmd_simulate(args) -> int:
    replicates = []
    for k in range(args.replicates):
        seed = None if args.seed is None else args.seed + k
        if args.model == "neutral":
            aln = simulate_neutral(
                args.samples, theta=args.theta, rho=args.rho,
                length=args.length, seed=seed,
            )
        else:
            params = SweepParameters.for_footprint(
                args.length, footprint_fraction=args.footprint
            )
            aln = simulate_sweep(
                args.samples, theta=args.theta, length=args.length,
                sweep_position=args.sweep_position, params=params,
                seed=seed,
            )
        replicates.append(aln)
    write_ms(replicates, args.out)
    total = sum(a.n_sites for a in replicates)
    print(
        f"wrote {len(replicates)} replicate(s), {total} segregating sites "
        f"-> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_accel(args) -> int:
    alignment = _load_alignment(args)
    config = _config(args)
    exec_backend = getattr(args, "backend", "model")
    if exec_backend == "model":
        exec_backend = None
    if exec_backend is not None and not args.platform.startswith("gpu-"):
        raise ReproError(
            "--backend applies to GPU platforms only (the FPGA engine "
            "is a pipeline model)"
        )
    if args.platform.startswith("gpu-") and (
        args.batch > 1 or exec_backend is not None
    ):
        device = {
            "gpu-k80": TESLA_K80,
            "gpu-hd8750m": RADEON_HD8750M,
        }[args.platform]
        engine = GPUOmegaEngine(
            device, batch_positions=args.batch, backend=exec_backend
        )
    else:
        engine = PLATFORMS[args.platform]()
    with _maybe_tracing(args):
        result, record = engine.scan(alignment, config)
    print(result.to_tsv())
    print(f"\n[{record.device}] modelled execution:", file=sys.stderr)
    for phase, seconds in sorted(record.seconds.items()):
        print(f"  {phase:10s} {seconds * 1e3:10.3f} ms", file=sys.stderr)
    for kind, count in sorted(record.scores.items()):
        print(f"  {kind:10s} {count:>12d} scores", file=sys.stderr)
    print(
        f"  modelled omega throughput: "
        f"{record.throughput('omega' if 'omega' in record.scores else 'omega_hw') / 1e6:.1f} "
        f"Mscores/s",
        file=sys.stderr,
    )
    _emit_obs(
        args,
        result,
        extra={
            "device": record.device,
            "modelled_seconds": dict(record.seconds),
            "modelled_scores": {
                k: int(v) for k, v in record.scores.items()
            },
            "kernel_launches": int(record.kernel_launches),
        },
    )
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import os

    from repro.service import ScanService
    from repro.service.server import serve_unix

    alignment = _load_alignment(args)
    config = _config(args)
    service = ScanService(
        alignment,
        config,
        n_workers=args.workers,
        queue_limit=args.queue_limit,
        max_concurrent=args.max_concurrent,
        block_lru_bytes=int(args.lru_mb * 1024 * 1024),
        # `omegascan top <socket>` reads live per-request progress from
        # this ledger via the daemon's status op.
        ledger_path=args.socket + ".ledger",
    )
    with contextlib.suppress(FileNotFoundError):
        os.unlink(args.socket)
    print(
        f"scan daemon: {alignment.n_samples} samples x "
        f"{alignment.n_sites} SNPs, {args.workers} workers, "
        f"listening on {args.socket}",
        file=sys.stderr,
    )
    try:
        with _maybe_tracing(args):
            asyncio.run(serve_unix(service, args.socket))
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(args.socket)
    print("scan daemon stopped", file=sys.stderr)
    return 0


def _cmd_tables(_args) -> int:
    from repro.analysis.tables import (
        render_table,
        table1_rows,
        table2_rows,
        table3_rows,
        table4_rows,
    )

    print("Table I — FPGA resource utilization (reproduced vs [paper])")
    print(render_table(table1_rows()))
    print("\nTable II — GPU platforms")
    print(render_table(table2_rows()))
    print("\nTable III — throughput and speedups (reproduced [paper])")
    print(render_table(table3_rows()))
    print("\nTable IV — multithreaded omega throughput")
    print(render_table(table4_rows()))
    return 0


def _cmd_sumstats(args) -> int:
    from repro.analysis.sumstats import sliding_windows

    alignment = _load_alignment(args)
    windows = sliding_windows(
        alignment,
        window_bp=args.window,
        step_bp=args.step,
        statistics=("theta_w", "pi", "tajimas_d", "fay_wu_h"),
    )
    print("start\tstop\tsites\ttheta_w\tpi\ttajimas_d\tfay_wu_h")
    for w in windows:
        print(
            f"{w.start:.1f}\t{w.stop:.1f}\t{w.n_sites}\t"
            f"{w.values['theta_w']:.4f}\t{w.values['pi']:.4f}\t"
            f"{w.values['tajimas_d']:.4f}\t{w.values['fay_wu_h']:.4f}"
        )
    return 0


def _cmd_reproduce(args) -> int:
    from repro.analysis.reproduce import main as reproduce_main

    return reproduce_main([args.out] if args.out else [])


def _cmd_figures(args) -> int:
    from repro.analysis.figures import (
        fig10_series,
        fig11_series,
        fig12_series,
        fig13_series,
    )

    for name, series in (
        ("Fig. 10 — ZCU102", fig10_series()),
        ("Fig. 11 — Alveo U200", fig11_series()),
    ):
        print(f"{name} (throughput vs right-side iterations)")
        x, y = series["iterations"], series["throughput"]
        step = max(1, len(x) // 10)
        for n, t in zip(x[::step], y[::step]):
            print(f"  {n:>8d} iters  {t / 1e9:7.3f} Gscores/s")
        print(f"  90% line: {series['ninety_pct_line'][0] / 1e9:.3f} G\n")

    f12 = fig12_series(grid_size=args.grid)
    print("Fig. 12 — GPU kernel throughput (K80, Gscores/s)")
    for i, s_ in enumerate(f12["snps"]):
        print(
            f"  {s_:>6d} SNPs  K1 {f12['kernel1'][i] / 1e9:6.2f}  "
            f"K2 {f12['kernel2'][i] / 1e9:6.2f}  "
            f"dyn {f12['dynamic'][i] / 1e9:6.2f}"
        )
    f13 = fig13_series(grid_size=args.grid)
    print("\nFig. 13 — complete GPU omega throughput (Mscores/s)")
    for i, s_ in enumerate(f13["snps"]):
        print(f"  {s_:>6d} SNPs  {f13['complete'][i] / 1e6:7.1f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "scan": _cmd_scan,
        "shard-scan": _cmd_shard_scan,
        "top": _cmd_top,
        "simulate": _cmd_simulate,
        "accel": _cmd_accel,
        "serve": _cmd_serve,
        "tables": _cmd_tables,
        "figures": _cmd_figures,
        "sumstats": _cmd_sumstats,
        "reproduce": _cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
