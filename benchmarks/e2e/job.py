"""One benchmark job: a fresh process that runs one workload through the
public entry point users call, then records what it produced.

``run.py`` launches ``python job.py SPEC.json`` once per job. The spec
names the workload, its inputs and parameters, and the mode:

* ``plain`` - the program as users run it;
* ``layers`` - the same, with the wrappers of :mod:`layers` installed
  before anything forks;
* ``obs`` - the same, with the program's own tracing (``obs.tracing``,
  what ``--trace`` turns on) writing into the job directory.

Each batch job writes ``report.tsv`` (the report, as ``omegascan`` writes
it with ``-o``), ``result.npz`` (the result arrays at full precision) and
``result.json`` (timestamps and the counts the scan reported). The
``regions_serve`` job is the ``omegascan serve`` daemon itself; its
client lives in ``run.py``.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import threading
import time


def _counts(result, report_path: str) -> dict:
    """Counts a scan reported through its public result object."""
    counters = (result.metrics or {}).get("counters", {})
    reuse = result.reuse
    return {
        "plan.positions": len(result),
        "ld.fill_entries": counters.get("ld.entries_computed", 0),
        "dp.builds": counters.get("dp.builds", 0),
        "omega.evaluations": int(result.n_evaluations.sum()),
        "omega.batched_positions": counters.get("omega.batched_positions", 0),
        "omega.direct_positions": counters.get("omega.direct_positions", 0),
        "tilestore.hits": counters.get("tilestore.hits", 0),
        "tilestore.fills": counters.get("tilestore.fills", 0),
        "sched.blocks": counters.get("scheduler.blocks_dispatched", 0),
        "reuse.entries_computed": reuse.entries_computed,
        "reuse.entries_reused": reuse.entries_reused,
        "dp.entries_computed": reuse.dp_entries_computed,
        "dp.entries_reused": reuse.dp_entries_reused,
        "report.bytes": os.path.getsize(report_path),
    }


def _peak_rss_kib() -> int:
    """Peak RSS of this process and of the largest child it reaped, KiB.

    Not this process's own ``ru_maxrss`` (nor the one ``wait4`` gives the
    launcher): on Linux that starts from the launching process's peak,
    which ``exec`` carries over. ``VmHWM`` belongs to the address space
    ``exec`` created.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    return max(hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _write_result(job_dir: str, t_imported: int, setup_extra: int,
                  t_done: int, counts: dict) -> None:
    with open(os.path.join(job_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"pid": os.getpid(),
                   "tid": threading.main_thread().ident,
                   "t_imported_ns": t_imported,
                   "setup_extra_ns": setup_extra, "t_done_ns": t_done,
                   "peak_rss_kib": _peak_rss_kib(),
                   "counts": counts}, fh)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    job_dir = spec["job_dir"]
    recorder = None
    if spec["mode"] == "layers":
        import layers

        recorder = layers.SpanRecorder(os.path.join(job_dir, "spans"))

    import numpy as np

    import repro.cli
    import repro.core.grid as grid
    import repro.core.parallel as parallel
    import repro.datasets.msformat as msformat
    import repro.datasets.streaming as streaming
    import repro.obs as obs
    import repro.shard as shard

    # ``repro.core`` re-exports a function named ``scan``, which shadows
    # the submodule in ``import repro.core.scan as ...``.
    scan = importlib.import_module("repro.core.scan")
    if recorder is not None:
        layers.install(recorder)
    t_imported = time.monotonic_ns()
    workload = spec["workload"]
    program_trace = (
        os.path.join(job_dir, "program.trace.jsonl")
        if spec["mode"] == "obs"
        else None
    )

    def traced():
        if program_trace is None:
            import contextlib

            return contextlib.nullcontext()
        return obs.tracing(program_trace)

    if workload == "regions_serve":
        argv = [
            "serve", spec["inputs"][0], "--length", str(spec["length"]),
            "--maxwin", str(spec["maxwin"]), "--workers",
            str(spec["workers"]), "--socket", spec["socket"],
        ]
        if program_trace is not None:
            argv += ["--trace", program_trace]
        code = repro.cli.main(argv)
        _write_result(job_dir, t_imported, 0, time.monotonic_ns(), {})
        return code

    config = scan.OmegaConfig(
        grid=grid.GridSpec(
            n_positions=spec["grid"], max_window=spec["maxwin"]
        )
    )
    setup_extra = 0
    path = spec["inputs"][0]
    if workload == "balanced_ms":
        alignment = msformat.parse_ms(path, length=spec["length"])[0].alignment
        with traced():
            result = scan.OmegaPlusScanner(config).scan(alignment)
        tsv = result.to_tsv()
    elif workload == "highld_ms_stream":
        source = streaming.StreamingAlignmentReader(
            path, format="ms", length=spec["length"]
        )
        with traced():
            result = scan.scan_stream(
                source, config, snp_budget=spec["snp_budget"]
            )
        tsv = result.to_tsv()
    elif workload == "highomega_parallel":
        alignment = msformat.parse_ms(path, length=spec["length"])[0].alignment
        with traced():
            session = parallel.ParallelScanSession(
                alignment, config, n_workers=spec["workers"]
            )
            t0 = time.monotonic_ns()
            session.start()
            setup_extra = time.monotonic_ns() - t0
            try:
                result = session.scan()
            finally:
                session.close()
        tsv = result.to_tsv()
    elif workload == "chroms_vcf_shard":
        with traced():
            t0 = time.monotonic_ns()
            manifest = shard.build_manifest(
                [path], config,
                manifest_path=os.path.join(job_dir, "manifest.jsonl"),
                snp_budget=spec["snp_budget"], shards_per_unit=1,
                format="vcf",
            )
            setup_extra = time.monotonic_ns() - t0
            run = shard.run_manifest(manifest, max_workers=spec["workers"])
            if run.failed:
                print(f"failed shards: {run.failed}", file=sys.stderr)
                return 3
            merged = shard.merge_manifest(manifest)
        result = merged.combined
        tsv = merged.to_tsv()
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2

    report_path = os.path.join(job_dir, "report.tsv")
    span = recorder.begin("write_report", "report") if recorder else None
    with open(report_path, "w", encoding="ascii") as fh:
        fh.write(tsv + "\n")
    if span is not None:
        recorder.end(span)
    t_done = time.monotonic_ns()
    np.savez(
        os.path.join(job_dir, "result.npz"),
        positions=result.positions,
        omegas=result.omegas,
        left=result.left_borders_bp,
        right=result.right_borders_bp,
        evaluations=result.n_evaluations,
    )
    _write_result(job_dir, t_imported, setup_extra, t_done,
                  _counts(result, report_path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
