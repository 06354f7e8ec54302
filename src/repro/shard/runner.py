"""Shard execution, crash-resume, and lossless manifest merge.

The runner is the manifest's single writer. It executes every
non-``done`` shard in its own OS process (largest estimated cost first,
so stragglers start early), bounded by ``max_workers`` concurrent shard
processes; each shard process runs ``scan_stream`` over its unit with
``workers_per_shard`` workers and the double-buffered ingest/compute
overlap of :class:`~repro.core.parallel.StreamingScanSession`.

Crash containment is per shard: a worker is a separate process, so a
SIGKILL (OOM killer, preemption, machine reboot mid-manifest) takes
down one shard, not the orchestrator or its siblings. Recovery has two
layers:

* **reap-time sweep** — shared-memory segment names embed the creating
  pid (``repro-shm-<pid>-…``), so when a shard process dies with a
  non-zero exit the runner unlinks every ``/dev/shm`` segment that pid
  left behind (a killed worker cannot run its own leak guards);
* **resume** — re-invoking :func:`run_manifest` on the same ledger
  re-runs only shards that are not ``done``: ``failed`` ones, and
  ``running`` ones whose recorded pid is dead (their stale segments are
  swept too). A ``running`` shard whose pid is alive means another
  orchestrator owns the manifest — that is an error, not a takeover.

Because a shard's records are bitwise-equal to the same slice of an
unsharded ``scan_stream`` at any ``workers_per_shard`` (plans are built
from the unit's full site index and shards are cut on block boundaries;
see ``grid_slice`` in :func:`repro.core.scan.scan_stream`), and sidecars
persist float64 losslessly, a resumed manifest merges to exactly the
bytes an uninterrupted run produces.
"""

from __future__ import annotations

import contextlib
import glob
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection, get_context
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.results import ScanResult, merge_scan_results
from repro.core.scan import OmegaConfig, scan_stream
from repro.datasets.alignment import SHM_NAME_PREFIX, SNPAlignment
from repro.datasets.streaming import (
    AlignmentStreamSource,
    StreamingAlignmentReader,
)
from repro.errors import ShardError
from repro.obs.flight import get_flight, write_dump
from repro.obs.ledger import ProgressLedger, bind_live_slot
from repro.shard import sidecar
from repro.shard.manifest import Manifest, ShardRecord, UnitSpec
from repro.utils.blas import child_blas_threads

__all__ = [
    "ShardRunReport",
    "ShardScanResult",
    "UnitResult",
    "merge_manifest",
    "run_manifest",
    "shard_aux_basenames",
    "shard_postmortem",
    "shard_scan",
]

#: Fault-injection hook for the test harness: when set, a shard worker
#: pauses before ingesting each chunk after the first while
#: ``<dir>/<shard_id>.hold`` exists (acknowledging via
#: ``<shard_id>.holding``). This freezes the worker at a point where the
#: previous chunk's shared-memory segments are still published, giving
#: tests a deterministic window to SIGKILL it mid-scan.
HOLD_DIR_ENV = "REPRO_SHARD_TEST_HOLD_DIR"


class _TestHoldSource(AlignmentStreamSource):
    """Stream-source wrapper implementing the :data:`HOLD_DIR_ENV` hook."""

    def __init__(
        self, inner: AlignmentStreamSource, hold_dir: str, shard_id: int
    ):
        self._inner = inner
        self._hold = os.path.join(hold_dir, f"{shard_id}.hold")
        self._ack = os.path.join(hold_dir, f"{shard_id}.holding")

    @property
    def positions(self) -> np.ndarray:
        return self._inner.positions

    @property
    def n_samples(self) -> int:
        return self._inner.n_samples

    @property
    def length(self) -> float:
        return self._inner.length

    def windows(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> Iterator[SNPAlignment]:
        inner_iter = self._inner.windows(ranges)

        def gen() -> Iterator[SNPAlignment]:
            first = True
            for chunk in inner_iter:
                if not first and os.path.exists(self._hold):
                    with open(self._ack, "w", encoding="ascii"):
                        pass
                    while os.path.exists(self._hold):
                        time.sleep(0.01)
                first = False
                yield chunk

        return gen()


@dataclass(frozen=True)
class _ShardJob:
    """Everything one shard process needs, pickled once at spawn."""

    shard_id: int
    path: str
    format: str
    chromosome: Optional[str]
    replicate: int
    length: Optional[float]
    grid_lo: int
    grid_hi: int
    config: OmegaConfig
    snp_budget: int
    workers_per_shard: int
    npz_path: str
    json_path: str
    fingerprint: dict
    # Live introspection (all optional: a worker scans fine without it)
    ledger_path: Optional[str] = None
    slot_index: int = -1
    stderr_path: Optional[str] = None
    flight_path: Optional[str] = None


def shard_aux_basenames(shard_id: int) -> Tuple[str, str]:
    """(stderr capture, flight-recorder dump) file names for a shard."""
    return f"shard-{shard_id}.stderr", f"flight-{shard_id}.json"


def _tail_lines(path: str, n: int = 20) -> List[str]:
    """Last ``n`` lines of a text file ('' -> []); never raises."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            return fh.read().splitlines()[-n:]
    except OSError:
        return []


def shard_postmortem(
    manifest: Manifest, shard_id: int, *, tail: int = 20
) -> dict:
    """What the sidecar directory knows about a (failed) shard: the
    captured stderr tail and the flight-recorder dump path, if present.
    Used by ``omegascan shard-scan`` to print self-contained failures."""
    stderr_name, flight_name = shard_aux_basenames(shard_id)
    stderr_path = manifest.sidecar_path(stderr_name)
    flight_path = manifest.sidecar_path(flight_name)
    return {
        "shard": shard_id,
        "stderr_path": stderr_path if os.path.exists(stderr_path) else None,
        "stderr_tail": _tail_lines(stderr_path, tail),
        "flight_path": flight_path if os.path.exists(flight_path) else None,
    }


def _shard_fingerprint(unit: UnitSpec, shard: ShardRecord) -> dict:
    return {
        "shard": shard.id,
        "unit": unit.unit,
        "path": unit.path,
        "format": unit.format,
        "chromosome": unit.chromosome,
        "replicate": unit.replicate,
        "n_sites": unit.n_sites,
        "grid_lo": shard.grid_lo,
        "grid_hi": shard.grid_hi,
    }


def _attach_introspection(job: _ShardJob):
    """Worker-side setup of the live-introspection plumbing: stderr
    capture, ledger slot binding, flight-recorder breadcrumb. All
    best-effort — introspection must never take down a scan."""
    if job.stderr_path:
        # Redirect fd 2 so crashes (including ones the Python layer never
        # sees) land in a per-shard capture the orchestrator can print.
        try:
            os.makedirs(
                os.path.dirname(job.stderr_path) or ".", exist_ok=True
            )
            fd = os.open(
                job.stderr_path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                0o644,
            )
            os.dup2(fd, 2)
            os.close(fd)
        except OSError:
            pass
    writer = None
    if job.ledger_path and job.slot_index >= 0:
        try:
            ledger = ProgressLedger.open(job.ledger_path, writable=True)
            writer = ledger.slot_writer(job.slot_index)
            writer.bind(phase="index")
            bind_live_slot(writer)
        except Exception:
            writer = None
    get_flight().record(
        "shard", "worker.start", shard=job.shard_id, pid=os.getpid(),
        grid_lo=job.grid_lo, grid_hi=job.grid_hi,
    )
    return writer


def _shard_worker(job: _ShardJob) -> None:
    """Shard process entry point: index the unit, scan the grid slice,
    persist the sidecars. Exits non-zero on any failure; never touches
    the manifest ledger (the parent is the single writer)."""
    writer = _attach_introspection(job)
    try:
        source: AlignmentStreamSource = StreamingAlignmentReader(
            job.path,
            format=job.format,
            length=job.length,
            replicate=job.replicate,
            chromosome=job.chromosome,
        )
        hold_dir = os.environ.get(HOLD_DIR_ENV)
        if hold_dir:
            source = _TestHoldSource(source, hold_dir, job.shard_id)
        if writer is not None:
            writer.bind(
                phase="scan",
                positions_total=job.grid_hi - job.grid_lo,
            )
        # The scan plans the unit's full grid from its complete site index
        # and scans the manifest's slice of it, so shard records are
        # bitwise-equal to the same slice of an unsharded scan.
        result = scan_stream(
            source,
            job.config,
            snp_budget=job.snp_budget,
            n_workers=job.workers_per_shard,
            grid_slice=(job.grid_lo, job.grid_hi),
        )
        get_flight().record(
            "shard", "worker.scan_done", shard=job.shard_id,
            positions=int(len(result.positions)),
        )
        sidecar.write_payload(
            job.npz_path,
            job.json_path,
            result,
            job.fingerprint,
        )
        if writer is not None:
            writer.finish("done")
    except BaseException as exc:
        if writer is not None:
            try:
                writer.finish("failed")
            except Exception:
                pass
        if job.flight_path:
            try:
                get_flight().dump(
                    job.flight_path,
                    error=exc,
                    metrics=obs.get_metrics().snapshot(),
                    extra={"shard": job.shard_id, "origin": "worker"},
                )
            except Exception:
                pass
        raise


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _sweep_shm(pid: int) -> List[str]:
    """Unlink every shared-memory segment created by ``pid`` (segment
    names embed the creating pid — see
    :class:`~repro.datasets.alignment.SharedAlignmentSegments`)."""
    removed: List[str] = []
    for path in glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}-{pid}-*"):
        try:
            os.unlink(path)
        except OSError:
            continue
        removed.append(os.path.basename(path))
    return removed


@dataclass
class ShardRunReport:
    """What one :func:`run_manifest` invocation actually did."""

    #: Shard ids executed by this invocation, in completion order.
    executed: List[int] = field(default_factory=list)
    #: Shard id -> error string for shards that failed this invocation.
    failed: Dict[int, str] = field(default_factory=dict)
    #: Shards already ``done`` when this invocation started.
    already_done: List[int] = field(default_factory=list)
    #: Shared-memory segment names swept from dead workers.
    swept: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0


def _recover(manifest: Manifest, report: ShardRunReport) -> None:
    """Reconcile ledger state with reality before executing anything."""
    for shard in manifest.shards:
        if shard.status == "running":
            if shard.pid is not None and _pid_alive(shard.pid):
                raise ShardError(
                    f"shard {shard.id} is marked running under live pid "
                    f"{shard.pid}; another orchestrator appears to own "
                    f"manifest {manifest.path!r}"
                )
            if shard.pid is not None:
                report.swept.extend(_sweep_shm(shard.pid))
            shard.status = "pending"
            shard.error = (
                f"recovered: worker pid {shard.pid} died mid-scan"
            )
            shard.pid = None
        elif shard.status == "failed":
            shard.status = "pending"
        elif shard.status == "done":
            npz = manifest.sidecar_path(shard.result or "")
            meta = manifest.sidecar_path(shard.meta or "")
            if not (
                shard.result
                and shard.meta
                and os.path.exists(npz)
                and os.path.exists(meta)
            ):
                shard.status = "pending"
                shard.error = "recovered: done but sidecars missing"
                shard.result = None
                shard.meta = None


def run_manifest(
    manifest: Union[Manifest, str],
    *,
    max_workers: int = 1,
    mp_context: Optional[str] = None,
) -> ShardRunReport:
    """Execute every non-``done`` shard of a manifest.

    Safe to re-invoke after any crash (see module docstring for the
    recovery rules). Shard failures are recorded in the ledger and the
    returned report — they do not raise, so one bad shard never blocks
    its siblings; callers decide whether a partial manifest is an error
    (:func:`shard_scan` does).
    """
    if isinstance(manifest, str):
        manifest = Manifest.load(manifest)
    if max_workers < 1:
        raise ShardError(f"max_workers must be >= 1, got {max_workers}")
    t0 = time.perf_counter()
    report = ShardRunReport()
    _recover(manifest, report)
    report.already_done = [
        s.id for s in manifest.shards if s.status == "done"
    ]
    manifest.save()

    # Live progress ledger: one slot per shard, next to the manifest.
    # Recreated fresh each invocation (it is advisory, never consulted
    # for resume); already-done shards show as complete immediately.
    # Failure to create it never blocks the scan.
    ledger: Optional[ProgressLedger] = None
    slot_of: Dict[int, int] = {}
    try:
        ledger = ProgressLedger.create(
            manifest.progress_ledger_path, max(1, len(manifest.shards))
        )
        for i, s in enumerate(manifest.shards):
            slot_of[s.id] = i
            done = s.status == "done"
            span = max(0, s.grid_hi - s.grid_lo)
            ledger.init_slot(
                i,
                key=f"shard-{s.id}",
                positions_total=span,
                est_cost_total=float(s.est_cost),
                phase="done" if done else "pending",
                positions_done=span if done else 0,
                est_cost_done=float(s.est_cost) if done else 0.0,
            )
    except Exception:
        ledger = None
        slot_of = {}

    queue = sorted(
        (s for s in manifest.shards if s.status == "pending"),
        key=lambda s: -s.est_cost,
    )
    ctx = get_context(mp_context)
    running: Dict[int, object] = {}

    def spawn(shard: ShardRecord) -> None:
        unit = manifest.unit(shard.unit)
        npz_name, json_name = sidecar.shard_basenames(shard.id)
        stderr_name, flight_name = shard_aux_basenames(shard.id)
        job = _ShardJob(
            shard_id=shard.id,
            path=unit.path,
            format=unit.format,
            chromosome=unit.chromosome,
            replicate=unit.replicate,
            length=unit.length,
            grid_lo=shard.grid_lo,
            grid_hi=shard.grid_hi,
            config=manifest.config,
            snp_budget=manifest.snp_budget,
            workers_per_shard=manifest.workers_per_shard,
            npz_path=manifest.sidecar_path(npz_name),
            json_path=manifest.sidecar_path(json_name),
            fingerprint=_shard_fingerprint(unit, shard),
            ledger_path=(
                manifest.progress_ledger_path
                if ledger is not None
                else None
            ),
            slot_index=slot_of.get(shard.id, -1),
            stderr_path=manifest.sidecar_path(stderr_name),
            flight_path=manifest.sidecar_path(flight_name),
        )
        proc = ctx.Process(
            target=_shard_worker, args=(job,), daemon=False
        )
        # A shard with its own pool only coordinates it. Started on one
        # BLAS thread, it hands that count to the pool's workers, since a
        # forked process must not set the count itself.
        with (
            child_blas_threads()
            if job.workers_per_shard > 1
            else contextlib.nullcontext()
        ):
            proc.start()
        shard.status = "running"
        shard.pid = proc.pid
        shard.attempts += 1
        shard.error = None
        manifest.save()
        running[shard.id] = proc

    def reap(shard_id: int) -> None:
        proc = running.pop(shard_id)
        proc.join()
        shard = manifest.shard(shard_id)
        exitcode = proc.exitcode
        npz_name, json_name = sidecar.shard_basenames(shard.id)
        if exitcode == 0 and all(
            os.path.exists(manifest.sidecar_path(name))
            for name in (npz_name, json_name)
        ):
            shard.status = "done"
            shard.result = npz_name
            shard.meta = json_name
            shard.error = None
            report.executed.append(shard.id)
        else:
            if shard.pid is not None:
                report.swept.extend(_sweep_shm(shard.pid))
            if exitcode == 0:
                error = "worker exited cleanly but wrote no sidecars"
            elif exitcode is not None and exitcode < 0:
                error = f"worker killed by signal {-exitcode}"
            else:
                error = f"worker exited with code {exitcode}"
            shard.status = "failed"
            shard.error = error
            report.failed[shard.id] = error
            _write_reap_postmortem(
                manifest, shard, ledger, slot_of, error, exitcode
            )
            if ledger is not None and shard.id in slot_of:
                try:
                    ledger.mark_phase(slot_of[shard.id], "failed")
                except Exception:
                    pass
        shard.pid = None
        manifest.save()

    try:
        while queue or running:
            while queue and len(running) < max_workers:
                spawn(queue.pop(0))
            sentinels = {
                proc.sentinel: shard_id
                for shard_id, proc in running.items()
            }
            ready = connection.wait(list(sentinels), timeout=1.0)
            for sentinel in ready:
                reap(sentinels[sentinel])
    finally:
        # Orchestrator interrupted (KeyboardInterrupt, test teardown):
        # terminate children so they cannot outlive the ledger's view.
        for shard_id, proc in list(running.items()):
            proc.terminate()
            proc.join()
            shard = manifest.shard(shard_id)
            if shard.pid is not None:
                report.swept.extend(_sweep_shm(shard.pid))
            if shard.status == "running":
                shard.status = "pending"
                shard.error = "orchestrator interrupted"
                shard.pid = None
        if running:
            running.clear()
            manifest.save()
        if ledger is not None:
            ledger.close()
    report.wall_seconds = time.perf_counter() - t0
    return report


def _write_reap_postmortem(
    manifest: Manifest,
    shard: ShardRecord,
    ledger: Optional[ProgressLedger],
    slot_of: Dict[int, int],
    error: str,
    exitcode: Optional[int],
) -> None:
    """Orchestrator-side flight dump for a worker that died without
    writing its own (SIGKILL/OOM: the in-process ring is gone, but the
    parent still knows the exit status, the victim's last ledger slot,
    and its captured stderr). A worker-written dump is richer and wins."""
    _, flight_name = shard_aux_basenames(shard.id)
    flight_path = manifest.sidecar_path(flight_name)
    if os.path.exists(flight_path):
        return
    slot_payload = None
    if ledger is not None and shard.id in slot_of:
        try:
            slot_payload = ledger.read_slot(slot_of[shard.id]).to_payload()
        except Exception:
            slot_payload = None
    stderr_name, _ = shard_aux_basenames(shard.id)
    doc = {
        "schema": "repro.flight-recorder/1",
        "origin": "orchestrator-reap",
        "shard": shard.id,
        "pid": shard.pid,
        "exitcode": exitcode,
        "error": {"type": "WorkerDeath", "message": error},
        "events": [],
        "metrics": None,
        "last_ledger_slot": slot_payload,
        "stderr_tail": _tail_lines(
            manifest.sidecar_path(stderr_name), 20
        ),
    }
    try:
        write_dump(flight_path, doc)
    except Exception:
        pass


@dataclass
class UnitResult:
    """One unit's merged scan outcome."""

    unit: UnitSpec
    result: ScanResult


@dataclass
class ShardScanResult:
    """The merged outcome of a complete manifest."""

    units: List[UnitResult]
    #: Every unit's records concatenated in unit order, with all
    #: observability sidecars merged losslessly.
    combined: ScanResult
    #: Units the planner skipped (too little data), with reasons.
    skipped: List[UnitSpec] = field(default_factory=list)

    def to_tsv(self) -> str:
        """OmegaPlus-style report with a leading unit-name column."""
        lines = [
            "unit\tposition\tomega\tleft_border\tright_border\t"
            "evaluations"
        ]
        for ur in self.units:
            for k in range(len(ur.result)):
                r = ur.result[k]
                lines.append(
                    f"{ur.unit.name}\t{r.position:.2f}\t{r.omega:.6f}\t"
                    f"{r.left_border_bp:.2f}\t{r.right_border_bp:.2f}\t"
                    f"{r.n_evaluations}"
                )
        return "\n".join(lines)

    def summary(self) -> str:
        lines = []
        for ur in self.units:
            best = ur.result.best()
            lines.append(
                f"{ur.unit.name}: {len(ur.result)} positions, max omega "
                f"{best.omega:.4f} at {best.position:.1f}"
            )
        for unit in self.skipped:
            lines.append(f"{unit.name}: skipped ({unit.reason})")
        return "\n".join(lines)


def merge_manifest(manifest: Union[Manifest, str]) -> ShardScanResult:
    """Merge a fully-``done`` manifest into per-unit and combined
    :class:`ScanResult`\\ s (see
    :func:`repro.core.results.merge_scan_results` for the lossless-merge
    semantics). Raises :class:`ShardError` when any shard of an ``ok``
    unit is not ``done`` or its sidecar does not match the ledger."""
    if isinstance(manifest, str):
        manifest = Manifest.load(manifest)
    unit_results: List[UnitResult] = []
    skipped: List[UnitSpec] = []
    for unit in manifest.units:
        if unit.status != "ok":
            skipped.append(unit)
            continue
        shards = manifest.unit_shards(unit.unit)
        incomplete = [s.id for s in shards if s.status != "done"]
        if incomplete:
            raise ShardError(
                f"manifest {manifest.path!r} is incomplete: unit "
                f"{unit.name} has non-done shard(s) {incomplete}; "
                f"run_manifest() it first"
            )
        parts = [
            sidecar.load_payload(
                manifest.sidecar_path(s.result),
                manifest.sidecar_path(s.meta),
                _shard_fingerprint(unit, s),
            )
            for s in shards
        ]
        unit_results.append(
            UnitResult(unit=unit, result=merge_scan_results(parts))
        )
    if not unit_results:
        raise ShardError(
            f"manifest {manifest.path!r} has no completed units to merge"
        )
    combined = merge_scan_results([ur.result for ur in unit_results])
    return ShardScanResult(
        units=unit_results, combined=combined, skipped=skipped
    )


def shard_scan(
    inputs,
    config: OmegaConfig,
    *,
    manifest_path: str,
    snp_budget: int,
    max_workers: int = 1,
    shards_per_unit: int = 1,
    target_shard_cost: Optional[float] = None,
    workers_per_shard: int = 1,
    format: str = "ms",
    length: Optional[float] = None,
    mp_context: Optional[str] = None,
) -> ShardScanResult:
    """One-call sharded scan: build the manifest (or load it when
    ``manifest_path`` already exists — the crash-resume path), execute
    every outstanding shard, and merge.

    Raises :class:`ShardError` when shards fail; the manifest keeps
    their state, so fixing the cause and calling again resumes.
    """
    from repro.shard.planner import build_manifest

    if os.path.exists(manifest_path):
        manifest = Manifest.load(manifest_path)
    else:
        manifest = build_manifest(
            inputs,
            config,
            manifest_path=manifest_path,
            snp_budget=snp_budget,
            shards_per_unit=shards_per_unit,
            target_shard_cost=target_shard_cost,
            workers_per_shard=workers_per_shard,
            format=format,
            length=length,
        )
    report = run_manifest(
        manifest, max_workers=max_workers, mp_context=mp_context
    )
    if report.failed:
        details = "; ".join(
            f"shard {sid}: {err}" for sid, err in report.failed.items()
        )
        raise ShardError(
            f"{len(report.failed)} shard(s) failed ({details}); "
            f"re-run to retry the failed shards"
        )
    return merge_manifest(manifest)
