"""The JSONL work-manifest ledger.

One manifest file describes one sharded workload:

* line 1 — a ``header`` record: ledger version, the scan configuration
  (grid geometry, eps, LD backend, reuse switches, batching, backend),
  the per-shard streaming parameters (``snp_budget``,
  ``workers_per_shard``) and the sidecar directory name;
* one ``unit`` record per scannable input unit (a VCF chromosome or an
  ms replicate), carrying the index-pass facts needed to re-derive the
  unit's scan plan (``n_sites``, ``n_samples``, ``length``) — or a
  ``skipped`` status with a reason for units with too little data;
* one ``shard`` record per contiguous grid slice of a unit, with its
  lifecycle status (``pending`` → ``running`` → ``done`` / ``failed``),
  attempt counter, the worker pid while running, and the result/meta
  sidecar paths once done.

Updates rewrite the whole file through a temp file + :func:`os.replace`
(POSIX-atomic), so a reader never observes a torn ledger and a crashed
orchestrator leaves either the old or the new state, never a mix. All
floats round-trip exactly through ``json`` (repr-based), so ledger
loads never perturb costs or lengths.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.core.grid import GridSpec
from repro.core.scan import OmegaConfig
from repro.errors import ManifestError

__all__ = ["MANIFEST_VERSION", "Manifest", "ShardRecord", "UnitSpec"]

MANIFEST_VERSION = 1

#: Shard lifecycle states, in nominal order.
SHARD_STATUSES = ("pending", "running", "done", "failed")


@dataclass
class UnitSpec:
    """One independently scannable input unit.

    ``status`` is ``"ok"`` for units with shards, ``"skipped"`` (with a
    ``reason``) for units the planner excluded — e.g. a chromosome with
    fewer than two polymorphic sites, which no scan geometry can use.
    """

    unit: int
    name: str
    path: str
    format: str
    chromosome: Optional[str] = None
    replicate: int = 0
    length: Optional[float] = None
    n_samples: int = 0
    n_sites: int = 0
    n_grid: int = 0
    status: str = "ok"
    reason: Optional[str] = None


@dataclass
class ShardRecord:
    """One contiguous grid slice ``[grid_lo, grid_hi)`` of one unit."""

    id: int
    unit: int
    grid_lo: int
    grid_hi: int
    est_cost: float
    status: str = "pending"
    attempts: int = 0
    pid: Optional[int] = None
    #: Sidecar paths relative to the manifest's sidecar directory.
    result: Optional[str] = None
    meta: Optional[str] = None
    error: Optional[str] = None


def _config_to_json(config: OmegaConfig) -> dict:
    grid = config.grid
    return {
        "grid": {
            "n_positions": grid.n_positions,
            "max_window": grid.max_window,
            "min_window": grid.min_window,
            "min_flank_snps": grid.min_flank_snps,
        },
        "eps": config.eps,
        "ld_backend": config.ld_backend,
        "reuse": config.reuse,
        "dp_reuse": config.dp_reuse,
        "omega_batch": config.omega_batch,
        "backend": config.backend,
    }


def _config_from_json(doc: dict) -> OmegaConfig:
    try:
        grid = GridSpec(**doc["grid"])
        return OmegaConfig(
            grid=grid,
            eps=doc["eps"],
            ld_backend=doc["ld_backend"],
            reuse=doc["reuse"],
            dp_reuse=doc["dp_reuse"],
            omega_batch=doc["omega_batch"],
            backend=doc.get("backend"),
        )
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"manifest config is malformed: {exc}") from exc


@dataclass
class Manifest:
    """In-memory view of one manifest ledger (see module docstring).

    The orchestrator is the single writer: every state transition goes
    through :meth:`save`, which atomically replaces the file. Shard
    workers never touch the ledger — they only write their sidecars.
    """

    path: str
    config: OmegaConfig
    snp_budget: int
    workers_per_shard: int = 1
    units: List[UnitSpec] = field(default_factory=list)
    shards: List[ShardRecord] = field(default_factory=list)

    # ------------------------------------------------------------- #
    # layout
    # ------------------------------------------------------------- #

    @property
    def directory(self) -> str:
        return os.path.dirname(os.path.abspath(self.path))

    @property
    def sidecar_dir(self) -> str:
        """Directory holding the shard sidecars, next to the ledger."""
        return os.path.abspath(self.path) + ".d"

    def sidecar_path(self, relative: str) -> str:
        return os.path.join(self.sidecar_dir, relative)

    @property
    def progress_ledger_path(self) -> str:
        """The live progress ledger next to the manifest: one mmap'd
        seqlock slot per shard (see :mod:`repro.obs.ledger`), written by
        the shard workers and read by ``omegascan top``. Distinct from
        the manifest itself (the durable JSONL state ledger) — this file
        is advisory, rewritten every run, and never consulted for
        crash-resume decisions."""
        return os.path.abspath(self.path) + ".ledger"

    # ------------------------------------------------------------- #
    # persistence
    # ------------------------------------------------------------- #

    def save(self) -> None:
        """Atomically rewrite the ledger (temp file + ``os.replace``)."""
        lines = [
            json.dumps(
                {
                    "kind": "header",
                    "version": MANIFEST_VERSION,
                    "config": _config_to_json(self.config),
                    "snp_budget": self.snp_budget,
                    "workers_per_shard": self.workers_per_shard,
                },
                sort_keys=True,
            )
        ]
        for unit in self.units:
            lines.append(
                json.dumps(
                    {"kind": "unit", **asdict(unit)}, sort_keys=True
                )
            )
        for shard in self.shards:
            lines.append(
                json.dumps(
                    {"kind": "shard", **asdict(shard)}, sort_keys=True
                )
            )
        directory = self.directory
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(self.path) + ".", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str) -> "Manifest":
        if not os.path.exists(path):
            raise ManifestError(f"manifest {path!r} does not exist")
        with open(path, "r", encoding="ascii") as fh:
            raw_lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        if not raw_lines:
            raise ManifestError(f"manifest {path!r} is empty")
        records = []
        for k, line in enumerate(raw_lines):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ManifestError(
                    f"manifest {path!r} line {k + 1} is not valid JSON: "
                    f"{exc}"
                ) from exc
        header = records[0]
        if header.get("kind") != "header":
            raise ManifestError(
                f"manifest {path!r} does not start with a header record"
            )
        version = header.get("version")
        if version != MANIFEST_VERSION:
            raise ManifestError(
                f"manifest {path!r} has version {version!r}; this build "
                f"reads version {MANIFEST_VERSION}"
            )
        # Headers written before the scheduler option was removed also
        # carry a "scheduler" key. It never entered shard fingerprints,
        # so those ledgers resume unchanged with the key ignored.
        manifest = cls(
            path=path,
            config=_config_from_json(header.get("config", {})),
            snp_budget=int(header["snp_budget"]),
            workers_per_shard=int(header["workers_per_shard"]),
        )
        for k, rec in enumerate(records[1:], start=2):
            kind = rec.pop("kind", None)
            try:
                if kind == "unit":
                    manifest.units.append(UnitSpec(**rec))
                elif kind == "shard":
                    manifest.shards.append(ShardRecord(**rec))
                else:
                    raise ManifestError(
                        f"manifest {path!r} line {k}: unknown record "
                        f"kind {kind!r}"
                    )
            except TypeError as exc:
                raise ManifestError(
                    f"manifest {path!r} line {k}: malformed {kind} "
                    f"record: {exc}"
                ) from exc
        manifest._validate()
        return manifest

    # ------------------------------------------------------------- #
    # consistency + queries
    # ------------------------------------------------------------- #

    def _validate(self) -> None:
        unit_ids = {u.unit for u in self.units}
        if len(unit_ids) != len(self.units):
            raise ManifestError("duplicate unit ids in manifest")
        seen_shards = set()
        for shard in self.shards:
            if shard.id in seen_shards:
                raise ManifestError(f"duplicate shard id {shard.id}")
            seen_shards.add(shard.id)
            if shard.unit not in unit_ids:
                raise ManifestError(
                    f"shard {shard.id} references unknown unit "
                    f"{shard.unit}"
                )
            if shard.status not in SHARD_STATUSES:
                raise ManifestError(
                    f"shard {shard.id} has unknown status "
                    f"{shard.status!r}"
                )
            if not 0 <= shard.grid_lo < shard.grid_hi:
                raise ManifestError(
                    f"shard {shard.id} has empty or negative grid range "
                    f"[{shard.grid_lo}, {shard.grid_hi})"
                )
        for unit in self.units:
            spans = sorted(
                (s.grid_lo, s.grid_hi)
                for s in self.shards
                if s.unit == unit.unit
            )
            if unit.status != "ok":
                if spans:
                    raise ManifestError(
                        f"skipped unit {unit.unit} has shards"
                    )
                continue
            expected = 0
            for lo, hi in spans:
                if lo != expected:
                    raise ManifestError(
                        f"unit {unit.unit} shards do not tile its grid "
                        f"(gap/overlap at position {lo}, expected "
                        f"{expected})"
                    )
                expected = hi
            if expected != unit.n_grid:
                raise ManifestError(
                    f"unit {unit.unit} shards cover {expected} grid "
                    f"positions, expected {unit.n_grid}"
                )

    def unit(self, unit_id: int) -> UnitSpec:
        for u in self.units:
            if u.unit == unit_id:
                return u
        raise ManifestError(f"no unit {unit_id} in manifest")

    def shard(self, shard_id: int) -> ShardRecord:
        for s in self.shards:
            if s.id == shard_id:
                return s
        raise ManifestError(f"no shard {shard_id} in manifest")

    def unit_shards(self, unit_id: int) -> List[ShardRecord]:
        """The unit's shards in grid order."""
        return sorted(
            (s for s in self.shards if s.unit == unit_id),
            key=lambda s: s.grid_lo,
        )

    def status_counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in SHARD_STATUSES}
        for shard in self.shards:
            counts[shard.status] += 1
        return counts

    def describe(self) -> str:
        """One-paragraph human digest used by the CLI."""
        counts = self.status_counts()
        ok_units = [u for u in self.units if u.status == "ok"]
        skipped = [u for u in self.units if u.status != "ok"]
        lines = [
            f"{len(ok_units)} unit(s), {len(self.shards)} shard(s): "
            + ", ".join(
                f"{n} {status}" for status, n in counts.items() if n
            )
        ]
        for u in ok_units:
            shard_ids = [s.id for s in self.unit_shards(u.unit)]
            lines.append(
                f"  unit {u.unit} {u.name}: {u.n_sites} sites, "
                f"{u.n_grid} grid positions, shards {shard_ids}"
            )
        for u in skipped:
            lines.append(f"  unit {u.unit} {u.name}: skipped ({u.reason})")
        return "\n".join(lines)
