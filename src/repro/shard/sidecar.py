"""Lossless per-shard result persistence.

Each completed shard leaves two files in the manifest's sidecar
directory:

* ``shard-<id>.npz`` — the result arrays (positions, ω, borders,
  evaluation counts). ``.npz`` stores float64 bitwise, so a resumed
  manifest merges to exactly the bytes an uninterrupted run produces.
* ``shard-<id>.json`` — the observability payload: phase breakdown,
  ω sub-timings, :class:`~repro.core.reuse.ReuseStats` counters and the
  metrics snapshot, plus a *fingerprint* tying the sidecar to its ledger
  entry (unit path, grid range, site count). Python's ``json`` writes
  floats via ``repr``, which round-trips float64 exactly.

Both files are written through a temp file + :func:`os.replace`, so a
worker killed mid-write can never leave a torn sidecar — the runner
either sees a complete pair or re-runs the shard.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from typing import Optional, Tuple

import numpy as np

from repro.core.results import ScanResult
from repro.core.reuse import ReuseStats
from repro.errors import ShardError
from repro.utils.timing import TimeBreakdown

__all__ = [
    "load_payload",
    "shard_basenames",
    "write_payload",
]

_ARRAY_FIELDS = (
    "positions",
    "omegas",
    "left_borders_bp",
    "right_borders_bp",
    "n_evaluations",
)


def shard_basenames(shard_id: int) -> Tuple[str, str]:
    """(npz, json) sidecar file names for a shard id."""
    return f"shard-{shard_id}.npz", f"shard-{shard_id}.json"


def _atomic_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_payload(
    npz_path: str,
    json_path: str,
    result: ScanResult,
    fingerprint: dict,
) -> None:
    """Persist one shard's :class:`ScanResult` atomically."""
    import io as _io

    buf = _io.BytesIO()
    np.savez(
        buf, **{name: getattr(result, name) for name in _ARRAY_FIELDS}
    )
    _atomic_bytes(npz_path, buf.getvalue())
    meta = {
        "fingerprint": fingerprint,
        "breakdown": {
            "totals": result.breakdown.totals,
            "wall_seconds": result.breakdown.wall_seconds,
        },
        "omega_subphases": {
            "totals": result.omega_subphases.totals,
            "wall_seconds": result.omega_subphases.wall_seconds,
        },
        "reuse": dataclasses.asdict(result.reuse),
        "metrics": result.metrics,
    }
    _atomic_bytes(
        json_path,
        (json.dumps(meta, sort_keys=True) + "\n").encode("ascii"),
    )


def load_payload(
    npz_path: str,
    json_path: str,
    expected_fingerprint: Optional[dict] = None,
) -> ScanResult:
    """Load one shard sidecar pair back into a :class:`ScanResult`.

    Raises :class:`~repro.errors.ShardError` when a file is missing,
    unreadable, structurally wrong, or (with ``expected_fingerprint``)
    recorded for a different unit/grid range than the ledger says —
    the runner treats any of these as "shard not done" and re-runs it.
    """
    try:
        with open(json_path, "r", encoding="ascii") as fh:
            meta = json.load(fh)
        with np.load(npz_path) as npz:
            arrays = {name: npz[name] for name in _ARRAY_FIELDS}
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ShardError(
            f"unreadable shard sidecar {npz_path!r}/{json_path!r}: {exc}"
        ) from exc
    if expected_fingerprint is not None:
        found = meta.get("fingerprint")
        if found != expected_fingerprint:
            raise ShardError(
                f"shard sidecar {json_path!r} fingerprint {found!r} does "
                f"not match its ledger entry {expected_fingerprint!r}"
            )
    n = arrays["positions"].shape[0]
    for name in _ARRAY_FIELDS:
        if arrays[name].shape != (n,):
            raise ShardError(
                f"shard sidecar {npz_path!r}: array {name!r} has shape "
                f"{arrays[name].shape}, expected ({n},)"
            )
    fp = expected_fingerprint or meta.get("fingerprint") or {}
    span = fp.get("grid_hi", n) - fp.get("grid_lo", 0)
    if n != span:
        raise ShardError(
            f"shard sidecar {npz_path!r} holds {n} positions, ledger "
            f"says {span}"
        )
    try:
        breakdown = TimeBreakdown(
            totals=dict(meta["breakdown"]["totals"]),
            wall_seconds=float(meta["breakdown"]["wall_seconds"]),
        )
        subphases = TimeBreakdown(
            totals=dict(meta["omega_subphases"]["totals"]),
            wall_seconds=float(meta["omega_subphases"]["wall_seconds"]),
        )
        reuse = ReuseStats(**meta["reuse"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ShardError(
            f"shard sidecar {json_path!r} metadata is malformed: {exc}"
        ) from exc
    return ScanResult(
        positions=arrays["positions"],
        omegas=arrays["omegas"],
        left_borders_bp=arrays["left_borders_bp"],
        right_borders_bp=arrays["right_borders_bp"],
        n_evaluations=arrays["n_evaluations"],
        breakdown=breakdown,
        reuse=reuse,
        omega_subphases=subphases,
        metrics=meta.get("metrics"),
    )
