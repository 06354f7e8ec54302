"""Correctness checks for every job the benchmark runs.

* :func:`reference` scans the parsed input once, in memory and
  sequentially (``OmegaPlusScanner.scan``), and first checks that the
  parser returned exactly the matrix the generator drew (for VCF: after
  this file's own major-allele imputation and monomorphic-site filter).
* :func:`brute_force` recomputes omega at the reference's reported
  borders for 16 seeded positions with ``omega_brute_force``, over an r²
  matrix computed here with numpy (rtol 1e-8: the scan's incremental
  window sums round differently from a direct sum, by up to 1.3e-9
  relative on 128 haplotypes).
* :func:`check_job` and :func:`check_replies` compare what a job
  reported with the reference: bitwise where the program documents
  bitwise equality (sequential, streamed, sharded), rtol 1e-8 where it
  documents a tolerance (parallel blocks, the daemon). A report's text
  must also match its own arrays at the printed precision.

Every check returns the largest relative omega error it saw, so a run
can record ``check.max_rel_err``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.grid import GridSpec, fixed_position_spec
from repro.core.omega import omega_brute_force
from repro.core.scan import OmegaConfig, OmegaPlusScanner
from repro.datasets.msformat import parse_ms
from repro.datasets.vcf import parse_vcf

from workloads import Inputs

__all__ = [
    "RTOL_BRUTE",
    "RTOL_PARALLEL",
    "OracleError",
    "Reference",
    "brute_force",
    "check_job",
    "check_replies",
    "expected_vcf_alignment",
    "r_squared",
    "reference",
]

RTOL_PARALLEL = 1e-8
RTOL_BRUTE = 1e-8
BRUTE_POSITIONS = 16
_FIELDS = ("positions", "omegas", "left", "right", "evaluations")


class OracleError(Exception):
    """The program's output or parsed input disagrees with the oracle."""


@dataclass
class Unit:
    """One scanned alignment: reference rows ``[lo, hi)`` came from it."""

    lo: int
    hi: int
    site_positions: np.ndarray
    matrix: np.ndarray


@dataclass
class Reference:
    positions: np.ndarray
    omegas: np.ndarray
    left: np.ndarray
    right: np.ndarray
    evaluations: np.ndarray
    bitwise: bool
    units: List[Unit]


def _config(params: dict, grid_positions: Optional[np.ndarray] = None):
    spec = GridSpec(n_positions=int(params.get("grid", 1)),
                    max_window=float(params["maxwin"]))
    if grid_positions is not None:
        spec = fixed_position_spec(spec, grid_positions)
    return OmegaConfig(grid=spec)


def expected_vcf_alignment(chrom) -> Tuple[np.ndarray, np.ndarray]:
    """The generator's haplotypes after major-allele imputation of
    missing genotypes and removal of monomorphic sites, as
    ``(matrix, positions)``."""
    missing = np.repeat(chrom.missing, 2, axis=0)
    observed = ~missing
    n_obs = observed.sum(axis=0)
    derived = np.where(observed, chrom.hap, 0).sum(axis=0)
    major = ((2 * derived >= n_obs) & (n_obs > 0)).astype(np.uint8)
    filled = np.where(missing, major[None, :], chrom.hap).astype(np.uint8)
    counts = filled.sum(axis=0)
    keep = (counts > 0) & (counts < filled.shape[0])
    return filled[:, keep], chrom.positions[keep].astype(np.float64)


def reference(inputs: Inputs) -> Reference:
    """In-memory sequential scan of the parsed input (see module doc)."""
    w = inputs.workload
    p = w.params
    path = inputs.files[0]
    if w.name == "chroms_vcf_shard":
        parts, units, lo = [], [], 0
        for chrom in inputs.truth["chromosomes"]:
            aln = (parse_vcf(path, chromosome=chrom.name)
                   .impute_major().drop_monomorphic())
            matrix, positions = expected_vcf_alignment(chrom)
            if not (np.array_equal(aln.matrix, matrix)
                    and np.array_equal(aln.positions, positions)):
                raise OracleError(
                    f"parsed VCF {chrom.name} differs from the generator "
                    "after imputation and monomorphic-site removal"
                )
            part = OmegaPlusScanner(_config(p)).scan(aln)
            parts.append(part)
            units.append(Unit(lo, lo + len(part), positions, matrix))
            lo += len(part)
        return Reference(
            *(np.concatenate([getattr(r, f) for r in parts]) for f in (
                "positions", "omegas", "left_borders_bp",
                "right_borders_bp", "n_evaluations")),
            bitwise=True, units=units,
        )
    aln = parse_ms(path, length=float(p["length"]))[0].alignment
    hap, positions = inputs.truth["hap"], inputs.truth["positions"]
    if not (np.array_equal(aln.matrix, hap)
            and np.array_equal(aln.positions, positions)):
        raise OracleError("parsed ms input differs from the generator")
    grid = None
    if w.kind == "serve":
        grid = np.unique(np.concatenate([
            np.linspace(r["start_bp"], r["stop_bp"], r["n_positions"])
            for r in inputs.requests
        ]))
    result = OmegaPlusScanner(_config(p, grid)).scan(aln)
    return Reference(
        result.positions, result.omegas, result.left_borders_bp,
        result.right_borders_bp, result.n_evaluations,
        bitwise=w.name in ("balanced_ms", "highld_ms_stream"),
        units=[Unit(0, len(result), positions, hap)],
    )


def r_squared(matrix: np.ndarray) -> np.ndarray:
    """Pairwise r² of the columns of a 0/1 ``(samples, sites)`` matrix."""
    x = matrix.astype(np.float64)
    freq = x.mean(axis=0)
    d = x.T @ x / x.shape[0] - np.outer(freq, freq)
    var = freq * (1.0 - freq)
    return d * d / np.outer(var, var)


def brute_force(ref: Reference, seed: int) -> float:
    """Recompute omega at the reported borders of 16 seeded positions;
    returns the largest relative error, raising past :data:`RTOL_BRUTE`."""
    valid = np.flatnonzero(np.isfinite(ref.left))
    if valid.size == 0:
        raise OracleError("the reference scan evaluated no position")
    rng = np.random.default_rng([seed, 16])
    rows = rng.choice(valid, size=min(BRUTE_POSITIONS, valid.size),
                      replace=False)
    worst = 0.0
    for row in rows:
        unit = next(u for u in ref.units if u.lo <= row < u.hi)
        pos = unit.site_positions
        a = int(np.searchsorted(pos, ref.left[row]))
        b = int(np.searchsorted(pos, ref.right[row]))
        if pos[a] != ref.left[row] or pos[b] != ref.right[row]:
            raise OracleError(f"row {row}: borders are not site positions")
        c = int(np.searchsorted(pos, ref.positions[row], side="right")) - 1
        c = max(0, min(c, pos.size - 2))
        r2 = r_squared(unit.matrix[:, a:b + 1])
        expected = omega_brute_force(r2, 0, c - a, b - a)
        err = abs(ref.omegas[row] - expected) / max(abs(expected), 1e-300)
        if err > RTOL_BRUTE:
            raise OracleError(
                f"row {row}: omega {ref.omegas[row]!r} but brute force "
                f"gives {expected!r} (rel err {err:.2e})"
            )
        worst = max(worst, err)
    return worst


def _compare(got: dict, ref: Reference, rows: np.ndarray, what: str) -> float:
    """Job arrays vs reference rows; returns the max relative omega error."""
    for name in _FIELDS:
        if got[name].shape != rows.shape:
            raise OracleError(f"{what}: {name} has shape {got[name].shape}, "
                              f"expected {rows.shape}")
    for name in ("positions", "evaluations", "left", "right"):
        if not np.array_equal(got[name], getattr(ref, name)[rows],
                              equal_nan=name in ("left", "right")):
            raise OracleError(f"{what}: {name} differ from the reference")
    expected = ref.omegas[rows]
    err = np.abs(got["omegas"] - expected) / np.maximum(np.abs(expected),
                                                        1e-300)
    worst = float(err.max(initial=0.0))
    if ref.bitwise and not np.array_equal(got["omegas"], expected):
        raise OracleError(f"{what}: omegas not bitwise equal to the "
                          f"reference (max rel err {worst:.2e})")
    if worst > RTOL_PARALLEL:
        raise OracleError(f"{what}: omega rel err {worst:.2e} exceeds "
                          f"{RTOL_PARALLEL:g}")
    return worst


def _check_report(path: str, got: dict) -> None:
    """The report's rows equal the job's arrays at the printed precision
    (``ScanResult.to_tsv`` formats; a shard report adds a unit column)."""
    with open(path, encoding="ascii") as fh:
        rows = fh.read().splitlines()[1:]
    if len(rows) != got["positions"].size:
        raise OracleError(f"report has {len(rows)} rows, result has "
                          f"{got['positions'].size}")
    for k, line in enumerate(rows):
        want = [f"{got['positions'][k]:.2f}", f"{got['omegas'][k]:.6f}",
                f"{got['left'][k]:.2f}", f"{got['right'][k]:.2f}",
                f"{got['evaluations'][k]}"]
        if line.split("\t")[-5:] != want:
            raise OracleError(f"report row {k} {line!r} does not match "
                              f"the result arrays {want}")


def check_job(job_dir: str, ref: Reference) -> float:
    """Check a batch job's report and arrays; returns max rel error."""
    with np.load(os.path.join(job_dir, "result.npz")) as data:
        got = {name: data[name] for name in _FIELDS}
    _check_report(os.path.join(job_dir, "report.tsv"), got)
    return _compare(got, ref, np.arange(ref.positions.size), "job")


def check_replies(replies: List[dict], ref: Reference) -> float:
    """Check daemon replies against the union-grid reference scan."""
    worst = 0.0
    for reply in replies:
        positions = np.asarray(reply["positions"], dtype=np.float64)
        rows = np.searchsorted(ref.positions, positions)
        if (rows >= ref.positions.size).any() or not np.array_equal(
                ref.positions[np.minimum(rows, ref.positions.size - 1)],
                positions):
            raise OracleError(f"{reply['request_id']}: positions are not "
                              "the requested grid")
        got = {
            "positions": positions,
            "omegas": np.asarray(reply["omegas"], dtype=np.float64),
            "left": np.asarray(reply["left_borders_bp"], dtype=np.float64),
            "right": np.asarray(reply["right_borders_bp"], dtype=np.float64),
            "evaluations": np.asarray(reply["n_evaluations"], dtype=np.int64),
        }
        worst = max(worst, _compare(got, ref, rows, reply["request_id"]))
    return worst
