"""Missing-data handling for SNP alignments.

Real datasets carry missing calls (ambiguous characters in FASTA, ``.``
genotypes in VCF); OmegaPlus accepts them and computes LD from
pairwise-complete observations. This module provides the same capability
on top of the package's clean-core design: a :class:`MaskedAlignment`
holds the raw calls plus a missingness mask and offers

* :func:`r_squared_pairwise_complete` — r² from the samples observed at
  *both* sites of a pair (the OmegaPlus treatment);
* :meth:`MaskedAlignment.impute_major` — fill gaps with each site's
  major allele (fast path when missingness is light: downstream code
  then runs the vectorized complete-data kernels unchanged);
* :meth:`MaskedAlignment.drop_sparse_sites` — remove sites above a
  missingness threshold (standard QC step).

The encoding uses 255 as the missing marker in a uint8 matrix, so dense
arithmetic stays available.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.datasets.alignment import SNPAlignment
from repro.errors import AlignmentError, LDError

__all__ = [
    "MISSING",
    "MaskedAlignment",
    "r_squared_pairwise_complete",
]

#: Sentinel value marking a missing call in the uint8 genotype matrix.
MISSING = np.uint8(255)


@dataclass(frozen=True)
class MaskedAlignment:
    """A biallelic alignment with missing calls.

    Attributes
    ----------
    matrix:
        uint8 array (samples x sites) with entries in {0, 1, MISSING}.
    positions, length:
        As in :class:`~repro.datasets.alignment.SNPAlignment`.
    """

    matrix: np.ndarray
    positions: np.ndarray
    length: float

    def __post_init__(self) -> None:
        matrix = np.ascontiguousarray(self.matrix, dtype=np.uint8)
        positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        if matrix.ndim != 2:
            raise AlignmentError(
                f"matrix must be 2-D, got shape {matrix.shape}"
            )
        valid = (matrix == 0) | (matrix == 1) | (matrix == MISSING)
        if not valid.all():
            raise AlignmentError(
                "matrix entries must be 0, 1 or MISSING (255)"
            )
        if matrix.shape[1] != positions.shape[0]:
            raise AlignmentError("positions/site count mismatch")
        if positions.size and not np.all(np.diff(positions) > 0):
            raise AlignmentError("positions must be strictly increasing")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "positions", positions)

    # ------------------------------------------------------------------ #

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_sites(self) -> int:
        return self.matrix.shape[1]

    @property
    def observed(self) -> np.ndarray:
        """Boolean mask of non-missing calls."""
        return self.matrix != MISSING

    def missing_fraction(self) -> np.ndarray:
        """Per-site fraction of missing calls."""
        return 1.0 - self.observed.mean(axis=0)

    @classmethod
    def from_alignment(
        cls,
        alignment: SNPAlignment,
        missing_mask: np.ndarray,
    ) -> "MaskedAlignment":
        """Punch holes into a complete alignment (testing/simulation)."""
        mask = np.asarray(missing_mask, dtype=bool)
        if mask.shape != alignment.matrix.shape:
            raise AlignmentError(
                f"mask shape {mask.shape} != matrix shape "
                f"{alignment.matrix.shape}"
            )
        matrix = alignment.matrix.copy()
        matrix[mask] = MISSING
        return cls(matrix, alignment.positions, alignment.length)

    # ------------------------------------------------------------------ #
    # conversions back to complete data
    # ------------------------------------------------------------------ #

    def impute_major(self) -> SNPAlignment:
        """Replace missing calls with each site's major observed allele.

        Sites with no observed calls at all are imputed to 0 (they carry
        no information either way).
        """
        obs = self.observed
        with np.errstate(invalid="ignore"):
            derived_freq = np.where(
                obs.any(axis=0),
                np.where(obs, self.matrix, 0).sum(axis=0)
                / np.maximum(obs.sum(axis=0), 1),
                0.0,
            )
        major = (derived_freq >= 0.5).astype(np.uint8)
        filled = np.where(obs, self.matrix, major[None, :]).astype(np.uint8)
        return SNPAlignment(filled, self.positions, self.length)

    def drop_sparse_sites(self, max_missing: float = 0.2) -> "MaskedAlignment":
        """Remove sites whose missingness exceeds ``max_missing``."""
        if not 0.0 <= max_missing <= 1.0:
            raise AlignmentError(
                f"max_missing must be in [0,1], got {max_missing}"
            )
        keep = self.missing_fraction() <= max_missing
        return MaskedAlignment(
            self.matrix[:, keep], self.positions[keep], self.length
        )

    def complete_case(self) -> SNPAlignment:
        """Keep only samples with no missing call anywhere (listwise
        deletion; usually too aggressive, provided for comparison)."""
        keep = self.observed.all(axis=1)
        if not keep.any():
            raise AlignmentError("no complete samples remain")
        return SNPAlignment(
            self.matrix[keep, :], self.positions, self.length
        )


def r_squared_pairwise_complete(
    masked: MaskedAlignment,
    i: np.ndarray,
    j: np.ndarray,
    *,
    min_observations: int = 4,
) -> np.ndarray:
    """r² over pairwise-complete observations (OmegaPlus's missing-data
    treatment).

    For each pair, only samples observed at *both* sites enter the
    counts; pairs with fewer than ``min_observations`` shared
    observations yield 0 (insufficient data, no association evidence).
    """
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    if i.shape != j.shape:
        raise LDError(f"index shapes differ: {i.shape} vs {j.shape}")
    if i.size == 0:
        return np.zeros(i.shape)
    hi = masked.n_sites
    if i.min() < 0 or j.min() < 0 or i.max() >= hi or j.max() >= hi:
        raise LDError(f"site index out of range for {hi} sites")
    if min_observations < 2:
        raise LDError("min_observations must be >= 2")

    obs = masked.observed
    geno = np.where(obs, masked.matrix, 0).astype(np.float64)

    a_obs = obs[:, i]
    b_obs = obs[:, j]
    both = a_obs & b_obs
    m = both.sum(axis=0).astype(np.float64)  # shared observations

    a = geno[:, i] * both
    b = geno[:, j] * both
    n11 = np.einsum("sk,sk->k", a, b)
    c_i = a.sum(axis=0)
    c_j = b.sum(axis=0)

    out = np.zeros(i.shape)
    usable = m >= min_observations
    if usable.any():
        # per-pair sample sizes differ, so normalize frequencies per pair
        p_i = c_i[usable] / m[usable]
        p_j = c_j[usable] / m[usable]
        p_ij = n11[usable] / m[usable]
        denom = p_i * (1 - p_i) * p_j * (1 - p_j)
        num = p_ij - p_i * p_j
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(denom > 0, (num * num) / np.where(denom > 0, denom, 1.0), 0.0)
        out[usable] = np.clip(vals, 0.0, 1.0)
    return out
