"""Timing model of the GEMM-based GPU LD stage (Binder et al. [17]).

The GPU-accelerated OmegaPlus computes LD by casting SNP comparison into a
general matrix multiplication (BLIS mapped onto the GPU). Functionally our
GEMM formulation (:mod:`repro.ld.gemm`) *is* that computation; what this
module adds is the cost law used for the Table III / Fig. 14 LD columns.

Per-r²-score cost is modelled with three physically distinct terms::

    t(n_samples) = fixed + per_sample · n + amortized / n

* ``fixed`` — per-pair indexing, packing and result transfer;
* ``per_sample · n`` — the actual fused-multiply-add sweep over
  haplotypes inside the GEMM;
* ``amortized / n`` — kernel-launch and tile-setup costs divided over the
  n-proportional work inside a tile; it dominates for *small* sample
  counts, which is why the paper's GPU LD throughput on the 500-sample
  workload (32.3 Mscores/s) is *lower* than on the 7 000-sample one
  (37.1 Mscores/s) despite each score being cheaper.

Fitting the three Table III rows gives fixed = 2.21e-8 s,
per_sample = 6.8e-13 s, amortized = 4.3e-6 s — reproducing 37.1 / 32.3 /
15.8 Mscores/s at 7 000 / 500 / 60 000 samples within 2 %.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelCalibrationError
from repro.utils.validation import check_positive

__all__ = ["GPULDModel", "BINDER_GEMM_LD"]


@dataclass(frozen=True)
class GPULDModel:
    """Three-term per-score cost model for GEMM LD on a GPU."""

    name: str
    fixed: float
    per_sample: float
    amortized: float

    def __post_init__(self) -> None:
        check_positive("fixed", self.fixed)
        check_positive("per_sample", self.per_sample)
        check_positive("amortized", self.amortized)

    def seconds_per_score(self, n_samples: int) -> float:
        if n_samples < 1:
            raise ModelCalibrationError("n_samples must be >= 1")
        return (
            self.fixed
            + self.per_sample * n_samples
            + self.amortized / n_samples
        )

    def seconds(self, n_scores: int, n_samples: int) -> float:
        """Modelled time for ``n_scores`` r² values at ``n_samples``."""
        if n_scores < 0:
            raise ModelCalibrationError("n_scores must be >= 0")
        return n_scores * self.seconds_per_score(n_samples)

    def rate(self, n_samples: int) -> float:
        """Scores/second at a sample count (Table III LD columns)."""
        return 1.0 / self.seconds_per_score(n_samples)


#: Calibrated against Table III's GPU LD measurements (see module
#: docstring for the fit).
BINDER_GEMM_LD = GPULDModel(
    name="BLIS GEMM LD (Binder et al.)",
    fixed=2.21e-8,
    per_sample=6.8e-13,
    amortized=4.3e-6,
)
