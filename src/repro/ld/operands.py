"""Per-alignment LD operand planes and the r² block filler.

Each LD formulation consumes a derived *operand plane* of the alignment:

* the GEMM formulation, which every production fill uses, multiplies
  float columns (``Aᵀ A``), and
* the word-level popcount reference
  (:func:`~repro.ld.packed_kernels.r_squared_block_packed`) ANDs
  bit-packed 64-bit word rows.

The GEMM plane is float32 whenever the sample count allows it
(:func:`gemm_plane_dtype`): every partial sum of 0/1 products is then an
integer no larger than 2²⁴, which float32 holds exactly, so the product
is the exact count in any BLAS summation order — at half the bytes per
fill of a float64 plane.

Before this module each consumer derived its plane ad hoc — worst of all
``r_squared_block`` converting the *entire* (samples x sites) matrix to
float64 on every tile, and every worker process re-packing its own
:class:`~repro.datasets.packed.PackedAlignment`. :class:`LDOperands`
materializes each plane **once per alignment** (lazily, only the planes a
caller actually touches) and serves column slices from it; the
process-local :func:`operands_for` memo shares one instance across the
region cache, tile store and tiled engine of the same alignment while any
of them holds it.

:class:`LDBackendFiller` is the block-computation callable the caches and
the shared tile store plug in: it serves ``r_squared_block`` semantics
from the GEMM plane. The co-occurrence counts are integer-exact under
both formulations, so its fills are bitwise identical to the packed
reference, which the tests check.
"""

from __future__ import annotations

import mmap
import weakref
from typing import Optional

import numpy as np

import repro.obs as obs
from repro.datasets.alignment import SNPAlignment
from repro.datasets.packed import PackedAlignment

__all__ = [
    "LDOperands",
    "LDBackendFiller",
    "operands_for",
    "gemm_plane_dtype",
]

#: Refuse to cache a GEMM plane larger than this (2 GB). Above the cap
#: :meth:`LDOperands.gemm_columns` converts each requested column slice
#: on demand (slice first, then convert — still never the full matrix),
#: trading repeated conversion for bounded residency.
DEFAULT_MAX_GEMM_PLANE_BYTES = 2 * 1024 * 1024 * 1024

#: Largest sample count with a float32 GEMM plane: float32 represents
#: every integer up to 2²⁴ exactly, and no co-occurrence partial sum can
#: exceed the sample count.
FLOAT32_EXACT_SAMPLES = 2**24


def gemm_plane_dtype(n_samples: int) -> np.dtype:
    """The dtype of the GEMM operand for ``n_samples`` samples: float32
    when every partial sum of 0/1 products is exact in it
    (``n_samples <= 2**24``), float64 above that."""
    if n_samples <= FLOAT32_EXACT_SAMPLES:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def _mapped_empty(shape, dtype) -> np.ndarray:
    """Uninitialized array on its own anonymous memory mapping.

    A streamed scan builds one GEMM plane per chunk, each up to tens of
    MB. From malloc, a freed plane leaves a hole in the heap that the
    next chunk's genotype matrix may split, so whether the next plane
    reuses resident memory or faults in fresh pages came down to heap
    layout: ``highld_ms_stream`` peaked at 87.3 or 95.4 MiB after
    unrelated code changes. A mapping of its own goes back to the OS
    when the plane is freed, so the peak no longer depends on that.
    """
    dtype = np.dtype(dtype)
    buf = mmap.mmap(-1, max(1, int(np.prod(shape)) * dtype.itemsize))
    if hasattr(mmap, "MADV_HUGEPAGE"):  # as numpy advises large arrays
        try:
            buf.madvise(mmap.MADV_HUGEPAGE)
        except OSError:  # advice only; a kernel may not support it
            pass
    return np.ndarray(shape, dtype=dtype, buffer=buf)


class LDOperands:
    """Lazily materialized, cached LD operand planes of one alignment.

    Parameters
    ----------
    alignment:
        The source alignment.
    max_gemm_plane_bytes:
        Cap on the cached GEMM plane; see
        :data:`DEFAULT_MAX_GEMM_PLANE_BYTES`.
    """

    def __init__(
        self,
        alignment: SNPAlignment,
        *,
        max_gemm_plane_bytes: int = DEFAULT_MAX_GEMM_PLANE_BYTES,
    ):
        self._alignment = alignment
        self._packed: Optional[PackedAlignment] = None
        self._gemm: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None
        self._max_gemm_plane_bytes = int(max_gemm_plane_bytes)

    # -------------------------------------------------------------- #

    @property
    def alignment(self) -> SNPAlignment:
        return self._alignment

    @property
    def n_samples(self) -> int:
        return self._alignment.n_samples

    @property
    def n_sites(self) -> int:
        return self._alignment.n_sites

    @property
    def gemm_dtype(self) -> np.dtype:
        """dtype of the GEMM plane (:func:`gemm_plane_dtype`)."""
        return gemm_plane_dtype(self.n_samples)

    @property
    def n_words(self) -> int:
        """Packed words per site (without forcing the packed plane)."""
        return (self.n_samples + 63) // 64

    # -------------------------------------------------------------- #
    # plane accessors

    def gemm_plane(self) -> Optional[np.ndarray]:
        """The cached (samples x sites) GEMM operand of dtype
        :attr:`gemm_dtype`, or ``None`` when it would exceed the plane cap
        (callers fall back to per-slice conversion via
        :meth:`gemm_columns`)."""
        if self._gemm is None:
            dtype = self.gemm_dtype
            needed = dtype.itemsize * self.n_samples * self.n_sites
            if needed > self._max_gemm_plane_bytes:
                return None
            plane = _mapped_empty(self._alignment.matrix.shape, dtype)
            np.copyto(plane, self._alignment.matrix, casting="unsafe")
            self._gemm = plane
        return self._gemm

    def gemm_columns(self, lo: int, hi: int) -> np.ndarray:
        """GEMM operand for site columns ``[lo, hi)`` — a view of the
        cached plane, or a fresh slice-first conversion to the same dtype
        above the cap (never a full-matrix ``astype``)."""
        plane = self.gemm_plane()
        if plane is not None:
            return plane[:, lo:hi]
        return self._alignment.matrix[:, lo:hi].astype(self.gemm_dtype)

    def packed(self) -> PackedAlignment:
        """The bit-packed word plane of the popcount reference, packed
        once on first use."""
        if self._packed is None:
            self._packed = PackedAlignment.from_alignment(self._alignment)
        return self._packed

    def derived_counts(self) -> np.ndarray:
        """Per-site derived-allele counts, computed once."""
        if self._counts is None:
            self._counts = self._alignment.derived_counts()
        return self._counts

    def nbytes(self) -> int:
        """Bytes currently held by materialized planes (not the source
        matrix)."""
        total = 0
        if self._gemm is not None:
            total += int(self._gemm.nbytes)
        if self._packed is not None:
            total += self._packed.nbytes()
        if self._counts is not None:
            total += int(self._counts.nbytes)
        return total


# ------------------------------------------------------------------ #
# process-local memo

_CACHE: "weakref.WeakValueDictionary[int, LDOperands]" = (
    weakref.WeakValueDictionary()
)


def operands_for(alignment: SNPAlignment) -> LDOperands:
    """The process-local :class:`LDOperands` for ``alignment``.

    Keyed by object identity (cheap, and alignments are immutable). The
    memo holds its values weakly: an instance lives exactly as long as a
    filler, tile store or other caller keeps it, so a streaming scan's
    finished chunks drop their planes — and the chunk itself — with the
    filler that used them. A live entry pins its alignment, so the key
    cannot be reused by another object while the entry exists.
    """
    key = id(alignment)
    ops = _CACHE.get(key)
    if ops is None:
        ops = LDOperands(alignment)
        _CACHE[key] = ops
    return ops


# ------------------------------------------------------------------ #
# block filler


class LDBackendFiller:
    """``(rows, cols) -> r²`` block source over cached operand planes.

    Drop-in ``block_fn`` for :class:`~repro.core.reuse.R2RegionCache` and
    the compute side of :class:`~repro.core.tilestore.SharedR2TileStore`:
    serves :func:`~repro.ld.gemm.r_squared_block` from the alignment's
    GEMM plane. Every call increments the ``ld.fills`` counter.
    """

    def __init__(self, operands: LDOperands):
        self.operands = operands

    def __call__(
        self,
        rows: slice,
        cols: slice,
        *,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """r² for the block ``rows x cols``, written into ``out`` when
        given (float64, shaped like the block; a view of a caller's
        buffer) and returned."""
        from repro.ld.gemm import r_squared_block

        ops = self.operands
        obs.get_metrics().counter("ld.fills").inc()
        return r_squared_block(ops.alignment, rows, cols, operands=ops, out=out)
