"""Per-alignment LD operand planes and the backend-picking tile filler.

Every LD backend consumes a derived *operand plane* of the alignment:

* the GEMM formulation multiplies float columns (``Aᵀ A``), and
* the popcount formulation ANDs bit-packed 64-bit word rows.

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
backend actually touches) and serves column slices from it; the
process-local :func:`operands_for` memo shares one instance across the
region cache, tile store and tiled engine of the same alignment while any
of them holds it. The scan service's tile band publishes the packed plane
to POSIX shared memory (:class:`~repro.datasets.packed.SharedPackedWords`)
so its workers attach zero-copy instead of re-packing — pass that
attachment in via ``packed=``; a batch pool worker packs once per
alignment it attaches.

:class:`LDBackendFiller` is the block-computation callable the caches and
the shared tile store plug in: it serves ``r_squared_block`` semantics
from the operand planes, and with ``backend="auto"`` picks gemm-vs-packed
*per block* from the :class:`~repro.core.costmodel.ScanCostModel` LD
crossover constants (PLINK 2's observation that packed popcounts win as
sample counts grow, made quantitative and machine-calibrated). Because
the co-occurrence counts are integer-exact under both formulations, every
choice produces bitwise-identical r² — the pick is timing-only.
"""

from __future__ import annotations

import mmap
import weakref
from typing import Optional

import numpy as np

import repro.obs as obs
from repro.datasets.alignment import SNPAlignment
from repro.datasets.packed import PackedAlignment
from repro.errors import LDError

__all__ = [
    "LDOperands",
    "LDBackendFiller",
    "operands_for",
    "gemm_plane_dtype",
    "LD_BACKENDS",
]

#: The LD backend names understood by the filler (and by every consumer
#: that forwards a backend name here: config, tile store, CLI).
LD_BACKENDS = ("gemm", "packed", "auto")

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
    packed:
        Optional pre-built packed plane (e.g. a zero-copy attachment to a
        :class:`~repro.datasets.packed.SharedPackedWords` segment another
        process published). When omitted, the plane is packed locally on
        first use.
    max_gemm_plane_bytes:
        Cap on the cached GEMM plane; see
        :data:`DEFAULT_MAX_GEMM_PLANE_BYTES`.
    """

    def __init__(
        self,
        alignment: SNPAlignment,
        *,
        packed: Optional[PackedAlignment] = None,
        max_gemm_plane_bytes: int = DEFAULT_MAX_GEMM_PLANE_BYTES,
    ):
        self._alignment = alignment
        self._packed = packed
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
        """The bit-packed word plane, packed once on first use (or the
        shared-memory attachment this instance was constructed around)."""
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


def operands_for(
    alignment: SNPAlignment, *, packed: Optional[PackedAlignment] = None
) -> LDOperands:
    """The process-local :class:`LDOperands` for ``alignment``.

    Keyed by object identity (cheap, and alignments are immutable). The
    memo holds its values weakly: an instance lives exactly as long as a
    filler, tile store or other caller keeps it, so a streaming scan's
    finished chunks drop their planes — and the chunk itself — with the
    filler that used them. A live entry pins its alignment, so the key
    cannot be reused by another object while the entry exists. A
    ``packed`` plane passed on first call seeds the instance (the
    shared-memory attach path); later calls for the same alignment reuse
    it.
    """
    key = id(alignment)
    ops = _CACHE.get(key)
    if ops is None:
        ops = LDOperands(alignment, packed=packed)
        _CACHE[key] = ops
    return ops


# ------------------------------------------------------------------ #
# backend-picking block filler


class LDBackendFiller:
    """``(rows, cols) -> r²`` block source over cached operand planes.

    Drop-in ``block_fn`` for :class:`~repro.core.reuse.R2RegionCache` and
    the compute side of :class:`~repro.core.tilestore.SharedR2TileStore`:
    serves :func:`~repro.ld.gemm.r_squared_block` semantics, bitwise-equal
    across all three backend modes.

    ``backend="auto"`` asks the process-wide
    :class:`~repro.core.costmodel.ScanCostModel` which formulation is
    predicted cheaper for each block's (rows x cols x samples) shape; the
    fixed names always use that formulation. Every fill increments
    ``<metric_prefix>.backend_gemm_fills`` /
    ``<metric_prefix>.backend_packed_fills`` so the realized mix is
    observable per store (``tilestore.*``) and per region cache
    (``ld.*``).
    """

    def __init__(
        self,
        operands: LDOperands,
        backend: str = "gemm",
        *,
        metric_prefix: str = "ld",
    ):
        if backend not in LD_BACKENDS:
            raise LDError(
                f"unknown LD backend {backend!r}; use 'gemm', 'packed' "
                f"or 'auto'"
            )
        self.operands = operands
        self.backend = backend
        self._metric_prefix = metric_prefix
        if backend == "auto":
            # Calibrate the crossover constants once per process (a few
            # ms of microbenchmark) so the first pick is already informed.
            from repro.core.costmodel import ensure_ld_crossover_calibrated

            ensure_ld_crossover_calibrated(operands.n_samples)

    def pick(self, n_rows: int, n_cols: int) -> str:
        """The backend that will serve a (n_rows x n_cols) block."""
        if self.backend != "auto":
            return self.backend
        from repro.core.costmodel import get_cost_model

        return get_cost_model().ld_backend_for_tile(
            n_rows, n_cols, self.operands.n_samples
        )

    def __call__(
        self,
        rows: slice,
        cols: slice,
        *,
        backend: Optional[str] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """r² for the block ``rows x cols``, written into ``out`` when
        given (float64, shaped like the block; a view of a caller's
        buffer) and returned; ``backend`` (from a prior :meth:`pick`)
        skips re-deciding."""
        ops = self.operands
        n_sites = ops.n_sites
        r0, r1, rstep = rows.indices(n_sites)
        c0, c1, cstep = cols.indices(n_sites)
        if rstep != 1 or cstep != 1:
            raise LDError("LD blocks require contiguous (step-1) slices")
        if backend is None:
            backend = self.pick(r1 - r0, c1 - c0)
        obs.get_metrics().counter(
            f"{self._metric_prefix}.backend_{backend}_fills"
        ).inc()
        if backend == "packed":
            from repro.ld.packed_kernels import r_squared_block_packed

            values = r_squared_block_packed(
                ops.packed(), rows, cols, counts=ops.derived_counts()
            )
            if out is None:
                return values
            out[...] = values
            return out
        from repro.ld.gemm import r_squared_block

        return r_squared_block(ops.alignment, rows, cols, operands=ops, out=out)
