"""Shared-memory r² tile store: the scan service's cross-request cache.

The r² between two given SNPs does not depend on which worker, block or
request asks for it. The scan service's requests revisit sites —
overlapping regions, repeated grids — so it keeps one band of r² *tiles*
in POSIX shared memory, placed there by the parent, and a tile one
request filled serves every later request. Batch scans do without it:
their blocks fill each region once, through their own
:class:`~repro.core.reuse.R2RegionCache`, and a band sized by the
alignment's length would only add shared memory to every worker.

* the band covers every SNP pair closer than the widest region a request
  can ask for (``max_pair_span``: the widest region plus the fill-ahead
  slack of :class:`~repro.core.reuse.R2RegionCache`), cut into
  ``tile x tile`` squares, with only the upper-triangle offsets stored
  (r² is symmetric);
* a tile is computed by whichever process first needs it and published
  under a per-tile ready flag; afterwards every process serves it with a
  plain copy. Because the fill is deterministic (co-occurrence counts
  are exact integers in the GEMM plane's dtype, so every summation
  order agrees bit-for-bit), two workers racing on the same tile write
  identical bytes — the flag is set only after the data, so
  a reader never sees a half-filled tile as ready;
* :meth:`SharedR2TileStore.block` copies the tiles of any rectangular
  block of the pair matrix straight into the caller's buffer (the region
  cache's), bit-identical to computing the block directly, so a served
  value is copied once on its way out of shared memory.

The store plugs into :class:`~repro.core.reuse.R2RegionCache` as its
``block_fn``, so the region cache's overlap reuse still runs in front of
it — tiles only serve the *fresh* entries each region needs.

Tiles are computed through :class:`~repro.ld.operands.LDBackendFiller`
over the per-alignment operand-plane cache.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.datasets.alignment import SHM_NAME_PREFIX, SNPAlignment
from repro.errors import ScanConfigError
from repro.ld.operands import LDBackendFiller, LDOperands, operands_for

__all__ = ["SharedR2TileStore", "TileStoreSpec"]

#: Default tile edge (SNPs). 64 keeps one tile at 32 KB of float64 —
#: small enough that the first-touch compute granularity stays fine,
#: large enough that assembly is a handful of block copies per region.
DEFAULT_TILE = 64

#: Refuse to allocate a store larger than this (the band grows as
#: n_sites x max_pair_span x 8 bytes; a misconfigured max_window should
#: fail loudly, mirroring R2RegionCache's region cap).
DEFAULT_MAX_STORE_BYTES = 1024 * 1024 * 1024


@dataclass(frozen=True)
class TileStoreSpec:
    """Picklable handle for attaching to a shared tile store."""

    data_name: str
    flags_name: str
    tile: int
    n_sites: int
    band_tiles: int

    @property
    def n_tile_rows(self) -> int:
        return -(-self.n_sites // self.tile)

    @property
    def n_slots(self) -> int:
        return self.n_tile_rows * (self.band_tiles + 1)


class SharedR2TileStore:
    """Cooperatively filled, read-mostly r² tile band in shared memory.

    Create once in the parent (:meth:`create`), ship the
    :class:`TileStoreSpec`, attach in each worker (:meth:`attach`). The
    instance's :meth:`block` takes ``(rows, cols, out)`` like
    :func:`repro.ld.gemm.r_squared_block` and serves its bit-exact
    values, so it drops into :class:`~repro.core.reuse.R2RegionCache` as
    ``block_fn``.

    ``tile_entries_computed`` / ``tile_entries_reused`` count the r² cells
    this attachment computed into the store vs served from tiles another
    fill (possibly in another process) already published.
    """

    def __init__(
        self,
        spec: TileStoreSpec,
        segments,
        operands: Optional[LDOperands],
        *,
        owner: bool,
    ):
        self.spec = spec
        self._segments = list(segments)
        self._owner = owner
        data_shm, flags_shm = segments
        self._data = np.ndarray(
            (spec.n_slots, spec.tile, spec.tile),
            dtype=np.float64,
            buffer=data_shm.buf,
        )
        self._flags = np.ndarray(
            (spec.n_slots,), dtype=np.uint8, buffer=flags_shm.buf
        )
        self._filler = (
            LDBackendFiller(operands) if operands is not None else None
        )
        self.tile_entries_computed = 0
        self.tile_entries_reused = 0

    # -------------------------------------------------------------- #

    @staticmethod
    def band_tiles_for(max_pair_span: int, tile: int) -> int:
        """Tile-index offset needed to cover SNP pairs up to
        ``max_pair_span - 1`` apart (i.e. any block inside a region of
        width ``max_pair_span``), for any alignment of the band to the
        tile grid."""
        if max_pair_span < 1:
            raise ScanConfigError(
                f"max_pair_span must be >= 1, got {max_pair_span}"
            )
        return (max_pair_span + tile - 2) // tile

    @classmethod
    def create(
        cls,
        alignment: SNPAlignment,
        *,
        max_pair_span: int,
        tile: int = DEFAULT_TILE,
        max_store_bytes: int = DEFAULT_MAX_STORE_BYTES,
    ) -> "SharedR2TileStore":
        """Allocate the (zero-filled) band in the creating process."""
        if tile < 1:
            raise ScanConfigError(f"tile must be >= 1, got {tile}")
        token = f"{SHM_NAME_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        spec = TileStoreSpec(
            data_name=f"{token}-r2tiles",
            flags_name=f"{token}-r2flags",
            tile=tile,
            n_sites=alignment.n_sites,
            band_tiles=cls.band_tiles_for(max_pair_span, tile),
        )
        data_bytes = spec.n_slots * tile * tile * 8
        if data_bytes > max_store_bytes:
            raise ScanConfigError(
                f"shared r2 tile store needs {data_bytes / 1e6:.0f} MB "
                f"(cap {max_store_bytes / 1e6:.0f} MB); reduce --maxwin"
            )
        segments = []
        try:
            data_shm = shared_memory.SharedMemory(
                name=spec.data_name, create=True, size=max(1, data_bytes)
            )
            segments.append(data_shm)
            flags_shm = shared_memory.SharedMemory(
                name=spec.flags_name, create=True, size=max(1, spec.n_slots)
            )
            segments.append(flags_shm)
            # POSIX shared memory is zero-filled on creation: all ready
            # flags start at 0, no explicit initialization pass needed.
        except BaseException:
            for shm in segments:
                shm.close()
                shm.unlink()
            raise
        return cls(spec, segments, operands_for(alignment), owner=True)

    @classmethod
    def attach(
        cls, spec: TileStoreSpec, alignment: SNPAlignment
    ) -> "SharedR2TileStore":
        """Attach to an existing store; ``alignment`` must be the same
        data the store was created for (workers pass the shared-backed
        alignment, so this holds by construction).
        """
        if alignment.n_sites != spec.n_sites:
            raise ScanConfigError(
                f"alignment has {alignment.n_sites} sites but the tile "
                f"store was built for {spec.n_sites}"
            )
        segments = []
        try:
            data_shm = shared_memory.SharedMemory(name=spec.data_name)
            segments.append(data_shm)
            flags_shm = shared_memory.SharedMemory(name=spec.flags_name)
            segments.append(flags_shm)
        except BaseException:
            for shm in segments:
                shm.close()
            raise
        return cls(spec, segments, operands_for(alignment), owner=False)

    # -------------------------------------------------------------- #

    def _tile_values(self, ti: int, tj: int) -> Tuple[np.ndarray, bool]:
        """The (possibly edge-trimmed) stored tile ``(ti, tj)`` with
        ``tj >= ti``, computing and publishing it on first touch, and
        whether it was already published."""
        spec = self.spec
        t = spec.tile
        n = spec.n_sites
        r0, r1 = ti * t, min(ti * t + t, n)
        c0, c1 = tj * t, min(tj * t + t, n)
        h, w = r1 - r0, c1 - c0
        slot = ti * (spec.band_tiles + 1) + (tj - ti)
        view = self._data[slot, :h, :w]
        if self._flags[slot]:
            return view, True
        assert self._filler is not None
        with obs.get_tracer().span(
            "tile_fill", "tilestore", args={"ti": ti, "tj": tj}
        ):
            # Compute in private memory and publish by copy: a racing
            # filler writing into the slot would expose intermediate
            # values behind a set flag. The copy lands before the flag,
            # and a concurrent filler copies the identical bytes
            # (deterministic fills), so the race is benign.
            view[:] = self._filler(slice(r0, r1), slice(c0, c1))
            self._flags[slot] = 1
        self.tile_entries_computed += h * w
        registry = obs.get_metrics()
        registry.counter("tilestore.fills").inc()
        registry.counter("tilestore.entries_computed").inc(h * w)
        return view, False

    def block(
        self, rows: slice, cols: slice, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """r² for the rectangular block ``rows x cols`` of the pair
        matrix, served from shared tiles (bit-identical to
        :func:`~repro.ld.gemm.r_squared_block` on the same alignment).

        Each tile, or its transpose for a lower-triangle piece, is copied
        straight into ``out`` (float64, shaped like the block; the region
        cache passes a view of its buffer), which is returned; a new
        array is allocated only when ``out`` is omitted.

        Pairs outside the stored band (further apart than the store's
        ``max_pair_span``) are computed directly into ``out`` — correct,
        just unshared; the scan service sizes the band so requests never
        hit this path.
        """
        spec = self.spec
        n = spec.n_sites
        t = spec.tile
        r0, r1, rstep = rows.indices(n)
        c0, c1, cstep = cols.indices(n)
        if rstep != 1 or cstep != 1:
            raise ScanConfigError(
                "tile store blocks require contiguous (step-1) slices"
            )
        if out is None:
            out = np.empty((r1 - r0, c1 - c0))
        hits = reused = 0
        for ti in range(r0 // t, (r1 - 1) // t + 1):
            i0 = max(r0, ti * t)
            i1 = min(r1, ti * t + t)
            for tj in range(c0 // t, (c1 - 1) // t + 1):
                j0 = max(c0, tj * t)
                j1 = min(c1, tj * t + t)
                dst = out[i0 - r0 : i1 - r0, j0 - c0 : j1 - c0]
                if abs(tj - ti) > spec.band_tiles:
                    assert self._filler is not None
                    self._filler(slice(i0, i1), slice(j0, j1), out=dst)
                    continue
                if tj >= ti:
                    tile_vals, hit = self._tile_values(ti, tj)
                    dst[:] = tile_vals[
                        i0 - ti * t : i1 - ti * t, j0 - tj * t : j1 - tj * t
                    ]
                else:
                    tile_vals, hit = self._tile_values(tj, ti)
                    dst[:] = tile_vals[
                        j0 - tj * t : j1 - tj * t, i0 - ti * t : i1 - ti * t
                    ].T
                if hit:
                    hits += 1
                    reused += tile_vals.size
        if hits:
            self.tile_entries_reused += reused
            registry = obs.get_metrics()
            registry.counter("tilestore.hits").inc(hits)
            registry.counter("tilestore.entries_reused").inc(reused)
        return out

    # -------------------------------------------------------------- #

    def close(self) -> None:
        """Release this process's mappings."""
        self._data = None
        self._flags = None
        self._filler = None
        for shm in self._segments:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - exported views alive
                pass
        self._segments = []

    def unlink(self) -> None:
        """Remove the segments from the system (owner side; idempotent)."""
        for name in (self.spec.data_name, self.spec.flags_name):
            try:
                shm = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            shm.close()
            shm.unlink()

    def __enter__(self) -> "SharedR2TileStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        if self._owner:
            self.unlink()
