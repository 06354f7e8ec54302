"""Shared-memory r² tile store for multiprocess scans.

The r² between two given SNPs does not depend on which worker, block or
region asks for it. When the grid is cut into many scheduling blocks, the
block boundaries lose the region-overlap reuse of
:class:`~repro.core.reuse.R2RegionCache` — every block start used to
recompute its first region from scratch, once per worker. This module
recovers that loss with one band of r² *tiles* placed in POSIX shared
memory by the parent:

* the band covers every SNP pair closer than the widest block the scan
  can request (``max_pair_span``: the widest region plus the fill-ahead
  slack of :class:`~repro.core.reuse.R2RegionCache`), cut into
  ``tile x tile`` squares, with only the upper-triangle offsets stored
  (r² is symmetric);
* a tile is computed by whichever process first needs it and published
  under a per-tile ready flag; afterwards every process serves it with a
  plain copy. Because both LD backends are deterministic (co-occurrence
  counts are exact integers in the GEMM plane's dtype, so every
  summation order agrees bit-for-bit), two workers racing on the same
  tile write identical bytes — the flag is set only after the data, so
  a reader never sees a half-filled tile as ready;
* :meth:`SharedR2TileStore.block` assembles any rectangular block of the
  pair matrix from tiles, bit-identical to computing the block directly.

The store plugs into :class:`~repro.core.reuse.R2RegionCache` as its
``block_fn``, so the region cache's overlap reuse still runs in front of
it — tiles only serve the *fresh* entries each region needs.

Tiles are computed through :class:`~repro.ld.operands.LDBackendFiller`
over the per-alignment operand-plane cache: ``backend="auto"`` picks
gemm-vs-packed per tile from the calibrated
:class:`~repro.core.costmodel.ScanCostModel` crossover constants (the
pick is recorded as a ``backend`` trace tag on every ``tile_fill`` span
and as ``tilestore.backend_*_fills`` counters), and for the packed
formulations the creator publishes the bit-packed word plane as its own
shared segment so workers attach it zero-copy instead of re-packing.
"""

from __future__ import annotations

import os
import secrets
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.datasets.alignment import SHM_NAME_PREFIX, SNPAlignment
from repro.datasets.packed import SharedPackedSpec, SharedPackedWords
from repro.errors import ScanConfigError
from repro.ld.operands import LD_BACKENDS, LDBackendFiller, LDOperands, operands_for

__all__ = ["SharedR2TileStore", "TileStoreSpec"]

#: Default tile edge (SNPs). 64 keeps one tile at 32 KB of float64 —
#: small enough that the first-touch compute granularity stays fine,
#: large enough that assembly is a handful of block copies per region.
DEFAULT_TILE = 64

#: Refuse to allocate a store larger than this (the band grows as
#: n_sites x max_pair_span x 8 bytes; a misconfigured max_window should
#: fail loudly, mirroring R2RegionCache's region cap).
DEFAULT_MAX_STORE_BYTES = 1024 * 1024 * 1024


def _validate_backend(backend: str) -> None:
    """Reject unknown LD backend names with the scan-config error the
    CLI/config layer reports."""
    if backend not in LD_BACKENDS:
        raise ScanConfigError(
            f"unknown LD backend {backend!r}; use 'gemm', 'packed' or 'auto'"
        )


@dataclass(frozen=True)
class TileStoreSpec:
    """Picklable handle for attaching to a shared tile store."""

    data_name: str
    flags_name: str
    tile: int
    n_sites: int
    band_tiles: int
    backend: str
    #: Set when the creator published the bit-packed word plane to shared
    #: memory (backend "packed"/"auto"); attaching workers map it
    #: zero-copy instead of re-packing the alignment per process.
    packed_spec: Optional[SharedPackedSpec] = None

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
    instance's :meth:`block` has the same signature and bit-exact values
    as :func:`repro.ld.gemm.r_squared_block`, so it drops into
    :class:`~repro.core.reuse.R2RegionCache` as ``block_fn``.

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
        packed_plane: Optional[SharedPackedWords] = None,
    ):
        self.spec = spec
        self._segments = list(segments)
        self._owner = owner
        self._packed_plane = packed_plane
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
            LDBackendFiller(operands, spec.backend, metric_prefix="tilestore")
            if operands is not None
            else None
        )
        self.tile_entries_computed = 0
        self.tile_entries_reused = 0
        self._lru: Optional[OrderedDict] = None
        self._lru_capacity_bytes = 0
        self._lru_bytes = 0

    # -------------------------------------------------------------- #
    # worker-local assembled-block LRU

    def enable_block_lru(self, capacity_bytes: int) -> None:
        """Cache multi-tile :meth:`block` assemblies in *this process*.

        Assembling a block that spans several tiles memcpys every tile
        into a fresh array on every call; a long-lived scan service that
        replays the same hot regions across requests pays that assembly
        again and again. The LRU keeps the most recently served
        assembled blocks (keyed by their exact slice rectangle) up to
        ``capacity_bytes`` of private memory per attachment. Single-tile
        views are never cached — they are already zero-copy. Cached
        blocks are read-only; ``copy=True`` peels off a private copy.
        ``capacity_bytes <= 0`` disables the cache.
        """
        if capacity_bytes <= 0:
            self._lru = None
            self._lru_capacity_bytes = 0
            self._lru_bytes = 0
            return
        self._lru = OrderedDict()
        self._lru_capacity_bytes = int(capacity_bytes)
        self._lru_bytes = 0

    def _lru_get(self, key: Tuple[int, int, int, int]):
        assert self._lru is not None
        cached = self._lru.get(key)
        if cached is not None:
            self._lru.move_to_end(key)
        return cached

    def _lru_put(self, key: Tuple[int, int, int, int], block) -> None:
        assert self._lru is not None
        nbytes = int(block.nbytes)
        if nbytes > self._lru_capacity_bytes:
            return
        self._lru[key] = block
        self._lru_bytes += nbytes
        registry = obs.get_metrics()
        while self._lru_bytes > self._lru_capacity_bytes:
            _, evicted = self._lru.popitem(last=False)
            self._lru_bytes -= int(evicted.nbytes)
            registry.counter("tilestore.lru_evictions").inc()
        registry.gauge("tilestore.lru_bytes").set(self._lru_bytes)

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
        backend: str = "gemm",
        max_store_bytes: int = DEFAULT_MAX_STORE_BYTES,
    ) -> "SharedR2TileStore":
        """Allocate the (zero-filled) band in the creating process.

        For backend ``"packed"``/``"auto"`` the alignment is packed once
        here and the word plane is published as its own shared segment
        (:class:`~repro.datasets.packed.SharedPackedWords`), so attaching
        workers map it zero-copy instead of re-packing per process. For
        ``"auto"`` the LD crossover constants are also calibrated now,
        pre-fork, so forked workers inherit them.
        """
        if tile < 1:
            raise ScanConfigError(f"tile must be >= 1, got {tile}")
        _validate_backend(backend)
        operands = operands_for(alignment)
        packed_plane: Optional[SharedPackedWords] = None
        packed_spec: Optional[SharedPackedSpec] = None
        if backend in ("packed", "auto"):
            if backend == "auto":
                from repro.core.costmodel import ensure_ld_crossover_calibrated

                ensure_ld_crossover_calibrated(alignment.n_samples)
            packed_plane = SharedPackedWords.create(operands.packed())
            packed_spec = packed_plane.spec
        token = f"{SHM_NAME_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        spec = TileStoreSpec(
            data_name=f"{token}-r2tiles",
            flags_name=f"{token}-r2flags",
            tile=tile,
            n_sites=alignment.n_sites,
            band_tiles=cls.band_tiles_for(max_pair_span, tile),
            backend=backend,
            packed_spec=packed_spec,
        )
        data_bytes = spec.n_slots * tile * tile * 8
        if data_bytes > max_store_bytes:
            if packed_plane is not None:
                packed_plane.close()
                packed_plane.unlink()
            raise ScanConfigError(
                f"shared r2 tile store needs {data_bytes / 1e6:.0f} MB "
                f"(cap {max_store_bytes / 1e6:.0f} MB); reduce max_window, "
                f"raise max_store_bytes, or disable shared tiles"
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
            if packed_plane is not None:
                packed_plane.close()
                packed_plane.unlink()
            raise
        return cls(
            spec, segments, operands, owner=True, packed_plane=packed_plane
        )

    @classmethod
    def attach(
        cls, spec: TileStoreSpec, alignment: SNPAlignment
    ) -> "SharedR2TileStore":
        """Attach to an existing store; ``alignment`` must be the same
        data the store was created for (workers pass the shared-backed
        alignment, so this holds by construction).

        When the creator published a packed word plane, the attachment
        maps it read-only and builds its operand cache around the shared
        words — no per-worker re-pack, no duplicated plane in RSS.
        """
        if alignment.n_sites != spec.n_sites:
            raise ScanConfigError(
                f"alignment has {alignment.n_sites} sites but the tile "
                f"store was built for {spec.n_sites}"
            )
        segments = []
        packed_plane: Optional[SharedPackedWords] = None
        try:
            data_shm = shared_memory.SharedMemory(name=spec.data_name)
            segments.append(data_shm)
            flags_shm = shared_memory.SharedMemory(name=spec.flags_name)
            segments.append(flags_shm)
            packed = None
            if spec.packed_spec is not None:
                packed_plane = SharedPackedWords.attach(spec.packed_spec)
                packed = packed_plane.packed_for(
                    alignment.positions, alignment.length
                )
            operands = operands_for(alignment, packed=packed)
        except BaseException:
            for shm in segments:
                shm.close()
            if packed_plane is not None:
                packed_plane.close()
            raise
        return cls(
            spec, segments, operands, owner=False, packed_plane=packed_plane
        )

    # -------------------------------------------------------------- #

    def _tile_values(self, ti: int, tj: int) -> np.ndarray:
        """The (possibly edge-trimmed) stored tile ``(ti, tj)`` with
        ``tj >= ti``, computing and publishing it on first touch."""
        spec = self.spec
        t = spec.tile
        n = spec.n_sites
        r0, r1 = ti * t, min(ti * t + t, n)
        c0, c1 = tj * t, min(tj * t + t, n)
        h, w = r1 - r0, c1 - c0
        slot = ti * (spec.band_tiles + 1) + (tj - ti)
        view = self._data[slot, :h, :w]
        registry = obs.get_metrics()
        if self._flags[slot]:
            self.tile_entries_reused += h * w
            registry.counter("tilestore.hits").inc()
            registry.counter("tilestore.entries_reused").inc(h * w)
            return view
        assert self._filler is not None
        # Resolve the backend before opening the span so the trace tag
        # records which formulation actually filled this tile.
        backend = self._filler.pick(h, w)
        with obs.get_tracer().span(
            "tile_fill", "tilestore", args={"ti": ti, "tj": tj, "backend": backend}
        ):
            values = self._filler(
                slice(r0, r1), slice(c0, c1), backend=backend
            )
            view[:] = values
            # Publish only after the data is in place; a concurrent filler
            # writes the identical bytes (deterministic backends), so the
            # race is benign.
            self._flags[slot] = 1
        self.tile_entries_computed += h * w
        registry.counter("tilestore.fills").inc()
        registry.counter("tilestore.entries_computed").inc(h * w)
        return view

    def block(
        self, rows: slice, cols: slice, *, copy: bool = False
    ) -> np.ndarray:
        """r² for the rectangular block ``rows x cols`` of the pair
        matrix, served from shared tiles (bit-identical to
        :func:`~repro.ld.gemm.r_squared_block` on the same alignment).

        By default the result is **read-only**: a block that falls inside
        one stored upper-triangle tile is a zero-copy view straight into
        the shared segment (no assembly memcpy at all); anything larger is
        assembled once and returned non-writeable. Consumers that need to
        mutate the block — or to hold it across :meth:`close` — pass
        ``copy=True`` for a private writable array. The region cache
        copies blocks into its own buffer immediately, so the default
        serves it zero-copy.

        Pairs outside the stored band (further apart than the store's
        ``max_pair_span``) fall back to direct computation — correct, just
        unshared; the parallel scanner sizes the band so scans never hit
        this path.
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
        ti0, ti1 = r0 // t, (r1 - 1) // t
        tj0, tj1 = c0 // t, (c1 - 1) // t
        if (
            r1 > r0
            and c1 > c0
            and ti0 == ti1
            and tj0 == tj1
            and abs(tj0 - ti0) <= spec.band_tiles
        ):
            # Whole block inside one stored tile: serve a view of the
            # shared segment directly (read-only so a consumer can't
            # corrupt the published tile; copy=True peels it off).
            if tj0 >= ti0:
                tile_vals = self._tile_values(ti0, tj0)
                sub = tile_vals[
                    r0 - ti0 * t : r1 - ti0 * t, c0 - tj0 * t : c1 - tj0 * t
                ]
            else:
                tile_vals = self._tile_values(tj0, ti0)
                sub = tile_vals[
                    c0 - tj0 * t : c1 - tj0 * t, r0 - ti0 * t : r1 - ti0 * t
                ].T
            obs.get_metrics().counter("tilestore.view_serves").inc()
            if copy:
                return sub.copy()
            view = sub.view()
            view.flags.writeable = False
            return view
        if self._lru is not None:
            key = (r0, r1, c0, c1)
            cached = self._lru_get(key)
            if cached is not None:
                obs.get_metrics().counter("tilestore.lru_hits").inc()
                return cached.copy() if copy else cached
        out = np.empty((r1 - r0, c1 - c0))
        for ti in range(ti0, ti1 + 1):
            i0 = max(r0, ti * t)
            i1 = min(r1, ti * t + t)
            for tj in range(tj0, tj1 + 1):
                j0 = max(c0, tj * t)
                j1 = min(c1, tj * t + t)
                if abs(tj - ti) > spec.band_tiles:
                    assert self._filler is not None
                    out[i0 - r0 : i1 - r0, j0 - c0 : j1 - c0] = self._filler(
                        slice(i0, i1), slice(j0, j1)
                    )
                    continue
                if tj >= ti:
                    tile_vals = self._tile_values(ti, tj)
                    sub = tile_vals[
                        i0 - ti * t : i1 - ti * t, j0 - tj * t : j1 - tj * t
                    ]
                else:
                    tile_vals = self._tile_values(tj, ti)
                    sub = tile_vals[
                        j0 - tj * t : j1 - tj * t, i0 - ti * t : i1 - ti * t
                    ].T
                out[i0 - r0 : i1 - r0, j0 - c0 : j1 - c0] = sub
        if self._lru is not None:
            obs.get_metrics().counter("tilestore.lru_misses").inc()
            out.flags.writeable = False
            self._lru_put(key, out)
            return out.copy() if copy else out
        if not copy:
            out.flags.writeable = False
        return out

    # -------------------------------------------------------------- #

    def close(self) -> None:
        """Release this process's mappings."""
        self._data = None
        self._flags = None
        self._filler = None
        if self._lru is not None:
            self._lru.clear()
            self._lru_bytes = 0
        for shm in self._segments:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - exported views alive
                pass
        self._segments = []
        if self._packed_plane is not None:
            self._packed_plane.close()

    def unlink(self) -> None:
        """Remove the segments from the system (owner side; idempotent)."""
        for name in (self.spec.data_name, self.spec.flags_name):
            try:
                shm = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            shm.close()
            shm.unlink()
        if self.spec.packed_spec is not None:
            plane = self._packed_plane or SharedPackedWords(
                self.spec.packed_spec, None, None, owner=self._owner
            )
            plane.unlink()

    def __enter__(self) -> "SharedR2TileStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        if self._owner:
            self.unlink()
