"""Tests for the shared-memory r² tile store."""

import glob

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.scan import _ChunkBlocks
from repro.core.tilestore import SharedR2TileStore
from repro.datasets.alignment import SHM_NAME_PREFIX
from repro.datasets.generators import haplotype_block_alignment, random_alignment
from repro.datasets.packed import PackedAlignment
from repro.errors import ScanConfigError
from repro.ld.gemm import r_squared_block
from repro.ld.operands import LDBackendFiller, operands_for
from repro.ld.packed_kernels import r_squared_block_packed


@pytest.fixture
def aln():
    return haplotype_block_alignment(25, 90, seed=31)


class TestBandSizing:
    def test_band_covers_widest_region(self):
        # A region of width W contains pairs up to W-1 apart; the band
        # must reach them for any alignment against the tile grid.
        for span, tile in [(2, 8), (8, 8), (9, 8), (65, 64), (64, 64)]:
            band = SharedR2TileStore.band_tiles_for(span, tile)
            # Worst case: pair (i, i + span - 1) with i at a tile's last
            # row: tile distance is ceil((span - 1 + tile - 1) / tile) - 1.
            worst = (span - 1 + tile - 1) // tile
            assert band >= worst - 0  # band formula equals the worst case
            assert band == (span + tile - 2) // tile

    def test_rejects_bad_span(self):
        with pytest.raises(ScanConfigError):
            SharedR2TileStore.band_tiles_for(0, 8)


class TestBitIdentity:
    @pytest.mark.parametrize("reference", ["gemm", "packed"])
    def test_blocks_match_direct_compute(self, aln, reference):
        """Served blocks equal a direct GEMM fill and the packed popcount
        reference, byte for byte."""
        words = PackedAlignment.from_alignment(aln)

        def direct(rows, cols):
            if reference == "gemm":
                return r_squared_block(aln, rows, cols)
            return r_squared_block_packed(words, rows, cols)

        with SharedR2TileStore.create(
            aln, max_pair_span=40, tile=16
        ) as store:
            for rows, cols in [
                (slice(0, 40), slice(0, 40)),
                (slice(5, 30), slice(5, 30)),
                (slice(10, 20), slice(20, 45)),  # off-diagonal
                (slice(33, 35), slice(3, 35)),  # needs transposed tiles
                (slice(88, 90), slice(70, 90)),  # ragged edge tiles
            ]:
                got = store.block(rows, cols)
                assert got.tobytes() == direct(rows, cols).tobytes()

    def test_out_of_band_falls_back(self, aln):
        """Pairs wider than the band are computed directly — still
        correct, just not shared."""
        with SharedR2TileStore.create(
            aln, max_pair_span=10, tile=4
        ) as store:
            rows, cols = slice(0, 5), slice(60, 70)
            got = store.block(rows, cols)
            np.testing.assert_array_equal(
                got, r_squared_block(aln, rows, cols)
            )

    def test_rejects_strided_slices(self, aln):
        with SharedR2TileStore.create(aln, max_pair_span=20) as store:
            with pytest.raises(ScanConfigError):
                store.block(slice(0, 10, 2), slice(0, 10))


class TestCooperativeFill:
    def test_counters_split_computed_vs_reused(self, aln):
        with SharedR2TileStore.create(
            aln, max_pair_span=30, tile=8
        ) as store:
            store.block(slice(0, 16), slice(0, 16))
            computed_first = store.tile_entries_computed
            reused_first = store.tile_entries_reused
            assert computed_first > 0
            # The sub-diagonal tile is already served as the transpose of
            # its upper-triangle twin, so some reuse happens immediately.
            store.block(slice(0, 16), slice(0, 16))
            assert store.tile_entries_computed == computed_first
            assert store.tile_entries_reused > reused_first

    def test_second_attachment_reuses_published_tiles(self, aln):
        """A tile computed through one attachment is served (not
        recomputed) through another — the cross-worker sharing path."""
        with SharedR2TileStore.create(
            aln, max_pair_span=30, tile=8
        ) as store:
            store.block(slice(0, 16), slice(0, 16))
            other = SharedR2TileStore.attach(store.spec, aln)
            try:
                got = other.block(slice(0, 16), slice(0, 16))
                np.testing.assert_array_equal(
                    got, r_squared_block(aln, slice(0, 16), slice(0, 16))
                )
                assert other.tile_entries_computed == 0
                assert other.tile_entries_reused > 0
            finally:
                other.close()

    def test_attach_validates_site_count(self, aln):
        other = random_alignment(25, 40, seed=32)
        with SharedR2TileStore.create(aln, max_pair_span=20) as store:
            with pytest.raises(ScanConfigError):
                SharedR2TileStore.attach(store.spec, other)

    def test_fill_counters(self, aln):
        """Each tile fill counts once in ``tilestore.fills``; ``ld.fills``
        counts every block the store computed, tiles included."""
        with obs.scoped_metrics() as registry:
            with SharedR2TileStore.create(
                aln, max_pair_span=30, tile=8
            ) as store:
                store.block(slice(0, 16), slice(0, 16))
                fills = store.tile_entries_computed // 8**2
            snap = registry.snapshot()
        assert snap["counters"]["tilestore.fills"] == fills == 3
        assert snap["counters"]["ld.fills"] == fills


#: Geometry of the shared store the block-source property reads: 8-site
#: tiles, a band of pairs up to 24 sites apart (3 tile offsets), and the
#: resident chunk [20, 80) of the streamed source.
TILE, SPAN, CHUNK = 8, 24, (20, 80)

#: Every r² block source a region cache can be handed: the tile store's
#: block kinds, the operand-plane filler, and the streamed scan's chunk
#: source.
BLOCK_SOURCES = (
    "single_tile", "multi_tile", "transposed", "out_of_band",
    "gemm", "stream",
)


@pytest.fixture(scope="module")
def block_sources():
    aln = haplotype_block_alignment(25, 90, seed=31)
    store = SharedR2TileStore.create(aln, max_pair_span=SPAN, tile=TILE)
    chunk = _ChunkBlocks()
    chunk.lo = CHUNK[0]
    chunk.filler = LDBackendFiller(operands_for(aln.site_slice(*CHUNK)))
    sources = dict.fromkeys(BLOCK_SOURCES[:4], store.block)
    sources["gemm"] = LDBackendFiller(operands_for(aln))
    sources["stream"] = chunk
    try:
        yield aln, sources
    finally:
        store.close()
        store.unlink()


def _span(draw, lo, hi):
    """A non-empty ``[start, stop)`` inside ``[lo, hi)``."""
    start = draw(st.integers(lo, hi - 1))
    return start, draw(st.integers(start + 1, hi))


@st.composite
def _block_requests(draw, n_sites=90):
    """``(source, (r0, r1), (c0, c1))`` shaped for the source's kind."""
    source = draw(st.sampled_from(BLOCK_SOURCES))
    last = (n_sites - 1) // TILE
    band = SharedR2TileStore.band_tiles_for(SPAN, TILE)
    if source == "single_tile":
        k = draw(st.integers(0, last))
        tile = (k * TILE, min(k * TILE + TILE, n_sites))
        return source, _span(draw, *tile), _span(draw, *tile)
    if source == "transposed":  # inside one lower-triangle tile
        kc = draw(st.integers(0, last - 1))
        kr = draw(st.integers(kc + 1, min(kc + band, last)))
        rows = _span(draw, kr * TILE, min(kr * TILE + TILE, n_sites))
        return source, rows, _span(draw, kc * TILE, kc * TILE + TILE)
    if source == "multi_tile":  # rows cross a tile edge, columns nearby
        r0 = draw(st.integers(0, n_sites - TILE - 1))
        r1 = draw(st.integers(r0 + TILE + 1, min(n_sites, r0 + 2 * TILE)))
        c0 = draw(st.integers(max(0, r0 - TILE), r0 + TILE))
        return source, (r0, r1), _span(draw, c0, min(n_sites, c0 + SPAN))
    if source == "out_of_band":  # pairs far past the band
        return source, _span(draw, 0, 2 * TILE), _span(draw, 60, n_sites)
    lo, hi = CHUNK if source == "stream" else (0, n_sites)
    return source, _span(draw, lo, hi), _span(draw, lo, hi)


class TestBlockSourcesFillOut:
    """Every block source writes r² into the caller's ``out`` view and
    nowhere else, byte-identical to :func:`r_squared_block`."""

    @given(
        request=_block_requests(),
        pad=st.tuples(*[st.integers(0, 3)] * 4),
        col_step=st.sampled_from([1, 2]),
    )
    @settings(max_examples=120, deadline=None)
    def test_writes_exactly_the_view(self, block_sources, request, pad,
                                     col_step):
        aln, sources = block_sources
        source, (r0, r1), (c0, c1) = request
        top, bottom, left, right = pad
        h, w = r1 - r0, c1 - c0
        big = np.full((top + h + bottom, left + col_step * w + right), np.nan)
        inside = (slice(top, top + h), slice(left, left + col_step * w, col_step))
        view = big[inside]
        got = sources[source](slice(r0, r1), slice(c0, c1), out=view)
        assert got is view
        want = r_squared_block(aln, slice(r0, r1), slice(c0, c1))
        assert view.tobytes() == want.tobytes()
        outside = np.ones(big.shape, dtype=bool)
        outside[inside] = False
        assert np.isnan(big[outside]).all()

    def test_tile_fills_compute_in_private_memory(self, aln, monkeypatch):
        """A tile fill never computes inside the shared segment: it fills
        private memory and publishes by copy, so no flag can go up over
        half-written values. Out-of-band pieces do compute into ``out``."""
        handed = []
        call = LDBackendFiller.__call__

        def spy(self, rows, cols, **kwargs):
            handed.append(kwargs.get("out"))
            return call(self, rows, cols, **kwargs)

        monkeypatch.setattr(LDBackendFiller, "__call__", spy)
        with SharedR2TileStore.create(
            aln, max_pair_span=SPAN, tile=TILE
        ) as store:
            store.block(slice(0, 40), slice(0, 40))
            store.block(slice(0, 10), slice(60, 90))
            fills = [out for out in handed if out is None]
            into_out = [out for out in handed if out is not None]
            assert len(fills) == store.tile_entries_computed // TILE**2
            assert into_out  # the out-of-band pieces
            assert not any(
                np.shares_memory(out, store._data) for out in into_out
            )

    def test_hits_counted_per_tile_piece(self, aln):
        """One call adds every tile piece it served from published tiles
        (a lower-triangle piece counts on its own)."""
        with SharedR2TileStore.create(
            aln, max_pair_span=40, tile=16
        ) as store:
            store.block(slice(5, 30), slice(5, 40))
            reused = store.tile_entries_reused
            with obs.scoped_metrics() as registry:
                got = store.block(slice(5, 30), slice(5, 40))
                snap = registry.snapshot()
            counters = snap["counters"]
            assert counters["tilestore.hits"] == 6  # 2 x 3 tiles
            assert counters["tilestore.entries_reused"] == 6 * 16 * 16
            assert store.tile_entries_reused - reused == 6 * 16 * 16
            assert "tilestore.fills" not in counters
            assert got.flags.writeable  # a private array, not a view
            np.testing.assert_array_equal(
                got, r_squared_block(aln, slice(5, 30), slice(5, 40))
            )


class TestLifecycle:
    def test_context_manager_unlinks(self, aln):
        before = set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))
        with SharedR2TileStore.create(aln, max_pair_span=20) as store:
            assert len(set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))) >= (
                len(before) + 2  # the tiles and their ready flags
            )
            spec = store.spec
        assert set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*")) == before
        with pytest.raises(FileNotFoundError):
            SharedR2TileStore.attach(spec, aln)

    def test_size_cap_enforced(self, aln):
        with pytest.raises(ScanConfigError, match="tile store"):
            SharedR2TileStore.create(
                aln, max_pair_span=80, max_store_bytes=1024
            )
