"""Tests for streaming ingestion and the streamed-scan equivalence.

The load-bearing property: ``scan_stream`` over any chunking and any
worker count must be *bitwise* identical to the in-memory sequential
scan (:class:`OmegaPlusScanner`) — including reuse counters for the
sequential streamed scan, which are deterministic there; arrays only for
the parallel one, whose blocks each fill their first r² region cold.
"""

import glob
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.grid as grid
from repro.core.grid import (
    GridSpec,
    build_plans,
    build_plans_from_positions,
    make_blocks,
)
from repro.core.parallel import (
    _block_spans,
    _group_stream_chunks,
    parallel_scan,
)
from repro.core.scan import (
    OmegaConfig,
    OmegaPlusScanner,
    _plan_stream_chunks,
    iter_scan_stream,
    scan_stream,
)
from repro.datasets.alignment import SHM_NAME_PREFIX
from repro.datasets.generators import haplotype_block_alignment
from repro.datasets.missing import MISSING, MaskedAlignment
from repro.datasets.msformat import ms_text, parse_ms_text
from repro.datasets.streaming import (
    InMemoryStreamSource,
    StreamingAlignmentReader,
    enumerate_chromosomes,
)
from repro.datasets import msformat
from repro.datasets import vcf as vcf_module
from repro.datasets.vcf import parse_vcf_text, vcf_text
from repro.errors import DataFormatError, ScanConfigError, StreamingError
from repro.ld.operands import gemm_plane_dtype


def _shm_entries():
    return set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))


def _boom(task):
    """Injected worker-task failure (module-level: pool tasks pickle the
    callable by qualified name)."""
    raise RuntimeError("injected worker failure")


def _config(aln, n_positions):
    return OmegaConfig(
        grid=GridSpec(n_positions=n_positions, max_window=aln.length / 3),
    )


def _widest(plans):
    return max((p.region_width for p in plans if p.valid), default=0)


def _assert_results_equal(streamed, ref, *, reuse=False):
    """Bitwise equality of every per-position record (NaN-safe)."""
    np.testing.assert_array_equal(streamed.positions, ref.positions)
    np.testing.assert_array_equal(streamed.omegas, ref.omegas)
    np.testing.assert_array_equal(
        streamed.left_borders_bp, ref.left_borders_bp
    )
    np.testing.assert_array_equal(
        streamed.right_borders_bp, ref.right_borders_bp
    )
    np.testing.assert_array_equal(streamed.n_evaluations, ref.n_evaluations)
    if reuse:
        assert streamed.reuse == ref.reuse
        _assert_counters_match(streamed, ref)


def _assert_counters_match(streamed, ref):
    """A streamed scan's counters equal the in-memory scan's, apart from
    its own ``stream.*`` ones, ``omega.batches`` and the r² fill-call
    counts: each chunk flushes its last partial ω batch, so every
    yielded part is complete, which can add one batch per chunk after
    the first; and r² fills run ahead only up to the chunk's last
    region, a horizon never past the in-memory scan's, so the streamed
    scan makes at least as many (shorter) fill calls."""
    got = dict(streamed.metrics["counters"])
    want = dict(ref.metrics["counters"])
    n_chunks = got.pop("stream.chunks")
    got.pop("stream.chunk_sites")
    extra = got.pop("omega.batches", 0) - want.pop("omega.batches", 0)
    assert 0 <= extra <= n_chunks - 1
    fills = [c.pop("ld.fills", 0) for c in (got, want)]
    assert fills[0] >= fills[1]
    assert got == want


def _assert_block_calibration(result, n_pairs):
    """One estimated cost and one archived calibration pair per
    dispatched block, and the folded cost-model gauges."""
    snap = result.metrics
    blocks = snap["counters"]["scheduler.blocks_dispatched"]
    assert snap["histograms"]["scheduler.block_est_cost"]["count"] == blocks
    assert n_pairs == blocks
    assert "scheduler.cost_seconds_per_unit" in snap["gauges"]
    assert "scheduler.cost_calibration_blocks" in snap["gauges"]


# ------------------------------------------------------------------ #
# sources
# ------------------------------------------------------------------ #


class TestInMemorySource:
    def test_windows_match_site_slice(self, block_alignment):
        src = InMemoryStreamSource(block_alignment)
        ranges = [(0, 40), (30, 80), (80, 120)]
        for (lo, hi), chunk in zip(ranges, src.windows(ranges)):
            ref = block_alignment.site_slice(lo, hi)
            np.testing.assert_array_equal(chunk.matrix, ref.matrix)
            np.testing.assert_array_equal(chunk.positions, ref.positions)

    def test_chunks_cover_all_sites(self, block_alignment):
        src = InMemoryStreamSource(block_alignment)
        seen = []
        for chunk in src.chunks(50, overlap=10):
            assert chunk.n_sites <= 50
            seen.append(chunk.positions)
        covered = np.unique(np.concatenate(seen))
        np.testing.assert_array_equal(covered, block_alignment.positions)

    def test_chunks_validation(self, block_alignment):
        src = InMemoryStreamSource(block_alignment)
        with pytest.raises(ScanConfigError):
            src.chunks(0)
        with pytest.raises(ScanConfigError):
            src.chunks(10, overlap=10)

    def test_rewinding_ranges_rejected(self, block_alignment):
        src = InMemoryStreamSource(block_alignment)
        with pytest.raises(StreamingError):
            list(src.windows([(20, 40), (0, 10)]))

    def test_out_of_bounds_rejected(self, block_alignment):
        src = InMemoryStreamSource(block_alignment)
        with pytest.raises(StreamingError):
            list(src.windows([(0, block_alignment.n_sites + 1)]))


class TestStreamingReaderMs:
    @pytest.fixture
    def ms_pair(self):
        aln = haplotype_block_alignment(12, 40, seed=5)
        text = ms_text([aln])
        ref = parse_ms_text(text, length=aln.length)[0].alignment
        return text, ref

    def test_index_matches_parse_ms(self, ms_pair):
        text, ref = ms_pair
        reader = StreamingAlignmentReader(
            text=text, format="ms", length=ref.length
        )
        assert reader.n_samples == ref.n_samples
        assert reader.n_sites == ref.n_sites
        np.testing.assert_array_equal(reader.positions, ref.positions)

    def test_windows_match_site_slice(self, ms_pair):
        text, ref = ms_pair
        reader = StreamingAlignmentReader(
            text=text, format="ms", length=ref.length
        )
        ranges = [(0, 15), (10, 30), (30, 40)]
        for (lo, hi), chunk in zip(ranges, reader.windows(ranges)):
            sliced = ref.site_slice(lo, hi)
            np.testing.assert_array_equal(chunk.matrix, sliced.matrix)
            np.testing.assert_array_equal(chunk.positions, sliced.positions)

    def test_replicate_selection(self):
        a0 = haplotype_block_alignment(8, 20, seed=1)
        a1 = haplotype_block_alignment(8, 25, seed=2)
        text = ms_text([a0, a1])
        reader = StreamingAlignmentReader(
            text=text, format="ms", length=a1.length, replicate=1
        )
        ref = parse_ms_text(text, length=a1.length)[1].alignment
        assert reader.n_sites == ref.n_sites
        chunk = next(reader.windows([(0, ref.n_sites)]))
        np.testing.assert_array_equal(chunk.matrix, ref.matrix)

    def test_replicate_out_of_range(self):
        text = ms_text([haplotype_block_alignment(8, 20, seed=1)])
        with pytest.raises(DataFormatError, match="out of range"):
            StreamingAlignmentReader(text=text, format="ms", replicate=3)

    def test_path_route(self, tmp_path):
        aln = haplotype_block_alignment(10, 30, seed=9)
        path = tmp_path / "input.ms"
        path.write_text(ms_text([aln]), encoding="ascii")
        reader = StreamingAlignmentReader(
            str(path), format="ms", length=aln.length
        )
        ref = parse_ms_text(
            path.read_text(encoding="ascii"), length=aln.length
        )[0].alignment
        chunk = next(reader.windows([(0, reader.n_sites)]))
        np.testing.assert_array_equal(chunk.matrix, ref.matrix)
        np.testing.assert_array_equal(chunk.positions, ref.positions)


class TestMsChunkPass:
    """The ms chunk pass re-reads the rows the index pass laid out; a file
    that no longer holds them fails with StreamingError, not with wrong
    genotypes."""

    @pytest.fixture
    def ms_file(self, tmp_path):
        aln = haplotype_block_alignment(12, 40, seed=5)
        path = tmp_path / "input.ms"
        path.write_text(ms_text([aln]), encoding="ascii")
        reader = StreamingAlignmentReader(
            str(path), format="ms", length=aln.length
        )
        return path, reader

    def test_truncated_between_passes(self, ms_file):
        path, reader = ms_file
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(StreamingError, match="changed between"):
            list(reader.windows([(0, 10), (5, reader.n_sites)]))

    def test_truncated_between_windows(self, ms_file):
        # Cut at a row boundary while the chunk pass is open: the rows
        # left in its buffer from the first window must not be served.
        path, reader = ms_file
        windows = reader.windows([(0, 10), (5, reader.n_sites)])
        next(windows)
        data = path.read_bytes()
        row_ends = [i for i, b in enumerate(data) if b == ord("\n")]
        path.write_bytes(data[: row_ends[-7] + 1])
        with pytest.raises(StreamingError, match="changed between"):
            next(windows)

    def test_terminator_overwritten_between_passes(self, ms_file):
        path, reader = ms_file
        data = bytearray(path.read_bytes())
        row_ends = [i for i, b in enumerate(data) if b == ord("\n")]
        data[row_ends[-4]] = ord("0")  # joins the 9th and 10th rows
        path.write_bytes(bytes(data))
        with pytest.raises(StreamingError, match="changed between"):
            list(reader.windows([(0, reader.n_sites)]))


class TestMsNonAscii:
    """A non-ASCII byte in an ms file is a DataFormatError on every
    streaming route: the fixed-width index pass, the line fallback and
    the replicate census."""

    def _write(self, tmp_path, text, at):
        data = bytearray(text.encode("ascii"))
        data[data.index(at.encode("ascii"))] = 0xE9
        path = tmp_path / "input.ms"
        path.write_bytes(bytes(data))
        return str(path)

    def test_reader(self, tmp_path):
        aln = haplotype_block_alignment(8, 20, seed=1)
        text = ms_text([aln])
        row = text.splitlines()[-1]
        path = self._write(tmp_path, text, row)
        with pytest.raises(DataFormatError, match="not ASCII"):
            StreamingAlignmentReader(path, format="ms")

    def test_reader_padded_rows(self, tmp_path):
        aln = haplotype_block_alignment(8, 20, seed=1)
        rows = ms_text([aln]).splitlines()
        text = "\n".join(rows[:-1] + [rows[-1] + "  ", ""])
        path = self._write(tmp_path, text, rows[-1])
        with pytest.raises(DataFormatError, match="not ASCII"):
            StreamingAlignmentReader(path, format="ms")

    def test_census(self, tmp_path):
        a = haplotype_block_alignment(8, 20, seed=1)
        b = haplotype_block_alignment(8, 12, seed=2)
        text = ms_text([a, b])
        path = self._write(tmp_path, text, "segsites: 12")
        # Replicate 0 reads; the census reads the whole file.
        reader = StreamingAlignmentReader(path, format="ms")
        assert reader.n_samples == 8
        with pytest.raises(DataFormatError, match="not ASCII"):
            reader.chromosomes()
        with pytest.raises(DataFormatError, match="not ASCII"):
            enumerate_chromosomes(path, format="ms")


class TestStreamingReaderVcf:
    @pytest.fixture
    def vcf_pair(self, rng):
        matrix = rng.integers(0, 2, size=(10, 30)).astype(np.uint8)
        matrix[rng.random(matrix.shape) < 0.1] = MISSING
        positions = np.sort(
            rng.choice(np.arange(1, 5000), size=30, replace=False)
        ).astype(np.float64)
        masked = MaskedAlignment(
            matrix=matrix, positions=positions, length=5001.0
        )
        text = vcf_text(masked)
        ref = (
            parse_vcf_text(text, length=5001.0)
            .impute_major()
            .drop_monomorphic()
        )
        return text, ref

    def test_index_matches_parse_vcf(self, vcf_pair):
        text, ref = vcf_pair
        reader = StreamingAlignmentReader(
            text=text, format="vcf", length=5001.0
        )
        assert reader.n_samples == ref.n_samples
        np.testing.assert_array_equal(reader.positions, ref.positions)
        assert reader.length == ref.length

    def test_windows_match_imputed_pipeline(self, vcf_pair):
        text, ref = vcf_pair
        reader = StreamingAlignmentReader(
            text=text, format="vcf", length=5001.0
        )
        n = reader.n_sites
        ranges = [(0, n // 2), (n // 3, n), (n, n)]
        for (lo, hi), chunk in zip(ranges, reader.windows(ranges)):
            sliced = ref.site_slice(lo, hi)
            np.testing.assert_array_equal(chunk.matrix, sliced.matrix)
            np.testing.assert_array_equal(chunk.positions, sliced.positions)

    def test_unsorted_vcf_rejected(self):
        header = (
            "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\ts2\n"
        )
        body = (
            "1\t500\t.\tA\tG\t.\tPASS\t.\tGT\t0\t1\n"
            "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t1\t0\n"
        )
        with pytest.raises(DataFormatError, match="unsorted"):
            StreamingAlignmentReader(text=header + body, format="vcf")

    def test_input_changed_between_passes(self, tmp_path, vcf_pair):
        text, _ref = vcf_pair
        path = tmp_path / "input.vcf"
        path.write_text(text, encoding="ascii")
        reader = StreamingAlignmentReader(str(path), format="vcf")
        # Truncate the file after indexing: the chunk pass must notice.
        lines = text.strip().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n", encoding="ascii")
        with pytest.raises(StreamingError, match="changed between"):
            list(reader.windows([(0, reader.n_sites)]))


class TestVcfBatchBoundaries:
    """Tie-nudging, imputation and the polymorphism filter run one
    decoded batch at a time; wherever the batch byte budget cuts, the
    streamed index and windows equal the in-memory pipeline."""

    @given(
        st.integers(1, 5),
        st.lists(
            st.tuples(st.integers(0, 2), st.lists(st.sampled_from("01."),
                                                  min_size=5, max_size=5)),
            min_size=2, max_size=30,
        ),
        st.integers(1, 40),
        st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_stream_matches_in_memory(self, n_hap, sites, budget, step):
        header = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\t"
        text = header + "\t".join(f"h{k}" for k in range(n_hap)) + "\n"
        pos = 1
        for gap, calls in sites:  # gap 0 repeats a position
            pos += gap
            text += (f"1\t{pos}\t.\tA\tG\t.\tPASS\t.\tGT\t"
                     + "\t".join(calls[:n_hap]) + "\n")
        ref = parse_vcf_text(text).impute_major().drop_monomorphic()
        with mock.patch.object(vcf_module, "_BATCH_BYTES", budget):
            reader = StreamingAlignmentReader(text=text, format="vcf")
            np.testing.assert_array_equal(reader.positions, ref.positions)
            assert reader.length == ref.length
            n = reader.n_sites
            ranges = [(lo, min(n, lo + step + 1)) for lo in range(0, n, step)]
            for (lo, hi), chunk in zip(ranges, reader.windows(ranges)):
                sliced = ref.site_slice(lo, hi)
                np.testing.assert_array_equal(chunk.matrix, sliced.matrix)
                np.testing.assert_array_equal(
                    chunk.positions, sliced.positions
                )


def _diploid_vcf(path, n_sites, n_samples=200, seed=0):
    """A phased diploid VCF with 1 % missing genotypes."""
    rng = np.random.default_rng(seed)
    genotypes = np.array(["0|0", "0|1", "1|0", "1|1", ".|."])
    codes = rng.choice(5, size=(n_sites, n_samples),
                       p=[0.3, 0.2, 0.2, 0.29, 0.01])
    names = "\t".join(f"s{k}" for k in range(n_samples))
    lines = [
        "##fileformat=VCFv4.2",
        f"#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\t{names}",
    ]
    lines.extend(
        f"1\t{10 * (site + 1)}\t.\tA\tG\t.\tPASS\t.\tGT\t"
        + "\t".join(genotypes[codes[site]])
        for site in range(n_sites)
    )
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


class TestVcfWorkingSet:
    """The VCF index and chunk passes hold one batch of genotypes, not a
    number of them that grows with the file. (Batches of 256 records,
    ~200 KB of text here, peaked at several times this bound.)"""

    BOUND = 1 << 20  # bytes; the 4 000-site matrix alone is 1.6 MB

    @pytest.mark.parametrize("n_sites", [500, 4000])
    def test_peak_does_not_grow_with_sites(self, tmp_path, n_sites):
        path = tmp_path / "input.vcf"
        _diploid_vcf(path, n_sites)
        tracemalloc.start()
        try:
            reader = StreamingAlignmentReader(str(path), format="vcf")
            _current, peak = tracemalloc.get_traced_memory()
            # The kept positions of every batch, then their concatenation.
            assert peak - 2 * reader.positions.nbytes < self.BOUND
            assert reader.n_samples == 400 and reader.n_sites > n_sites // 2
            base, _peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            n = reader.n_sites
            # Contiguous chunks, then a window that skips most sites.
            for ranges in (None, [(0, 10), (n - 100, n)]):
                windows = (
                    reader.chunks(100, overlap=10)
                    if ranges is None
                    else reader.windows(ranges)
                )
                for chunk in windows:
                    _current, peak = tracemalloc.get_traced_memory()
                    # This chunk and the one before it, still referenced.
                    held = 2 * (chunk.matrix.nbytes + chunk.positions.nbytes)
                    assert peak - base - held < self.BOUND
                    tracemalloc.reset_peak()
        finally:
            tracemalloc.stop()


class TestMsWorkingSet:
    """The ms chunk pass holds one batch buffer plus the chunk, on a file
    many buffers long. (Slicing every row into a list and stacking it
    held two chunks.)"""

    BUFFER = 64 << 10
    ALLOWANCE = 64 << 10  # the file object, positions, small temporaries

    def test_peak_is_one_chunk_plus_one_buffer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(msformat, "_BATCH_BYTES", self.BUFFER)
        aln = haplotype_block_alignment(200, 4000, seed=3)
        path = tmp_path / "input.ms"
        path.write_text(ms_text([aln]), encoding="ascii")
        assert path.stat().st_size >= 8 * self.BUFFER
        reader = StreamingAlignmentReader(
            str(path), format="ms", length=aln.length
        )
        ranges = [(0, 1500), (1000, 2500), (2500, 4000)]
        windows = reader.windows(ranges)
        tracemalloc.start()
        try:
            for lo, hi in ranges:
                base, _peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                chunk = next(windows)
                _current, peak = tracemalloc.get_traced_memory()
                np.testing.assert_array_equal(
                    chunk.matrix, aln.matrix[:, lo:hi]
                )
                held = chunk.matrix.nbytes + self.BUFFER
                assert peak - base < held + self.ALLOWANCE
                del chunk
        finally:
            tracemalloc.stop()


class TestReaderConstruction:
    def test_requires_exactly_one_input(self):
        with pytest.raises(StreamingError):
            StreamingAlignmentReader()
        with pytest.raises(StreamingError):
            StreamingAlignmentReader("x.ms", text="//\n")

    def test_rejects_unknown_format(self):
        with pytest.raises(ScanConfigError):
            StreamingAlignmentReader(text="x", format="fasta")

    def test_rejects_negative_replicate(self):
        with pytest.raises(ScanConfigError):
            StreamingAlignmentReader(text="x", format="ms", replicate=-1)


# ------------------------------------------------------------------ #
# malformed-input corpus
# ------------------------------------------------------------------ #


class TestMalformedCorpus:
    """Each malformed input maps to a *specific* exception type."""

    def _ms(self, text):
        return StreamingAlignmentReader(text=text, format="ms")

    def test_ms_no_replicates(self):
        with pytest.raises(DataFormatError, match="no '//'"):
            self._ms("ms 4 1\n1 2 3\n")

    def test_ms_truncated_after_slashes(self):
        with pytest.raises(DataFormatError, match="ends after"):
            self._ms("//\n")

    def test_ms_truncated_after_segsites(self):
        with pytest.raises(DataFormatError, match="positions"):
            self._ms("//\nsegsites: 3\n")

    def test_ms_truncated_after_positions(self):
        with pytest.raises(DataFormatError, match="no haplotype rows"):
            self._ms("//\nsegsites: 2\npositions: 0.1 0.2\n")

    def test_ms_malformed_segsites(self):
        with pytest.raises(DataFormatError, match="segsites"):
            self._ms("//\nsegsites: lots\npositions: 0.1\n1\n")

    def test_ms_position_count_mismatch(self):
        with pytest.raises(DataFormatError, match="2 segsites but 3"):
            self._ms("//\nsegsites: 2\npositions: 0.1 0.2 0.3\n01\n")

    def test_ms_unsorted_positions(self):
        with pytest.raises(DataFormatError, match="sorted"):
            self._ms("//\nsegsites: 2\npositions: 0.9 0.1\n01\n")

    def test_ms_short_haplotype_row(self):
        with pytest.raises(DataFormatError, match="length 1"):
            self._ms("//\nsegsites: 2\npositions: 0.1 0.2\n0\n")

    def test_ms_empty_segsites_indexes_but_cannot_scan(self):
        reader = self._ms("//\nsegsites: 0\n")
        assert reader.n_sites == 0
        config = OmegaConfig(grid=GridSpec(n_positions=2, max_window=0.3))
        with pytest.raises(ScanConfigError, match="at least 2 SNPs"):
            scan_stream(reader, config, snp_budget=16)

    _VCF_HEADER = (
        "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\ts2\n"
    )

    def _vcf(self, body):
        return StreamingAlignmentReader(
            text=self._VCF_HEADER + body, format="vcf"
        )

    def test_vcf_truncated_record(self):
        with pytest.raises(DataFormatError, match="fields"):
            self._vcf("1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0\n")

    def test_vcf_mixed_ploidy_within_record(self):
        with pytest.raises(DataFormatError, match="mixed ploidy"):
            self._vcf("1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0|1\t0\n")

    def test_vcf_inconsistent_ploidy_across_records(self):
        with pytest.raises(DataFormatError, match="inconsistent ploidy"):
            self._vcf(
                "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0|1\t0|0\n"
                "1\t200\t.\tA\tG\t.\tPASS\t.\tGT\t0\t1\n"
            )

    def test_vcf_no_usable_records(self):
        with pytest.raises(DataFormatError, match="no usable"):
            self._vcf("")


# ------------------------------------------------------------------ #
# chunk planning
# ------------------------------------------------------------------ #


class TestPlanStreamChunks:
    _ALN = haplotype_block_alignment(30, 90, seed=11)

    def _plans(self, n_positions=10):
        cfg = _config(self._ALN, n_positions)
        return build_plans(self._ALN, cfg.grid)

    def test_partitions_all_plans(self):
        plans = self._plans()
        groups = _plan_stream_chunks(plans, _widest(plans) + 5)
        assert groups[0][2] == 0
        assert groups[-1][3] == len(plans)
        for (_, _, _, prev_hi), (_, _, lo, _) in zip(groups, groups[1:]):
            assert prev_hi == lo

    def test_site_ranges_respect_budget_and_monotonicity(self):
        plans = self._plans()
        budget = _widest(plans) + 3
        groups = _plan_stream_chunks(plans, budget)
        assert len(groups) > 1  # tight budget actually chunks
        prev = (0, 0)
        for lo, hi, _pl, _ph in groups:
            assert hi - lo <= budget
            assert lo >= prev[0] and hi >= prev[1]
            prev = (lo, hi)

    def test_each_group_covers_its_regions(self):
        plans = self._plans()
        for lo, hi, pl, ph in _plan_stream_chunks(plans, _widest(plans)):
            for p in plans[pl:ph]:
                if p.valid:
                    assert lo <= p.region_start
                    assert p.region_stop + 1 <= hi

    def test_budget_below_widest_region_rejected(self):
        plans = self._plans()
        with pytest.raises(ScanConfigError, match="widest omega region"):
            _plan_stream_chunks(plans, _widest(plans) - 1)

    def test_all_invalid_plans_single_empty_group(self):
        # Two SNPs 500 bp apart with a 1 bp window: every grid position
        # between them has no reachable sites, so no chunk holds data.
        positions = np.array([0.0, 500.0])
        spec = GridSpec(n_positions=4, max_window=1.0)
        plans = build_plans_from_positions(positions, spec)
        assert not any(p.valid for p in plans)
        assert _plan_stream_chunks(plans, 16) == [(0, 0, 0, len(plans))]

    def test_parallel_grouping_budget_rejection(self, block_length):
        block_length(3)
        plans = self._plans()
        blocks = make_blocks(len(plans))
        spans = _block_spans(plans, blocks)
        max_span = max(hi - lo for span in spans if span for lo, hi in [span])
        with pytest.raises(ScanConfigError, match="scheduling block"):
            _group_stream_chunks(spans, max_span - 1)


# ------------------------------------------------------------------ #
# streamed-scan equivalence (the tentpole property)
# ------------------------------------------------------------------ #


class TestSequentialStreamEquivalence:
    """Streamed sequential scan == in-memory scan, bitwise, for any
    feasible chunk budget / grid size — including the
    reuse counters (the chunked run must relocate exactly the same
    cache entries)."""

    _ALN = haplotype_block_alignment(40, 160, seed=77)

    @given(
        n_positions=st.integers(2, 12),
        extra=st.integers(0, 200),
    )
    @settings(max_examples=12, deadline=None)
    def test_bitwise_identical(self, n_positions, extra):
        aln = self._ALN
        config = _config(aln, n_positions)
        budget = max(2, _widest(build_plans(aln, config.grid))) + extra
        ref = OmegaPlusScanner(config).scan(aln)
        streamed = scan_stream(aln, config, snp_budget=budget)
        _assert_results_equal(streamed, ref, reuse=True)

    @pytest.mark.parametrize("chunks", ["one", "several"])
    def test_counters_match_in_memory(self, chunks):
        aln = self._ALN
        config = _config(aln, 9)
        budget = (
            aln.n_sites
            if chunks == "one"
            else _widest(build_plans(aln, config.grid)) + 10
        )
        streamed = scan_stream(aln, config, snp_budget=budget)
        n_chunks = streamed.metrics["counters"]["stream.chunks"]
        assert (n_chunks == 1) == (chunks == "one")
        _assert_counters_match(streamed, OmegaPlusScanner(config).scan(aln))

    def test_parts_concatenate_to_full_grid(self):
        aln = self._ALN
        config = _config(aln, 9)
        budget = _widest(build_plans(aln, config.grid)) + 10
        parts = list(iter_scan_stream(aln, config, snp_budget=budget))
        assert len(parts) > 1
        ref = OmegaPlusScanner(config).scan(aln)
        np.testing.assert_array_equal(
            np.concatenate([p.positions for p in parts]), ref.positions
        )
        np.testing.assert_array_equal(
            np.concatenate([p.omegas for p in parts]), ref.omegas
        )

    def test_ms_reader_end_to_end(self, tmp_path):
        aln = haplotype_block_alignment(20, 80, seed=13)
        path = tmp_path / "chrom.ms"
        path.write_text(ms_text([aln]), encoding="ascii")
        parsed = parse_ms_text(
            path.read_text(encoding="ascii"), length=aln.length
        )[0].alignment
        config = _config(parsed, 8)
        budget = _widest(build_plans(parsed, config.grid)) + 4
        reader = StreamingAlignmentReader(
            str(path), format="ms", length=aln.length
        )
        streamed = scan_stream(reader, config, snp_budget=budget)
        ref = OmegaPlusScanner(config).scan(parsed)
        _assert_results_equal(streamed, ref, reuse=True)

    def test_vcf_reader_end_to_end(self, rng):
        matrix = rng.integers(0, 2, size=(16, 60)).astype(np.uint8)
        matrix[rng.random(matrix.shape) < 0.05] = MISSING
        positions = np.sort(
            rng.choice(np.arange(1, 9000), size=60, replace=False)
        ).astype(np.float64)
        masked = MaskedAlignment(
            matrix=matrix, positions=positions, length=9001.0
        )
        text = vcf_text(masked)
        parsed = (
            parse_vcf_text(text, length=9001.0)
            .impute_major()
            .drop_monomorphic()
        )
        config = _config(parsed, 7)
        budget = _widest(build_plans(parsed, config.grid)) + 2
        reader = StreamingAlignmentReader(
            text=text, format="vcf", length=9001.0
        )
        streamed = scan_stream(reader, config, snp_budget=budget)
        ref = OmegaPlusScanner(config).scan(parsed)
        _assert_results_equal(streamed, ref, reuse=True)


class TestParallelStreamEquivalence:
    """Streamed parallel scan == in-memory sequential scan, bitwise on
    every per-position array, whatever the worker count and block
    length."""

    _ALN = haplotype_block_alignment(40, 160, seed=77)

    def _budget_for(self, config, extra):
        plans = build_plans(self._ALN, config.grid)
        spans = _block_spans(plans, make_blocks(len(plans)))
        widest = max((hi - lo for span in spans if span for lo, hi in [span]),
                     default=2)
        return max(2, widest) + extra

    @given(
        n_positions=st.integers(3, 10),
        n_workers=st.integers(2, 3),
        block_len=st.integers(2, 5),
        extra=st.integers(0, 120),
    )
    @settings(max_examples=6, deadline=None)
    def test_bitwise_identical(
        self, n_positions, n_workers, block_len, extra
    ):
        aln = self._ALN
        config = _config(aln, n_positions)
        with mock.patch.multiple(
            grid, SHORTEST_BLOCK=block_len, LONGEST_BLOCK=block_len
        ):
            budget = self._budget_for(config, extra)
            ref = OmegaPlusScanner(config).scan(aln)
            streamed = scan_stream(
                aln, config, snp_budget=budget, n_workers=n_workers
            )
        _assert_results_equal(streamed, ref)

    def test_shared_multi_chunk_deterministic(self, block_length):
        """Small blocks + tight budget: several chunks stream through one
        persistent pool and still match the in-memory runs bitwise — and
        record the same per-block calibration evidence."""
        from repro.core.costmodel import calibration_pairs, reset_cost_model

        block_length(3)
        aln = self._ALN
        config = _config(aln, 10)
        budget = self._budget_for(config, 0)
        reset_cost_model()
        try:
            ref = parallel_scan(aln, config, n_workers=2)
            _assert_block_calibration(ref, len(calibration_pairs()))
            reset_cost_model()
            streamed = scan_stream(
                aln, config, snp_budget=budget, n_workers=2
            )
            _assert_block_calibration(streamed, len(calibration_pairs()))
        finally:
            reset_cost_model()
        assert streamed.metrics["counters"]["stream.chunks"] > 1
        _assert_results_equal(streamed, ref)
        _assert_results_equal(streamed, OmegaPlusScanner(config).scan(aln))


# ------------------------------------------------------------------ #
# validation and resource hygiene
# ------------------------------------------------------------------ #


class TestScanStreamValidation:
    _ALN = haplotype_block_alignment(20, 60, seed=3)

    def test_rejects_bad_budget(self):
        config = _config(self._ALN, 4)
        with pytest.raises(ScanConfigError, match="snp_budget"):
            scan_stream(self._ALN, config, snp_budget=1)

    def test_rejects_zero_workers(self):
        config = _config(self._ALN, 4)
        with pytest.raises(ScanConfigError, match="n_workers"):
            scan_stream(self._ALN, config, snp_budget=64, n_workers=0)

    def test_rejects_non_source(self):
        config = _config(self._ALN, 4)
        with pytest.raises(ScanConfigError, match="AlignmentStreamSource"):
            scan_stream(object(), config, snp_budget=64)

    def test_budget_below_widest_region(self):
        config = _config(self._ALN, 6)
        widest = _widest(build_plans(self._ALN, config.grid))
        with pytest.raises(ScanConfigError, match="widest omega region"):
            scan_stream(self._ALN, config, snp_budget=widest - 1)


class TestStreamLeaks:
    """Abandoning or crashing a streamed scan must leave ``/dev/shm``
    exactly as it was — the regression the session teardown guards."""

    _ALN = haplotype_block_alignment(40, 160, seed=77)

    @pytest.fixture(autouse=True)
    def three_position_blocks(self, block_length):
        block_length(3)

    def _config_and_budget(self):
        config = _config(self._ALN, 10)
        plans = build_plans(self._ALN, config.grid)
        blocks = make_blocks(len(plans))
        spans = _block_spans(plans, blocks)
        widest = max(hi - lo for span in spans if span for lo, hi in [span])
        return config, widest

    def test_mid_iteration_close_shared(self):
        config, budget = self._config_and_budget()
        before = _shm_entries()
        it = iter_scan_stream(
            self._ALN,
            config,
            snp_budget=budget,
            n_workers=2,
        )
        next(it)
        it.close()
        assert _shm_entries() == before

    def test_shared_worker_failure_cleans_up(self, monkeypatch):
        import repro.core.parallel as par

        # The pool forks after the patch, so workers inherit the broken
        # task body and the parent must still unlink every segment.
        monkeypatch.setattr(par, "_scan_block", _boom)
        config, budget = self._config_and_budget()
        before = _shm_entries()
        with pytest.raises(RuntimeError, match="injected"):
            scan_stream(
                self._ALN,
                config,
                snp_budget=budget,
                n_workers=2,
            )
        assert _shm_entries() == before

    def test_sequential_close_releases_file(self, tmp_path):
        aln = haplotype_block_alignment(20, 80, seed=13)
        path = tmp_path / "chrom.ms"
        path.write_text(ms_text([aln]), encoding="ascii")
        reader = StreamingAlignmentReader(
            str(path), format="ms", length=aln.length
        )
        config = _config(reader, 8)
        budget = _widest(
            build_plans_from_positions(reader.positions, config.grid)
        )
        it = iter_scan_stream(reader, config, snp_budget=budget)
        next(it)
        it.close()  # must not raise; file handle released
        # The reader remains usable for a fresh pass.
        again = scan_stream(reader, config, snp_budget=budget)
        assert len(again) == 8


class TestStreamedScanWorkingSet:
    """A sequential streamed scan holds one chunk's LD operand plane at a
    time: the finished chunk's filler, the only holder of its planes
    through the weakly keyed operand memo, is dropped before the next
    chunk is read. The traced peak stays near two chunk planes however
    many chunks run; a memo that kept every chunk it had seen peaked at
    about one plane per chunk (25 on this input)."""

    #: Region and DP buffers, ω arenas, chunk copies, lazy imports.
    ALLOWANCE = 3 << 20

    def test_peak_does_not_grow_with_chunks(self):
        aln = haplotype_block_alignment(1000, 2400, seed=91)
        config = OmegaConfig(
            grid=GridSpec(n_positions=60, max_window=aln.length / 40)
        )
        plans = build_plans(aln, config.grid)
        budget = 2 * _widest(plans)
        assert len(_plan_stream_chunks(plans, budget)) >= 8
        plane = budget * aln.n_samples * gemm_plane_dtype(
            aln.n_samples
        ).itemsize
        tracemalloc.start()
        try:
            streamed = scan_stream(aln, config, snp_budget=budget)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * plane + self.ALLOWANCE
        _assert_results_equal(
            streamed, OmegaPlusScanner(config).scan(aln), reuse=True
        )


class TestChromosomeEnumeration:
    """Unit enumeration: the structural pass the shard planner expands
    bare input paths with."""

    VCF_HEADER = (
        "##fileformat=VCFv4.2\n"
        "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\ts2\n"
    )
    VCF_TWO_CHROM = VCF_HEADER + (
        "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0\t1\n"
        "1\t250\t.\tC\tT\t.\tPASS\t.\tGT\t1\t0\n"
        "2\t400\t.\tA\tC\t.\tPASS\t.\tGT\t0\t1\n"
    )

    def test_enumerate_ms_text(self):
        a = haplotype_block_alignment(8, 20, seed=1)
        b = haplotype_block_alignment(8, 12, seed=2)
        infos = enumerate_chromosomes(text=ms_text([a, b]), format="ms")
        assert [(i.name, i.n_records) for i in infos] == [
            ("0", 20),
            ("1", 12),
        ]

    def test_enumerate_vcf_text(self):
        infos = enumerate_chromosomes(
            text=self.VCF_TWO_CHROM, format="vcf"
        )
        assert [(i.name, i.n_records) for i in infos] == [
            ("1", 2),
            ("2", 1),
        ]

    def test_enumerate_requires_one_input(self, tmp_path):
        with pytest.raises(StreamingError, match="exactly one"):
            enumerate_chromosomes()
        with pytest.raises(StreamingError, match="exactly one"):
            enumerate_chromosomes(str(tmp_path / "x.ms"), text="//")

    def test_enumerate_rejects_unknown_format(self):
        with pytest.raises(ScanConfigError, match="'ms' and 'vcf'"):
            enumerate_chromosomes(text="//", format="fastq")

    def test_reader_lists_all_ms_replicates(self, tmp_path):
        a = haplotype_block_alignment(8, 20, seed=1)
        b = haplotype_block_alignment(8, 12, seed=2)
        path = tmp_path / "two.ms"
        path.write_text(ms_text([a, b]))
        reader = StreamingAlignmentReader(
            str(path), format="ms", replicate=1
        )
        # chromosomes() reports every unit of the file, not just the
        # replicate this reader was constructed for.
        assert [(i.name, i.n_records) for i in reader.chromosomes()] == [
            ("0", 20),
            ("1", 12),
        ]

    def test_reader_lists_all_vcf_chromosomes(self, tmp_path):
        path = tmp_path / "two.vcf"
        path.write_text(self.VCF_TWO_CHROM)
        reader = StreamingAlignmentReader(
            str(path), format="vcf", chromosome="2"
        )
        assert [(i.name, i.n_records) for i in reader.chromosomes()] == [
            ("1", 2),
            ("2", 1),
        ]

    def test_vcf_per_chromosome_length_inference(self, tmp_path):
        # With no explicit length, each chromosome's reader infers its
        # own span (last POS + 1) — the per-unit geometry the manifest
        # planner records.
        path = tmp_path / "two.vcf"
        path.write_text(self.VCF_TWO_CHROM)
        first = StreamingAlignmentReader(
            str(path), format="vcf", chromosome="1"
        )
        second = StreamingAlignmentReader(
            str(path), format="vcf", chromosome="2"
        )
        assert first.length == 251.0
        assert second.length == 401.0
