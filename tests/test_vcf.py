"""Tests for the minimal VCF reader/writer."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.missing import MISSING, MaskedAlignment
import io

from repro.datasets import vcf as vcf_module
from repro.datasets.streaming import (
    StreamingAlignmentReader,
    enumerate_chromosomes,
)
from repro.datasets.vcf import (
    iter_vcf_batches,
    parse_vcf,
    parse_vcf_text,
    vcf_chromosome_census,
    vcf_text,
)
from repro.errors import DataFormatError

HEADER = (
    "##fileformat=VCFv4.2\n"
    "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\ts2\n"
)


class TestParseHaploid:
    def test_basic(self):
        text = HEADER + (
            "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0\t1\n"
            "1\t200\t.\tC\tT\t.\tPASS\t.\tGT\t1\t1\n"
        )
        masked = parse_vcf_text(text)
        assert masked.n_samples == 2
        assert masked.n_sites == 2
        np.testing.assert_array_equal(masked.matrix[:, 0], [0, 1])
        np.testing.assert_allclose(masked.positions, [100.0, 200.0])

    def test_missing_calls(self):
        text = HEADER + "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t.\t1\n"
        masked = parse_vcf_text(text)
        assert masked.matrix[0, 0] == MISSING

    def test_indels_and_multiallelic_skipped(self):
        text = HEADER + (
            "1\t100\t.\tAT\tG\t.\tPASS\t.\tGT\t0\t1\n"
            "1\t150\t.\tA\tG,T\t.\tPASS\t.\tGT\t0\t1\n"
            "1\t200\t.\tC\tT\t.\tPASS\t.\tGT\t0\t1\n"
        )
        masked = parse_vcf_text(text)
        assert masked.n_sites == 1
        assert masked.positions[0] == 200.0

    def test_unsorted_positions_sorted(self):
        text = HEADER + (
            "1\t300\t.\tA\tG\t.\tPASS\t.\tGT\t0\t1\n"
            "1\t100\t.\tC\tT\t.\tPASS\t.\tGT\t1\t0\n"
        )
        masked = parse_vcf_text(text)
        np.testing.assert_allclose(masked.positions, [100.0, 300.0])
        np.testing.assert_array_equal(masked.matrix[:, 0], [1, 0])

    def test_explicit_length(self):
        text = HEADER + "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0\t1\n"
        masked = parse_vcf_text(text, length=5000.0)
        assert masked.length == 5000.0


class TestParseDiploid:
    def test_diploid_split_into_haplotypes(self):
        text = HEADER + "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0|1\t1/1\n"
        masked = parse_vcf_text(text)
        assert masked.n_samples == 4
        np.testing.assert_array_equal(masked.matrix[:, 0], [0, 1, 1, 1])

    def test_diploid_missing(self):
        text = HEADER + "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t.|1\t0/0\n"
        masked = parse_vcf_text(text)
        assert masked.matrix[0, 0] == MISSING
        assert masked.matrix[1, 0] == 1


class TestChromosomeHandling:
    TWO_CHROM = HEADER + (
        "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0\t1\n"
        "2\t200\t.\tC\tT\t.\tPASS\t.\tGT\t1\t0\n"
    )

    def test_mixed_without_selection_rejected(self):
        with pytest.raises(DataFormatError, match="multiple chromosomes"):
            parse_vcf_text(self.TWO_CHROM)

    def test_selection(self):
        masked = parse_vcf_text(self.TWO_CHROM, chromosome="2")
        assert masked.n_sites == 1
        assert masked.positions[0] == 200.0


class TestErrors:
    def test_no_records(self):
        with pytest.raises(DataFormatError, match="no usable"):
            parse_vcf_text(HEADER)

    def test_data_before_header(self):
        with pytest.raises(DataFormatError, match="before #CHROM"):
            parse_vcf_text("1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0\t1\n")

    def test_header_without_samples(self):
        with pytest.raises(DataFormatError, match="no sample columns"):
            parse_vcf_text(
                "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\n"
            )

    def test_field_count_mismatch(self):
        with pytest.raises(DataFormatError, match="fields"):
            parse_vcf_text(HEADER + "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0\n")

    def test_format_without_gt(self):
        with pytest.raises(DataFormatError, match="GT"):
            parse_vcf_text(
                HEADER + "1\t100\t.\tA\tG\t.\tPASS\t.\tDP:GT\t3:0\t4:1\n"
            )

    def test_bad_allele_index(self):
        with pytest.raises(DataFormatError, match="unsupported allele"):
            parse_vcf_text(HEADER + "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t2\t0\n")

    @pytest.mark.parametrize("pos", ["XY", "1_000", " 12", "+5", "-3"])
    def test_bad_pos(self, pos):
        with pytest.raises(DataFormatError, match="bad POS"):
            parse_vcf_text(
                HEADER + f"1\t{pos}\t.\tA\tG\t.\tPASS\t.\tGT\t0\t1\n"
            )


class TestRoundTrip:
    def test_haploid_roundtrip(self, small_alignment):
        masked = MaskedAlignment(
            small_alignment.matrix,
            small_alignment.positions,
            small_alignment.length,
        )
        text = vcf_text(masked)
        back = parse_vcf_text(text, length=small_alignment.length)
        np.testing.assert_array_equal(back.matrix, masked.matrix)

    def test_diploid_roundtrip(self, small_alignment):
        masked = MaskedAlignment(
            small_alignment.matrix,
            small_alignment.positions,
            small_alignment.length,
        )
        text = vcf_text(masked, diploid=True)
        back = parse_vcf_text(text, length=small_alignment.length)
        np.testing.assert_array_equal(back.matrix, masked.matrix)

    def test_diploid_odd_count_rejected(self):
        m = MaskedAlignment(
            np.array([[0], [1], [1]], dtype=np.uint8),
            np.array([10.0]), 100.0,
        )
        with pytest.raises(DataFormatError, match="even"):
            vcf_text(m, diploid=True)

    def test_file_roundtrip_to_scan(self, tmp_path, small_alignment):
        """VCF file -> parse -> impute -> scan end to end."""
        masked = MaskedAlignment(
            small_alignment.matrix,
            small_alignment.positions,
            small_alignment.length,
        )
        path = str(tmp_path / "data.vcf")
        with open(path, "w") as fh:
            fh.write(vcf_text(masked))
        parsed = parse_vcf(path, length=small_alignment.length)
        aln = parsed.impute_major()
        from repro.core.scan import scan

        result = scan(aln, grid_size=4, max_window=aln.length / 3)
        reference = scan(
            small_alignment, grid_size=4,
            max_window=small_alignment.length / 3,
        )
        np.testing.assert_allclose(result.omegas, reference.omegas, rtol=1e-10)


@st.composite
def _masked_alignments(draw):
    """Masked alignments with integer positions and {0, 1, MISSING}
    calls — exactly the value space VCF text can carry losslessly."""
    n_samples = draw(st.integers(1, 6))
    positions = sorted(
        draw(
            st.lists(
                st.integers(1, 10**7),
                min_size=1,
                max_size=20,
                unique=True,
            )
        )
    )
    n_sites = len(positions)
    cells = draw(
        st.lists(
            st.sampled_from([0, 1, int(MISSING)]),
            min_size=n_samples * n_sites,
            max_size=n_samples * n_sites,
        )
    )
    return MaskedAlignment(
        matrix=np.array(cells, dtype=np.uint8).reshape(n_samples, n_sites),
        positions=np.array(positions, dtype=np.float64),
        length=float(positions[-1] + 1),
    )


class TestRoundTripFuzz:
    """``vcf_text`` -> ``parse_vcf_text`` recovers positions and every
    genotype call (including missing data) exactly, for both haploid
    and phased-diploid serializations."""

    @given(_masked_alignments(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_exact_recovery(self, masked, diploid):
        diploid = diploid and masked.n_samples % 2 == 0
        text = vcf_text(masked, diploid=diploid)
        back = parse_vcf_text(text, length=masked.length)
        np.testing.assert_array_equal(back.matrix, masked.matrix)
        np.testing.assert_array_equal(back.positions, masked.positions)
        assert back.length == masked.length


class TestChromosomeCensus:
    def test_counts_in_file_order(self):
        text = HEADER + (
            "2\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0\t1\n"
            "2\t200\t.\tC\tT\t.\tPASS\t.\tGT\t1\t1\n"
            "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0\t1\n"
        )
        census = vcf_chromosome_census(io.StringIO(text))
        assert census == [("2", 2), ("1", 1)]

    def test_filtered_only_chromosome_counts_zero(self):
        # Chromosome 3 appears only through an indel and a multi-allelic
        # site: enumerable (the planner must see it to skip it), zero
        # usable records.
        text = HEADER + (
            "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0\t1\n"
            "3\t100\t.\tAT\tA\t.\tPASS\t.\tGT\t0\t1\n"
            "3\t200\t.\tC\tT,G\t.\tPASS\t.\tGT\t0\t1\n"
        )
        census = vcf_chromosome_census(io.StringIO(text))
        assert census == [("1", 1), ("3", 0)]

    def test_census_from_path(self, tmp_path):
        path = tmp_path / "two.vcf"
        path.write_text(TestChromosomeHandling.TWO_CHROM)
        assert vcf_chromosome_census(str(path)) == [("1", 1), ("2", 1)]

    def test_interleaved_blocks_rejected(self):
        text = HEADER + (
            "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0\t1\n"
            "2\t200\t.\tC\tT\t.\tPASS\t.\tGT\t1\t0\n"
            "1\t300\t.\tA\tC\t.\tPASS\t.\tGT\t0\t1\n"
        )
        with pytest.raises(DataFormatError, match="out of order"):
            vcf_chromosome_census(io.StringIO(text))


# ------------------------------------------------------------------ #
# batch decoder against a record-at-a-time reference
# ------------------------------------------------------------------ #


def _reference_records(text):
    """The per-call loop the batch decoder replaced, on single-chromosome
    input. Returns the positions and calls of every usable record before
    the first bad one, and that record's error message (``None`` when
    every record is good)."""
    positions, calls = [], []
    n_samples = n_haplotypes = None
    try:
        for line in text.split("\n"):
            if not line or line.startswith("##"):
                continue
            fields = line.split("\t")
            if line.startswith("#CHROM"):
                n_samples = len(fields) - 9
                continue
            if len(fields) != 9 + n_samples:
                raise DataFormatError(
                    f"record has {len(fields)} fields, expected "
                    f"{9 + n_samples}"
                )
            pos_s, ref, alt, fmt = fields[1], fields[3], fields[4], fields[8]
            if len(ref) != 1 or len(alt) != 1:  # indel or multi-allelic
                continue
            if fmt.split(":")[0] != "GT":
                raise DataFormatError(f"FORMAT must lead with GT, got {fmt!r}")
            if not pos_s.isdigit():
                raise DataFormatError(f"bad POS {pos_s!r}")
            record, ploidy = [], None
            for entry in fields[9:]:
                alleles = entry.split(":", 1)[0].replace("|", "/").split("/")
                if ploidy is None:
                    ploidy = len(alleles)
                elif len(alleles) != ploidy:
                    raise DataFormatError(
                        f"mixed ploidy within record at pos {pos_s}"
                    )
                for a in alleles:
                    if a == ".":
                        record.append(int(MISSING))
                    elif a in ("0", "1"):
                        record.append(int(a))
                    else:
                        raise DataFormatError(
                            f"unsupported allele index {a!r} in biallelic "
                            f"record at pos {pos_s}"
                        )
            if n_haplotypes is None:
                n_haplotypes = len(record)
            elif len(record) != n_haplotypes:
                raise DataFormatError(f"inconsistent ploidy at pos {pos_s}")
            positions.append(float(int(pos_s)))
            calls.append(record)
    except DataFormatError as exc:
        return positions, calls, str(exc)
    return positions, calls, None


def _decoded_records(text, budget):
    """What :func:`iter_vcf_batches` yields before its first error, in the
    shape :func:`_reference_records` returns, at a batch byte budget."""
    positions, calls, error = [], [], None
    with mock.patch.object(vcf_module, "_BATCH_BYTES", budget):
        try:
            for pos, block in iter_vcf_batches(io.StringIO(text)):
                assert block.dtype == np.uint8
                assert block.shape == (block.shape[0], pos.size)
                positions.extend(pos.tolist())
                calls.extend(block.T.tolist())
        except DataFormatError as exc:
            error = str(exc)
    return positions, calls, error


_SITE_KINDS = {"snp": ("A", "G"), "indel": ("AT", "A"), "multi": ("A", "G,T")}


@st.composite
def _vcf_records(draw):
    """Single-chromosome records: haploid to triploid calls, ``|`` and
    ``/``, missing calls, ``GT:DP`` subfields, and indel and
    multi-allelic lines between the SNPs."""
    ploidy = draw(st.integers(1, 3))
    n_samples = draw(st.integers(1, 4))
    fmt = draw(st.sampled_from(["GT", "GT:DP"]))
    records, pos = [], 0
    for _ in range(draw(st.integers(1, 16))):
        pos += draw(st.integers(0, 3))
        ref, alt = _SITE_KINDS[
            draw(st.sampled_from(["snp", "snp", "snp", "indel", "multi"]))
        ]
        gts = []
        for _s in range(n_samples):
            alleles = draw(
                st.lists(
                    st.sampled_from("01."), min_size=ploidy, max_size=ploidy
                )
            )
            gt = draw(st.sampled_from("|/")).join(alleles)
            gts.append(gt + ":7" if fmt == "GT:DP" else gt)
        records.append(["1", str(pos), ".", ref, alt, ".", "PASS", ".", fmt,
                        *gts])
    return records


def _inject(record, defect):
    """Apply one defect to a record (a list of its fields), in place."""
    if defect == "allele":  # a multi-character allele
        record[9] = "10" + record[9][1:]
    elif defect == "mixed":  # one call gains an allele
        record[-1] = "0|" + record[-1]
    elif defect == "ploidy":  # every call gains an allele
        record[9:] = ["0/" + gt for gt in record[9:]]
    elif defect == "pos":
        record[1] = "+5"
    elif defect == "format":
        record[8] = "DP:GT"
    elif defect == "fields":
        record.append("0")


_DEFECTS = ["allele", "mixed", "ploidy", "pos", "format", "fields"]


def _document(records):
    n_samples = len(records[0]) - 9
    names = "\t".join(f"s{k}" for k in range(n_samples))
    return (
        "##fileformat=VCFv4.2\n"
        f"#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\t{names}\n"
        + "".join("\t".join(rec) + "\n" for rec in records)
    )


class TestBatchDecoderParity:
    """The batch decoder yields the records the per-call loop accepts and
    raises its message for the same first bad record, whatever the batch
    byte budget cuts."""

    @given(
        _vcf_records(),
        st.lists(st.tuples(st.sampled_from(_DEFECTS), st.integers(0, 15)),
                 max_size=2),
        st.one_of(st.integers(1, 64), st.just(32 * 1024)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, records, defects, budget):
        for defect, index in defects:
            _inject(records[index % len(records)], defect)
        text = _document(records)
        assert _decoded_records(text, budget) == _reference_records(text)

    # Three 4-sample diploid SNP records of 15 bytes of GT text per batch.
    _RECORD_TEXT = 4 * 3 + 3

    @pytest.mark.parametrize("defect", _DEFECTS)
    @pytest.mark.parametrize("index", [3, 5], ids=["first", "last"])
    def test_defect_at_batch_edge(self, defect, index):
        records = [
            ["1", str(10 * k), ".", "A", "G", ".", "PASS", ".", "GT",
             "0|1", "1|1", ".|0", "0/0"]
            for k in range(1, 10)
        ]
        _inject(records[index], defect)
        text = _document(records)
        expected = _reference_records(text)
        assert expected[2] is not None
        got = _decoded_records(text, 3 * self._RECORD_TEXT)
        assert got == expected

    @pytest.mark.parametrize("defect", _DEFECTS)
    @pytest.mark.parametrize("structural", ["fields", "format", "pos"])
    def test_defect_after_structural_error_in_batch(self, defect, structural):
        records = [
            ["1", str(10 * k), ".", "A", "G", ".", "PASS", ".", "GT",
             "0|1", "1|1", ".|0", "0/0"]
            for k in range(1, 7)
        ]
        _inject(records[1], structural)
        _inject(records[2], defect)
        text = _document(records)
        got = _decoded_records(text, 6 * self._RECORD_TEXT)
        assert got == _reference_records(text)
        assert got[0] == [10.0]  # the record before the structural error


# ------------------------------------------------------------------ #
# bytes on disk: line endings and non-ASCII text
# ------------------------------------------------------------------ #

_TWO_CHROM_DIPLOID = (
    "##fileformat=VCFv4.2\n"
    "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\ts2\ts3\n"
    "1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0|1\t1|1\t0|0\n"
    "1\t100\t.\tA\tT\t.\tPASS\t.\tGT\t1|0\t.|1\t0|1\n"
    "1\t150\t.\tAT\tA\t.\tPASS\t.\tGT\t0|1\t1|1\t0|0\n"
    "1\t200\t.\tC\tT\t.\tPASS\t.\tGT:DP\t1|0:3\t0|0:2\t1|1:9\n"
    "2\t50\t.\tG\tA\t.\tPASS\t.\tGT\t0/1\t1/0\t./.\n"
    "2\t70\t.\tG\tC\t.\tPASS\t.\tGT\t1/1\t0/0\t0/1\n"
)


def _file_views(path):
    """Everything the three path-taking entry points read from a VCF."""
    out = {"census": enumerate_chromosomes(path, format="vcf")}
    for info in out["census"]:
        masked = parse_vcf(path, chromosome=info.name)
        reader = StreamingAlignmentReader(
            path, format="vcf", chromosome=info.name
        )
        windows = [
            (w.matrix.tolist(), w.positions.tolist())
            for w in reader.windows([(0, 1), (0, reader.n_sites)])
        ]
        out[info.name] = (
            masked.matrix.tolist(), masked.positions.tolist(), masked.length,
            reader.positions.tolist(), reader.n_samples, reader.length,
            windows,
        )
    return out


class TestBytesOnDisk:
    def test_crlf_file_parses_like_lf_twin(self, tmp_path):
        lf, crlf = tmp_path / "lf.vcf", tmp_path / "crlf.vcf"
        lf.write_bytes(_TWO_CHROM_DIPLOID.encode("ascii"))
        crlf.write_bytes(
            _TWO_CHROM_DIPLOID.replace("\n", "\r\n").encode("ascii")
        )
        assert b"\r\n" in crlf.read_bytes()
        assert _file_views(str(crlf)) == _file_views(str(lf))

    def test_non_ascii_meta_line_parses(self, tmp_path):
        plain, utf8 = tmp_path / "plain.vcf", tmp_path / "utf8.vcf"
        plain.write_bytes(_TWO_CHROM_DIPLOID.encode("ascii"))
        utf8.write_bytes(
            ("##source=pipeline by søren\n" + _TWO_CHROM_DIPLOID).encode()
        )
        assert _file_views(str(utf8)) == _file_views(str(plain))

    def test_non_ascii_sample_name_parses(self, tmp_path):
        plain, utf8 = tmp_path / "plain.vcf", tmp_path / "utf8.vcf"
        plain.write_bytes(_TWO_CHROM_DIPLOID.encode("ascii"))
        utf8.write_bytes(
            _TWO_CHROM_DIPLOID.replace("\ts2\t", "\tsøren\t").encode()
        )
        assert _file_views(str(utf8)) == _file_views(str(plain))

    @pytest.mark.parametrize(
        "old, new",
        [("\t.\tPASS\t.\tGT:DP", "\t.\tPASS\tNOTE=ø\tGT:DP"),
         ("\t1|1\t0|0\n", "\t1|1\t0|ø\n")],
        ids=["info", "genotype"],
    )
    def test_non_ascii_data_column_rejected(self, tmp_path, old, new):
        path = tmp_path / "bad.vcf"
        path.write_bytes(_TWO_CHROM_DIPLOID.replace(old, new, 1).encode())
        with pytest.raises(DataFormatError, match="non-ASCII"):
            parse_vcf(str(path), chromosome="1")
        with pytest.raises(DataFormatError, match="non-ASCII"):
            StreamingAlignmentReader(str(path), format="vcf", chromosome="1")
        with pytest.raises(DataFormatError, match="non-ASCII"):
            enumerate_chromosomes(str(path), format="vcf")
