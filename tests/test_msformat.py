"""Unit tests for repro.datasets.msformat."""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import msformat, streaming
from repro.datasets.alignment import SNPAlignment
from repro.datasets.generators import random_alignment
from repro.datasets.msformat import (
    locate_replicate,
    ms_text,
    open_ms,
    parse_ms,
    parse_ms_text,
    write_ms,
)
from repro.datasets.streaming import StreamingAlignmentReader
from repro.errors import DataFormatError

SIMPLE = """ms 4 1 -t 5.0
27473 31728 43326

//
segsites: 3
positions: 0.1717 0.2230 0.8750
001
010
110
010
"""


class TestParse:
    def test_simple(self):
        reps = parse_ms_text(SIMPLE)
        assert len(reps) == 1
        aln = reps[0].alignment
        assert aln.n_samples == 4
        assert aln.n_sites == 3
        np.testing.assert_array_equal(aln.matrix[2], [1, 1, 0])
        np.testing.assert_allclose(aln.positions, [0.1717, 0.2230, 0.8750])

    def test_length_scaling(self):
        reps = parse_ms_text(SIMPLE, length=10000.0)
        np.testing.assert_allclose(
            reps[0].alignment.positions, [1717.0, 2230.0, 8750.0]
        )
        assert reps[0].alignment.length == 10000.0

    def test_multiple_replicates(self):
        text = SIMPLE + "\n//\nsegsites: 1\npositions: 0.5\n1\n0\n1\n0\n"
        reps = parse_ms_text(text)
        assert len(reps) == 2
        assert reps[1].alignment.n_sites == 1
        assert reps[1].index == 1

    def test_zero_segsites(self):
        text = "ms 2 1\n1 2 3\n\n//\nsegsites: 0\n"
        reps = parse_ms_text(text)
        assert reps[0].alignment.n_sites == 0

    def test_duplicate_positions_nudged(self):
        text = "ms 2 1\n1 2 3\n\n//\nsegsites: 2\npositions: 0.5 0.5\n01\n10\n"
        reps = parse_ms_text(text)
        pos = reps[0].alignment.positions
        assert pos[1] > pos[0]

    def test_file_roundtrip(self, tmp_path):
        aln = random_alignment(6, 12, seed=5)
        path = str(tmp_path / "out.ms")
        write_ms([aln], path)
        back = parse_ms(path, length=aln.length)[0].alignment
        np.testing.assert_array_equal(back.matrix, aln.matrix)
        np.testing.assert_allclose(back.positions, aln.positions, atol=aln.length * 1e-5)

    def test_stream_roundtrip(self):
        aln = random_alignment(5, 8, seed=6)
        buf = io.StringIO()
        write_ms([aln], buf)
        back = parse_ms(io.StringIO(buf.getvalue()), length=aln.length)
        assert back[0].alignment.n_sites == 8


class TestParseErrors:
    def test_no_replicates(self):
        with pytest.raises(DataFormatError, match="no '//'"):
            parse_ms_text("ms 2 1\n1 2 3\n")

    def test_missing_segsites(self):
        with pytest.raises(DataFormatError, match="segsites"):
            parse_ms_text("//\npositions: 0.5\n0\n1\n")

    def test_malformed_segsites(self):
        with pytest.raises(DataFormatError, match="malformed segsites"):
            parse_ms_text("//\nsegsites: abc\n")

    def test_negative_segsites(self):
        with pytest.raises(DataFormatError, match="negative"):
            parse_ms_text("//\nsegsites: -1\n")

    def test_position_count_mismatch(self):
        with pytest.raises(DataFormatError, match="positions"):
            parse_ms_text("//\nsegsites: 2\npositions: 0.5\n01\n10\n")

    def test_positions_out_of_unit_interval(self):
        with pytest.raises(DataFormatError, match=r"\[0, 1\]"):
            parse_ms_text("//\nsegsites: 1\npositions: 1.5\n1\n0\n")

    def test_unsorted_positions(self):
        with pytest.raises(DataFormatError, match="sorted"):
            parse_ms_text("//\nsegsites: 2\npositions: 0.9 0.1\n01\n10\n")

    def test_haplotype_wrong_width(self):
        with pytest.raises(DataFormatError, match="length"):
            parse_ms_text("//\nsegsites: 2\npositions: 0.1 0.9\n011\n10\n")

    def test_haplotype_bad_chars(self):
        with pytest.raises(DataFormatError, match="other than 0/1"):
            parse_ms_text("//\nsegsites: 2\npositions: 0.1 0.9\n0x\n10\n")

    def test_no_haplotypes(self):
        with pytest.raises(DataFormatError, match="no haplotype"):
            parse_ms_text("//\nsegsites: 1\npositions: 0.5\n")

    def test_ends_after_separator(self):
        with pytest.raises(DataFormatError):
            parse_ms_text("//\n")


class TestWrite:
    def test_header_echo(self):
        aln = random_alignment(4, 5, seed=1)
        text = ms_text([aln], command="ms 4 1 -t 2.0", seeds=(9, 8, 7))
        lines = text.splitlines()
        assert lines[0] == "ms 4 1 -t 2.0"
        assert lines[1] == "9 8 7"

    def test_default_command(self):
        aln = random_alignment(4, 5, seed=1)
        assert ms_text([aln]).startswith("ms 4 1")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ms_text([])

    def test_multi_replicate_blocks(self):
        a = random_alignment(4, 5, seed=1)
        b = random_alignment(4, 7, seed=2)
        text = ms_text([a, b])
        assert text.count("//") == 2
        assert "segsites: 5" in text and "segsites: 7" in text


@st.composite
def _lattice_alignments(draw):
    """Alignments whose positions sit on the 6-decimal fraction lattice
    that ``ms_text`` emits, so round trips can demand bitwise equality."""
    n_samples = draw(st.integers(1, 8))
    lattice = sorted(
        draw(
            st.lists(
                st.integers(0, 999999), min_size=1, max_size=25, unique=True
            )
        )
    )
    n_sites = len(lattice)
    rows = [
        draw(st.lists(st.integers(0, 1), min_size=n_sites, max_size=n_sites))
        for _ in range(n_samples)
    ]
    return SNPAlignment(
        matrix=np.array(rows, dtype=np.uint8),
        positions=np.array(lattice, dtype=np.float64) / 1e6,
        length=1.0,
    )


class TestRoundTripFuzz:
    """``ms_text`` -> ``parse_ms_text`` recovers genotypes and positions
    exactly — the equality is bitwise, not approximate, which is what
    lets the streaming reader index a file it did not write."""

    @given(_lattice_alignments())
    @settings(max_examples=60, deadline=None)
    def test_exact_recovery(self, aln):
        text = ms_text([aln])
        back = parse_ms_text(text, length=1.0)[0].alignment
        np.testing.assert_array_equal(back.matrix, aln.matrix)
        np.testing.assert_array_equal(back.positions, aln.positions)
        assert back.length == aln.length


# ---------------------------------------------------------------------- #
# fixed-width rows against the line parser
# ---------------------------------------------------------------------- #


def _line_parse(lines):
    """The line parser alone: what parse_ms falls back to."""
    return msformat._parse_lines(
        [ln.rstrip("\n") for ln in lines], length=1.0
    )


def _line_parse_path(path):
    with open_ms(str(path)) as fh:
        return _line_parse(fh)


def _assert_same_replicates(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.index == b.index
        assert a.alignment.matrix.dtype == b.alignment.matrix.dtype
        np.testing.assert_array_equal(a.alignment.matrix, b.alignment.matrix)
        np.testing.assert_array_equal(
            a.alignment.positions, b.alignment.positions
        )
        assert a.alignment.length == b.alignment.length


def _outcome(parse):
    """The replicates ``parse`` returns, or its DataFormatError message."""
    try:
        return parse()
    except DataFormatError as exc:
        return str(exc)


def _assert_same_outcome(parse, reference):
    got, want = _outcome(parse), _outcome(reference)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        _assert_same_replicates(got, want)


def _is_row(line):
    cells = line.rstrip("\r")
    return bool(cells) and set(cells) <= {"0", "1"}


#: Renderings of the same replicates, and whether the fixed-width reader
#: takes them (the others go through the line parser). Mixed line ends
#: have a layout when every replicate has a single row.
_STYLES = {"lf": True, "crlf": True, "gaps": True, "padded": False,
           "open": False, "mixed": None, "cr": False}


def _render(lf_text, style):
    """``ms_text`` output re-rendered: CRLF line ends, blank lines before
    every ``//``, rows padded with blanks, no newline after the last row,
    LF and CRLF line ends in turn, or lone-CR line ends."""
    lines = lf_text.split("\n")
    if style == "crlf":
        return "\r\n".join(lines)
    if style == "mixed":
        return "".join(
            ln + ("\r\n" if k % 2 else "\n") for k, ln in enumerate(lines)
        )[:-1]
    if style == "cr":
        return "\r".join(lines)
    if style == "gaps":
        return "\n".join("\n \t\n" + ln if ln == "//" else ln for ln in lines)
    if style == "padded":
        return "\n".join(ln + " " if _is_row(ln) else ln for ln in lines)
    if style == "open":
        return lf_text.rstrip("\n")
    return lf_text


@st.composite
def _replicate_sets(draw):
    """One to three replicates of 1-40 sites and 1, 63, 64 or 65
    haplotypes: the row search reads batches of 1, 2, 4, ... rows, so
    63 rows end exactly on a batch boundary."""
    n_rows = draw(st.sampled_from([1, 63, 64, 65]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sites = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    return [
        SNPAlignment(
            matrix=rng.integers(0, 2, (n_rows, n), dtype=np.uint8),
            positions=np.sort(rng.choice(10**6, n, replace=False)) / 1e6,
            length=1.0,
        )
        for n in sites
    ]


def _monotone_windows(data, n_sites):
    """Random ranges with non-decreasing ends, as the chunk pass takes."""
    cuts = sorted(
        data.draw(
            st.lists(st.integers(0, n_sites), min_size=2, max_size=8)
            .filter(lambda c: len(c) % 2 == 0),
            label="cuts",
        )
    )
    half = len(cuts) // 2
    return list(zip(cuts[:half], cuts[half:]))


def _assert_stream_reads(reader, want, ranges):
    np.testing.assert_array_equal(reader.positions, want.positions)
    assert reader.n_samples == want.n_samples
    for (lo, hi), chunk in zip(ranges, reader.windows(ranges)):
        np.testing.assert_array_equal(chunk.matrix, want.matrix[:, lo:hi])
        np.testing.assert_array_equal(chunk.positions, want.positions[lo:hi])


class TestRowPathsAgree:
    """Every rendering of the same replicates reads as the LF rendering
    does through the line parser, on every route: ``parse_ms`` of a
    path, ``parse_ms_text``, and the streaming reader's index and chunk
    passes from a path and from text. Regular renderings must take the
    fixed-width reader; the others must fall back to the line parser."""

    @given(_replicate_sets(), st.sampled_from(sorted(_STYLES)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_routes_read_the_lf_bytes(
        self, tmp_path_factory, alignments, style, data
    ):
        lf = ms_text(alignments)
        want = _line_parse(io.StringIO(lf))
        text = _render(lf, style)
        path = tmp_path_factory.mktemp("ms") / "in.ms"
        path.write_bytes(text.encode("ascii"))
        # A string splits lines at LF only, so lone CRs join its lines.
        sources = [{"path": str(path)}] + ([] if style == "cr" else [
            {"text": text}
        ])
        regular = _STYLES[style]
        if regular is None:
            regular = want[0].alignment.n_samples == 1
        with mock.patch.object(
            msformat, "_parse_lines", wraps=msformat._parse_lines
        ) as lines:
            _assert_same_replicates(parse_ms(str(path)), want)
            if style == "cr":
                _assert_same_outcome(
                    lambda: parse_ms_text(text),
                    lambda: _line_parse(io.StringIO(text)),
                )
            else:
                _assert_same_replicates(parse_ms_text(text), want)
        assert lines.called != regular
        for r, rep in enumerate(want):
            ranges = _monotone_windows(data, rep.alignment.n_sites)
            for source in sources:
                reader = StreamingAlignmentReader(
                    **source, format="ms", replicate=r
                )
                _assert_stream_reads(reader, rep.alignment, ranges)
            with open(path, "rb") as fh:
                found = locate_replicate(fh, r)
            before_open_end = style == "open" and r < len(want) - 1
            assert (found is not None) == (regular or before_open_end)

    @given(
        _replicate_sets(),
        st.sampled_from(["lf", "crlf"]),
        st.sampled_from(["short", "long", "2", "x", " ", "\t"]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_defects_read_as_the_line_parser_reads_them(
        self, tmp_path_factory, alignments, style, defect, data
    ):
        """A ragged row or a bad character: the same DataFormatError
        message (or, where a blank ends the row block early, the same
        replicates) as the line parser gives."""
        lines = _render(ms_text(alignments), style).split("\n")
        i = data.draw(
            st.sampled_from([i for i, ln in enumerate(lines) if _is_row(ln)]),
            label="row",
        )
        row = lines[i].rstrip("\r")
        if defect == "short":
            new = row[:-1]
        elif defect == "long":
            new = row + "0"
        else:
            k = data.draw(st.integers(0, len(row) - 1), label="cell")
            new = row[:k] + defect + row[k + 1 :]
        lines[i] = new + lines[i][len(row) :]
        text = "\n".join(lines)
        path = tmp_path_factory.mktemp("ms") / "in.ms"
        path.write_bytes(text.encode("ascii"))
        _assert_same_outcome(
            lambda: parse_ms(str(path)), lambda: _line_parse_path(path)
        )
        _assert_same_outcome(
            lambda: parse_ms_text(text),
            lambda: _line_parse(io.StringIO(text)),
        )
        r = sum(ln.strip() == "//" for ln in lines[:i]) - 1

        def stream():
            reader = StreamingAlignmentReader(
                str(path), format="ms", replicate=r
            )
            chunk = next(reader.windows([(0, reader.n_sites)]))
            return [msformat.MsReplicate(alignment=chunk, index=r)]

        with mock.patch.object(
            streaming, "locate_replicate", return_value=None
        ):
            want = _outcome(stream)
        _assert_same_outcome(stream, lambda: want)


    def test_lone_cr_in_a_header_line(self, tmp_path):
        """A path splits lines at a lone CR, a string does not: here the
        path has two replicates and the string one, and each route must
        read what its line parser reads."""
        text = (
            "x\r//\nsegsites: 1\npositions: 0.5\n1\n\n"
            "//\nsegsites: 1\npositions: 0.5\n0\n"
        )
        path = tmp_path / "in.ms"
        path.write_bytes(text.encode("ascii"))
        assert len(parse_ms(str(path))) == 2
        _assert_same_replicates(parse_ms(str(path)), _line_parse_path(path))
        assert len(parse_ms_text(text)) == 1
        _assert_same_replicates(
            parse_ms_text(text), _line_parse(io.StringIO(text))
        )


    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_blank_first_row_means_no_rows(self, tmp_path, newline):
        """A whitespace-only first row as wide as a row ends the row
        block before it starts."""
        text = "//\nsegsites: 2\npositions: 0.1 0.2\n  \n01\n".replace(
            "\n", newline
        )
        path = tmp_path / "in.ms"
        path.write_bytes(text.encode("ascii"))
        for parse in (lambda: parse_ms(str(path)), lambda: parse_ms_text(text)):
            with pytest.raises(DataFormatError, match="no haplotype rows"):
                parse()


_ROWS_PER_BATCH = 4


class TestBatchBoundaries:
    """Row counts around multiples of the rows per batch, with the batch
    constant made small, and a row wider than the whole buffer."""

    N_SITES = 9

    def _check(self, tmp_path, text, n_reps):
        path = tmp_path / "in.ms"
        path.write_bytes(text.encode("ascii"))
        want = _line_parse_path(path)
        with mock.patch.object(
            msformat, "_parse_lines", side_effect=AssertionError
        ):
            _assert_same_replicates(parse_ms(str(path)), want)
        for r in range(n_reps):
            aln = want[r].alignment
            reader = StreamingAlignmentReader(
                str(path), format="ms", replicate=r
            )
            n = aln.n_sites
            _assert_stream_reads(reader, aln, [(0, 3), (2, n), (n, n)])

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize(
        "n_rows",
        [k * _ROWS_PER_BATCH + d for k in (1, 2, 3) for d in (-1, 0, 1)],
    )
    def test_rows_around_batch_multiples(
        self, tmp_path, monkeypatch, n_rows, newline
    ):
        stride = self.N_SITES + len(newline)
        monkeypatch.setattr(
            msformat, "_BATCH_BYTES", _ROWS_PER_BATCH * stride
        )
        reps = [
            random_alignment(n_rows, self.N_SITES, seed=n_rows + k)
            for k in range(2)
        ]
        text = ms_text(reps).replace("\n", newline)
        self._check(tmp_path, text, len(reps))

    def test_row_wider_than_the_buffer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(msformat, "_BATCH_BYTES", 16)
        reps = [random_alignment(5, 40, seed=k) for k in range(2)]
        self._check(tmp_path, ms_text(reps), len(reps))


class TestNonAscii:
    """A non-ASCII byte in an ms file is a DataFormatError, whichever
    route reads it."""

    def _write(self, tmp_path, text, at):
        data = bytearray(text.encode("ascii"))
        data[data.index(at.encode("ascii"))] = 0xE9
        path = tmp_path / "in.ms"
        path.write_bytes(bytes(data))
        return str(path)

    @pytest.mark.parametrize("at", ["110", "27473", "segsites"])
    def test_parse_ms(self, tmp_path, at):
        path = self._write(tmp_path, SIMPLE, at)
        with pytest.raises(DataFormatError, match="not ASCII.*0xe9"):
            parse_ms(path)

    def test_padded_rows(self, tmp_path):
        # Padded rows have no layout: the line parser reads the byte.
        path = self._write(tmp_path, SIMPLE.replace("110\n", "110 \n"), "110")
        with pytest.raises(DataFormatError, match="not ASCII"):
            parse_ms(path)
