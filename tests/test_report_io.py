"""Tests for OmegaPlus-compatible report I/O."""

import io

import numpy as np
import pytest

from repro.core.report_io import (
    REPORT_VERSION,
    parse_report,
    report_path,
    write_report,
)
from repro.core.scan import scan
from repro.datasets.generators import random_alignment
from repro.errors import DataFormatError


@pytest.fixture
def results():
    a = random_alignment(15, 60, seed=1)
    b = random_alignment(15, 50, seed=2)
    return [
        scan(a, grid_size=6, max_window=a.length / 3),
        scan(b, grid_size=4, max_window=b.length / 3),
    ]


class TestReportPath:
    def test_conventional_name(self):
        assert report_path("/tmp", "run1").endswith("OmegaPlus_Report.run1")

    def test_rejects_bad_name(self):
        with pytest.raises(DataFormatError):
            report_path("/tmp", "a/b")
        with pytest.raises(DataFormatError):
            report_path("/tmp", "")


class TestRoundTrip:
    def test_stream_roundtrip(self, results):
        buf = io.StringIO()
        write_report(results, buf)
        parsed = parse_report(io.StringIO(buf.getvalue()))
        assert len(parsed) == 2
        for res, rep in zip(results, parsed):
            np.testing.assert_allclose(
                rep["positions"], res.positions, atol=1e-3
            )
            np.testing.assert_allclose(rep["omegas"], res.omegas, atol=1e-5)

    def test_file_roundtrip(self, results, tmp_path):
        path = report_path(str(tmp_path), "testrun")
        write_report(results, path, run_name="testrun")
        parsed = parse_report(path)
        assert len(parsed) == 2

    def test_preamble_comment_ignored(self, results):
        buf = io.StringIO()
        write_report(results, buf, run_name="named")
        text = buf.getvalue()
        assert text.startswith("// OmegaPlus report")
        assert len(parse_report(io.StringIO(text))) == 2


class TestMetadataRoundTrip:
    """Format v2: TimeBreakdown + ReuseStats ride along in comments."""

    def test_v2_roundtrips_breakdown_and_reuse(self, results):
        buf = io.StringIO()
        write_report(results, buf)
        text = buf.getvalue()
        assert f"//!repro-report-version {REPORT_VERSION}" in text
        parsed = parse_report(io.StringIO(text))
        for res, rep in zip(results, parsed):
            assert rep["breakdown"].wall_seconds == (
                res.breakdown.wall_seconds
            )
            assert rep["breakdown"].totals == res.breakdown.totals
            assert rep["omega_subphases"].totals == (
                res.omega_subphases.totals
            )
            assert rep["reuse"] == res.reuse

    def test_v1_report_loads_with_none_sidecars(self, results):
        """Old reports (and the original tool's output) have no metadata
        lines; they parse with breakdown/reuse set to None."""
        buf = io.StringIO()
        write_report(results, buf, metadata=False)
        text = buf.getvalue()
        assert "//!" not in text and "//@" not in text
        parsed = parse_report(io.StringIO(text))
        for rep in parsed:
            assert rep["breakdown"] is None
            assert rep["omega_subphases"] is None
            assert rep["reuse"] is None

    def test_v2_is_v1_compatible(self, results):
        """Every metadata line is a comment to a v1 reader: the data
        lines of a v2 file are byte-identical to the v1 file."""
        v1, v2 = io.StringIO(), io.StringIO()
        write_report(results, v1, metadata=False)
        write_report(results, v2)
        def data_lines(text):
            return [
                ln for ln in text.splitlines() if not ln.startswith("//")
            ]

        assert data_lines(v2.getvalue()) == data_lines(v1.getvalue())
        added = set(v2.getvalue().splitlines()) - set(
            v1.getvalue().splitlines()
        )
        for line in added:
            # every addition is a comment whose marker cannot be
            # mistaken for a //k block start by a v1 parser
            assert line.startswith("//")
            assert not line[2:].strip().isdigit()

    def test_unknown_reuse_fields_are_ignored(self, results):
        """Forward compat: a newer writer may add ReuseStats fields."""
        buf = io.StringIO()
        write_report(results[:1], buf)
        text = buf.getvalue().replace(
            '"reuse":{', '"reuse":{"from_the_future":1,'
        )
        parsed = parse_report(io.StringIO(text))
        assert parsed[0]["reuse"] == results[0].reuse

    def test_report_with_the_earlier_anchor_counters_parses(self):
        """A report written before the DP anchor counters were renamed
        (``dp_anchor_allocs`` always equalled ``dp_builds``) still loads:
        the counters it shares with today's keep their values."""
        text = (
            "// OmegaPlus report (repro reproduction), run earlier\n"
            "//!repro-report-version 2\n"
            "//0\n"
            '//@ {"wall_seconds":0.00098,"phase_seconds":{"plan":0.00012,'
            '"ld":0.00027,"omega":0.00045},"omega_subphase_seconds":'
            '{"dp_build":0.00011},"reuse":{"entries_computed":441,'
            '"entries_reused":0,"regions_served":1,"dp_entries_computed":441,'
            '"dp_entries_reused":0,"dp_builds":1,"dp_anchor_allocs":1,'
            '"dp_anchor_span_total":42,"tile_entries_computed":0,'
            '"tile_entries_reused":0}}\n'
            "13.3242\t0.000000\n"
            "1438.2426\t1.887202\n"
        )
        (parsed,) = parse_report(io.StringIO(text))
        np.testing.assert_array_equal(parsed["omegas"], [0.0, 1.887202])
        reuse = parsed["reuse"]
        assert (reuse.entries_computed, reuse.dp_builds) == (441, 1)
        assert reuse.dp_entries_computed == 441
        assert parsed["breakdown"].wall_seconds == 0.00098

    def test_malformed_metadata_raises(self):
        with pytest.raises(DataFormatError, match="malformed"):
            parse_report(io.StringIO("//0\n//@ {not json\n1.0\t2.0\n"))

    def test_stray_metadata_before_first_block_ignored(self):
        parsed = parse_report(
            io.StringIO('//@ {"wall_seconds":1}\n//0\n1.0\t2.0\n')
        )
        assert len(parsed) == 1
        assert parsed[0]["breakdown"] is None


class TestParseErrors:
    def test_empty(self):
        with pytest.raises(DataFormatError, match="no replicate"):
            parse_report(io.StringIO(""))

    def test_data_before_block(self):
        with pytest.raises(DataFormatError, match="before the first"):
            parse_report(io.StringIO("100.0\t2.5\n"))

    def test_wrong_field_count(self):
        with pytest.raises(DataFormatError, match="position omega"):
            parse_report(io.StringIO("//0\n100.0\t2.5\t9\n"))

    def test_non_numeric(self):
        with pytest.raises(DataFormatError, match="non-numeric"):
            parse_report(io.StringIO("//0\nabc\tdef\n"))

    def test_write_empty_rejected(self):
        with pytest.raises(DataFormatError):
            write_report([], io.StringIO())
