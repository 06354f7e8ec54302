"""End-to-end tests for the omegascan CLI."""

import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets.msformat import parse_ms


@pytest.fixture
def sweep_ms(tmp_path):
    """Simulate a small sweep dataset via the CLI itself."""
    out = str(tmp_path / "sweep.ms")
    rc = main([
        "simulate", "sweep", "--samples", "25", "--theta", "120",
        "--length", "500000", "--seed", "7", "-o", out,
    ])
    assert rc == 0
    return out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scan_requires_maxwin(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scan", "x.ms"])

    def test_platform_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["accel", "x.ms", "--platform", "tpu", "--maxwin", "1"]
            )


class TestSimulate:
    def test_neutral_writes_parseable_ms(self, tmp_path):
        out = str(tmp_path / "n.ms")
        rc = main([
            "simulate", "neutral", "--samples", "12", "--theta", "15",
            "--rho", "10", "--length", "50000", "--seed", "3", "-o", out,
        ])
        assert rc == 0
        reps = parse_ms(out, length=50000)
        assert reps[0].alignment.n_samples == 12

    def test_multiple_replicates(self, tmp_path):
        out = str(tmp_path / "m.ms")
        rc = main([
            "simulate", "neutral", "--samples", "8", "--theta", "10",
            "--replicates", "3", "--seed", "1", "-o", out,
        ])
        assert rc == 0
        assert len(parse_ms(out, length=1e6)) == 3

    def test_sweep_dataset(self, sweep_ms):
        reps = parse_ms(sweep_ms, length=500000)
        assert reps[0].alignment.n_sites > 50


class TestScan:
    def test_scan_stdout(self, sweep_ms, capsys):
        rc = main([
            "scan", sweep_ms, "--length", "500000", "--grid", "11",
            "--maxwin", "200000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("position")
        assert len(lines) == 12

    def test_scan_to_file(self, sweep_ms, tmp_path):
        report = str(tmp_path / "report.tsv")
        rc = main([
            "scan", sweep_ms, "--length", "500000", "--grid", "7",
            "--maxwin", "200000", "-o", report,
        ])
        assert rc == 0
        assert os.path.exists(report)
        with open(report) as fh:
            assert len(fh.read().strip().splitlines()) == 8

    def test_scan_workers_match_single(self, sweep_ms, tmp_path):
        a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        main(["scan", sweep_ms, "--length", "500000", "--grid", "9",
              "--maxwin", "200000", "-o", a])
        main(["scan", sweep_ms, "--length", "500000", "--grid", "9",
              "--maxwin", "200000", "--workers", "2", "-o", b])
        assert open(a).read() == open(b).read()

    def test_bad_replicate_index(self, sweep_ms, capsys):
        rc = main([
            "scan", sweep_ms, "--length", "500000", "--grid", "5",
            "--maxwin", "200000", "--replicate", "9",
        ])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("stream", [False, True])
    def test_non_ascii_input(self, sweep_ms, tmp_path, capsys, stream):
        bad = tmp_path / "bad.ms"
        with open(sweep_ms, "rb") as fh:
            data = bytearray(fh.read())
        data[data.rindex(b"\n", 0, len(data) - 1) + 3] = 0xE9
        bad.write_bytes(bytes(data))
        argv = ["scan", str(bad), "--length", "500000", "--grid", "5",
                "--maxwin", "200000"]
        if stream:
            argv += ["--stream", "--snp-budget", "100000"]
        rc = main(argv)
        assert rc == 2
        assert "error: ms input is not ASCII" in capsys.readouterr().err


class TestAccel:
    @pytest.mark.parametrize(
        "platform", ["gpu-k80", "gpu-hd8750m", "fpga-zcu102", "fpga-u200"]
    )
    def test_accel_platforms(self, sweep_ms, capsys, platform):
        rc = main([
            "accel", sweep_ms, "--platform", platform, "--length",
            "500000", "--grid", "7", "--maxwin", "200000",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("position")
        assert "modelled execution" in captured.err

    def test_accel_batching_same_report(self, sweep_ms, capsys):
        main(["accel", sweep_ms, "--platform", "gpu-k80", "--length",
              "500000", "--grid", "7", "--maxwin", "200000"])
        base = capsys.readouterr().out
        main(["accel", sweep_ms, "--platform", "gpu-k80", "--length",
              "500000", "--grid", "7", "--maxwin", "200000",
              "--batch", "4"])
        batched = capsys.readouterr().out
        assert base == batched

    def test_reproduce_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "r.md")
        rc = main(["reproduce", "-o", out])
        assert rc == 0
        with open(out) as fh:
            assert "Reproduction report" in fh.read()

    def test_accel_report_matches_cpu_scan(self, sweep_ms, capsys):
        main(["scan", sweep_ms, "--length", "500000", "--grid", "7",
              "--maxwin", "200000"])
        cpu_out = capsys.readouterr().out
        main(["accel", sweep_ms, "--platform", "fpga-u200", "--length",
              "500000", "--grid", "7", "--maxwin", "200000"])
        accel_out = capsys.readouterr().out
        assert cpu_out == accel_out


class TestInputFormats:
    def test_scan_fasta(self, tmp_path, capsys):
        import numpy as np

        rng = np.random.default_rng(0)
        bases = np.array(list("ACGT"))
        hapA = bases[rng.integers(0, 4, 300)]
        hapB = hapA.copy()
        flip = rng.random(300) < 0.3
        hapB[flip] = bases[rng.integers(0, 4, flip.sum())]
        lines = []
        for k in range(10):
            src = hapA if k < 5 else hapB
            noisy = src.copy()
            m = rng.random(300) < 0.02
            noisy[m] = bases[rng.integers(0, 4, m.sum())]
            lines.append(f">s{k}")
            lines.append("".join(noisy))
        path = str(tmp_path / "aln.fa")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        rc = main([
            "scan", path, "--format", "fasta", "--grid", "5",
            "--maxwin", "100",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 6

    def test_scan_vcf(self, tmp_path, capsys):
        from repro.datasets.generators import random_alignment
        from repro.datasets.missing import MaskedAlignment
        from repro.datasets.vcf import vcf_text

        aln = random_alignment(12, 80, seed=4)
        masked = MaskedAlignment(aln.matrix, aln.positions, aln.length)
        path = str(tmp_path / "data.vcf")
        with open(path, "w") as fh:
            fh.write(vcf_text(masked))
        rc = main([
            "scan", path, "--format", "vcf", "--length", str(aln.length),
            "--grid", "4", "--maxwin", str(aln.length / 3),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("position")


class TestLengthForwarding:
    """Regression: ``--length`` used to default to the ms sentinel 1.0
    and the VCF paths forwarded it only when ``> 1.0`` — silently
    replacing an explicit user value ``<= 1.0`` with the inferred
    last-variant length."""

    VCF = (
        "##fileformat=VCFv4.2\n"
        "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\ts2\n"
        "1\t0\t.\tA\tG\t.\tPASS\t.\tGT\t0|1\t1|0\n"
    )

    @pytest.fixture
    def tiny_vcf(self, tmp_path):
        path = str(tmp_path / "tiny.vcf")
        with open(path, "w") as fh:
            fh.write(self.VCF)
        return path

    def test_vcf_load_honours_sub_unit_length(self, tiny_vcf):
        from repro.cli import _load_alignment

        parser = build_parser()
        args = parser.parse_args([
            "scan", tiny_vcf, "--format", "vcf",
            "--length", "0.75", "--maxwin", "0.5",
        ])
        assert _load_alignment(args).length == 0.75

    def test_vcf_load_default_infers_from_last_variant(self, tiny_vcf):
        from repro.cli import _load_alignment

        parser = build_parser()
        args = parser.parse_args([
            "scan", tiny_vcf, "--format", "vcf", "--maxwin", "0.5",
        ])
        # Last POS is 0, so the inferred region length is 0 + 1.
        assert _load_alignment(args).length == 1.0

    def test_vcf_stream_source_honours_sub_unit_length(self, tiny_vcf):
        from repro.cli import _stream_source

        parser = build_parser()
        args = parser.parse_args([
            "scan", tiny_vcf, "--format", "vcf", "--length", "1.0",
            "--maxwin", "0.5", "--stream",
        ])
        assert _stream_source(args).length == 1.0
        args = parser.parse_args([
            "scan", tiny_vcf, "--format", "vcf",
            "--maxwin", "0.5", "--stream",
        ])
        assert _stream_source(args).length == 1.0  # inferred, 0 + 1

    def test_ms_default_stays_unit_length(self, sweep_ms):
        from repro.cli import _ms_length

        parser = build_parser()
        args = parser.parse_args([
            "scan", sweep_ms, "--maxwin", "0.3",
        ])
        assert args.length is None
        assert _ms_length(args) == 1.0
        args = parser.parse_args([
            "scan", sweep_ms, "--length", "500000", "--maxwin", "50000",
        ])
        assert _ms_length(args) == 500000.0

    def test_vcf_streamed_scan_with_explicit_length(self, tmp_path):
        from repro.datasets.generators import random_alignment
        from repro.datasets.missing import MaskedAlignment
        from repro.datasets.vcf import vcf_text

        aln = random_alignment(12, 80, seed=4)
        masked = MaskedAlignment(aln.matrix, aln.positions, aln.length)
        path = str(tmp_path / "data.vcf")
        with open(path, "w") as fh:
            fh.write(vcf_text(masked))
        base = [
            "scan", path, "--format", "vcf", "--length", str(aln.length),
            "--grid", "4", "--maxwin", str(aln.length / 3),
        ]
        mem, streamed = str(tmp_path / "mem.tsv"), str(tmp_path / "str.tsv")
        assert main(base + ["-o", mem]) == 0
        assert main(
            base + ["--stream", "--snp-budget", "60", "-o", streamed]
        ) == 0
        with open(mem) as a, open(streamed) as b:
            assert a.read() == b.read()


class TestAllReplicates:
    def test_writes_omegaplus_report(self, tmp_path):
        ms_path = str(tmp_path / "multi.ms")
        main([
            "simulate", "neutral", "--samples", "10", "--theta", "25",
            "--rho", "10", "--length", "100000", "--replicates", "3",
            "--seed", "1", "-o", ms_path,
        ])
        report = str(tmp_path / "OmegaPlus_Report.test")
        rc = main([
            "scan", ms_path, "--length", "100000", "--grid", "5",
            "--maxwin", "40000", "--all-replicates", "-o", report,
        ])
        assert rc == 0
        from repro.core.report_io import parse_report

        parsed = parse_report(report)
        assert len(parsed) == 3
        assert parsed[0]["positions"].shape == (5,)

    def test_all_replicates_requires_ms(self, tmp_path, capsys):
        fasta = str(tmp_path / "a.fa")
        with open(fasta, "w") as fh:
            fh.write(">a\nACGT\n>b\nACGA\n>c\nATGT\n")
        rc = main([
            "scan", fasta, "--format", "fasta", "--grid", "3",
            "--maxwin", "2.0", "--all-replicates",
        ])
        assert rc == 2
        assert "requires ms" in capsys.readouterr().err


class TestSumstats:
    def test_sumstats_output(self, sweep_ms, capsys):
        rc = main([
            "sumstats", sweep_ms, "--length", "500000",
            "--window", "100000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("start\t")
        assert len(lines) > 3
        # every data row parses to numbers
        for row in lines[1:]:
            fields = row.split("\t")
            assert len(fields) == 7
            float(fields[3])


class TestFigures:
    def test_figures_print_all_series(self, capsys):
        rc = main(["figures", "--grid", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        for token in ("Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13"):
            assert token in out
        assert "Gscores/s" in out and "Mscores/s" in out


class TestTables:
    def test_tables_print_all_four(self, capsys):
        rc = main(["tables"])
        assert rc == 0
        out = capsys.readouterr().out
        for token in ("Table I", "Table II", "Table III", "Table IV"):
            assert token in out
        assert "ZCU102" in out
        assert "balanced" in out


class TestScanStream:
    def test_stream_matches_in_memory(self, sweep_ms, tmp_path, capsys):
        a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        base = ["scan", sweep_ms, "--length", "500000", "--grid", "9",
                "--maxwin", "50000"]
        assert main(base + ["-o", a]) == 0
        capsys.readouterr()
        rc = main(base + ["--stream", "--snp-budget", "400", "-o", b])
        assert rc == 0
        assert open(a).read() == open(b).read()
        err = capsys.readouterr().err
        assert "peak memory" in err

    def test_stream_parallel_matches_in_memory(self, sweep_ms, tmp_path):
        a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        base = ["scan", sweep_ms, "--length", "500000", "--grid", "9",
                "--maxwin", "50000", "--workers", "2"]
        assert main(base + ["-o", a]) == 0
        assert main(base + ["--stream", "--snp-budget", "700", "-o", b]) == 0
        assert open(a).read() == open(b).read()

    def test_stream_budget_undershoot_reports_minimum(
        self, sweep_ms, capsys
    ):
        rc = main([
            "scan", sweep_ms, "--length", "500000", "--grid", "9",
            "--maxwin", "50000", "--stream", "--snp-budget", "2",
        ])
        assert rc == 2
        assert "widest omega region" in capsys.readouterr().err

    def test_stream_rejects_fasta(self, tmp_path, capsys):
        path = str(tmp_path / "x.fa")
        with open(path, "w") as fh:
            fh.write(">s1\nACGT\n>s2\nACGA\n")
        rc = main([
            "scan", path, "--format", "fasta", "--maxwin", "2",
            "--stream",
        ])
        assert rc == 2
        assert "ms and vcf" in capsys.readouterr().err

    def test_stream_rejects_all_replicates(self, sweep_ms, capsys):
        rc = main([
            "scan", sweep_ms, "--length", "500000", "--maxwin", "50000",
            "--stream", "--all-replicates",
        ])
        assert rc == 2
        assert "one replicate" in capsys.readouterr().err


class TestLazyImports:
    def test_cli_import_leaves_engines_simulator_and_service_unloaded(self):
        """``import repro.cli`` (every ``scan``, ``shard-scan`` and
        ``serve`` process) loads no accelerator engine or device table,
        no simulator and no service module; the subcommands that use
        them import them."""
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys, repro.cli\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith("
            "('repro.accel.gpu', 'repro.accel.fpga', 'repro.simulate', "
            "'repro.service')))))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == []
