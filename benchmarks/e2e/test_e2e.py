"""Tests of the end-to-end benchmark's own machinery.

Run from the repository root::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import compare  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from repro.core.results import ScanResult  # noqa: E402


def test_one_seed_gives_byte_identical_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        runs = []
        for label, seed in (("a", 5), ("b", 5), ("c", 6)):
            out = tmp_path / f"{name}-{label}"
            out.mkdir()
            runs.append(workloads.make_inputs(name, seed, str(out)))
        a, b, c = runs
        assert a.sha256 == b.sha256
        for fa, fb in zip(a.files, b.files):
            assert Path(fa).read_bytes() == Path(fb).read_bytes()
        assert a.requests == b.requests
        assert c.sha256 != a.sha256


def test_vcf_writer_round_trips_missing_calls():
    rng = np.random.default_rng(3)
    chrom = gen.vcf_chromosome(rng, "chrX", n_samples=5, n_sites=40,
                               length=1000, missing_rate=0.2)
    lines = gen.vcf_bytes([chrom]).decode().splitlines()
    rows = [ln.split("\t") for ln in lines if not ln.startswith("#")]
    assert len(rows) == 40
    for site, row in enumerate(rows):
        assert int(row[1]) == chrom.positions[site]
        for s, gt in enumerate(row[9:]):
            if chrom.missing[s, site]:
                assert gt == ".|."
            else:
                assert gt == (f"{chrom.hap[2 * s, site]}|"
                              f"{chrom.hap[2 * s + 1, site]}")


def _span(sid, parent, start, end, pid=1, tid=1, layer="scan"):
    return {"id": sid, "parent": parent, "name": sid, "layer": layer,
            "start": start, "end": end, "pid": pid, "tid": tid}


def test_self_time_subtracts_the_union_of_same_thread_children():
    spans = [
        _span("p", None, 0, 100),
        _span("c1", "p", 10, 30, layer="ld_fill"),
        _span("c2", "p", 20, 50, layer="ld_fill"),  # overlaps c1
        _span("g", "c1", 12, 14, layer="omega"),
        _span("t", "p", 60, 70, tid=2),  # another thread
        _span("w", "p", 0, 80, pid=2),  # a forked worker
    ]
    st = layers.self_times(spans)
    assert st["p"] == 100 - 40
    assert st["c1"] == 20 - 2
    assert st["c2"] == 30
    assert st["t"] == 10 and st["w"] == 80
    table = layers.layer_table(spans, main_pid=1, main_tid=1)
    assert table["main_self_s"]["scan"] == pytest.approx(60e-9)
    assert table["self_s"]["scan"] == pytest.approx((60 + 10 + 80) * 1e-9)
    assert table["worker_busy_s"] == pytest.approx(80e-9)


def test_recorder_nests_counts_and_follows_forks(tmp_path):
    rec = layers.SpanRecorder(str(tmp_path))
    outer = rec.begin("outer", "sched_start")
    inner = rec.begin("inner", "omega")
    time.sleep(0.01)
    rec.end(inner, {"evaluations": 5})
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        child = rec.begin("child", "scan")
        rec.end(child)
        os._exit(0)
    os.waitpid(pid, 0)
    rec.end(outer)
    spans = layers.load_spans(str(tmp_path))
    assert len(spans) == 3
    child = next(s for s in spans if s["pid"] == pid)
    assert child["parent"] == outer[0]
    table = layers.layer_table(spans, os.getpid(), threading.get_ident())
    assert table["self_s"]["omega"] >= 0.01
    assert table["counts"]["omega.evaluations"] == 5
    span_outer = next(s for s in spans if s["name"] == "outer")
    assert sum(table["main_self_s"].values()) == pytest.approx(
        (span_outer["end"] - span_outer["start"]) / 1e9)


def test_median_percentile_and_sample_count_rules():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([1, 2, 3, 4]) == 2.5
    values = list(range(200))
    # p95 needs ten samples beyond it: 200 samples, not 199.
    assert stats.tail_percentile(values[:199], 95) is None
    assert stats.tail_percentile(values, 95) == pytest.approx(
        np.percentile(values, 95))
    sample = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0]
    assert stats.quartiles(sample) == pytest.approx(
        statistics.quantiles(sample, n=4))
    q1, _, q3 = statistics.quantiles(sample, n=4)
    assert stats.spread(sample) == pytest.approx(
        (q3 - q1) / statistics.median(sample))
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert stats.spread([7.0]) == 0.0
    with pytest.raises(ValueError):
        stats.median([])


def test_timings_are_scaled_lower_quartiles_over_plain_jobs():
    def job(wall, scale, mode="plain", ok=True):
        return {"mode": mode, "ok": ok, "wall_s": wall, "setup_s": wall / 4,
                "cpu_s": 2 * wall, "peak_rss_mib": 100.0 + wall,
                "scale": scale}

    jobs = [job(1.0, 1.0), job(2.0, 0.5), job(1.2, 1.0), job(4.0, 0.25),
            job(9.0, 1.0), job(0.1, 1.0, mode="layers"),
            job(0.1, 1.0, ok=False)]
    run_ = types.SimpleNamespace(
        jobs=jobs, errors=["one failed"],
        workload=types.SimpleNamespace(kind="batch"))
    metrics = run.end_to_end_metrics(run_)
    scaled = [1.0, 1.0, 1.2, 1.0, 9.0]
    assert metrics["wall_s"] == (np.percentile(scaled, 25), 5)
    assert stats.lower_quartile([1.0, 2.0]) == 1.25
    assert metrics["cpu_s"][0] == pytest.approx(2 * metrics["wall_s"][0])
    assert metrics["peak_rss_mib"] == (102.0, 5)
    assert metrics["error_rate"] == (1 / 7, 7)


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.0]
    assert compare.verdict(base, base, 0.1, "lower") == "same"
    assert compare.verdict(base, [x * 1.2 for x in base], 0.1,
                           "lower") == "worse"
    assert compare.verdict(base, [x * 1.2 for x in base], 0.1,
                           "higher") == "better"
    noisy = [0.5, 1.0, 1.5, 2.0]
    assert compare.verdict(base, noisy, 0.1, "lower") == "unresolved"
    assert compare.verdict(noisy, [0.1, 0.2, 0.3, 0.4], 0.1,
                           "lower") == "better"

    def entry(rates, correct=True):
        runs = [{"failed": int(r > 0), "correct": correct and r == 0}
                for r in rates]
        return {"runs": runs, "end_to_end": {"error_rate": {"values": rates}}}

    # error_rate: one failing round of five is worse, though its median
    # is 0; so is a run that failed a check outside any job.
    assert compare.error_verdict(entry([0.0] * 5)) == "same"
    assert compare.error_verdict(entry([0, 0, 0, 0, 0.01])) == "worse"
    assert compare.error_verdict(entry([0.01] * 5)) == "worse"
    assert compare.error_verdict(entry([0.0] * 5, correct=False)) == "worse"


@pytest.fixture(scope="module")
def small_reference(tmp_path_factory):
    """A small balanced_ms-shaped input and its reference scan."""
    work = tmp_path_factory.mktemp("small")
    w = workloads.Workload("balanced_ms", "batch", dict(
        n_hap=40, n_sites=300, length=30_000, grid=20, maxwin=3_000))
    rng = np.random.default_rng(11)
    hap = gen.mosaic_haplotypes(rng, 40, 300)
    gen.make_polymorphic(rng, hap)
    rel = gen.relative_positions(300)
    path = work / "small.ms"
    path.write_bytes(gen.ms_bytes(hap, rel))
    inputs = workloads.Inputs(w, [str(path)], {}, {
        "hap": hap, "positions": rel * 30_000})
    return oracle.reference(inputs)


def _write_job(job_dir: Path, ref, omegas) -> None:
    result = ScanResult(positions=ref.positions, omegas=omegas,
                        left_borders_bp=ref.left,
                        right_borders_bp=ref.right,
                        n_evaluations=ref.evaluations)
    (job_dir / "report.tsv").write_text(result.to_tsv() + "\n")
    np.savez(job_dir / "result.npz", positions=ref.positions, omegas=omegas,
             left=ref.left, right=ref.right, evaluations=ref.evaluations)


def test_oracle_flags_one_omega_perturbed_by_1e_6(tmp_path, small_reference):
    ref = small_reference
    _write_job(tmp_path, ref, ref.omegas)
    assert oracle.check_job(str(tmp_path), ref) == 0.0
    perturbed = ref.omegas.copy()
    perturbed[int(np.argmax(ref.omegas))] *= 1 + 1e-6
    _write_job(tmp_path, ref, perturbed)
    for bitwise in (True, False):
        with pytest.raises(oracle.OracleError):
            oracle.check_job(str(tmp_path),
                             dataclasses.replace(ref, bitwise=bitwise))


def test_brute_force_flags_omegas_off_by_1e_6(small_reference):
    ref = small_reference
    assert oracle.brute_force(ref, seed=1) <= oracle.RTOL_BRUTE
    wrong = dataclasses.replace(ref, omegas=ref.omegas * (1 + 1e-6))
    with pytest.raises(oracle.OracleError):
        oracle.brute_force(wrong, seed=1)


def test_oracle_flags_a_report_that_disagrees_with_its_arrays(
        tmp_path, small_reference):
    ref = small_reference
    _write_job(tmp_path, ref, ref.omegas)
    report = tmp_path / "report.tsv"
    lines = report.read_text().splitlines()
    fields = lines[3].split("\t")
    fields[1] = f"{float(fields[1]) + 1e-6:.6f}"
    lines[3] = "\t".join(fields)
    report.write_text("\n".join(lines) + "\n")
    with pytest.raises(oracle.OracleError):
        oracle.check_job(str(tmp_path), ref)
