"""Tests for the tracing + metrics layer (`repro.obs`).

Three contracts matter: the trace file format (every line must satisfy
`validate_trace_line`, so Perfetto loads it), lossless metrics merging
(any partition of work across workers merges to the sequential totals),
and the disabled fast path staying within the < 2 % overhead budget the
instrumented hot loops were sold on.
"""

import collections
import json
import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.grid import GridSpec
from repro.core.parallel import parallel_scan
from repro.core.scan import OmegaConfig, OmegaPlusScanner, scan_stream
from repro.datasets.generators import haplotype_block_alignment
from repro.obs.metrics import Histogram, MetricsRegistry, merge_snapshots
from repro.obs.trace import SYNTHETIC_TIDS, validate_trace_line


@pytest.fixture(autouse=True)
def _clean_obs_state():
    yield
    obs.reset()


def _config(aln, n_positions):
    return OmegaConfig(
        grid=GridSpec(n_positions=n_positions, max_window=aln.length / 3)
    )


def _read_trace(path):
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            events.append(validate_trace_line(line))
    return events


# ------------------------------------------------------------------ #
# trace file schema
# ------------------------------------------------------------------ #


class TestTraceSchema:
    _ALN = haplotype_block_alignment(30, 90, seed=11)

    def test_sequential_scan_trace_validates(self, tmp_path):
        path = str(tmp_path / "seq.trace.jsonl")
        with obs.tracing(path):
            OmegaPlusScanner(_config(self._ALN, 8)).scan(self._ALN)
        events = _read_trace(path)
        assert events, "trace is empty"
        names = {e["name"] for e in events}
        assert {"plan", "ld", "omega", "process_name"} <= names
        # one process, one timeline
        assert len({e["pid"] for e in events}) == 1
        # complete events carry category + non-negative duration
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] >= 0 and "cat" in e

    def test_disabled_tracer_writes_nothing(self, tmp_path):
        path = tmp_path / "never.trace.jsonl"
        OmegaPlusScanner(_config(self._ALN, 6)).scan(self._ALN)
        assert not path.exists()
        assert not obs.get_tracer().enabled

    def test_retrace_truncates(self, tmp_path):
        path = str(tmp_path / "twice.trace.jsonl")
        scanner = OmegaPlusScanner(_config(self._ALN, 6))
        with obs.tracing(path):
            scanner.scan(self._ALN)
        first = len(_read_trace(path))
        with obs.tracing(path):
            scanner.scan(self._ALN)
        assert len(_read_trace(path)) == first

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_trace_line("[1, 2]")
        with pytest.raises(ValueError):
            validate_trace_line('{"name": "x", "ph": "X", "pid": 1}')
        with pytest.raises(ValueError):
            validate_trace_line(
                '{"name":"x","ph":"?","pid":1,"tid":1,"ts":0}'
            )


# ------------------------------------------------------------------ #
# lossless metrics merging
# ------------------------------------------------------------------ #


def _apply(increments):
    reg = MetricsRegistry()
    for name, amount in increments:
        reg.counter(name).inc(amount)
    return reg


class TestMetricsMerge:
    # Integer-valued amounts keep float addition exact, so the merge
    # property can demand equality rather than approximation.
    _INCS = st.lists(
        st.tuples(
            st.sampled_from(["a.x", "a.y", "b.z"]),
            st.integers(min_value=0, max_value=10_000),
        ),
        max_size=40,
    )

    @settings(max_examples=60, deadline=None)
    @given(incs=_INCS, cuts=st.lists(st.integers(0, 40), max_size=4))
    def test_any_worker_partition_merges_to_sequential(self, incs, cuts):
        """Counters: however increments are split across workers and in
        whatever order the parts join, the merge equals the sequential
        registry exactly."""
        sequential = _apply(incs).snapshot()
        bounds = sorted({min(c, len(incs)) for c in cuts} | {0, len(incs)})
        parts = [
            _apply(incs[lo:hi]).snapshot()
            for lo, hi in zip(bounds, bounds[1:])
        ]
        merged = merge_snapshots(*parts)
        assert merged["counters"] == sequential["counters"]
        # associativity: folding pairwise matches the flat merge
        rolling = merge_snapshots()
        for part in parts:
            rolling = merge_snapshots(rolling, part)
        assert rolling["counters"] == sequential["counters"]

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=-100, max_value=100_000),
            min_size=1,
            max_size=30,
        ),
        cut=st.integers(0, 30),
    )
    def test_gauge_and_histogram_partition(self, values, cut):
        cut = min(cut, len(values))
        seq = MetricsRegistry()
        for v in values:
            seq.gauge("g").set(v)
            seq.histogram("h").observe(v)
        halves = []
        for chunk in (values[:cut], values[cut:]):
            reg = MetricsRegistry()
            for v in chunk:
                reg.gauge("g").set(v)
                reg.histogram("h").observe(v)
            halves.append(reg.snapshot())
        merged = merge_snapshots(*halves)
        expect = seq.snapshot()
        for key in ("min", "max", "n"):
            assert merged["gauges"]["g"][key] == expect["gauges"]["g"][key]
        assert merged["histograms"]["h"] == expect["histograms"]["h"]

    def test_scoped_metrics_isolates_and_folds_back(self):
        outer_counter = obs.get_metrics().counter("t.outer")
        outer_counter.inc(5)
        with obs.scoped_metrics() as inner:
            obs.get_metrics().counter("t.inner").inc(3)
            snap = inner.snapshot()
            assert snap["counters"] == {"t.inner": 3}
        total = obs.get_metrics().snapshot()["counters"]
        assert total["t.outer"] == 5
        assert total["t.inner"] == 3  # folded into the enclosing registry


# ------------------------------------------------------------------ #
# power-of-two bucket labels
# ------------------------------------------------------------------ #


class TestBucketLe:
    """``bucket_le`` names the smallest power of two >= the value (its
    documented invariant). Regression: the float ``log2`` rounding used
    previously filed values just above a large power of two — e.g.
    ``2**50 + 1`` — into the bucket *below* them."""

    def test_large_int_just_above_power_of_two(self):
        assert Histogram.bucket_le(2**50 + 1) == repr(2.0**51)
        assert Histogram.bucket_le(2**50) == repr(2.0**50)

    def test_float_just_above_power_of_two(self):
        value = 2.0**50 * (1.0 + 2.0**-52)  # nextafter(2**50)
        assert Histogram.bucket_le(value) == repr(2.0**51)

    def test_edges(self):
        assert Histogram.bucket_le(0) == "0"
        assert Histogram.bucket_le(-3.5) == "0"
        assert Histogram.bucket_le(1) == repr(1.0)
        assert Histogram.bucket_le(float("inf")) == repr(float("inf"))
        # Values whose ceil power of two overflows float64 share the
        # infinity bucket rather than raising.
        assert Histogram.bucket_le(2**1030) == repr(float("inf"))
        # 1e308 > 2**1023, so its ceil power of two (2**1024) overflows.
        assert Histogram.bucket_le(1e308) == repr(float("inf"))

    @settings(max_examples=200, deadline=None)
    @given(
        value=st.one_of(
            st.integers(min_value=1, max_value=2**200),
            st.floats(
                min_value=1e-300,
                max_value=1e300,
                allow_nan=False,
                allow_infinity=False,
            ),
        )
    )
    def test_bucket_bounds_value(self, value):
        bucket = float(Histogram.bucket_le(value))
        assert value <= bucket
        # Tightness: the next bucket down would violate the invariant.
        if bucket != float("inf"):
            assert bucket / 2.0 < value


# ------------------------------------------------------------------ #
# the < 2 % disabled-overhead budget
# ------------------------------------------------------------------ #


class TestOverheadGuard:
    _ALN = haplotype_block_alignment(40, 160, seed=77)

    def test_disabled_instrumentation_under_budget(self, tmp_path):
        """Per-call price of a disabled span, times twice the number of
        events the same scan actually emits when enabled, must stay under
        2 % of the scan's wall time. This bounds what the disabled branch
        can cost without A/B-timing two builds (flaky on CI)."""
        scanner = OmegaPlusScanner(_config(self._ALN, 16))
        scanner.scan(self._ALN)  # warm up
        wall = min(
            timeit.timeit(lambda: scanner.scan(self._ALN), number=1)
            for _ in range(3)
        )

        path = str(tmp_path / "overhead.trace.jsonl")
        with obs.tracing(path):
            scanner.scan(self._ALN)
        n_events = sum(
            1 for e in _read_trace(path) if e["ph"] != "M"
        )

        tracer = obs.get_tracer()
        assert not tracer.enabled

        def disabled_span():
            with tracer.span("x", "bench"):
                pass

        n_calls = 10_000
        per_call = timeit.timeit(disabled_span, number=n_calls) / n_calls
        bound = 2 * n_events * per_call
        assert bound < 0.02 * wall, (
            f"disabled obs bound {bound * 1e3:.2f} ms is over 2% of the "
            f"{wall * 1e3:.1f} ms scan ({n_events} events, "
            f"{per_call * 1e9:.0f} ns/call)"
        )


# ------------------------------------------------------------------ #
# end-to-end: one trace per scan, across processes
# ------------------------------------------------------------------ #


class TestEndToEnd:
    _ALN = haplotype_block_alignment(40, 160, seed=77)

    def test_parallel_streaming_trace(self, tmp_path):
        """The acceptance scenario: a parallel streaming scan writes one
        JSONL trace containing spans from >= 2 worker processes plus the
        ingest track, and per-phase span sums match the merged
        TimeBreakdown within 5 %."""
        path = str(tmp_path / "stream.trace.jsonl")
        config = _config(self._ALN, 40)
        with obs.tracing(path):
            result = scan_stream(
                self._ALN,
                config,
                snp_budget=160,
                n_workers=2,
                block_size=4,
            )
        events = _read_trace(path)

        by_name = {e["name"] for e in events}
        assert "scan_block" in by_name and "ingest" in by_name
        worker_pids = {
            e["pid"] for e in events if e["name"] == "scan_block"
        }
        assert len(worker_pids) >= 2, (
            f"expected spans from >= 2 workers, saw {worker_pids}"
        )
        driver_pids = {e["pid"] for e in events} - worker_pids
        assert driver_pids, "driver process missing from the trace"
        ingest_tids = {
            e["tid"] for e in events if e["name"] == "ingest"
        }
        assert ingest_tids == {SYNTHETIC_TIDS["ingest"]}

        span_seconds = collections.defaultdict(float)
        for e in events:
            if e["ph"] == "X":
                span_seconds[e["name"]] += e["dur"] / 1e6
        for phase, total in result.breakdown.totals.items():
            if total < 1e-4:
                continue  # sub-0.1ms phases drown in rounding
            assert span_seconds[phase] == pytest.approx(total, rel=0.05), (
                f"phase {phase}: spans {span_seconds[phase]:.6f}s vs "
                f"breakdown {total:.6f}s"
            )

        snap = result.metrics
        assert snap["counters"]["scheduler.blocks_dispatched"] == 10
        assert snap["counters"]["stream.chunks"] >= 1
        assert snap["gauges"]["stream.chunk_rss_bytes"]["max"] > 0

    def test_parallel_scan_metrics_and_summary(self):
        result = parallel_scan(
            self._ALN,
            _config(self._ALN, 24),
            n_workers=2,
            block_size=4,
        )
        counters = result.metrics["counters"]
        assert counters["scheduler.blocks_dispatched"] == 6
        assert counters["scan.positions_evaluated"] > 0
        text = result.summary()
        assert "scheduler: 6 blocks dispatched" in text
        assert "tile store:" in text

    def test_sequential_scan_metrics(self):
        result = OmegaPlusScanner(_config(self._ALN, 10)).scan(self._ALN)
        counters = result.metrics["counters"]
        # only valid grid positions are scored (== regions served)
        assert counters["scan.positions_evaluated"] == (
            result.reuse.regions_served
        )
        assert counters["ld.entries_computed"] == (
            result.reuse.entries_computed
        )
        assert "scheduler" not in result.summary()

    def test_modeled_accelerator_tracks(self, tmp_path):
        from repro.accel.gpu.device import TESLA_K80
        from repro.accel.gpu.omega_gpu import GPUOmegaEngine

        path = str(tmp_path / "gpu.trace.jsonl")
        with obs.tracing(path):
            result, record = GPUOmegaEngine(TESLA_K80).scan(
                self._ALN, _config(self._ALN, 8)
            )
        events = _read_trace(path)
        gpu_tid = SYNTHETIC_TIDS["gpu-model"]
        model_spans = [
            e
            for e in events
            if e.get("cat") == "model" and e["tid"] == gpu_tid
        ]
        assert model_spans, "no modelled device spans on the gpu track"
        modeled = sum(e["dur"] for e in model_spans) / 1e6
        assert modeled == pytest.approx(
            sum(record.seconds.values()), rel=0.05, abs=1e-3
        )
        assert result.metrics["counters"]["gpu.kernel_launches"] == (
            record.kernel_launches
        )


# ------------------------------------------------------------------ #
# CLI surface
# ------------------------------------------------------------------ #


class TestCLITraceFlags:
    def test_scan_trace_and_metrics_out(self, tmp_path):
        from repro.cli import main
        from repro.datasets.msformat import write_ms

        aln = haplotype_block_alignment(20, 60, seed=5)
        ms_path = str(tmp_path / "in.ms")
        write_ms([aln], ms_path)
        trace = tmp_path / "cli.trace.jsonl"
        metrics = tmp_path / "cli.metrics.json"
        rc = main([
            "scan", ms_path, "--grid", "6",
            "--maxwin", str(aln.length / 3),
            "--trace", str(trace), "--metrics-out", str(metrics),
            "-o", str(tmp_path / "out.tsv"),
        ])
        assert rc == 0
        assert _read_trace(str(trace))
        doc = json.loads(metrics.read_text())
        assert doc["schema"] == "repro.scan-metrics/1"
        assert doc["metrics"]["counters"]["scan.positions_evaluated"] > 0
