"""Executable array backends: registry, kernel runs, calibration.

The contract of PR 7's backend layer is threefold: (a) backend
resolution is explicit-name > ``REPRO_BACKEND`` > host path, with a
warning-and-numpy fallback when a device stack is absent; (b) Kernel
I/II execution over a packed plan is *bitwise* equal to
``omega_max_batch`` (and therefore to the per-position reference) on
the numpy backend; (c) every real launch leaves an (estimated,
realized) calibration pair behind that ``fit_weights`` can turn into
scheduler constants.
"""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.accel.backend import (
    ArrayBackend,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.accel.backend.backends import NumpyBackend
from repro.accel.gpu.dispatch import (
    DEFAULT_EXEC_DEVICE,
    DynamicDispatcher,
)
from repro.core.batch import BatchedOmegaPlan, omega_max_batch
from repro.core.costmodel import (
    CalibrationPair,
    ScanCostModel,
    calibration_pairs,
    clear_calibration_pairs,
    reset_cost_model,
)
from repro.core.dp import SumMatrix
from repro.core.grid import GridSpec
from repro.core.omega import omega_from_sums, omega_max_at_split
from repro.core.parallel import parallel_scan
from repro.core.scan import OmegaConfig, OmegaPlusScanner, scan_stream
from repro.datasets.generators import (
    haplotype_block_alignment,
    random_alignment,
)
from repro.errors import (
    AcceleratorError,
    BackendUnavailableError,
    ScanConfigError,
)
from repro.ld.gemm import r_squared_matrix

NUMPY = get_backend("numpy")


@pytest.fixture(autouse=True)
def _fresh_cost_model():
    reset_cost_model()
    yield
    reset_cost_model()


def _sum_matrix(n_sites: int, seed: int) -> SumMatrix:
    aln = random_alignment(24, n_sites, seed=seed)
    return SumMatrix(r_squared_matrix(aln))


@st.composite
def packed_positions(draw):
    """Mirror of the test_batch strategy: border configurations over a
    SumMatrix, including empty and single-element border sets."""
    n = draw(st.integers(min_value=4, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n_positions = draw(st.integers(min_value=1, max_value=6))
    positions = []
    for _ in range(n_positions):
        c = draw(st.integers(min_value=0, max_value=n - 2))
        max_l = draw(st.integers(min_value=0, max_value=c + 1))
        max_r = draw(st.integers(min_value=0, max_value=n - 1 - c))
        li = np.arange(c + 1 - max_l, c + 1, dtype=np.intp)
        rj = np.arange(c + 1, c + 1 + max_r, dtype=np.intp)
        positions.append((c, li, rj))
    return n, seed, positions


def _plan_from(sums, positions):
    plan = BatchedOmegaPlan(max_positions=len(positions))
    for c, li, rj in positions:
        plan.add(sums, li, c, rj)
    return plan


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in backend_names()
        assert "numpy" in available_backends()
        backend = get_backend("numpy")
        assert backend.is_host
        assert get_backend("numpy") is backend  # cached

    def test_unknown_name_raises(self):
        with pytest.raises(AcceleratorError, match="unknown"):
            get_backend("tpu")
        with pytest.raises(AcceleratorError, match="unknown"):
            resolve_backend("tpu")

    def test_reserved_names_resolve_to_host_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) is None
        assert resolve_backend("") is None
        assert resolve_backend("model") is None

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        backend = resolve_backend(None)
        assert backend is not None and backend.name == "numpy"
        # An explicit name wins over the environment.
        monkeypatch.setenv("REPRO_BACKEND", "tpu")
        assert resolve_backend("numpy").name == "numpy"
        assert resolve_backend("model") is None

    @pytest.mark.parametrize("name", ["cupy", "numba"])
    def test_unavailable_backend_falls_back_with_warning(
        self, name, monkeypatch
    ):
        # None in sys.modules forces ImportError even if the package
        # exists, so the fallback path is exercised deterministically.
        monkeypatch.setitem(sys.modules, name, None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend = resolve_backend(name)
        assert backend.name == "numpy"
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "falling back" in str(w.message)
            for w in caught
        )

    @pytest.mark.parametrize("name", ["cupy", "numba"])
    def test_unavailable_backend_strict_raises(self, name, monkeypatch):
        monkeypatch.setitem(sys.modules, name, None)
        with pytest.raises(BackendUnavailableError):
            resolve_backend(name, fallback=False)

    def test_register_rejects_reserved_names(self):
        with pytest.raises(AcceleratorError):
            register_backend("model", NumpyBackend)
        with pytest.raises(AcceleratorError):
            register_backend("", NumpyBackend)

    def test_instances_resolve_passthrough(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        backend = get_backend("numpy")
        dispatcher = DynamicDispatcher(DEFAULT_EXEC_DEVICE, backend=backend)
        assert dispatcher.backend is backend
        assert dispatcher.backend_name == "numpy"
        assert DynamicDispatcher(DEFAULT_EXEC_DEVICE).backend_name == "model"


class TestEq2Scores:
    def test_bitwise_matches_omega_from_sums(self):
        rng = np.random.default_rng(5)
        m = 4096
        sum_l = rng.random(m) * 30
        sum_r = rng.random(m) * 30
        sum_lr = rng.random(m) * 50
        n_left = rng.integers(1, 40, size=m).astype(np.float64)
        n_right = rng.integers(1, 40, size=m).astype(np.float64)
        # Sprinkle the degenerate single-SNP-window case (no within
        # pair on either side).
        n_left[::7] = 1.0
        n_right[::7] = 1.0
        for eps in (1e-5, 1e-2, 0.0):
            ref = omega_from_sums(
                sum_l, sum_r, sum_lr, n_left, n_right,
                eps=eps, checked=False,
            )
            got = NUMPY.eq2_scores(
                sum_l, sum_r, sum_lr, n_left, n_right, eps=eps
            )
            assert np.array_equal(got, ref, equal_nan=True)


class TestKernelRuns:
    @settings(max_examples=40, deadline=None)
    @given(packed_positions(), st.sampled_from([1e-5, 1e-2, 0.0]))
    def test_forced_kernels_match_batch_reference(self, case, eps):
        n, seed, positions = case
        sums = _sum_matrix(n, seed)
        plan = _plan_from(sums, positions)
        ref = omega_max_batch(plan, eps=eps)
        for mode in ("dynamic", "kernel1", "kernel2"):
            dispatcher = DynamicDispatcher(
                DEFAULT_EXEC_DEVICE, mode=mode, backend=NUMPY
            )
            res = dispatcher.run_plan(plan, eps=eps)
            for field in (
                "omegas", "left_borders", "right_borders", "n_evaluations"
            ):
                assert np.array_equal(
                    getattr(res, field), getattr(ref, field), equal_nan=True
                ), (mode, field)

    @settings(max_examples=25, deadline=None)
    @given(packed_positions())
    def test_matches_per_position_reference(self, case):
        n, seed, positions = case
        sums = _sum_matrix(n, seed)
        plan = _plan_from(sums, positions)
        res = DynamicDispatcher(
            DEFAULT_EXEC_DEVICE, backend=NUMPY
        ).run_plan(plan)
        for slot, (c, li, rj) in enumerate(positions):
            ref = omega_max_at_split(sums, li, c, rj)
            assert np.array_equal(
                [res.omegas[slot]], [ref.omega], equal_nan=True
            )
            assert res.left_borders[slot] == ref.left_border
            assert res.right_borders[slot] == ref.right_border

    def test_kernel_run_direct(self):
        """KernelI.run / KernelII.run agree with the batch reference on
        the slots they are handed."""
        sums = _sum_matrix(20, seed=11)
        plan = _plan_from(
            sums,
            [
                (8, np.arange(3, 9, dtype=np.intp),
                 np.arange(9, 15, dtype=np.intp)),
                (12, np.arange(10, 13, dtype=np.intp),
                 np.arange(13, 19, dtype=np.intp)),
            ],
        )
        ref = omega_max_batch(plan)
        d = DynamicDispatcher(DEFAULT_EXEC_DEVICE, backend=NUMPY)
        for kern in (d.kernel1, d.kernel2):
            out = kern.run(plan, backend=NUMPY)
            assert np.array_equal(out.omegas, ref.omegas[out.slots])

    def test_run_plan_requires_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        plan = _plan_from(
            _sum_matrix(8, seed=1),
            [(3, np.arange(1, 4, dtype=np.intp),
              np.arange(4, 6, dtype=np.intp))],
        )
        with pytest.raises(AcceleratorError, match="model-only"):
            DynamicDispatcher(DEFAULT_EXEC_DEVICE).run_plan(plan)

    def test_run_plan_records_metrics_and_pairs(self):
        sums = _sum_matrix(16, seed=2)
        plan = _plan_from(
            sums,
            [(6, np.arange(2, 7, dtype=np.intp),
              np.arange(7, 11, dtype=np.intp))],
        )
        clear_calibration_pairs()
        with obs.scoped_metrics() as registry:
            DynamicDispatcher(DEFAULT_EXEC_DEVICE, backend=NUMPY).run_plan(
                plan, region_width=100
            )
            snap = registry.snapshot()
        assert snap["counters"].get("gpu.kernel1_launches") == 1
        hists = snap["histograms"]
        assert "backend.kernel1_est_seconds" in hists
        assert "backend.kernel1_realized_seconds" in hists
        assert "backend.block_est_cost" in hists
        assert "backend.block_seconds" in hists
        pairs = [p for p in calibration_pairs() if p.kind == "kernel"]
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.kernel == "kernel1"
        assert pair.backend == "numpy"
        assert pair.region_area == 100.0**2
        assert pair.realized_seconds > 0
        assert pair.est_seconds > 0


class TestFitWeights:
    def test_recovers_synthetic_weights(self):
        # y = 2e-9 * evals + 5e-10 * area  =>  area_weight = 0.25 and
        # seconds_per_unit = 2e-9 in the normalized (eval_weight = 1)
        # parameterization.
        rng = np.random.default_rng(3)
        pairs = []
        for _ in range(50):
            evals = float(rng.integers(10_000, 2_000_000))
            area = float(rng.integers(1_000, 500_000))
            pairs.append(CalibrationPair(
                n_evaluations=evals,
                region_area=area,
                realized_seconds=2e-9 * evals + 5e-10 * area,
            ))
        fitted = ScanCostModel().fit_weights(pairs)
        assert fitted.eval_weight == 1.0
        assert fitted.area_weight == pytest.approx(0.25, rel=1e-6)
        assert fitted.seconds_per_unit == pytest.approx(2e-9, rel=1e-6)
        assert fitted.calibration_blocks == 50

    def test_too_few_or_degenerate_pairs_keep_model(self):
        model = ScanCostModel()
        assert model.fit_weights([]) is model
        one = [CalibrationPair(1000.0, 0.0, 1e-3)]
        assert model.fit_weights(one) is model
        junk = [
            CalibrationPair(0.0, 0.0, 0.0),
            CalibrationPair(100.0, 0.0, float("nan")),
            CalibrationPair(100.0, 0.0, -1.0),
        ]
        assert model.fit_weights(junk) is model

    def test_uses_recorded_archive_by_default(self):
        clear_calibration_pairs()
        sums = _sum_matrix(16, seed=8)
        plan = _plan_from(
            sums,
            [(6, np.arange(2, 7, dtype=np.intp),
              np.arange(7, 11, dtype=np.intp))] * 1,
        )
        d = DynamicDispatcher(DEFAULT_EXEC_DEVICE, backend=NUMPY)
        for _ in range(4):
            d.run_plan(plan)
        fitted = ScanCostModel().fit_weights()
        assert fitted.calibration_blocks == 4
        assert fitted.seconds_per_unit is not None
        assert fitted.seconds_per_unit > 0


class TestScannerEquivalence:
    def test_sequential_backend_scan_is_bitwise_equal(self):
        aln = haplotype_block_alignment(30, 400, seed=9)
        grid = GridSpec(n_positions=16, max_window=aln.length / 4)
        base = OmegaPlusScanner(OmegaConfig(grid=grid)).scan(aln)
        got = OmegaPlusScanner(
            OmegaConfig(grid=grid, backend="numpy")
        ).scan(aln)
        for field in (
            "omegas", "left_borders_bp", "right_borders_bp", "n_evaluations"
        ):
            assert np.array_equal(
                getattr(got, field), getattr(base, field), equal_nan=True
            ), field

    def test_env_variable_drives_the_scanner(self, monkeypatch):
        aln = haplotype_block_alignment(24, 200, seed=4)
        grid = GridSpec(n_positions=8, max_window=aln.length / 4)
        base = OmegaPlusScanner(OmegaConfig(grid=grid)).scan(aln)
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        got = OmegaPlusScanner(OmegaConfig(grid=grid)).scan(aln)
        assert np.array_equal(got.omegas, base.omegas, equal_nan=True)

    def test_backend_scan_publishes_calibrated_cost_gauge(self):
        aln = haplotype_block_alignment(30, 400, seed=9)
        grid = GridSpec(n_positions=16, max_window=aln.length / 4)
        with obs.scoped_metrics() as registry:
            OmegaPlusScanner(
                OmegaConfig(grid=grid, backend="numpy")
            ).scan(aln)
            snap = registry.snapshot()
        assert snap["counters"].get("gpu.kernel1_launches", 0) + snap[
            "counters"
        ].get("gpu.kernel2_launches", 0) > 0
        gauge = snap["gauges"].get("scheduler.cost_seconds_per_unit")
        assert gauge is not None and gauge["last"] > 0

    def test_parallel_backend_scan_matches_parallel_host(self):
        # Parallel workers re-anchor the DP at chunk starts, so the
        # bitwise contract is against the *parallel host* scan (the
        # sequential comparison is rtol=1e-9, as in test_parallel).
        aln = haplotype_block_alignment(30, 400, seed=9)
        grid = GridSpec(n_positions=16, max_window=aln.length / 4)
        host = parallel_scan(
            aln, OmegaConfig(grid=grid, omega_batch=4), n_workers=2
        )
        dev = parallel_scan(
            aln,
            OmegaConfig(grid=grid, omega_batch=4, backend="numpy"),
            n_workers=2,
        )
        for field in (
            "omegas", "left_borders_bp", "right_borders_bp", "n_evaluations"
        ):
            assert np.array_equal(
                getattr(dev, field), getattr(host, field), equal_nan=True
            ), field
        seq = OmegaPlusScanner(OmegaConfig(grid=grid)).scan(aln)
        np.testing.assert_allclose(dev.omegas, seq.omegas, rtol=1e-9)

    def test_stream_backend_scan_is_bitwise_equal(self):
        aln = haplotype_block_alignment(30, 400, seed=9)
        grid = GridSpec(n_positions=16, max_window=aln.length / 4)
        base = OmegaPlusScanner(OmegaConfig(grid=grid)).scan(aln)
        got = scan_stream(
            aln,
            OmegaConfig(grid=grid, backend="numpy"),
            snp_budget=aln.n_sites,
        )
        for field in (
            "omegas", "left_borders_bp", "right_borders_bp", "n_evaluations"
        ):
            assert np.array_equal(
                getattr(got, field), getattr(base, field), equal_nan=True
            ), field
        # Streamed backend scans fold their realized launches into the
        # cost model, as OmegaPlusScanner.scan does.
        gauge = got.metrics["gauges"].get("scheduler.cost_seconds_per_unit")
        assert gauge is not None and gauge["last"] > 0

    def test_config_rejects_non_string_backend(self):
        with pytest.raises(ScanConfigError):
            OmegaConfig(
                grid=GridSpec(n_positions=4, max_window=100.0),
                backend=NUMPY,
            )


class TestGemmBackend:
    def test_backend_kwarg_is_bitwise_neutral_on_host(self):
        aln = random_alignment(20, 60, seed=6)
        base = r_squared_matrix(aln)
        for backend in ("numpy", NUMPY, None):
            assert np.array_equal(
                r_squared_matrix(aln, backend=backend), base
            )

    def test_device_round_trip_path(self):
        """A fake non-host backend exercises the asarray/to_host hop."""

        class _FakeDevice(ArrayBackend):
            name = "fake"
            is_host = False

            def __init__(self):
                super().__init__(np)
                self.transfers = 0

            def asarray(self, a):
                self.transfers += 1
                return np.asarray(a)

        fake = _FakeDevice()
        aln = random_alignment(20, 60, seed=6)
        got = r_squared_matrix(aln, backend=fake)
        assert fake.transfers == 2  # both GEMM operands shipped
        assert np.array_equal(got, r_squared_matrix(aln))


class TestCLI:
    def test_scan_backend_numpy_is_bitwise_identical(self, tmp_path):
        from repro.cli import main
        from repro.datasets.msformat import write_ms
        from repro.simulate.sweep import simulate_sweep

        ms = tmp_path / "sw.ms"
        write_ms(
            [simulate_sweep(20, theta=60.0, length=1e5, seed=3)], str(ms)
        )
        out_host = tmp_path / "host.tsv"
        out_dev = tmp_path / "dev.tsv"
        common = [
            "scan", str(ms), "--length", "1e5",
            "--grid", "12", "--maxwin", "25000",
        ]
        assert main(common + ["-o", str(out_host)]) == 0
        assert main(
            common + ["--backend", "numpy", "-o", str(out_dev)]
        ) == 0
        assert out_host.read_text() == out_dev.read_text()

    def test_accel_backend_rejected_for_fpga(self, tmp_path, capsys):
        from repro.cli import main
        from repro.datasets.msformat import write_ms
        from repro.simulate.sweep import simulate_sweep

        ms = tmp_path / "sw.ms"
        write_ms(
            [simulate_sweep(12, theta=30.0, length=1e5, seed=5)], str(ms)
        )
        rc = main([
            "accel", str(ms), "--length", "1e5", "--grid", "6",
            "--maxwin", "25000", "--platform", "fpga-u200",
            "--backend", "numpy",
        ])
        assert rc == 2
        assert "GPU platforms only" in capsys.readouterr().err
