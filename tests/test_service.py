"""Tests for the multi-tenant scan service (``repro.service``).

The service contract is the same bitwise one the parallel scanner makes:
every request's result — scores, winning borders, evaluation counts —
equals a sequential scan of the same grid, no matter how many requests
interleave over the shared pool. Admission pricing reuses the block
scheduler's calibrated Eq. 4 cost model, so deadline rejections carry a
defensible estimate, not a guess.
"""

import asyncio
import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.core.costmodel import (
    ScanCostModel,
    get_cost_model,
    reset_cost_model,
    set_cost_model,
)
from repro.core.grid import GridSpec
from repro.core.parallel import fixed_position_spec
from repro.core.scan import OmegaConfig, OmegaPlusScanner
from repro.datasets.generators import sweep_signature_alignment
from repro.errors import ScanConfigError
from repro.service import (
    DeadlineInfeasibleError,
    JobQueue,
    QueueFullError,
    ScanRequest,
    ScanService,
    ServiceError,
    serve_unix,
)
from repro.service.model import RequestEstimate
from repro.service.service import AdmissionController


@pytest.fixture(autouse=True)
def fresh_cost_model():
    reset_cost_model()
    yield
    reset_cost_model()


@pytest.fixture(scope="module")
def aln():
    return sweep_signature_alignment(40, 300, seed=303)


@pytest.fixture(scope="module")
def config(aln):
    # max_window sized to the alignment's bp coordinate scale so the
    # position plans carry real work (and real cost units).
    return OmegaConfig(
        grid=GridSpec(n_positions=16, max_window=aln.length / 4)
    )


def sequential_reference(aln, config, grid_positions):
    """Single-process scan of exactly ``grid_positions`` — the numeric
    oracle (parallel chunking re-anchors the window-sum DP, so engine
    results match this only to ~1e-9 relative; see test_parallel)."""
    spec = fixed_position_spec(config.grid, np.asarray(grid_positions))
    return OmegaPlusScanner(dataclasses.replace(config, grid=spec)).scan(aln)


def assert_results_equal(got, want):
    """Bitwise equality — the contract between service runs of the same
    request (concurrent vs one-at-a-time)."""
    np.testing.assert_array_equal(got.positions, want.positions)
    np.testing.assert_array_equal(got.omegas, want.omegas)
    np.testing.assert_array_equal(got.left_borders_bp, want.left_borders_bp)
    np.testing.assert_array_equal(got.right_borders_bp, want.right_borders_bp)
    np.testing.assert_array_equal(got.n_evaluations, want.n_evaluations)


def assert_results_close(got, want):
    """Engine-vs-sequential equality at the repo's established rtol."""
    np.testing.assert_array_equal(got.positions, want.positions)
    np.testing.assert_allclose(got.omegas, want.omegas, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(
        got.left_borders_bp, want.left_borders_bp, rtol=1e-9, equal_nan=True
    )
    np.testing.assert_allclose(
        got.right_borders_bp, want.right_borders_bp, rtol=1e-9, equal_nan=True
    )
    np.testing.assert_array_equal(got.n_evaluations, want.n_evaluations)


class TestJobQueue:
    def test_priority_then_fifo(self):
        async def run():
            q = JobQueue(maxsize=8)
            q.put_nowait(1, "b1")
            q.put_nowait(0, "a1")
            q.put_nowait(1, "b2")
            q.put_nowait(0, "a2")
            return [await q.get() for _ in range(4)]

        order = asyncio.run(run())
        assert order == [(0, "a1"), (0, "a2"), (1, "b1"), (1, "b2")]

    def test_full_rejects(self):
        async def run():
            q = JobQueue(maxsize=2)
            q.put_nowait(0, "x")
            q.put_nowait(0, "y")
            assert q.full
            with pytest.raises(QueueFullError):
                q.put_nowait(0, "z")
            return len(q)

        assert asyncio.run(run()) == 2

    def test_drain_empties_in_dispatch_order(self):
        async def run():
            q = JobQueue(maxsize=4)
            q.put_nowait(2, "low")
            q.put_nowait(0, "high")
            items = q.drain()
            return items, len(q)

        items, n = asyncio.run(run())
        assert items == ["high", "low"]
        assert n == 0

    def test_get_waits_for_put(self):
        async def run():
            q = JobQueue(maxsize=2)

            async def feeder():
                await asyncio.sleep(0.01)
                q.put_nowait(0, "late")

            feed = asyncio.create_task(feeder())
            got = await asyncio.wait_for(q.get(), timeout=5.0)
            await feed
            return got

        assert asyncio.run(run()) == (0, "late")

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            JobQueue(maxsize=0)


class TestScanRequest:
    def test_region_bounds_must_pair(self):
        with pytest.raises(ScanConfigError):
            ScanRequest(start_bp=10.0)
        with pytest.raises(ScanConfigError):
            ScanRequest(stop_bp=10.0)

    def test_region_must_be_ordered(self):
        with pytest.raises(ScanConfigError):
            ScanRequest(start_bp=20.0, stop_bp=10.0)

    def test_bad_counts_and_deadlines(self):
        with pytest.raises(ScanConfigError):
            ScanRequest(n_positions=0)
        with pytest.raises(ScanConfigError):
            ScanRequest(deadline_seconds=0.0)

    def test_from_payload_roundtrip(self):
        req = ScanRequest.from_payload(
            {"start_bp": 1.0, "stop_bp": 9.0, "n_positions": 3,
             "deadline_seconds": 2.5, "priority": 1}
        )
        assert req == ScanRequest(
            start_bp=1.0, stop_bp=9.0, n_positions=3,
            deadline_seconds=2.5, priority=1,
        )

    def test_from_payload_rejects_unknown_keys(self):
        with pytest.raises(ServiceError, match="max_window"):
            ScanRequest.from_payload({"max_window": 100.0})


class TestAdmissionController:
    def test_default_request_grid_is_base_grid(self, aln, config):
        ctrl = AdmissionController(aln, config)
        gp = ctrl.grid_positions_for(ScanRequest())
        np.testing.assert_array_equal(
            gp, config.grid.positions_from(aln.positions)
        )

    def test_region_request_grid(self, aln, config):
        ctrl = AdmissionController(aln, config)
        gp = ctrl.grid_positions_for(
            ScanRequest(start_bp=1000.0, stop_bp=2000.0, n_positions=5)
        )
        np.testing.assert_array_equal(gp, np.linspace(1000.0, 2000.0, 5))
        single = ctrl.grid_positions_for(
            ScanRequest(start_bp=1000.0, stop_bp=2000.0, n_positions=1)
        )
        np.testing.assert_array_equal(single, [1500.0])

    def test_uncalibrated_estimate_counts_but_does_not_price(
        self, aln, config
    ):
        ctrl = AdmissionController(aln, config)
        _gp, plans, est = ctrl.estimate(ScanRequest(), n_workers=2)
        costs = get_cost_model().position_costs(plans)
        assert est.total_cost == pytest.approx(float(costs.sum()))
        assert est.total_cost > 0.0
        assert est.cpu_seconds is None
        assert est.wall_seconds is None
        assert est.predicted_seconds is None
        # Optimistic admission: no price, no rejection.
        ctrl.check_deadline(
            ScanRequest(deadline_seconds=1e-12), est
        )

    def test_calibrated_estimate_prices_in_model_units(self, aln, config):
        set_cost_model(ScanCostModel(seconds_per_unit=1e-6))
        ctrl = AdmissionController(aln, config)
        _gp, plans, est = ctrl.estimate(ScanRequest(), n_workers=2)
        total = float(get_cost_model().position_costs(plans).sum())
        assert est.cpu_seconds == pytest.approx(total * 1e-6)
        assert est.wall_seconds == pytest.approx(total * 1e-6 / 2)
        assert est.predicted_seconds == pytest.approx(est.wall_seconds)

    def test_backlog_extends_prediction(self, aln, config):
        set_cost_model(ScanCostModel(seconds_per_unit=1e-6))
        ctrl = AdmissionController(aln, config)
        _gp, _plans, quiet = ctrl.estimate(ScanRequest(), n_workers=2)
        _gp, _plans, loaded = ctrl.estimate(
            ScanRequest(), n_workers=2, backlog_cost=quiet.total_cost
        )
        assert loaded.backlog_seconds == pytest.approx(quiet.wall_seconds)
        assert loaded.predicted_seconds == pytest.approx(
            quiet.predicted_seconds + quiet.wall_seconds
        )

    def test_infeasible_deadline_raises_with_estimate(self, aln, config):
        set_cost_model(ScanCostModel(seconds_per_unit=10.0))
        ctrl = AdmissionController(aln, config)
        _gp, _plans, est = ctrl.estimate(ScanRequest(), n_workers=2)
        with pytest.raises(DeadlineInfeasibleError) as info:
            ctrl.check_deadline(
                ScanRequest(deadline_seconds=1e-9), est
            )
        assert info.value.estimate is est
        assert info.value.estimate.predicted_seconds > 1e-9
        # The message quotes the model's numbers, not just "rejected".
        assert f"{est.n_positions} positions" in str(info.value)


def run_service(coro_fn, aln, config, **service_kwargs):
    """Drive one async test body against a started service."""

    async def main():
        kwargs = dict(n_workers=2, queue_limit=8, max_concurrent=4)
        kwargs.update(service_kwargs)
        async with ScanService(aln, config, **kwargs) as service:
            return await coro_fn(service)

    return asyncio.run(main())


class TestScanService:
    def test_concurrent_requests_match_sequential(self, aln, config):
        requests = [
            ScanRequest(),
            ScanRequest(start_bp=2000.0, stop_bp=15000.0, n_positions=9),
            ScanRequest(start_bp=9000.0, stop_bp=21000.0, n_positions=7,
                        priority=1),
            ScanRequest(n_positions=11),
            ScanRequest(start_bp=500.0, stop_bp=29000.0, n_positions=5),
        ]

        async def body(service):
            jobs = [await service.submit(r) for r in requests]
            results = await asyncio.gather(*(j.wait() for j in jobs))
            # Same requests again, one at a time over the same engine:
            # interleaving must not change a single bit.
            solo = [await service.scan(r) for r in requests]
            return jobs, results, solo

        jobs, results, solo = run_service(body, aln, config)
        for job, result, alone in zip(jobs, results, solo):
            assert_results_equal(result, alone)
            want = sequential_reference(aln, config, job.grid_positions)
            assert_results_close(result, want)

    def test_default_request_matches_base_parallel_scan(self, aln, config):
        async def body(service):
            return await service.scan(ScanRequest())

        result = run_service(body, aln, config)
        assert_results_close(result, OmegaPlusScanner(config).scan(aln))

    def test_requests_calibrate_the_shared_model(self, aln, config):
        async def body(service):
            blocks = []
            for _ in range(3):
                await service.scan(ScanRequest())
                blocks.append(get_cost_model().calibration_blocks)
            return blocks

        blocks = run_service(body, aln, config)
        # Every request folds its measured blocks into the running fit.
        assert blocks[0] > 0
        assert blocks[0] < blocks[1] < blocks[2]
        model = get_cost_model()
        assert model.seconds_per_unit == pytest.approx(
            model.seconds_sum / model.est_cost_sum
        )

    def test_deadline_rejection_carries_model_estimate(self, aln, config):
        async def body(service):
            # First request calibrates the model; the next one is priced.
            await service.scan(ScanRequest())
            assert get_cost_model().seconds_per_unit is not None
            with pytest.raises(DeadlineInfeasibleError) as info:
                await service.submit(ScanRequest(deadline_seconds=1e-9))
            counters = service.registry.snapshot()["counters"]
            return info.value, counters, service.status()

        exc, counters, status = run_service(body, aln, config)
        est = exc.estimate
        assert est.total_cost > 0.0
        assert est.cpu_seconds == pytest.approx(
            est.total_cost * get_cost_model().seconds_per_unit
        )
        assert est.predicted_seconds > 1e-9
        assert counters["service.requests_rejected_deadline"] == 1
        assert status["rejected"] == 1
        json.dumps(status)  # the wire status op must serialize

    def test_queue_full_and_priority_order(self, aln, config):
        release = threading.Event()
        ran = []

        async def body(service):
            real_run = service._run_job

            def gated_run(job):
                ran.append(job.request_id)
                release.wait(timeout=30.0)
                return real_run(job)

            service._run_job = gated_run
            blocker = await service.submit(ScanRequest(n_positions=2))
            # Wait for the dispatcher to pull the blocker off the queue.
            for _ in range(1000):
                if len(service._queue) == 0:
                    break
                await asyncio.sleep(0.005)
            low = await service.submit(
                ScanRequest(n_positions=2, priority=5)
            )
            with pytest.raises(QueueFullError):
                await service.submit(ScanRequest(n_positions=2))
            counters = service.registry.snapshot()["counters"]
            assert counters["service.requests_rejected_queue_full"] == 1
            release.set()
            await asyncio.gather(blocker.wait(), low.wait())
            return [blocker.request_id, low.request_id]

        expected = run_service(
            body, aln, config, queue_limit=1, max_concurrent=1
        )
        assert ran == expected  # blocker first, queued job second

    def test_priority_dispatch_order(self, aln, config):
        release = threading.Event()
        started = []

        async def body(service):
            real_run = service._run_job

            def gated_run(job):
                started.append(job.request.priority)
                if job.request.priority < 0:
                    release.wait(timeout=30.0)
                return real_run(job)

            service._run_job = gated_run
            blocker = await service.submit(
                ScanRequest(n_positions=2, priority=-1)
            )
            for _ in range(1000):
                if len(service._queue) == 0:
                    break
                await asyncio.sleep(0.005)
            low = await service.submit(ScanRequest(n_positions=2, priority=7))
            mid = await service.submit(ScanRequest(n_positions=2, priority=3))
            high = await service.submit(ScanRequest(n_positions=2, priority=0))
            release.set()
            await asyncio.gather(
                blocker.wait(), low.wait(), mid.wait(), high.wait()
            )

        run_service(body, aln, config, queue_limit=8, max_concurrent=1)
        assert started == [-1, 0, 3, 7]

    def test_per_request_metrics_are_scoped(self, aln, config):
        async def body(service):
            jobs = [
                await service.submit(ScanRequest(n_positions=4)),
                await service.submit(
                    ScanRequest(start_bp=5000.0, stop_bp=25000.0,
                                n_positions=6)
                ),
            ]
            await asyncio.gather(*(j.wait() for j in jobs))
            return jobs

        jobs = run_service(body, aln, config)
        for job in jobs:
            hist = job.metrics["histograms"]
            assert hist["service.queue_wait_seconds"]["count"] == 1
            assert hist["service.request_wall_seconds"]["count"] == 1
            # Exactly this request's blocks, not the neighbour's.
            assert (
                job.metrics["counters"]["scheduler.blocks_dispatched"]
                == hist["scheduler.block_seconds"]["count"]
            )

    def test_submit_after_close_rejected(self, aln, config):
        async def main():
            service = ScanService(aln, config, n_workers=2)
            await service.start()
            await service.close()
            with pytest.raises(ServiceError, match="not running"):
                await service.submit(ScanRequest())

        asyncio.run(main())

    def test_close_fails_pending_jobs(self, aln, config):
        async def main():
            service = ScanService(
                aln, config, n_workers=2, queue_limit=4, max_concurrent=1
            )
            await service.start()
            release = threading.Event()
            real_run = service._run_job
            service._run_job = lambda job: (
                release.wait(timeout=30.0),
                real_run(job),
            )[1]
            blocker = await service.submit(ScanRequest(n_positions=2))
            for _ in range(1000):
                if len(service._queue) == 0:
                    break
                await asyncio.sleep(0.005)
            pending = await service.submit(ScanRequest(n_positions=2))
            release.set()
            close_task = asyncio.create_task(service.close())
            with pytest.raises(ServiceError, match="closed before dispatch"):
                await pending.wait()
            await blocker.wait()
            await close_task

        asyncio.run(main())

    def test_rejects_bad_limits(self, aln, config):
        with pytest.raises(ServiceError):
            ScanService(aln, config, queue_limit=0)
        with pytest.raises(ServiceError):
            ScanService(aln, config, max_concurrent=0)


class TestUnixServer:
    def test_end_to_end_protocol(self, aln, config, tmp_path):
        socket_path = str(tmp_path / "scan.sock")

        async def query(path, payload):
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout=60.0)
            writer.close()
            await writer.wait_closed()
            return json.loads(raw.decode())

        async def main():
            service = ScanService(
                aln, config, n_workers=2, queue_limit=8, max_concurrent=2
            )
            ready = asyncio.Event()
            server = asyncio.create_task(
                serve_unix(service, socket_path, ready=ready)
            )
            await asyncio.wait_for(ready.wait(), timeout=60.0)

            pong = await query(socket_path, {"op": "ping"})
            assert pong == {"ok": True, "op": "ping"}

            status = await query(socket_path, {"op": "status"})
            assert status["ok"] and status["started"]

            bad = await query(socket_path, {"op": "warp"})
            assert not bad["ok"] and "unknown op" in bad["error"]

            malformed = await asyncio.wait_for(
                query(socket_path, {"op": "scan", "max_window": 1.0}),
                timeout=60.0,
            )
            assert not malformed["ok"]
            assert "max_window" in malformed["error"]

            scans = await asyncio.gather(*(
                query(
                    socket_path,
                    {"op": "scan", "start_bp": 1000.0 * (k + 1),
                     "stop_bp": 28000.0, "n_positions": 5 + k},
                )
                for k in range(3)
            ))

            # A deadline no model can meet answers in-band with the
            # estimate instead of dropping the connection.
            rejected = await query(
                socket_path,
                {"op": "scan", "deadline_seconds": 1e-9},
            )
            assert not rejected["ok"]
            assert rejected["rejected"] == "deadline"
            assert rejected["estimate"]["total_cost"] > 0.0

            bye = await query(socket_path, {"op": "shutdown"})
            assert bye["ok"]
            await asyncio.wait_for(server, timeout=60.0)
            return scans

        scans = asyncio.run(main())
        for response in scans:
            assert response["ok"]
            want = sequential_reference(
                aln, config, np.array(response["positions"])
            )
            np.testing.assert_allclose(
                np.array(response["omegas"]), want.omegas,
                rtol=1e-9, atol=1e-12,
            )
            np.testing.assert_array_equal(
                np.array(response["n_evaluations"]), want.n_evaluations
            )
            assert response["estimate"]["n_positions"] == len(
                response["positions"]
            )
            assert response["metrics"]["histograms"][
                "service.queue_wait_seconds"
            ]["count"] == 1
