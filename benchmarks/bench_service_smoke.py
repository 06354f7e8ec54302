#!/usr/bin/env python
"""Concurrency smoke test for the scan daemon (``omegascan serve``).

Boots the daemon as a real subprocess on a Unix socket, fires a burst of
concurrent scan requests from client threads, and checks the properties
the service tentpole exists to provide:

* every admitted request completes and answers with a well-formed report
  plus its admission estimate and per-request metrics;
* a repeated request is served from the shared r² tile band: its metrics
  count tile hits and no tile fills, and its scores are unchanged;
* a deliberately impossible deadline is rejected *in-band* with the cost
  model's estimate attached (after the burst has calibrated the model);
* the daemon exits cleanly on the ``shutdown`` op and leaves no shared
  memory segments behind in ``/dev/shm``.

Emits ``BENCH_service_throughput.json`` for the nightly regression gate
(wall seconds for the burst; request counts as context). Run as::

    PYTHONPATH=src python benchmarks/bench_service_smoke.py \\
        --requests 8 --workers 2 --out-dir benchmarks/results

Exits non-zero on any violated property, so CI fails loudly.
"""

from __future__ import annotations

import argparse
import glob
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

if __package__ in (None, ""):
    sys.path.insert(0, str(pathlib.Path(__file__).parent))

from metrics_io import emit_bench_metrics  # noqa: E402

REGION_LENGTH = 500_000.0


def wait_for_socket(path: str, proc, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited early with rc={proc.returncode}"
            )
        if pathlib.Path(path).exists():
            return
        time.sleep(0.05)
    raise RuntimeError(f"daemon socket {path} never appeared")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--theta", type=float, default=150.0)
    parser.add_argument("--grid", type=int, default=24)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))
    from repro.cli import main as cli_main
    from repro.datasets.alignment import SHM_NAME_PREFIX
    from repro.service.client import send_request

    shm_before = set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))

    with tempfile.TemporaryDirectory(prefix="svc-smoke-") as tmp:
        ms_path = str(pathlib.Path(tmp) / "sweep.ms")
        socket_path = str(pathlib.Path(tmp) / "scan.sock")
        rc = cli_main([
            "simulate", "sweep", "--samples", str(args.samples),
            "--theta", str(args.theta), "--length", str(REGION_LENGTH),
            "--seed", "29", "-o", ms_path,
        ])
        if rc != 0:
            print("FAIL: simulate returned", rc, file=sys.stderr)
            return 1

        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", ms_path,
                "--length", str(REGION_LENGTH),
                "--maxwin", str(REGION_LENGTH / 4),
                "--grid", str(args.grid),
                "--workers", str(args.workers),
                "--socket", socket_path,
            ],
            env={
                **os.environ,
                "PYTHONPATH": str(
                    pathlib.Path(__file__).parent.parent / "src"
                ),
            },
        )
        failures = []
        try:
            wait_for_socket(socket_path, daemon)

            pong = send_request(socket_path, {"op": "ping"})
            if not pong.get("ok"):
                failures.append(f"ping failed: {pong}")

            def one_request(k: int) -> dict:
                lo = 10_000.0 * (k + 1)
                return send_request(
                    socket_path,
                    {
                        "op": "scan",
                        "start_bp": lo,
                        "stop_bp": REGION_LENGTH - lo,
                        "n_positions": args.grid - k,
                        "priority": k % 3,
                    },
                    timeout=600.0,
                )

            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=args.requests) as pool:
                responses = list(
                    pool.map(one_request, range(args.requests))
                )
            burst_seconds = time.perf_counter() - t0

            for k, response in enumerate(responses):
                if not response.get("ok"):
                    failures.append(f"request {k} failed: {response}")
                    continue
                n = response["estimate"]["n_positions"]
                if len(response["omegas"]) != n or n != args.grid - k:
                    failures.append(
                        f"request {k}: expected {args.grid - k} scores, "
                        f"got {len(response['omegas'])}"
                    )
                if (
                    response["metrics"]["histograms"]
                    .get("service.queue_wait_seconds", {})
                    .get("count")
                    != 1
                ):
                    failures.append(
                        f"request {k}: missing per-request metrics"
                    )

            # The daemon keeps a shared r² tile band: the first request
            # again reads every tile the burst filled and fills none.
            repeat = one_request(0)
            counters = repeat.get("metrics", {}).get("counters", {})
            hits = counters.get("tilestore.hits", 0)
            fills = counters.get("tilestore.fills", 0)
            if not repeat.get("ok"):
                failures.append(f"repeated request failed: {repeat}")
            elif not (hits > 0 and fills == 0):
                failures.append(
                    "repeated request not served from the r2 band: "
                    f"tilestore.hits {hits}, tilestore.fills {fills}"
                )
            elif responses[0].get("ok") and (
                repeat["omegas"] != responses[0]["omegas"]
            ):
                failures.append("repeated request changed its scores")

            # The burst calibrated the cost model, so an impossible
            # deadline must now be rejected with a quoted estimate.
            rejected = send_request(
                socket_path,
                {"op": "scan", "deadline_seconds": 1e-9},
                timeout=600.0,
            )
            if rejected.get("ok") or rejected.get("rejected") != "deadline":
                failures.append(
                    f"infeasible deadline not rejected: {rejected}"
                )
            elif not rejected.get("estimate", {}).get("total_cost", 0) > 0:
                failures.append(
                    f"deadline rejection carried no estimate: {rejected}"
                )

            status = send_request(socket_path, {"op": "status"})
            send_request(socket_path, {"op": "shutdown"})
            daemon.wait(timeout=60.0)
        finally:
            if daemon.poll() is None:
                daemon.terminate()
                try:
                    daemon.wait(timeout=30.0)
                except subprocess.TimeoutExpired:
                    daemon.kill()
                    daemon.wait()

    shm_after = set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))
    leaked = shm_after - shm_before
    if leaked:
        failures.append(f"daemon leaked shared memory: {sorted(leaked)}")
    if daemon.returncode != 0:
        failures.append(f"daemon exit code {daemon.returncode}")

    served = status.get("served", 0)
    print(
        f"served {served} requests in {burst_seconds:.2f}s burst wall "
        f"({args.requests} concurrent clients, {args.workers} workers); "
        f"rejected {status.get('rejected', 0)}; repeated request "
        f"{hits} tile hits, {fills} fills"
    )
    emit_bench_metrics(
        "service_throughput",
        timings={
            "burst_wall_seconds": burst_seconds,
            "mean_request_seconds": burst_seconds / max(1, args.requests),
        },
        values={
            "requests": float(args.requests),
            "served": float(served),
            "workers": float(args.workers),
            "rejected_deadline": float(
                1 if rejected.get("rejected") == "deadline" else 0
            ),
        },
        meta={"grid": args.grid, "samples": args.samples},
        out_dir=args.out_dir,
    )

    if failures:
        for failure in failures:
            print("FAIL:", failure, file=sys.stderr)
        return 1
    print(
        "OK: all requests served, repeat served from the r2 band, "
        "deadline priced, /dev/shm clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
