#!/usr/bin/env python3
"""End-to-end benchmark: ms or VCF text in, omega report out, through the
entry points users call (scan, scan_stream, parallel sessions,
shard-scan and the serve daemon).

One run of one workload (from the repository root)::

    python3 benchmarks/e2e/run.py --workload balanced_ms --seed 7 \\
        --seconds 20 --trace 0 [--out run.json]

It generates the workload's inputs from the seed, checks the parser and
a reference scan against the oracle (``oracle.py``), then launches fresh
jobs back to back for ``--seconds`` seconds, with a host probe between
them (:class:`HostProbe`), and checks every report. With ``--trace 0``
it reports the end-to-end metrics: timings as the lower quartile over
the jobs, in reference seconds. With ``--trace 1`` it cycles plain,
layer-wrapped and program-traced jobs and reports the per-layer
metrics. It prints every metric with its unit and sample count; the
last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``. The exit code is non-zero when any job, request
or check fails.

Every workload in interleaved rounds (one warm-up round,
``MEASURED_ROUNDS`` measured rounds with seeds ``seed + r``, one traced
round)::

    python3 benchmarks/e2e/run.py --seed 20261016 --out suite.json

writes the document ``compare.py`` reads. Metric names, units,
directions and bounds come from ``BENCHMARK.json`` at the repository
root. BLAS thread variables are recorded, never set.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK_DIR = ".e2e"
SCHEMA = "repro.bench-e2e/1"
#: A run must end within 180 s; jobs still running at this point of the
#: run are killed and count as failed.
RUN_DEADLINE_S = 170.0
#: Measured rounds of the suite, between its warm-up and traced rounds.
MEASURED_ROUNDS = 5
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
#: Counts that must repeat exactly for one input (compare.py checks them).
EXACT_COUNTS = ("plan.positions", "ld.fill_entries", "dp.builds",
                "omega.evaluations", "report.bytes")
#: Cap on each host.copy_gbs array: 4x a large shared LLC would not fit
#: the memory a benchmark may take on a shared host.
COPY_ARRAY_CAP = 128 * 1024 * 1024
#: What :class:`HostProbe` takes on the 2-core reference host (the median
#: of about 1 100 probes taken between jobs there). Timings are reported
#: in seconds of a host on which the probe takes this long.
PROBE_REFERENCE_S = 0.085
#: End-to-end metrics the suite summarises and ``compare.py`` judges but
#: ``BENCHMARK.json`` cannot declare, since a declared metric must apply
#: to every workload and never read 0.
SUITE_METRICS = (
    {"name": "requests_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "latency_p95_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "error_rate", "unit": "fraction", "better": "lower",
     "bound": 0.0},
)


class JobError(Exception):
    """A job exited non-zero, timed out, or failed a check."""


# ---------------------------------------------------------------------- #
# environment and host roofline


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (KeyError, TypeError):
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def _llc_bytes() -> int:
    """Size of the highest-level CPU cache of cpu0 (0 if unknown)."""
    best_level, best_size = -1, 0
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in base.glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        if level > best_level:
            best_level, best_size = level, value
    return best_size


def host_roofline(n_samples: int) -> dict:
    """Measured host peaks for the layer ratios: a float64 GEMM shaped
    like an r² fill ((samples x 64)ᵀ (samples x 1024)), and an array
    copy (read + write bytes), each best of 3."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((n_samples, 64))
    b = rng.random((n_samples, 1024))
    flops = 2.0 * 64 * 1024 * n_samples
    reps = max(1, int(2e8 // flops))
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            a.T @ b
        best = min(best, (time.perf_counter() - t0) / reps)
    llc = _llc_bytes()
    size = min(max(4 * llc, 64 * 1024 * 1024), COPY_ARRAY_CAP)
    src = np.ones(size // 8)
    dst = np.zeros_like(src)
    copy_best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        copy_best = min(copy_best, time.perf_counter() - t0)
    return {
        "gemm_gflops": flops / best / 1e9,
        "gemm_shape": [n_samples, 64, 1024],
        "copy_gbs": 2.0 * size / copy_best / 1e9,
        "copy_array_bytes": size,
        "llc_bytes": llc,
    }


class HostProbe:
    """A fixed piece of work, run before the first job and after every
    job, that tracks how fast the shared host runs at the moment.

    Other tenants of the machine slow every timing here by 10-20 % for
    minutes at a time, and by up to 2x in bursts of a few seconds: more
    than any bound the benchmark could hold. The probe slows with them.
    A job's timings are scaled by ``PROBE_REFERENCE_S / probe``, with
    ``probe`` the faster of the probes just before and just after the
    job (the one less likely to have hit a burst).

    The probe mixes the jobs' kinds of work in about equal parts: an
    interpreted loop, a BLAS product shaped like an r² fill (on as many
    threads as the jobs' BLAS calls use, so it sees both cores), and
    array copies.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.random((2000, 64))
        self._b = rng.random((2000, 1024))
        self._src = rng.random(4_000_000)
        self._dst = np.empty_like(self._src)
        self()  # fault in the pages, so the first probe is like the rest

    def __call__(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i
        for _ in range(12):
            self._a.T @ self._b
        for _ in range(6):
            np.copyto(self._dst, self._src)
        return time.perf_counter() - t0


# ---------------------------------------------------------------------- #
# jobs


def _spawn(cmd: List[str], job_dir: str) -> subprocess.Popen:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    with open(os.path.join(job_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(job_dir, "stderr.txt"), "wb") as err:
        return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                stderr=err, start_new_session=True)


def _become_subreaper() -> None:
    """Adopt the orphans a job leaves (such as multiprocessing's resource
    tracker, which outlives its parent briefly), so that :func:`_reap`
    can wait for them too (Linux ``PR_SET_CHILD_SUBREAPER``)."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(36, 1, 0, 0, 0) != 0:  # 36: PR_SET_CHILD_SUBREAPER
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _shm_segments() -> set:
    """Names of the program's shared-memory segments now in /dev/shm."""
    from repro.datasets.alignment import SHM_NAME_PREFIX

    try:
        return {n for n in os.listdir("/dev/shm")
                if n.startswith(SHM_NAME_PREFIX)}
    except FileNotFoundError:
        return set()


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap(proc: subprocess.Popen, timeout: float, shm_before: set):
    """Wait for the job with ``wait4`` (its rusage covers every worker it
    reaped); kill its process group on timeout and afterwards, and wait
    for every adopted member of the group. Shared-memory segments that
    appeared since ``shm_before`` are unlinked, so that a killed job does
    not pin memory for the rest of the run. Returns the exit code, the
    rusage, the ``monotonic_ns`` at which the job was seen to exit and
    the names of the segments it left behind."""
    timer = threading.Timer(timeout, _kill_group, (proc.pid,))
    timer.daemon = True
    timer.start()
    try:
        _pid, status, rusage = os.wait4(proc.pid, 0)
        t_exit = time.monotonic_ns()
    finally:
        timer.cancel()
        _kill_group(proc.pid)
        while True:
            try:
                os.waitpid(-proc.pid, 0)
            except ChildProcessError:
                break
        leaked = sorted(_shm_segments() - shm_before)
        for name in leaked:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except FileNotFoundError:
                pass
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage, t_exit, leaked


def _stderr_tail(job_dir: str, n: int = 8) -> str:
    try:
        with open(os.path.join(job_dir, "stderr.txt"), encoding="utf-8",
                  errors="replace") as fh:
            return " | ".join(fh.read().splitlines()[-n:])
    except OSError:
        return ""


class Run:
    """One ``--workload`` run: inputs, reference, and its jobs."""

    def __init__(self, name: str, seed: int, seconds: float, trace: int):
        from workloads import WORKLOADS

        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t_start = time.monotonic()
        os.makedirs(WORK_DIR, exist_ok=True)
        self.work_dir = os.path.relpath(
            tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
        self.jobs: List[dict] = []
        self.errors: List[str] = []
        self.inputs = None
        self.reference = None
        self.brute_err = None
        self.host = None

    @property
    def n_haplotypes(self) -> int:
        p = self.workload.params
        return int(p["n_hap"] if "n_hap" in p else 2 * p["n_samples"])

    def prepare(self) -> None:
        """Generate the inputs and check the parser and the reference
        scan; raises ``oracle.OracleError`` on a wrong answer."""
        import oracle
        from workloads import make_inputs

        self.inputs = make_inputs(self.workload.name, self.seed,
                                  self.work_dir)
        self.input_bytes = sum(os.path.getsize(f) for f in self.inputs.files)
        self.reference = oracle.reference(self.inputs)
        self.brute_err = oracle.brute_force(self.reference, self.seed)
        if self.trace:
            self.host = host_roofline(self.n_haplotypes)

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def _timeout(self) -> float:
        return max(5.0, RUN_DEADLINE_S - (time.monotonic() - self.t_start))

    def _new_job(self, mode: str) -> dict:
        index = len(self.jobs)
        job_dir = os.path.join(self.work_dir, f"job{index}")
        os.makedirs(os.path.join(job_dir, "spans"))
        p = self.workload.params
        spec = {"workload": self.workload.name, "mode": mode,
                "job_dir": job_dir, "inputs": self.inputs.files,
                "socket": self.inputs.socket,
                **{k: v for k, v in p.items()}}
        spec_path = os.path.join(job_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return {"mode": mode, "job_dir": job_dir, "spec": spec_path,
                "ok": False}

    def measure(self) -> None:
        """Launch jobs back to back for ``seconds``; a traced run cycles
        plain, layer-wrapped and program-traced. After two cycles, no
        cycle starts that the last one's length says would end past
        ``seconds``, so a run does not overrun by a whole cycle."""
        modes = ["plain", "layers", "obs"] if self.trace else ["plain"]
        probe = HostProbe()
        probe_before = probe()
        t_measure = time.monotonic()
        for cycle in itertools.count(1):
            t_cycle = time.monotonic()
            for mode in modes:
                job = self._new_job(mode)
                try:
                    if self.workload.kind == "serve":
                        self._serve_job(job)
                    else:
                        self._batch_job(job)
                    job["ok"] = True
                except JobError as exc:
                    job["error"] = str(exc)
                    self.errors.append(f"job {len(self.jobs)} ({mode}): {exc}")
                probe_after = probe()
                job["probe_s"] = min(probe_before, probe_after)
                job["scale"] = PROBE_REFERENCE_S / job["probe_s"]
                probe_before = probe_after
                self.jobs.append(job)
                shutil.rmtree(job.pop("job_dir"), ignore_errors=True)
            now = time.monotonic()
            elapsed, last_cycle = now - t_measure, now - t_cycle
            if elapsed >= self.seconds or (
                    cycle >= 2 and elapsed + last_cycle > self.seconds):
                break

    # -- batch ------------------------------------------------------- #

    def _batch_job(self, job: dict) -> None:
        import oracle

        job_dir = job["job_dir"]
        shm_before = _shm_segments()
        t_launch = time.monotonic_ns()
        proc = _spawn([sys.executable, str(HERE / "job.py"), job["spec"]],
                      job_dir)
        code, rusage, t_exit, leaked = _reap(proc, self._timeout(),
                                             shm_before)
        self._record_process(job, t_launch, t_exit, rusage)
        if code != 0:
            raise JobError(f"exit {code}: {_stderr_tail(job_dir)}")
        if leaked:
            raise JobError(f"left shared memory behind: {leaked}")
        res = self._result_json(job_dir)
        job["peak_rss_mib"] = res["peak_rss_kib"] / 1024.0
        setup_ns = res["t_imported_ns"] - t_launch + res["setup_extra_ns"]
        job["setup_s"] = setup_ns / 1e9
        job["interp_s"] = (res["t_imported_ns"] - t_launch
                           + t_exit - res["t_done_ns"]) / 1e9
        job["counts"] = res["counts"]
        try:
            job["max_rel_err"] = oracle.check_job(job_dir, self.reference)
        except (oracle.OracleError, OSError, ValueError) as exc:
            raise JobError(f"oracle: {exc}") from exc
        self._record_layers(job, res)

    def _result_json(self, job_dir: str) -> dict:
        try:
            with open(os.path.join(job_dir, "result.json"),
                      encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError) as exc:
            raise JobError(f"no result.json: {exc}") from exc

    def _record_process(self, job, t_launch, t_exit, rusage) -> None:
        job["wall_s"] = (t_exit - t_launch) / 1e9
        job["cpu_s"] = rusage.ru_utime + rusage.ru_stime

    def _record_layers(self, job: dict, res: dict) -> None:
        if job["mode"] != "layers":
            return
        import layers

        spans = layers.load_spans(os.path.join(job["job_dir"], "spans"))
        job["layers"] = layers.layer_table(spans, res["pid"], res["tid"])

    # -- serve ------------------------------------------------------- #

    def _serve_job(self, job: dict) -> None:
        import oracle
        from repro.service.client import send_request
        from repro.service.model import ServiceError

        job_dir = job["job_dir"]
        sock = self.inputs.socket
        shm_before = _shm_segments()
        t_launch = time.monotonic_ns()
        proc = _spawn([sys.executable, str(HERE / "job.py"), job["spec"]],
                      job_dir)
        replies: List[tuple] = []
        failure = None
        try:
            t_ready = self._wait_ready(proc, sock)
            t_loop = time.monotonic_ns()
            replies = self._client_loop(sock)
            loop_s = (time.monotonic_ns() - t_loop) / 1e9
            send_request(sock, {"op": "shutdown"}, timeout=30.0)
        except (JobError, OSError, ServiceError, ValueError) as exc:
            failure = exc
            _kill_group(proc.pid)
        except BaseException:
            _kill_group(proc.pid)
            raise
        finally:
            code, rusage, t_exit, leaked = _reap(proc, self._timeout(),
                                                 shm_before)
            self._record_process(job, t_launch, t_exit, rusage)
            job["requests"] = len(self.inputs.requests)
        if failure is not None or code != 0:
            raise JobError(f"daemon exit {code}, {failure}: "
                           f"{_stderr_tail(job_dir)}")
        if leaked:
            raise JobError(f"left shared memory behind: {leaked}")
        failed = [r for r, _ in replies if not r.get("ok")]
        if failed:
            raise JobError(f"{len(failed)} request(s) failed: "
                           f"{failed[0].get('error')}")
        res = self._result_json(job_dir)
        job["peak_rss_mib"] = res["peak_rss_kib"] / 1024.0
        job["setup_s"] = (t_ready - t_launch) / 1e9
        job["interp_s"] = (res["t_imported_ns"] - t_launch
                           + t_exit - res["t_done_ns"]) / 1e9
        job["loop_s"] = loop_s
        job["latencies"] = [lat for _r, lat in replies]
        job["queue_s"] = sum(r["queue_seconds"] for r, _ in replies)
        job["server_s"] = sum(r["wall_seconds"] for r, _ in replies)
        job["counts"] = _reply_counts([r for r, _ in replies])
        try:
            job["max_rel_err"] = oracle.check_replies(
                [r for r, _ in replies], self.reference)
        except (oracle.OracleError, KeyError, ValueError) as exc:
            raise JobError(f"oracle: {exc}") from exc
        self._record_layers(job, res)

    def _wait_ready(self, proc: subprocess.Popen, sock: str) -> int:
        """Ping until the daemon answers; the monotonic ns it first did."""
        from repro.service.client import send_request
        from repro.service.model import ServiceError

        deadline = time.monotonic() + min(60.0, self._timeout())
        while time.monotonic() < deadline:
            # WNOWAIT: notice an early exit but leave the child for wait4.
            if os.waitid(os.P_PID, proc.pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None:
                raise JobError("daemon exited before it was ready")
            try:
                if send_request(sock, {"op": "ping"}, timeout=5.0).get("ok"):
                    return time.monotonic_ns()
            except (OSError, ServiceError, ValueError):
                pass
            time.sleep(0.005)
        raise JobError("daemon never answered ping")

    def _client_loop(self, sock: str) -> List[tuple]:
        """Closed loop: each client sends its next request on reply."""
        from repro.service.client import send_request
        from repro.service.model import ServiceError

        requests = self.inputs.requests
        out: List[Optional[tuple]] = [None] * len(requests)
        lock = threading.Lock()
        order = iter(range(len(requests)))

        def client() -> None:
            while True:
                with lock:
                    k = next(order, None)
                if k is None:
                    return
                t0 = time.monotonic_ns()
                try:
                    reply = send_request(sock, requests[k], timeout=60.0)
                except (OSError, ServiceError, ValueError) as exc:
                    reply = {"ok": False, "error": repr(exc)}
                out[k] = (reply, (time.monotonic_ns() - t0) / 1e9)

        threads = [threading.Thread(target=client)
                   for _ in range(int(self.workload.params["clients"]))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return [o for o in out if o is not None]


def _reply_counts(replies: List[dict]) -> dict:
    """Counts summed over the daemon's per-request metrics snapshots."""
    def counter(reply, name):
        return (reply.get("metrics") or {}).get("counters", {}).get(name, 0)

    fields = ("positions", "omegas", "left_borders_bp", "right_borders_bp",
              "n_evaluations")
    total = {
        "plan.positions": sum(len(r["positions"]) for r in replies),
        "omega.evaluations": sum(sum(r["n_evaluations"]) for r in replies),
        "report.bytes": sum(len(json.dumps({f: r[f] for f in fields}))
                            for r in replies),
    }
    for key, name in (("ld.fill_entries", "ld.entries_computed"),
                      ("dp.builds", "dp.builds"),
                      ("omega.batched_positions", "omega.batched_positions"),
                      ("omega.direct_positions", "omega.direct_positions"),
                      ("tilestore.hits", "tilestore.hits"),
                      ("tilestore.fills", "tilestore.fills"),
                      ("sched.blocks", "scheduler.blocks_dispatched"),
                      ("reuse.entries_computed", "ld.entries_computed"),
                      ("reuse.entries_reused", "ld.entries_reused"),
                      ("dp.entries_computed", "dp.entries_computed"),
                      ("dp.entries_reused", "dp.entries_reused")):
        total[key] = sum(counter(r, name) for r in replies)
    return total


# ---------------------------------------------------------------------- #
# metrics


def _ok(jobs: List[dict], mode: str) -> List[dict]:
    return [j for j in jobs if j["ok"] and j["mode"] == mode]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end_metrics(run: Run) -> Dict[str, tuple]:
    """``{metric: (value, sample count)}`` over the plain jobs: each timing
    is the lower quartile of the jobs' values in reference seconds (see
    :class:`HostProbe`; noise on a shared host only ever adds time),
    ``peak_rss_mib`` the median. For the daemon also its request rate and
    latency percentiles; for every run its error rate."""
    plain = _ok(run.jobs, "plain")
    attempted, failed = _attempted_failed(run)
    out = {"error_rate": (failed / attempted, attempted)}
    if not plain:
        return out

    def timing(key: str) -> tuple:
        return (stats.lower_quartile([j[key] * j["scale"] for j in plain]),
                len(plain))

    out.update({
        "wall_s": timing("wall_s"),
        "setup_s": timing("setup_s"),
        "cpu_s": timing("cpu_s"),
        "peak_rss_mib": (stats.median([j["peak_rss_mib"] for j in plain]),
                         len(plain)),
    })
    if run.workload.kind == "serve":
        latencies = [lat * j["scale"] for j in plain for lat in j["latencies"]]
        out["requests_per_s"] = (
            len(run.inputs.requests) / timing("loop_s")[0], len(plain))
        out["latency_p50_s"] = (stats.median(latencies), len(latencies))
        p95 = stats.tail_percentile(latencies, 95)
        if p95 is not None:
            out["latency_p95_s"] = (p95, len(latencies))
    return out


def _layer_row(job: dict, run: Run) -> Dict[str, float]:
    """Per-layer values of one layer-wrapped job."""
    table = job["layers"]
    busy = table["self_s"]
    counts = table["counts"]
    wall = job["wall_s"]

    def s(layer: str) -> float:
        return busy.get(layer, 0.0)

    parse_bytes = counts.get("parse.bytes", 0)
    gflops = _ratio(2.0 * counts.get("ld_fill.entries", 0)
                    * run.n_haplotypes / 1e9, s("ld_fill"))
    other = wall - job["interp_s"] - sum(table["main_self_s"].values())
    # Computed bytes: each served r² cell is read once (cached matrix or
    # fresh block) and written once, 8 bytes each.
    relocate_gbs = _ratio(16.0 * counts.get("reuse.cells", 0) / 1e9,
                          s("reuse"))
    return {
        "parse.busy_s": s("parse"),
        "parse.bytes_read": parse_bytes,
        "parse.read_amplification": parse_bytes / run.input_bytes,
        "parse.mb_per_s": _ratio(parse_bytes / 1e6, s("parse")),
        "plan.busy_s": s("plan"),
        "ld.pack_busy_s": s("ld_pack"),
        "ld.fill_busy_s": s("ld_fill"),
        "ld.fill_gflops": gflops,
        "ld.fill_roofline_frac": gflops / run.host["gemm_gflops"],
        "reuse.relocate_busy_s": s("reuse"),
        "reuse.relocate_gbs": relocate_gbs,
        "reuse.relocate_copy_frac": relocate_gbs / run.host["copy_gbs"],
        "tilestore.busy_frac": s("tilestore") / wall,
        "dp.busy_s": s("dp"),
        "omega.busy_s": s("omega"),
        "omega.evals_per_s": _ratio(counts.get("omega.evaluations", 0),
                                    s("omega")),
        "scan.busy_s": s("scan"),
        "sched.start_frac": s("sched_start") / wall,
        "sched.dispatch_frac": s("sched_dispatch") / wall,
        "sched.worker_busy_frac": _ratio(
            table["worker_busy_s"],
            run.workload.params.get("workers", 1) * table["dispatch_wall_s"]),
        "shard.plan_frac": s("shard_plan") / wall,
        "shard.run_frac": s("shard_run") / wall,
        "shard.merge_frac": s("shard_merge") / wall,
        "report.busy_frac": s("report") / wall,
        "interp.busy_s": job["interp_s"],
        "other.self_s": other,
        "other.frac": other / wall,
    }


def per_layer_metrics(run: Run) -> Dict[str, tuple]:
    """``{metric: (value, sample count)}`` from a traced run: span-derived
    values are medians over the layer-wrapped jobs, counts and service
    shares come from the plain jobs."""
    plain = _ok(run.jobs, "plain")
    wrapped = _ok(run.jobs, "layers")
    traced = _ok(run.jobs, "obs")
    if not (plain and wrapped and traced):
        return {}
    rows = [_layer_row(j, run) for j in wrapped]
    out = {name: (stats.median([r[name] for r in rows]), len(rows))
           for name in rows[0]}
    c = plain[0]["counts"]
    n = len(plain)
    lat = sum(sum(j.get("latencies", [])) for j in plain)
    queue = sum(j.get("queue_s", 0.0) for j in plain)
    server = sum(j.get("server_s", 0.0) for j in plain)

    def overhead(jobs: List[dict]) -> tuple:
        """Median wall of ``jobs`` over the plain jobs' median, minus 1,
        both in reference seconds, so host drift between them cancels."""
        return (stats.median([j["wall_s"] * j["scale"] for j in jobs])
                / stats.median([j["wall_s"] * j["scale"] for j in plain])
                - 1.0, len(jobs))

    out.update({
        "plan.positions": (c["plan.positions"], n),
        "ld.fill_entries": (c["ld.fill_entries"], n),
        "reuse.r2_reuse_frac": (_ratio(
            c["reuse.entries_reused"],
            c["reuse.entries_reused"] + c["reuse.entries_computed"]), n),
        "tilestore.hit_frac": (_ratio(
            c["tilestore.hits"], c["tilestore.hits"] + c["tilestore.fills"]),
            n),
        "dp.builds": (c["dp.builds"], n),
        "dp.reuse_frac": (_ratio(
            c["dp.entries_reused"],
            c["dp.entries_reused"] + c["dp.entries_computed"]), n),
        "omega.evaluations": (c["omega.evaluations"], n),
        "omega.batched_frac": (_ratio(
            c["omega.batched_positions"],
            c["omega.batched_positions"] + c["omega.direct_positions"]), n),
        "sched.blocks": (c["sched.blocks"], n),
        "service.queue_wait_frac": (_ratio(queue, lat), n),
        "service.transport_frac": (_ratio(lat - queue - server, lat), n),
        "report.bytes": (c["report.bytes"], n),
        "trace.overhead_frac": overhead(wrapped),
        "obs.program_trace_overhead_frac": overhead(traced),
        "host.gemm_gflops": (run.host["gemm_gflops"], 3),
        "host.copy_gbs": (run.host["copy_gbs"], 3),
        "check.max_rel_err": (max(j["max_rel_err"] for j in plain), n),
    })
    return out


def _attempted_failed(run: Run) -> tuple:
    """Jobs for batch workloads; requests for the daemon, where a job
    that fails any check fails all of its requests. A failed check
    outside any job (the reference scan) counts as one failure."""
    if run.workload.kind == "serve":
        attempted = sum(j.get("requests", 0) for j in run.jobs)
        failed = sum(j.get("requests", 0) for j in run.jobs if not j["ok"])
    else:
        attempted = len(run.jobs)
        failed = sum(1 for j in run.jobs if not j["ok"])
    if run.errors and not failed:
        failed = 1
    return max(attempted, failed, 1), failed


def run_document(run: Run, bench: dict) -> dict:
    """Everything one run measured, as a JSON-able document."""
    declared = bench["per_layer" if run.trace else "end_to_end"]
    values = per_layer_metrics(run) if run.trace else end_to_end_metrics(run)

    def entry(m: dict) -> dict:
        value, n = values[m["name"]]
        return {"value": value, "unit": m["unit"], "n": n}

    metrics = {m["name"]: entry(m) for m in declared if m["name"] in values}
    suite_metrics = {} if run.trace else {
        m["name"]: entry(m) for m in SUITE_METRICS if m["name"] in values}
    missing = [m["name"] for m in declared if m["name"] not in values]
    errors = list(run.errors)
    if missing:
        errors.append(f"no value for {', '.join(missing)}")
    plain = _ok(run.jobs, "plain")
    repeat = all(
        all(j["counts"][k] == plain[0]["counts"][k] for k in EXACT_COUNTS)
        for j in plain
    )
    if not repeat:
        errors.append("exact counts differ between jobs on one input")
    attempted, failed = _attempted_failed(run)
    return {
        "schema": SCHEMA,
        "workload": run.workload.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "inputs": {"sha256": run.inputs.sha256, "bytes": run.input_bytes},
        "host": run.host,
        "checks": {
            "brute_force_max_rel_err": run.brute_err,
            "max_rel_err": max((j["max_rel_err"] for j in run.jobs
                                if j["ok"]), default=None),
        },
        "counts": plain[0]["counts"] if plain else None,
        "metrics": metrics,
        "suite_metrics": suite_metrics,
        "jobs": run.jobs,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "correct": not errors and failed == 0,
    }


def result_line(doc: dict) -> str:
    """The last stdout line: exactly correct/attempted/failed/metrics."""
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in doc["metrics"].items()},
    })


def print_run(doc: dict) -> None:
    sha = ", ".join(f"{k} {v[:12]}" for k, v in doc["inputs"]["sha256"].items())
    print(f"{doc['workload']} seed={doc['seed']} trace={doc['trace']}: "
          f"{doc['attempted']} attempted, {doc['failed']} failed; {sha}")
    for name, m in {**doc["metrics"], **doc["suite_metrics"]}.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:10s} n={m['n']}")
    plain = [j for j in doc["jobs"] if j["ok"] and j["mode"] == "plain"]
    if plain:
        print(f"  {'(raw wall_s, time scale)':34s} "
              f"{stats.median([j['wall_s'] for j in plain]):>16.6g} s"
              f"          scale {stats.median([j['scale'] for j in plain]):.4g}")
    checks = doc["checks"]
    print(f"  check.max_rel_err {checks['max_rel_err']}, brute force "
          f"{checks['brute_force_max_rel_err']}")
    for err in doc["errors"][:5]:
        print(f"  ERROR {err}")
    if len(doc["errors"]) > 5:
        print(f"  ... {len(doc['errors']) - 5} more errors")


def execute(name: str, seed: int, seconds: float, trace: int,
            bench: dict) -> dict:
    """One run, start to finish; the work directory is always removed."""
    import oracle

    run = Run(name, seed, seconds, trace)
    try:
        run.prepare()
        run.measure()
    except oracle.OracleError as exc:
        run.errors.append(f"oracle: {exc}")
    finally:
        run.close()
    if run.inputs is None:
        raise RuntimeError("input generation failed")
    doc = run_document(run, bench)
    doc["elapsed_s"] = time.monotonic() - run.t_start
    return doc


# ---------------------------------------------------------------------- #
# suite mode


def suite(args, bench: dict) -> int:
    """Warm-up round, measured rounds, traced round; each round visits
    every workload once in a fixed order."""
    from workloads import WORKLOADS

    plan = [("warmup", 0, 0, 0.0)]
    plan += [(f"round{r}", r, 0, args.seconds)
             for r in range(1, MEASURED_ROUNDS + 1)]
    plan += [("traced", 0, 1, args.seconds)]
    doc = {"schema": SCHEMA, "kind": "suite", "seed": args.seed,
           "rounds": MEASURED_ROUNDS, "seconds": args.seconds,
           "env": environment(), "workloads": {}}
    correct, attempted, failed = True, 0, 0
    for label, offset, trace, seconds in plan:
        for name in WORKLOADS:
            rdoc = execute(name, args.seed + offset, seconds, trace, bench)
            rdoc["round"] = label
            print(f"[{label}] ", end="")
            print_run(rdoc)
            sys.stdout.flush()
            del rdoc["jobs"]
            doc["workloads"].setdefault(name, {"runs": []})["runs"].append(
                rdoc)
            correct &= rdoc["correct"]
            attempted += rdoc["attempted"]
            failed += rdoc["failed"]
    final = {}
    print("\nsummary (medians over measured rounds; spread = IQR / median)")
    for name, entry in doc["workloads"].items():
        measured = [r for r in entry["runs"] if r["round"].startswith("round")]
        summary = {}
        for m in (*bench["end_to_end"], *SUITE_METRICS):
            vals = [r[key][m["name"]]["value"] for r in measured
                    for key in ("metrics", "suite_metrics")
                    if m["name"] in r[key]]
            if not vals:
                continue
            q1, mid, q3 = stats.quartiles(vals)
            summary[m["name"]] = {"values": vals, "median": mid, "q1": q1,
                                  "q3": q3, "spread": stats.spread(vals),
                                  "unit": m["unit"], "n": len(vals)}
            final[f"{name}/{m['name']}"] = {"value": mid, "unit": m["unit"]}
            print(f"  {name:20s} {m['name']:16s} {mid:>14.6g} "
                  f"{m['unit']:8s} spread {stats.spread(vals):6.2%} "
                  f"n={len(vals)}")
        entry["end_to_end"] = summary
        entry["counts"] = {str(r["seed"]): r["counts"] for r in measured}
        traced = [r for r in entry["runs"] if r["round"] == "traced"]
        entry["per_layer"] = traced[0]["metrics"] if traced else {}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1


# ---------------------------------------------------------------------- #


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' for the suite")
    parser.add_argument("--seed", type=int, default=20261016)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                        "BENCHMARK.json run_seconds; suite: 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="write the full JSON document here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (
            ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a repository checkout (needs "
              "src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.out:
        args.out = os.path.abspath(args.out)
    # On SIGTERM, unwind through the finally blocks that stop the jobs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _become_subreaper()
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload == "all":
        if args.seconds is None:
            args.seconds = 10.0
        return suite(args, bench)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    doc = execute(args.workload, args.seed, seconds, args.trace, bench)
    doc["env"] = environment()
    print_run(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print(result_line(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
