"""Layer spans recorded from outside the program.

:func:`install` wraps the public functions listed in :data:`LAYERS` with
timing code that lives in this file, so the program under test is not
edited. A wrapped call records one span: name, layer, start and end
(``time.monotonic_ns``, one clock for every process on the host), pid,
thread, its parent span and a few counts taken from its arguments or
result.

Spans are kept in memory and appended to ``<trace_dir>/<pid>.jsonl``
whenever a thread's outermost span closes. Pool, shard and daemon
workers are forked from a process that already holds the wrappers, so
they record too; a worker stopped by ``pool.terminate()`` has written
every span it closed. A forked child's first span takes the span that
was open in its parent at fork time as its parent.

:func:`layer_table` reduces the span files of one job to per-layer self
times: a span's duration minus the part of it that its children in the
same thread cover.

Renaming any function in :data:`LAYERS` is a change to the benchmark.
"""

from __future__ import annotations

import functools
import glob
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "LAYERS",
    "SpanRecorder",
    "install",
    "layer_table",
    "load_spans",
    "self_times",
]


def _rchar() -> int:
    """Bytes this process has read through read(2)-like calls so far."""
    with open("/proc/self/io", "rb") as fh:
        for line in fh:
            if line.startswith(b"rchar:"):
                return int(line.split()[1])
    return 0


def _rchar_begin(args, kwargs):
    return _rchar()


def _rchar_end(state, args, kwargs, result):
    return {"bytes": _rchar() - state}


def _fill_end(state, args, kwargs, result):
    return {"entries": int(result.size)}


def _plans_end(state, args, kwargs, result):
    return {"positions": len(result)}


def _region_end(state, args, kwargs, result):
    return {"cells": int(result.size)}


def _omega_split_end(state, args, kwargs, result):
    return {"evaluations": int(result.n_evaluations)}


def _omega_batch_end(state, args, kwargs, result):
    return {"evaluations": int(result.n_evaluations.sum())}


#: ``(module, attribute path, layer, begin hook, end hook)`` for every
#: wrapped public function. Module-level functions are rebound under
#: every name a ``repro`` module imported them by.
LAYERS: Tuple[tuple, ...] = (
    ("repro.datasets.msformat", "parse_ms", "parse", _rchar_begin, _rchar_end),
    ("repro.datasets.vcf", "parse_vcf", "parse", _rchar_begin, _rchar_end),
    ("repro.datasets.missing", "MaskedAlignment.impute_major", "parse",
     None, None),
    ("repro.datasets.alignment", "SNPAlignment.drop_monomorphic", "parse",
     None, None),
    ("repro.datasets.streaming", "enumerate_chromosomes", "parse",
     _rchar_begin, _rchar_end),
    ("repro.datasets.streaming", "StreamingAlignmentReader.__init__",
     "parse", _rchar_begin, _rchar_end),
    ("repro.core.grid", "build_plans", "plan", None, _plans_end),
    ("repro.core.grid", "build_plans_from_positions", "plan", None,
     _plans_end),
    ("repro.core.parallel", "plans_for_positions", "plan", None, _plans_end),
    ("repro.ld.operands", "LDOperands.gemm_plane", "ld_pack", None, None),
    ("repro.ld.operands", "LDOperands.packed", "ld_pack", None, None),
    ("repro.ld.operands", "LDBackendFiller.__call__", "ld_fill", None,
     _fill_end),
    ("repro.core.reuse", "R2RegionCache.region_matrix", "reuse", None,
     _region_end),
    ("repro.core.tilestore", "SharedR2TileStore.block", "tilestore", None,
     None),
    ("repro.core.reuse", "SumMatrixCache.region_sums", "dp", None, None),
    ("repro.core.omega", "omega_max_at_split", "omega", None,
     _omega_split_end),
    ("repro.core.batch", "omega_max_batch", "omega", None, _omega_batch_end),
    ("repro.core.batch", "BatchedOmegaPlan.add", "omega", None, None),
    ("repro.core.scan", "OmegaPlusScanner.scan", "scan", None, None),
    ("repro.core.scan", "scan_stream", "scan", None, None),
    ("repro.core.parallel", "ParallelScanSession.start", "sched_start", None,
     None),
    ("repro.core.parallel", "ParallelScanSession.scan", "sched_dispatch",
     None, None),
    ("repro.core.parallel", "ParallelScanSession.scan_positions",
     "sched_dispatch", None, None),
    ("repro.shard.planner", "build_manifest", "shard_plan", None, None),
    ("repro.shard.runner", "run_manifest", "shard_run", None, None),
    ("repro.shard.runner", "merge_manifest", "shard_merge", None, None),
    ("repro.core.results", "ScanResult.to_tsv", "report", None, None),
    ("repro.shard.runner", "ShardScanResult.to_tsv", "report", None, None),
)


class SpanRecorder:
    """Fork- and thread-aware in-memory span buffer for one job.

    Each thread keeps its own stack of open spans; a process learns that
    it was forked when ``os.getpid()`` changes and starts afresh, so a
    child never writes spans its parent recorded.
    """

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self._pid: Optional[int] = None
        self._local = threading.local()
        self._fork_parent: Optional[str] = None
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._fd: Optional[int] = None

    def _thread_state(self):
        pid = os.getpid()
        if pid != self._pid:
            if self._pid is not None:
                inherited = getattr(self._local, "stack", None)
                self._fork_parent = inherited[-1][0] if inherited else None
            self._pid = pid
            self._local = threading.local()
            self._lock = threading.Lock()
            self._ids = itertools.count()
            self._fd = None
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.done = []
        return local

    def begin(self, name: str, layer: str) -> tuple:
        local = self._thread_state()
        stack = local.stack
        parent = stack[-1][0] if stack else self._fork_parent
        span = (f"{self._pid}:{next(self._ids)}", parent, name, layer,
                time.monotonic_ns())
        stack.append(span)
        return span

    def end(self, span: tuple, extra: Optional[dict] = None) -> None:
        end_ns = time.monotonic_ns()
        local = self._thread_state()
        if not local.stack or local.stack[-1] is not span:
            return  # opened before a fork; the parent records it
        local.stack.pop()
        sid, parent, name, layer, start_ns = span
        record = {
            "id": sid, "parent": parent, "name": name, "layer": layer,
            "start": start_ns, "end": end_ns, "pid": self._pid,
            "tid": threading.get_ident(),
        }
        if extra:
            record.update(extra)
        local.done.append(record)
        if not local.stack:
            self._flush(local)

    def _flush(self, local) -> None:
        data = "".join(json.dumps(r) + "\n" for r in local.done).encode()
        local.done = []
        with self._lock:
            if self._fd is None:
                self._fd = os.open(
                    os.path.join(self.trace_dir, f"{self._pid}.jsonl"),
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
                )
            os.write(self._fd, data)


class _TimedWindows:
    """Iterator proxy that records each ``next()`` as a parse span."""

    def __init__(self, recorder: SpanRecorder, inner):
        self._recorder = recorder
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        start = _rchar()
        span = self._recorder.begin("StreamingAlignmentReader.windows.next",
                                    "parse")
        try:
            return next(self._inner)
        finally:
            self._recorder.end(span, {"bytes": _rchar() - start})

    def close(self) -> None:
        self._inner.close()


def _wrap(recorder: SpanRecorder, fn: Callable, name: str, layer: str,
          begin_hook, end_hook) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = begin_hook(args, kwargs) if begin_hook else None
        span = recorder.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.end(span)
            raise
        recorder.end(
            span, end_hook(state, args, kwargs, result) if end_hook else None
        )
        return result

    return wrapper


def install(recorder: SpanRecorder) -> None:
    """Wrap every function in :data:`LAYERS` (import the entry points
    first, so every module that imported a function by name is loaded)."""
    for module_name, path, layer, begin_hook, end_hook in LAYERS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(recorder, original, path, layer,
                                       begin_hook, end_hook))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(recorder, original, path, layer, begin_hook, end_hook)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original):
                setattr(mod, attr, wrapped)
    from repro.datasets.streaming import StreamingAlignmentReader

    windows = StreamingAlignmentReader.windows

    @functools.wraps(windows)
    def timed_windows(self, ranges):
        return _TimedWindows(recorder, windows(self, ranges))

    StreamingAlignmentReader.windows = timed_windows


# ---------------------------------------------------------------------- #
# reduction


def load_spans(trace_dir: str) -> List[dict]:
    """Every span recorded under ``trace_dir``, in file order."""
    spans: List[dict] = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[dict]) -> Dict[str, int]:
    """Span id -> self time in ns: duration minus the part of the span's
    interval its children in the same process and thread cover (a
    forked child runs beside its parent, not inside it)."""
    by_id = {s["id"]: s for s in spans}
    children: Dict[str, List[Tuple[int, int]]] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and (parent["pid"], parent["tid"]) == (
            s["pid"], s["tid"]
        ):
            lo = max(s["start"], parent["start"])
            hi = min(s["end"], parent["end"])
            if hi > lo:
                children.setdefault(parent["id"], []).append((lo, hi))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], ()))
        for s in spans
    }


def layer_table(spans: List[dict], main_pid: int, main_tid: int) -> dict:
    """Per-layer reduction of one job's spans.

    Returns ``{"self_s": {layer: seconds over all processes},
    "main_self_s": {layer: seconds on the job's main thread},
    "counts": {layer.key: sum}, "worker_busy_s", "dispatch_wall_s",
    "spans"}``. Counts (bytes, entries, positions, ...) are summed over
    spans whose parent belongs to another layer, so a layer calling
    itself is not counted twice. ``worker_busy_s`` sums the outermost
    spans of every other process; ``dispatch_wall_s`` is the time the
    job's own process spent inside scheduler dispatch.
    """
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    self_s: Dict[str, float] = {}
    main_self_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    skip = {"id", "parent", "name", "layer", "start", "end", "pid", "tid"}
    for s in spans:
        layer = s["layer"]
        seconds = selfs[s["id"]] / 1e9
        self_s[layer] = self_s.get(layer, 0.0) + seconds
        if (s["pid"], s["tid"]) == (main_pid, main_tid):
            main_self_s[layer] = main_self_s.get(layer, 0.0) + seconds
        parent = by_id.get(s["parent"])
        if parent is not None and parent["layer"] == layer:
            continue
        for key, value in s.items():
            if key not in skip:
                name = f"{layer}.{key}"
                counts[name] = counts.get(name, 0) + value
    worker_busy = sum(
        s["end"] - s["start"] for s in spans
        if s["pid"] != main_pid and (
            s["parent"] not in by_id or by_id[s["parent"]]["pid"] != s["pid"])
    )
    dispatch = _covered(
        (s["start"], s["end"]) for s in spans
        if s["pid"] == main_pid and s["layer"] == "sched_dispatch"
    )
    return {"self_s": self_s, "main_self_s": main_self_s, "counts": counts,
            "worker_busy_s": worker_busy / 1e9,
            "dispatch_wall_s": dispatch / 1e9, "spans": len(spans)}
