"""The five end-to-end workloads: sizes, seeded inputs and job specs.

Each workload drives one public entry point on inputs shaped like one of
the paper's regimes. Sizes are chosen so one job takes about 2 s on a
2-core host, of which interpreter start-up is under a fifth: the layers,
not start-up, set the end-to-end times, and a 20 s run still holds 5-7
jobs for its lower quartile. Load never exceeds 2 busy program processes.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import gen

__all__ = ["WORKLOADS", "Inputs", "Workload", "make_inputs"]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"batch"``: one job is one process from launch to report.
    #: ``"serve"``: one job is one daemon lifetime serving a fixed list of
    #: requests from 2 closed-loop client connections.
    kind: str
    params: Dict[str, float]


# Why each workload exists: README.md, "Workloads".
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's balanced regime: r² fill and DP+ω both heavy
        # (about 600 SNPs a side).
        Workload("balanced_ms", "batch",
                 dict(n_hap=2000, n_sites=4000, length=400_000, grid=150,
                      maxwin=60_000)),
        # High-LD regime through scan_stream: r² fill and re-read parsing
        # dominate, ω is light; tests streaming's memory bound.
        Workload("highld_ms_stream", "batch",
                 dict(n_hap=5000, n_sites=4000, length=1_600_000, grid=640,
                      maxwin=76_000, snp_budget=1000)),
        # High-ω regime through the shared-memory scheduler: DP+ω and r²
        # relocation dominate.
        Workload("highomega_parallel", "batch",
                 dict(n_hap=128, n_sites=8000, length=800_000, grid=360,
                      maxwin=60_000, workers=2)),
        # Sparse grid over a 4-chromosome diploid VCF via shard-scan:
        # parsing, planning, batched ω and per-shard processes.
        Workload("chroms_vcf_shard", "batch",
                 dict(n_chrom=4, n_samples=200, n_sites=800, length=80_000,
                      grid=800, maxwin=1_000, missing_rate=0.01, workers=2,
                      snp_budget=8192)),
        # The daemon on overlapping regions: the only workload whose
        # requests reuse r² tiles.
        Workload("regions_serve", "serve",
                 dict(n_hap=96, n_sites=12_000, length=1_000_000,
                      maxwin=10_000, requests=120, region=50_000,
                      positions=30, workers=2, clients=2)),
    )
}


@dataclass
class Inputs:
    """What one run generated: files, their hashes, and the generator's
    own arrays (the oracle's ground truth)."""

    workload: Workload
    files: List[str]
    sha256: Dict[str, str]
    #: ms workloads: ``{"hap", "positions"}``; VCF: ``{"chromosomes"}``.
    truth: dict
    #: regions_serve: the request payloads, in send order.
    requests: List[dict] = field(default_factory=list)
    socket: Optional[str] = None


def _write(path: str, data: bytes) -> str:
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def make_inputs(name: str, seed: int, work_dir: str) -> Inputs:
    """Generate ``name``'s inputs from ``seed`` into ``work_dir``."""
    w = WORKLOADS[name]
    p = w.params
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng([seed, index])
    if name == "chroms_vcf_shard":
        chromosomes = [
            gen.vcf_chromosome(
                rng, f"chr{k + 1}", n_samples=int(p["n_samples"]),
                n_sites=int(p["n_sites"]), length=int(p["length"]),
                missing_rate=p["missing_rate"],
            )
            for k in range(int(p["n_chrom"]))
        ]
        path = os.path.join(work_dir, "chroms.vcf")
        digest = _write(path, gen.vcf_bytes(chromosomes))
        return Inputs(w, [path], {"chroms.vcf": digest},
                      {"chromosomes": chromosomes})
    hap = gen.mosaic_haplotypes(rng, int(p["n_hap"]), int(p["n_sites"]))
    gen.make_polymorphic(rng, hap)
    rel = gen.relative_positions(int(p["n_sites"]))
    path = os.path.join(work_dir, f"{name}.ms")
    digest = _write(path, gen.ms_bytes(hap, rel))
    inputs = Inputs(w, [path], {os.path.basename(path): digest},
                    {"hap": hap, "positions": rel * p["length"]})
    if w.kind == "serve":
        span = rel[-1] * p["length"] - p["region"]
        starts = rel[0] * p["length"] + rng.uniform(0, span, int(p["requests"]))
        inputs.requests = [
            {"op": "scan", "start_bp": float(s),
             "stop_bp": float(s + p["region"]),
             "n_positions": int(p["positions"])}
            for s in starts
        ]
        inputs.socket = os.path.join(work_dir, "scan.sock")
    return inputs
