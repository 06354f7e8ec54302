"""Seeded input writers for the end-to-end benchmark.

The benchmark owns its inputs. Nothing here calls the program's own
generators (``repro.datasets.generators``, ``WorkloadSpec``), so a change
to program code cannot silently change what the benchmark measures.
Every function is a pure function of its arguments (and of a
``numpy.random.Generator``, where it draws): the same seed gives the
same bytes.

Haplotypes are a block mosaic of a few founder haplotypes with copying
errors (a Li-Stephens-style process), so r² decays with distance the way
it does in real data instead of sitting at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = [
    "VcfChromosome",
    "make_polymorphic",
    "mosaic_haplotypes",
    "ms_bytes",
    "relative_positions",
    "vcf_bytes",
    "vcf_chromosome",
]

#: Header columns of a VCF data line before the sample genotypes.
_VCF_FIXED = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT"

#: Phased diploid genotype text by code ``2 * hap0 + hap1``; code 4 is a
#: missing call. Every entry is three bytes, so a site's genotype block
#: is one fixed-shape byte array.
_GENOTYPES = np.frombuffer(b"0|00|11|01|1.|.", dtype=np.uint8).reshape(5, 3)


def mosaic_haplotypes(
    rng: np.random.Generator,
    n_hap: int,
    n_sites: int,
    *,
    n_founders: int = 24,
    block_sites: int = 16,
    switch_prob: float = 0.2,
    error: float = 0.01,
) -> np.ndarray:
    """``(n_hap, n_sites)`` uint8 haplotypes copied block-wise from a few
    founders, each site flipped with probability ``error``.

    Built one block of sites at a time, so memory stays proportional to
    the output matrix.
    """
    freqs = rng.uniform(0.05, 0.5, n_sites)
    founders = (rng.random((n_founders, n_sites)) < freqs).astype(np.uint8)
    hap = np.empty((n_hap, n_sites), dtype=np.uint8)
    source = rng.integers(n_founders, size=n_hap)
    for lo in range(0, n_sites, block_sites):
        hi = min(lo + block_sites, n_sites)
        if lo:
            switch = rng.random(n_hap) < switch_prob
            source = np.where(
                switch, rng.integers(n_founders, size=n_hap), source
            )
        block = founders[:, lo:hi][source]
        block ^= (rng.random((n_hap, hi - lo)) < error).astype(np.uint8)
        hap[:, lo:hi] = block
    return hap


def make_polymorphic(rng: np.random.Generator, hap: np.ndarray) -> None:
    """Flip one random haplotype at every monomorphic site, in place (ms
    lists segregating sites only)."""
    counts = hap.sum(axis=0, dtype=np.int64)
    for site in np.flatnonzero((counts == 0) | (counts == hap.shape[0])):
        hap[rng.integers(hap.shape[0]), site] ^= 1


def regular_grid(n_sites: int, span: float) -> np.ndarray:
    """``n_sites`` points in ``(0, span)``, one in the middle of each of
    ``n_sites`` equal cells.

    Every window of a given width then holds the same number of sites
    whatever the seed, so array sizes, and with them the work a scan does
    and the memory it takes, do not depend on the seed. (With sites
    jittered inside their cells, windows differed by a site or two, and
    that alone moved a scan's peak RSS by 3 %.)
    """
    return (np.arange(n_sites) + 0.5) * (span / n_sites)


def relative_positions(n_sites: int) -> np.ndarray:
    """Strictly increasing positions in (0, 1) with six decimals, the
    precision ms writes."""
    if n_sites > 500_000:
        raise ValueError("six decimals cannot separate more than 500000 "
                         "evenly spaced sites")
    return np.round(regular_grid(n_sites, 1.0), 6)


def ms_bytes(hap: np.ndarray, rel_positions: np.ndarray) -> bytes:
    """One-replicate ms file for ``hap`` at ``rel_positions``."""
    n_hap, n_sites = hap.shape
    head = (
        f"ms {n_hap} 1\n1 2 3\n\n//\nsegsites: {n_sites}\npositions: "
        + " ".join(f"{p:.6f}" for p in rel_positions)
        + "\n"
    ).encode("ascii")
    rows = (hap + ord("0")).astype(np.uint8)
    return head + b"\n".join(row.tobytes() for row in rows) + b"\n"


@dataclass(frozen=True)
class VcfChromosome:
    """One chromosome block of a diploid VCF, as the generator drew it.

    ``hap`` holds both alleles of every sample (sample ``s`` owns rows
    ``2s`` and ``2s + 1``); ``missing[s, site]`` marks a missing genotype.
    """

    name: str
    positions: np.ndarray
    hap: np.ndarray
    missing: np.ndarray


def vcf_chromosome(
    rng: np.random.Generator,
    name: str,
    *,
    n_samples: int,
    n_sites: int,
    length: int,
    missing_rate: float,
) -> VcfChromosome:
    """Draw one chromosome: mosaic haplotypes, evenly spaced integer
    positions in ``[1, length)`` and a per-genotype missing-call mask."""
    if length < 5 * n_sites:
        raise ValueError("need at least 5 bp per site for distinct "
                         "integer positions")
    hap = mosaic_haplotypes(rng, 2 * n_samples, n_sites)
    positions = np.round(regular_grid(n_sites, length)).astype(np.int64)
    missing = rng.random((n_samples, n_sites)) < missing_rate
    return VcfChromosome(name, positions, hap, missing)


def vcf_bytes(chromosomes: Sequence[VcfChromosome]) -> bytes:
    """Phased diploid VCF holding ``chromosomes`` as consecutive blocks."""
    n_samples = chromosomes[0].missing.shape[0]
    lines: List[bytes] = [b"##fileformat=VCFv4.2\n"]
    for chrom in chromosomes:
        lines.append(
            f"##contig=<ID={chrom.name},length="
            f"{int(chrom.positions[-1]) + 1}>\n".encode("ascii")
        )
    names = "\t".join(f"s{k}" for k in range(n_samples))
    lines.append(f"{_VCF_FIXED}\t{names}\n".encode("ascii"))
    for chrom in chromosomes:
        code = 2 * chrom.hap[0::2] + chrom.hap[1::2]
        code = np.where(chrom.missing, 4, code)  # (samples, sites)
        text = np.empty((chrom.positions.size, n_samples, 4), dtype=np.uint8)
        text[:, :, :3] = _GENOTYPES[code.T]
        text[:, :, 3] = ord("\t")
        text[:, -1, 3] = ord("\n")
        for site, pos in enumerate(chrom.positions):
            lines.append(
                f"{chrom.name}\t{pos}\t.\tA\tG\t.\tPASS\t.\tGT\t".encode(
                    "ascii"
                )
            )
            lines.append(text[site].tobytes())
    return b"".join(lines)
