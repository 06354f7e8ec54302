"""Minimal VCF input (the third common input route to sweep scanners).

Supports the subset of VCF 4.x that genotype-level sweep analyses need:

* one chromosome per parse (matching OmegaPlus's per-region analysis;
  pass ``chromosome=`` to select when a file carries several);
* biallelic SNP records only (multi-allelic sites and indels are
  skipped, as OmegaPlus does);
* ``GT`` as the first FORMAT field, every allele one character (``0``,
  ``1`` or ``.``), alleles joined by ``|`` or ``/``, and one ploidy for
  every call of the file: haploid (``0``), diploid (``0/1``, ``0|1``) or
  higher. Each call contributes one haplotype per allele, so
  ``n_haplotypes = ploidy x n_samples``;
* missing calls (``.``) map to the missing marker;
* ASCII data lines. ``##`` meta lines and sample names may hold any
  bytes (VCF 4.3 allows UTF-8 there): the parser only counts them.

The REF allele encodes as 0 and ALT as 1 (VCF's own polarity — with an
ancestral-allele INFO tag absent, this is reference-polarized, which the
LD/ω machinery is invariant to).

Genotypes are decoded in batches (:func:`iter_vcf_batches`). Python
reads only the fixed columns of each data line; numpy locates, checks
and decodes the GT text of up to :data:`_BATCH_BYTES` of kept records at
once. :func:`parse_vcf` (which accumulates the full matrix) and the
chromosome-scale streaming reader (:mod:`repro.datasets.streaming`,
which never does) both consume these batches, so they parse every byte
identically.
"""

from __future__ import annotations

import io
import math
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.datasets.missing import MISSING, MaskedAlignment
from repro.errors import DataFormatError

__all__ = [
    "iter_vcf_batches",
    "nudge_ties",
    "open_vcf",
    "parse_vcf",
    "parse_vcf_text",
    "vcf_chromosome_census",
    "vcf_text",
]

_SNP_ALLELES = {"A", "C", "G", "T"}

#: Genotype text decoded per batch, in bytes. A batch's temporaries are
#: about 7x its text (int64 column offsets), so a larger budget raises
#: peak RSS; at 32 KiB the per-batch numpy overhead is already spread
#: over thousands of calls.
_BATCH_BYTES = 32 * 1024

#: Allele byte -> call; 2 marks a byte that is not an allele.
_CALL = np.full(256, 2, dtype=np.uint8)
_CALL[ord("0")] = 0
_CALL[ord("1")] = 1
_CALL[ord(".")] = MISSING
#: Bytes that may follow an allele: a separator, or the end of the GT.
_IS_SEPARATOR = np.zeros(256, dtype=bool)
_IS_SEPARATOR[[ord("|"), ord("/")]] = True
_IS_GT_END = np.zeros(256, dtype=bool)
_IS_GT_END[[ord(":"), ord("\t")]] = True


def open_vcf(path: str) -> io.TextIOBase:
    """Open a VCF file for the parsers in this module.

    Bytes decode one to one (latin-1), so non-ASCII bytes in meta lines
    and sample names never fail decoding; the parsers reject them in
    data lines. Newlines are universal, so CRLF files read like LF ones.
    """
    return open(path, "r", encoding="latin-1")


def _is_snp_record(ref: str, alt: str) -> bool:
    """The biallelic-SNP record filter (multi-allelic sites and indels
    are skipped, as OmegaPlus does)."""
    return (
        ref.upper() in _SNP_ALLELES
        and alt.upper() in _SNP_ALLELES
        and "," not in alt
    )


def _iter_data_fields(
    source: io.TextIOBase,
) -> Iterator[Tuple[int, List[str]]]:
    """Yield ``(n_samples, fields)`` for every VCF data line, where
    ``fields`` is the nine fixed columns followed by the sample columns
    as one tab-joined string.

    This is the single traversal both :func:`iter_vcf_batches` and
    :func:`vcf_chromosome_census` are built on, so record counting and
    record parsing see the exact same structure: header validation,
    ASCII data lines, field count enforcement, and chromosome
    *block-contiguity* checking.

    A VCF used for per-chromosome analysis must be grouped by chromosome
    (the norm for sorted VCFs). A chromosome whose records resume after a
    different chromosome's block would previously be silently skipped by
    the ``chromosome=`` selector — dropping data without a trace — so any
    non-contiguous block layout is reported as a
    :class:`~repro.errors.DataFormatError` instead, whichever chromosome
    is selected.
    """
    n_samples: Optional[int] = None
    prev_chrom: Optional[str] = None
    seen_blocks: set = set()

    for raw in source:
        line = raw.rstrip("\n")
        if not line or line.startswith("##"):
            continue
        if line.startswith("#CHROM"):
            n_samples = line.count("\t") - 8
            if n_samples < 1:
                raise DataFormatError(
                    "VCF header has no sample columns"
                )
            continue
        if n_samples is None:
            raise DataFormatError("data line before #CHROM header")
        if not line.isascii():
            raise DataFormatError(
                f"non-ASCII byte in VCF data line {line[:60]!r}"
            )
        n_fields = line.count("\t") + 1
        if n_fields != 9 + n_samples:
            raise DataFormatError(
                f"record has {n_fields} fields, expected "
                f"{9 + n_samples}"
            )
        fields = line.split("\t", 9)
        chrom = fields[0]
        if chrom != prev_chrom:
            if chrom in seen_blocks:
                raise DataFormatError(
                    f"chromosome blocks out of order: records for "
                    f"{chrom!r} resume after a {prev_chrom!r} block; "
                    f"VCF input must be grouped by chromosome"
                )
            seen_blocks.add(chrom)
            prev_chrom = chrom
        yield n_samples, fields


def vcf_chromosome_census(
    source: Union[str, io.TextIOBase],
) -> List[tuple]:
    """Enumerate the chromosomes of a VCF in file order.

    Returns ``[(chromosome, n_usable_records), ...]`` where the count
    covers the records :func:`iter_vcf_batches` would decode for that
    chromosome (biallelic SNPs — the same filter, so a manifest planner
    can size per-chromosome work without a second parse). Chromosomes
    present only through filtered-out records (indels, multi-allelic
    sites) appear with a count of 0.

    Raises :class:`~repro.errors.DataFormatError` on structural problems,
    including non-contiguous chromosome blocks (see
    :func:`_iter_data_fields`).
    """
    if isinstance(source, str):
        with open_vcf(source) as fh:
            return vcf_chromosome_census(fh)
    counts: dict = {}
    for _n_samples, fields in _iter_data_fields(source):
        chrom = fields[0]
        counts[chrom] = counts.get(chrom, 0) + _is_snp_record(
            fields[3], fields[4]
        )
    return list(counts.items())


def _parse_pos(pos_s: str) -> float:
    """POS as float; ASCII digits only (the data line is ASCII)."""
    try:
        if pos_s.isdigit():
            return float(int(pos_s))
    except (ValueError, OverflowError):
        pass
    raise DataFormatError(f"bad POS {pos_s!r}")


#: A kept record before decoding: (POS text, POS, sample columns).
_Record = Tuple[str, float, str]


def _record_batches(
    source: io.TextIOBase, chromosome: Optional[str]
) -> Iterator[Tuple[int, List[_Record]]]:
    """Group the usable biallelic SNP records into ``(n_samples,
    records)`` batches of about :data:`_BATCH_BYTES` of genotype text.

    Applies every per-line rule: chromosome selection, the
    biallelic-SNP filter, FORMAT and POS. A batch also ends where the
    selected chromosome's block does, so a reader that needs no later
    record stops reading there. A bad line first yields the records
    read before it, then raises.
    """
    seen_chrom: Optional[str] = None
    n_samples = 0
    batch: List[_Record] = []
    size = 0
    try:
        for n, fields in _iter_data_fields(source):
            chrom = fields[0]
            if chromosome is not None:
                if chrom != chromosome:
                    if batch:
                        yield n_samples, batch
                        batch, size = [], 0
                    continue
            elif seen_chrom is None:
                seen_chrom = chrom
            elif chrom != seen_chrom:
                raise DataFormatError(
                    f"multiple chromosomes ({seen_chrom}, {chrom}); pass "
                    f"chromosome= to select one, or enumerate them with "
                    f"vcf_chromosome_census / scan them all with "
                    f"'omegascan shard-scan'"
                )
            if not _is_snp_record(fields[3], fields[4]):
                continue
            fmt = fields[8]
            if fmt.split(":")[0] != "GT":
                raise DataFormatError(
                    f"FORMAT must lead with GT, got {fmt!r}"
                )
            record = (fields[1], _parse_pos(fields[1]), fields[9])
            if batch and n != n_samples:  # a second #CHROM header
                yield n_samples, batch
                batch, size = [], 0
            n_samples = n
            batch.append(record)
            size += len(record[2])
            if size >= _BATCH_BYTES:
                yield n_samples, batch
                batch, size = [], 0
    except DataFormatError:
        if batch:
            yield n_samples, batch
        raise
    if batch:
        yield n_samples, batch


def _decode_calls(
    texts: List[str], n_samples: int, n_haplotypes: int
) -> Tuple[np.ndarray, int]:
    """Decode the sample columns of ``k`` records.

    Returns ``(calls, n_good)``: the uint8 ``(n_haplotypes, n_good)``
    block of the records before the first one whose GT columns are not
    each ``n_haplotypes / n_samples`` valid alleles; ``n_good == k``
    when every record decodes.
    """
    k = len(texts)
    if n_haplotypes % n_samples:
        return np.zeros((n_haplotypes, 0), dtype=np.uint8), 0
    ploidy = n_haplotypes // n_samples
    width = 2 * ploidy  # a call's GT text and the byte that ends it
    # Every column ends in a tab (the last record's too), and the NUL
    # padding keeps a short last column's gather inside the buffer.
    buf = np.frombuffer(
        "\t".join([*texts, "\0" * width]).encode("ascii"), dtype=np.uint8
    )
    # Column starts: 0, then one past every tab but the last (there are
    # k * n_samples tabs, one ending each column).
    starts = np.flatnonzero(buf == ord("\t"))
    starts[1:] = starts[:-1] + 1
    starts[0] = 0
    # One offset at a time: a 2-D index array would be 8x the text.
    cells = np.empty((width, starts.size), dtype=np.uint8)
    for offset in range(width):
        cells[offset] = buf[starts + offset]
    calls = _CALL[cells[0::2]]
    ok = (
        (calls != 2).all(axis=0)
        & _IS_SEPARATOR[cells[1:-1:2]].all(axis=0)
        & _IS_GT_END[cells[-1]]
    )
    bad = ~ok.reshape(k, n_samples).all(axis=1)
    n_good = int(bad.argmax()) if bad.any() else k
    # calls[allele, record * n_samples + sample] -> haplotype rows
    # sample * ploidy + allele, one column per record.
    block = calls[:, : n_good * n_samples].reshape(ploidy, n_good, n_samples)
    return block.transpose(2, 0, 1).reshape(n_haplotypes, n_good), n_good


def _genotype_error(pos_s: str, text: str) -> DataFormatError:
    """The error a call-by-call parse raises for a record whose GT
    columns the batch check rejected."""
    ploidy: Optional[int] = None
    for entry in text.split("\t"):
        alleles = entry.split(":", 1)[0].replace("|", "/").split("/")
        if ploidy is None:
            ploidy = len(alleles)
        elif len(alleles) != ploidy:
            return DataFormatError(
                f"mixed ploidy within record at pos {pos_s}"
            )
        for a in alleles:
            if a not in (".", "0", "1"):
                return DataFormatError(
                    f"unsupported allele index {a!r} in biallelic "
                    f"record at pos {pos_s}"
                )
    # Every call is well formed, so the record's ploidy differs from
    # the file's.
    return DataFormatError(f"inconsistent ploidy at pos {pos_s}")


def iter_vcf_batches(
    source: io.TextIOBase,
    *,
    chromosome: Optional[str] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(positions, calls)`` per batch of usable biallelic SNP
    records, in file order.

    ``positions`` holds each record's raw POS as float64 (no sorting or
    tie-nudging applied); ``calls`` is the uint8 ``(n_haplotypes, k)``
    block of the same records, in {0, 1, MISSING}, diploid genotypes
    contributing two rows per sample. The first kept record fixes the
    ploidy, which every call must then share. Position ordering is the
    caller's concern — :func:`parse_vcf` sorts, the streaming reader
    rejects unsorted input.

    Chromosome blocks must be contiguous — records for a chromosome that
    resume after another chromosome's block raise
    :class:`~repro.errors.DataFormatError` even when ``chromosome=``
    selects a different one (silently skipping them would hide that the
    selected chromosome's own records may be split the same way).

    Errors follow file order: every record before the first bad one is
    yielded before its :class:`~repro.errors.DataFormatError` raises,
    and the message is the one a record-at-a-time parse would give.
    """
    n_haplotypes: Optional[int] = None
    for n_samples, batch in _record_batches(source, chromosome):
        texts = [text for _pos_s, _pos, text in batch]
        if n_haplotypes is None:
            gt = texts[0].split("\t", 1)[0].split(":", 1)[0]
            n_haplotypes = n_samples * (gt.count("|") + gt.count("/") + 1)
        calls, n_good = _decode_calls(texts, n_samples, n_haplotypes)
        if n_good:
            yield np.array([pos for _s, pos, _t in batch[:n_good]]), calls
        if n_good < len(batch):
            pos_s, _pos, text = batch[n_good]
            raise _genotype_error(pos_s, text)


def nudge_ties(positions: np.ndarray, prev: float = -math.inf) -> np.ndarray:
    """Strictly increasing copy of non-decreasing ``positions``: a
    position not above its predecessor (``prev`` for the first) moves to
    the next float after it."""
    out = positions.tolist()
    for k, pos in enumerate(out):
        if pos <= prev:
            pos = out[k] = math.nextafter(prev, math.inf)
        prev = pos
    return np.array(out, dtype=np.float64)


def parse_vcf(
    source: Union[str, io.TextIOBase],
    *,
    chromosome: Optional[str] = None,
    length: Optional[float] = None,
) -> MaskedAlignment:
    """Parse a VCF into a masked haplotype alignment.

    Parameters
    ----------
    source:
        Path or open text stream.
    chromosome:
        CHROM value to keep; default: the first one encountered (a
        mixed-chromosome file without this argument is an error).
    length:
        Region length in bp; defaults to the last position + 1.
    """
    if isinstance(source, str):
        with open_vcf(source) as fh:
            return parse_vcf(fh, chromosome=chromosome, length=length)

    positions: List[np.ndarray] = []
    blocks: List[np.ndarray] = []
    for pos, calls in iter_vcf_batches(source, chromosome=chromosome):
        positions.append(pos)
        blocks.append(calls)

    if not blocks:
        raise DataFormatError("no usable biallelic SNP records found")
    pos_arr = np.concatenate(positions)
    order = np.argsort(pos_arr, kind="stable")
    pos_arr = nudge_ties(pos_arr[order])
    matrix = np.concatenate(blocks, axis=1)[:, order]
    region_length = float(length) if length else float(pos_arr[-1] + 1.0)
    return MaskedAlignment(
        matrix=matrix, positions=pos_arr, length=region_length
    )


def parse_vcf_text(text: str, **kwargs) -> MaskedAlignment:
    """Parse VCF content held in a string."""
    return parse_vcf(io.StringIO(text), **kwargs)


def vcf_text(
    masked: MaskedAlignment,
    *,
    chromosome: str = "1",
    diploid: bool = False,
) -> str:
    """Serialize a masked alignment to minimal VCF (round-trip helper).

    With ``diploid=True`` consecutive haplotype pairs are written as
    phased diploid genotypes; the haplotype count must then be even.
    """
    n = masked.n_samples
    if diploid and n % 2:
        raise DataFormatError("diploid output needs an even haplotype count")
    lines = [
        "##fileformat=VCFv4.2",
        f"##contig=<ID={chromosome},length={int(masked.length)}>",
    ]
    if diploid:
        names = [f"s{k}" for k in range(n // 2)]
    else:
        names = [f"h{k}" for k in range(n)]
    lines.append(
        "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\t"
        + "\t".join(names)
    )

    def fmt_call(v: int) -> str:
        return "." if v == int(MISSING) else str(v)

    for s in range(masked.n_sites):
        col = masked.matrix[:, s]
        if diploid:
            gts = [
                f"{fmt_call(int(col[2 * k]))}|{fmt_call(int(col[2 * k + 1]))}"
                for k in range(n // 2)
            ]
        else:
            gts = [fmt_call(int(v)) for v in col]
        lines.append(
            f"{chromosome}\t{int(round(masked.positions[s]))}\t.\tA\tG\t.\t"
            f"PASS\t.\tGT\t" + "\t".join(gts)
        )
    return "\n".join(lines) + "\n"
