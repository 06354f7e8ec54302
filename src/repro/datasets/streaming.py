"""Bounded-memory streaming ingestion of chromosome-scale alignments.

The scanners in :mod:`repro.core` assume the full SNP matrix is resident
before the ω scan starts, which caps input size at available RAM. This
module removes that cap: a :class:`StreamingAlignmentReader` parses ms or
VCF input in two passes —

1. an **index pass** that retains only the site positions (plus the
   sample count), O(n_sites) floats however large the genotype matrix is,
   applying exactly the transformations the in-memory pipeline applies
   (ms position scaling and tie-nudging; VCF major-allele imputation and
   monomorphic-site dropping), so the streamed scan plan is identical to
   the in-memory one;
2. a **chunk pass** (:meth:`~AlignmentStreamSource.windows`) that yields
   :class:`~repro.datasets.alignment.SNPAlignment` chunks for a monotonic
   sequence of site ranges, holding at most one chunk's genotypes at a
   time. VCF is site-major, so one forward pass with a sliding buffer
   of decoded genotype batches serves every window; ms is row-major, so
   each window re-reads the replicate's rows (bounded memory at the
   price of one pass over the rows per window, the classic
   double-buffer streaming trade). ms rows are fixed-width, so neither
   pass parses them in Python: the index pass records their
   :class:`~repro.datasets.msformat.RowLayout` and each window copies its
   sites out of whole-row batches
   (:class:`~repro.datasets.msformat.FixedRows`), holding one batch
   buffer plus the chunk. A replicate without a layout (padded rows,
   mixed line ends, ...) is read line by line instead, one row plus the
   chunk resident.

Chunk positions stay in *global* coordinates
(:meth:`SNPAlignment.site_slice` semantics), so window arithmetic and
grid planning against the index-pass positions remain valid inside every
chunk. ``scan_stream`` in :mod:`repro.core.scan` drives these sources.
"""

from __future__ import annotations

import io
from collections import deque
from dataclasses import dataclass
from typing import (
    BinaryIO,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.datasets.alignment import SNPAlignment
from repro.datasets.missing import MaskedAlignment
from repro.datasets.msformat import (
    FixedRows,
    RowLayout,
    locate_replicate,
    open_ms,
    parse_haplotype_line,
    parse_positions_line,
    parse_segsites_line,
    scale_positions,
)
from repro.datasets.vcf import (
    iter_vcf_batches,
    nudge_ties,
    open_vcf,
    vcf_chromosome_census,
)
from repro.errors import DataFormatError, ScanConfigError, StreamingError

__all__ = [
    "AlignmentStreamSource",
    "ChromosomeInfo",
    "InMemoryStreamSource",
    "StreamingAlignmentReader",
    "enumerate_chromosomes",
]


@dataclass(frozen=True)
class ChromosomeInfo:
    """One independently scannable unit of an input file.

    For VCF this is a chromosome (``name`` is the CHROM value); for ms it
    is a replicate block (``name`` is the decimal replicate index, the
    value accepted by ``StreamingAlignmentReader(replicate=...)``).
    ``n_records`` counts the records the streaming index pass would
    consider — usable biallelic SNPs for VCF (before imputation and the
    polymorphism filter), segregating sites for ms — so manifest planners
    can skip empty units without a full index pass.
    """

    name: str
    n_records: int


def _ms_replicate_census(fh: Iterable[str]) -> List[ChromosomeInfo]:
    """Enumerate the replicate blocks of an ms stream in file order."""
    out: List[ChromosomeInfo] = []
    lines = (ln.rstrip("\n") for ln in fh)
    for line in lines:
        if line.strip() == "//":
            seg_line = next((ln for ln in lines if ln.strip()), None)
            if seg_line is None or not seg_line.startswith("segsites:"):
                raise DataFormatError(
                    f"replicate {len(out)}: expected 'segsites:' after "
                    f"'//', got {seg_line!r}" if seg_line is not None else
                    f"replicate {len(out)}: file ends after '//'"
                )
            segsites = parse_segsites_line(seg_line, len(out))
            out.append(
                ChromosomeInfo(name=str(len(out)), n_records=segsites)
            )
    if not out:
        raise DataFormatError("no '//' replicate blocks found in ms input")
    return out


def enumerate_chromosomes(
    path: Optional[str] = None,
    *,
    text: Optional[str] = None,
    format: str = "ms",
) -> List[ChromosomeInfo]:
    """Enumerate the scannable units of an input file without indexing it.

    One cheap structural pass: VCF returns its chromosomes in file order
    (raising :class:`~repro.errors.DataFormatError` on non-contiguous
    chromosome blocks, see
    :func:`~repro.datasets.vcf.vcf_chromosome_census`); ms returns its
    replicate blocks. This is how the shard planner builds a manifest
    from bare file paths with no user-supplied region list.
    """
    if (path is None) == (text is None):
        raise StreamingError("pass exactly one of path= or text=")
    if format not in ("ms", "vcf"):
        raise ScanConfigError(
            f"streaming supports 'ms' and 'vcf', got {format!r}"
        )
    if path is None:
        fh: io.TextIOBase = io.StringIO(text)
    elif format == "vcf":
        fh = open_vcf(path)
    else:
        fh = open_ms(path)
    with fh:
        if format == "ms":
            return _ms_replicate_census(fh)
        return [
            ChromosomeInfo(name=chrom, n_records=count)
            for chrom, count in vcf_chromosome_census(fh)
        ]


def _check_ranges(
    ranges: Sequence[Tuple[int, int]], n_sites: int
) -> List[Tuple[int, int]]:
    """Validate a monotonic sequence of [lo, hi) site ranges."""
    checked: List[Tuple[int, int]] = []
    prev_lo = prev_hi = 0
    for lo, hi in ranges:
        lo, hi = int(lo), int(hi)
        if not (0 <= lo <= hi <= n_sites):
            raise StreamingError(
                f"window [{lo}, {hi}) out of bounds for {n_sites} sites"
            )
        if lo < prev_lo or hi < prev_hi:
            raise StreamingError(
                "window ranges must be monotonically non-decreasing "
                f"(got [{lo}, {hi}) after [{prev_lo}, {prev_hi})) — "
                "streaming sources are single-pass"
            )
        prev_lo, prev_hi = lo, hi
        checked.append((lo, hi))
    return checked


def _live_windows(
    inner: Iterator[SNPAlignment],
) -> Iterator[SNPAlignment]:
    """Wrap a window generator with live-introspection hooks.

    Each file-backed window read heartbeats the process's progress-ledger
    slot (if one is bound — a plain ``None`` check otherwise) and leaves
    a flight-recorder breadcrumb, so a worker stuck inside a slow ingest
    still looks alive to ``omegascan top`` and a postmortem shows how far
    the reader got.
    """
    from repro.obs.flight import get_flight
    from repro.obs.ledger import live_slot

    def gen() -> Iterator[SNPAlignment]:
        try:
            for chunk in inner:
                w = live_slot()
                if w is not None:
                    w.touch()
                get_flight().record(
                    "window", "reader.window", sites=int(chunk.n_sites)
                )
                yield chunk
        finally:
            inner.close()

    return gen()


class AlignmentStreamSource:
    """Interface of a chunk-serving alignment source.

    Concrete sources expose the index-pass metadata (``positions``,
    ``n_samples``, ``n_sites``, ``length``) up front and materialize
    genotypes only per requested window.
    """

    @property
    def positions(self) -> np.ndarray:
        """All site positions (global coordinates, post-transform)."""
        raise NotImplementedError

    @property
    def n_samples(self) -> int:
        raise NotImplementedError

    @property
    def n_sites(self) -> int:
        return int(self.positions.size)

    @property
    def length(self) -> float:
        raise NotImplementedError

    def windows(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> Iterator[SNPAlignment]:
        """Yield one chunk per [lo, hi) site range.

        Ranges must be monotonically non-decreasing in both endpoints
        (overlap is fine, rewinding is not — VCF streaming is a single
        forward pass). Closing the returned generator mid-iteration
        releases any underlying file handle.
        """
        raise NotImplementedError

    def chunks(
        self, snp_budget: int, *, overlap: int = 0
    ) -> Iterator[SNPAlignment]:
        """Yield fixed-size overlapping chunks covering every site."""
        if snp_budget < 1:
            raise ScanConfigError(
                f"snp_budget must be >= 1, got {snp_budget}"
            )
        if not 0 <= overlap < snp_budget:
            raise ScanConfigError(
                f"overlap must be in [0, snp_budget), got {overlap}"
            )
        n = self.n_sites
        ranges: List[Tuple[int, int]] = []
        lo = 0
        while lo < n or (lo == 0 and n == 0):
            hi = min(n, lo + snp_budget)
            ranges.append((lo, hi))
            if hi >= n:
                break
            lo = hi - overlap
        return self.windows(ranges)


class InMemoryStreamSource(AlignmentStreamSource):
    """Adapter serving chunks of an already-loaded alignment.

    Exists so the streamed scan path can run (and be equivalence-tested)
    against any in-memory alignment without touching the filesystem.
    """

    def __init__(self, alignment: SNPAlignment):
        self._alignment = alignment

    @property
    def positions(self) -> np.ndarray:
        return self._alignment.positions

    @property
    def n_samples(self) -> int:
        return self._alignment.n_samples

    @property
    def length(self) -> float:
        return self._alignment.length

    def windows(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> Iterator[SNPAlignment]:
        checked = _check_ranges(ranges, self.n_sites)

        def gen() -> Iterator[SNPAlignment]:
            for lo, hi in checked:
                yield self._alignment.site_slice(lo, hi)

        return gen()


class StreamingAlignmentReader(AlignmentStreamSource):
    """Incremental ms/VCF reader with an O(n_sites) index pass.

    Parameters
    ----------
    path:
        Input file path (re-openable — the chunk pass re-reads it).
        Mutually exclusive with ``text``.
    text:
        Input held in a string (convenience for tests/small inputs).
    format:
        ``"ms"`` or ``"vcf"``.
    length:
        Region length in bp. ms default 1.0 (fractional positions);
        VCF default ``None`` (last record position + 1, as
        :func:`~repro.datasets.vcf.parse_vcf`).
    replicate:
        Replicate index within an ms file.
    chromosome:
        CHROM value to keep in a VCF (as :func:`parse_vcf`).

    The VCF route applies major-allele imputation and drops monomorphic
    sites one decoded batch at a time
    (:func:`~repro.datasets.vcf.iter_vcf_batches`), matching the
    in-memory ``parse_vcf(...).impute_major().drop_monomorphic()``
    pipeline bitwise. Unsorted VCF positions raise
    :class:`~repro.errors.DataFormatError`: the in-memory parser sorts
    globally, which a single forward pass cannot.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        text: Optional[str] = None,
        format: str = "ms",
        length: Optional[float] = None,
        replicate: int = 0,
        chromosome: Optional[str] = None,
    ):
        if (path is None) == (text is None):
            raise StreamingError(
                "pass exactly one of path= or text="
            )
        if format not in ("ms", "vcf"):
            raise ScanConfigError(
                f"streaming supports 'ms' and 'vcf', got {format!r}"
            )
        if replicate < 0:
            raise ScanConfigError(
                f"replicate must be >= 0, got {replicate}"
            )
        self._path = path
        self._text = text
        self._format = format
        self._replicate = replicate
        self._chromosome = chromosome
        self._positions: np.ndarray
        self._n_samples: int
        self._length: float
        # ms only: a text= source encoded once for the fixed-width
        # reader, and the replicate's row layout when it has one.
        self._ms_bytes: Optional[bytes] = None
        self._layout: Optional[RowLayout] = None
        if format == "ms":
            self._index_ms(1.0 if length is None else float(length))
        else:
            self._index_vcf(length)

    # -------------------------------------------------------------- #
    # common plumbing
    # -------------------------------------------------------------- #

    def _open(self) -> io.TextIOBase:
        if self._path is None:
            return io.StringIO(self._text)
        if self._format == "vcf":
            return open_vcf(self._path)
        return open_ms(self._path)

    def chromosomes(self) -> List[ChromosomeInfo]:
        """Enumerate every scannable unit of the underlying input (all
        VCF chromosomes / all ms replicates, not just the one this reader
        was constructed for). See :func:`enumerate_chromosomes`."""
        with self._open() as fh:
            if self._format == "ms":
                return _ms_replicate_census(fh)
            return [
                ChromosomeInfo(name=chrom, n_records=count)
                for chrom, count in vcf_chromosome_census(fh)
            ]

    @property
    def positions(self) -> np.ndarray:
        return self._positions

    @property
    def n_samples(self) -> int:
        return self._n_samples

    @property
    def length(self) -> float:
        return self._length

    def windows(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> Iterator[SNPAlignment]:
        checked = _check_ranges(ranges, self.n_sites)
        if self._format == "ms":
            return _live_windows(self._ms_windows(checked))
        return _live_windows(self._vcf_windows(checked))

    # -------------------------------------------------------------- #
    # ms route (row-major: per-window re-read of the rows)
    # -------------------------------------------------------------- #

    def _open_bytes(self) -> Optional[BinaryIO]:
        """The input as bytes for the fixed-width reader, or None for a
        ``text=`` source that is not ASCII."""
        if self._path is not None:
            return open(self._path, "rb")
        if self._ms_bytes is None:
            return None
        return io.BytesIO(self._ms_bytes)

    def _index_ms(self, length: float) -> None:
        self._ms_bytes = (
            self._text.encode("ascii")
            if self._path is None and self._text.isascii()
            else None
        )
        found = None
        fh = self._open_bytes()
        if fh is not None:
            with fh:
                found = locate_replicate(fh, self._replicate)
        if found is None:
            rel, self._n_samples = self._index_ms_lines()
        else:
            rel, self._layout = found
            self._n_samples = self._layout.n_rows
        self._positions = scale_positions(rel, length)
        self._length = length

    def _ms_windows(
        self, ranges: List[Tuple[int, int]]
    ) -> Iterator[SNPAlignment]:
        if self._layout is None:
            return self._ms_line_windows(ranges)
        layout = self._layout

        def gen() -> Iterator[SNPAlignment]:
            with self._open_bytes() as fh:
                rows = FixedRows(fh, layout)
                for lo, hi in ranges:
                    matrix = rows.columns(lo, hi)
                    if matrix is None:
                        raise StreamingError(
                            "ms input changed between the index pass and "
                            f"the chunk pass (indexed {layout.n_rows} "
                            f"rows of {layout.stride} bytes at byte "
                            f"{layout.offset})"
                        )
                    yield SNPAlignment(
                        matrix=matrix,
                        positions=self._positions[lo:hi],
                        length=self._length,
                    )

        return gen()

    # The line route, for replicates whose rows have no layout.

    def _ms_enter_replicate(
        self, fh: Iterable[str], *, parse_positions: bool
    ):
        """Advance ``fh`` into the target replicate. Returns
        ``(segsites, rel_positions-or-None, row_line_iterator)``."""
        rep = self._replicate
        lines = (ln.rstrip("\n") for ln in fh)
        seen = 0
        found = False
        for line in lines:
            if line.strip() == "//":
                if seen == rep:
                    found = True
                    break
                seen += 1
        if not found:
            if seen == 0 and rep == 0:
                raise DataFormatError(
                    "no '//' replicate blocks found in ms input"
                )
            raise DataFormatError(
                f"replicate {rep} out of range (file has {seen})"
            )
        line = next((ln for ln in lines if ln.strip()), None)
        if line is None or not line.startswith("segsites:"):
            raise DataFormatError(
                f"replicate {rep}: expected 'segsites:' after '//', "
                f"got {line!r}" if line is not None else
                f"replicate {rep}: file ends after '//'"
            )
        segsites = parse_segsites_line(line, rep)
        if segsites == 0:
            return segsites, np.zeros(0), iter(())
        line = next((ln for ln in lines if ln.strip()), None)
        if line is None or not line.startswith("positions:"):
            raise DataFormatError(
                f"replicate {rep}: expected 'positions:' line"
            )
        rel = (
            parse_positions_line(line, segsites, rep)
            if parse_positions
            else None
        )

        def rows() -> Iterator[str]:
            for ln in lines:
                s = ln.strip()
                if not s or s == "//":
                    break
                yield s

        return segsites, rel, rows()

    def _index_ms_lines(self) -> Tuple[np.ndarray, int]:
        """Index the replicate line by line; returns its fractional
        positions and row count."""
        with self._open() as fh:
            segsites, rel, rows = self._ms_enter_replicate(
                fh, parse_positions=True
            )
            n_rows = 0
            for row in rows:
                parse_haplotype_line(row, segsites, self._replicate)
                n_rows += 1
            if segsites > 0 and n_rows == 0:
                raise DataFormatError(
                    f"replicate {self._replicate}: no haplotype rows"
                )
        return rel, n_rows

    def _ms_line_windows(
        self, ranges: List[Tuple[int, int]]
    ) -> Iterator[SNPAlignment]:
        def gen() -> Iterator[SNPAlignment]:
            for lo, hi in ranges:
                with self._open() as fh:
                    segsites, _, rows = self._ms_enter_replicate(
                        fh, parse_positions=False
                    )
                    sliced: List[np.ndarray] = []
                    for row in rows:
                        if len(row) != segsites:
                            raise DataFormatError(
                                f"replicate {self._replicate}: haplotype "
                                f"of length {len(row)}, "
                                f"expected {segsites}"
                            )
                        raw = np.frombuffer(
                            row.encode("ascii"), dtype=np.uint8
                        )
                        sliced.append(raw[lo:hi] - ord("0"))
                    if len(sliced) != self._n_samples:
                        raise StreamingError(
                            "ms input changed between the index pass and "
                            f"the chunk pass ({len(sliced)} haplotypes, "
                            f"indexed {self._n_samples})"
                        )
                matrix = (
                    np.vstack(sliced)
                    if sliced
                    else np.zeros((0, hi - lo), dtype=np.uint8)
                )
                yield SNPAlignment(
                    matrix=matrix,
                    positions=self._positions[lo:hi],
                    length=self._length,
                )

        return gen()

    # -------------------------------------------------------------- #
    # VCF route (site-major: one forward pass, sliding block buffer)
    # -------------------------------------------------------------- #

    def _vcf_stream(
        self, fh: io.TextIOBase
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, float]]:
        """Yield ``(positions, imputed calls)`` of the polymorphic sites
        of each decoded batch, plus the last record's position, applying
        the exact in-memory transform chain: tie-nudge (sorted input
        required), major-allele imputation, polymorphism filter. The
        imputation rule works column by column, so imputing a batch
        gives the bits imputing the whole matrix does."""
        prev_raw = prev_out = -np.inf
        any_records = False
        batches = iter_vcf_batches(fh, chromosome=self._chromosome)
        for raw, calls in batches:
            any_records = True
            before = np.concatenate(([prev_raw], raw[:-1]))
            unsorted = np.flatnonzero(raw < before)
            if unsorted.size:
                k = unsorted[0]
                raise DataFormatError(
                    f"unsorted VCF positions ({raw[k]:.0f} after "
                    f"{before[k]:.0f}): streaming requires position-sorted "
                    "records; sort the file or use the in-memory parser"
                )
            positions = nudge_ties(raw, prev_out)
            prev_raw, prev_out = raw[-1], positions[-1]
            imputed = MaskedAlignment(
                calls, positions, prev_out + 1.0
            ).impute_major()
            kept = imputed.is_polymorphic()
            yield positions[kept], imputed.matrix[:, kept], prev_out
        if not any_records:
            raise DataFormatError("no usable biallelic SNP records found")

    def _index_vcf(self, length: Optional[float]) -> None:
        positions: List[np.ndarray] = []
        n_samples = 0
        last_pos = 0.0
        with self._open() as fh:
            for pos, matrix, last_pos in self._vcf_stream(fh):
                n_samples = matrix.shape[0]
                positions.append(pos)
        self._n_samples = n_samples
        self._positions = np.concatenate(positions)
        self._length = (
            float(length) if length else float(last_pos + 1.0)
        )

    def _vcf_windows(
        self, ranges: List[Tuple[int, int]]
    ) -> Iterator[SNPAlignment]:
        def gen() -> Iterator[SNPAlignment]:
            with self._open() as fh:
                stream = self._vcf_stream(fh)
                # (first kept site, one past its last, kept columns)
                buffer: deque = deque()
                next_idx = 0
                for lo, hi in ranges:
                    while buffer and buffer[0][1] <= lo:
                        buffer.popleft()
                    while next_idx < hi:
                        try:
                            pos, block, _last = next(stream)
                        except StopIteration:
                            raise StreamingError(
                                "VCF input changed between the index pass "
                                f"and the chunk pass (ended at kept site "
                                f"{next_idx}, indexed {self.n_sites})"
                            ) from None
                        start, next_idx = next_idx, next_idx + pos.size
                        indexed = self._positions[start:next_idx]
                        changed = np.flatnonzero(
                            pos[: indexed.size] != indexed
                        )
                        if changed.size:
                            k = changed[0]
                            raise StreamingError(
                                "VCF input changed between the index pass "
                                f"and the chunk pass (site {start + k} "
                                f"at {pos[k]}, indexed {indexed[k]})"
                            )
                        if next_idx > lo:
                            buffer.append((start, next_idx, block))
                    parts = [
                        block[:, max(lo - start, 0) : hi - start]
                        for start, _end, block in buffer
                    ]
                    matrix = (
                        np.concatenate(parts, axis=1)
                        if parts
                        else np.zeros(
                            (self._n_samples, 0), dtype=np.uint8
                        )
                    )
                    yield SNPAlignment(
                        matrix=matrix,
                        positions=self._positions[lo:hi],
                        length=self._length,
                    )

        return gen()
