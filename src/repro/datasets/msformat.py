"""Reader/writer for Hudson's ``ms`` output format.

The paper generates all evaluation datasets with Hudson's ``ms`` [30]; our
coalescent simulator emits the same text format and this module parses it,
so datasets can round-trip through files exactly as they would with the
original tool chain.

Format summary (one replicate)::

    ms 4 1 -t 5.0            <- command line echo (first line of file)
    27473 31728 43326        <- RNG seeds (second line)

    //                       <- replicate separator
    segsites: 3
    positions: 0.1717 0.2230 0.8750
    001
    010
    110
    010

Positions are fractions of the simulated region; :func:`parse_ms` scales
them by a caller-supplied region length (default 1.0 keeps them relative).
Ties in the position list (ms prints 4-5 decimals) are broken by nudging
subsequent equal positions up by the smallest representable step so that
:class:`~repro.datasets.alignment.SNPAlignment`'s strict ordering holds.

Haplotype rows are fixed-width ASCII, so they are read as records rather
than lines: :func:`locate_replicate` checks a replicate's rows a batch of
:data:`_BATCH_BYTES` at a time and returns their :class:`RowLayout`, and
:class:`FixedRows` copies any column range out of them by index
arithmetic on the same batches. :func:`parse_ms` and the streaming reader
(:mod:`repro.datasets.streaming`) both read rows this way. An input the
layout cannot describe exactly (padded rows, mixed or lone-CR line ends,
a last row without a newline, ragged rows, bad characters) goes through
the line parser instead, which gives the same result for every input
that has a layout and the same error for every input it rejects.
"""

from __future__ import annotations

import codecs
import io
from dataclasses import dataclass
from typing import (
    BinaryIO,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

import numpy as np

from repro.datasets.alignment import SNPAlignment
from repro.errors import DataFormatError

__all__ = [
    "FixedRows",
    "MsReplicate",
    "RowLayout",
    "locate_replicate",
    "open_ms",
    "parse_ms",
    "write_ms",
    "parse_ms_text",
    "ms_text",
    "parse_segsites_line",
    "parse_positions_line",
    "parse_haplotype_line",
    "scale_positions",
]


@dataclass
class MsReplicate:
    """One ``//`` block of an ms file, already converted to an alignment."""

    alignment: SNPAlignment
    index: int = 0


def _make_strictly_increasing(positions: np.ndarray) -> np.ndarray:
    """Nudge duplicate positions upward so the sequence is strictly
    increasing, preserving order. ms output rounds to few decimals and can
    emit ties; OmegaPlus does the same de-duplication on load."""
    out = positions.copy()
    if np.all(out[1:] > out[:-1]):
        return out  # no ties: the loop below would change nothing
    for k in range(1, out.size):
        if out[k] <= out[k - 1]:
            out[k] = np.nextafter(out[k - 1], np.inf)
    return out


# ---------------------------------------------------------------------- #
# record-level parsing, shared with the streaming reader
# ---------------------------------------------------------------------- #


def parse_segsites_line(line: str, rep_index: int) -> int:
    """Validate and extract the count from a ``segsites:`` line."""
    try:
        segsites = int(line.split(":", 1)[1].strip())
    except ValueError as exc:
        raise DataFormatError(
            f"replicate {rep_index}: malformed segsites line {line!r}"
        ) from exc
    if segsites < 0:
        raise DataFormatError(
            f"replicate {rep_index}: negative segsites {segsites}"
        )
    return segsites


def parse_positions_line(
    line: str, segsites: int, rep_index: int
) -> np.ndarray:
    """Validate a ``positions:`` line and return the fractional positions
    (count, range and sortedness checked; no scaling applied)."""
    pos_tokens = line.split(":", 1)[1].split()
    if len(pos_tokens) != segsites:
        raise DataFormatError(
            f"replicate {rep_index}: {segsites} segsites but "
            f"{len(pos_tokens)} positions"
        )
    try:
        rel_positions = np.array([float(t) for t in pos_tokens])
    except ValueError as exc:
        raise DataFormatError(
            f"replicate {rep_index}: non-numeric position"
        ) from exc
    if rel_positions.size and (
        rel_positions.min() < 0.0 or rel_positions.max() > 1.0
    ):
        raise DataFormatError(
            f"replicate {rep_index}: positions must lie in [0, 1]"
        )
    if np.any(np.diff(rel_positions) < 0):
        raise DataFormatError(
            f"replicate {rep_index}: positions must be sorted"
        )
    return rel_positions


def parse_haplotype_line(
    row: str, segsites: int, rep_index: int
) -> np.ndarray:
    """Validate one haplotype row and return its uint8 allele vector."""
    if len(row) != segsites:
        raise DataFormatError(
            f"replicate {rep_index}: haplotype of length {len(row)}, "
            f"expected {segsites}"
        )
    if set(row) - {"0", "1"}:
        raise DataFormatError(
            f"replicate {rep_index}: haplotype contains characters "
            f"other than 0/1: {row[:20]!r}..."
        )
    return np.frombuffer(row.encode("ascii"), dtype=np.uint8) - ord("0")


def scale_positions(rel_positions: np.ndarray, length: float) -> np.ndarray:
    """Scale fractional ms positions to bp and break ties, exactly as
    :func:`parse_ms` does (the streaming reader must match it bitwise)."""
    return _make_strictly_increasing(rel_positions * length)


# ---------------------------------------------------------------------- #
# fixed-width rows
# ---------------------------------------------------------------------- #

#: Haplotype-row bytes read per batch, rounded down to whole rows (a row
#: wider than this is a batch of its own). A pass over the rows holds one
#: buffer of this size, filled with ``readinto``: mapping the file
#: instead would count its pages toward the reader's peak RSS.
_BATCH_BYTES = 4 * 1024 * 1024

_ZERO = ord("0")
_ONE = ord("1")


def _not_ascii(exc: UnicodeDecodeError):
    raise DataFormatError(
        f"ms input is not ASCII (byte 0x{exc.object[exc.start]:02x})"
    )


codecs.register_error("repro-ms-ascii", _not_ascii)


def open_ms(path: str) -> io.TextIOBase:
    """Open an ms file as ASCII text for the line parser. A non-ASCII
    byte raises :class:`~repro.errors.DataFormatError` when it is read."""
    return open(path, "r", encoding="ascii", errors="repro-ms-ascii")


class RowLayout(NamedTuple):
    """Where one replicate's haplotype rows lie in its byte stream:
    ``n_rows`` records of ``stride`` bytes from byte ``offset``, each
    ``n_cells`` (the replicate's segsites) ``0``/``1`` bytes followed by
    the terminator, ``\\n`` or ``\\r\\n``."""

    offset: int
    n_rows: int
    n_cells: int
    stride: int

    @property
    def end(self) -> int:
        """Byte offset just past the last row."""
        return self.offset + self.n_rows * self.stride

    @property
    def terminator(self) -> np.ndarray:
        """The bytes that end every row."""
        return np.frombuffer(
            b"\r\n"[self.n_cells - self.stride :], dtype=np.uint8
        )


class _Irregular(Exception):
    """The bytes are not what the fixed-width reader can vouch for; the
    line parser takes over."""


def _read_full(fh: BinaryIO, view: np.ndarray) -> int:
    """``readinto`` until ``view`` is full or the stream ends; returns
    the number of bytes read."""
    got = 0
    while got < view.size:
        n = fh.readinto(view[got:])
        if not n:
            break
        got += n
    return got


def _read_line(fh: BinaryIO) -> Optional[str]:
    """The next line without its ``\\n``, or None at EOF.

    Raises :class:`_Irregular` for a non-ASCII line, or one with a CR
    anywhere but at its end: a path source (universal newlines) splits
    such a line where a string source does not. Any other line reads the
    same from both, once a trailing CR is stripped with the whitespace.
    """
    raw = fh.readline()
    if not raw:
        return None
    if raw[-1:] == b"\n":
        raw = raw[:-1]
    if b"\r" in raw[:-1] or not raw.isascii():
        raise _Irregular
    return raw.decode("ascii")


def _next_content_line(fh: BinaryIO) -> Optional[str]:
    """The next line that is not whitespace only, or None at EOF."""
    line = _read_line(fh)
    while line is not None and not line.strip():
        line = _read_line(fh)
    return line


def _valid_rows(
    block: np.ndarray, n_cells: int, terminator: np.ndarray
) -> int:
    """How many leading records of ``block`` are ``n_cells`` ``0``/``1``
    bytes followed by ``terminator``."""
    ends = (block[:, n_cells:] == terminator).all(axis=1)
    k = int(ends.argmin()) if not ends.all() else block.shape[0]
    cells = block[:k, :n_cells]
    if not cells.size or (cells.min() >= _ZERO and cells.max() <= _ONE):
        return k
    return int(((cells | 1) == _ONE).all(axis=1).argmin())


def _locate_rows(fh: BinaryIO, n_cells: int) -> RowLayout:
    """Lay out the haplotype rows starting at ``fh``'s position and leave
    ``fh`` just past them.

    Every row must be ``n_cells`` ``0``/``1`` bytes ended by the first
    row's terminator, and the rows must end where the line parser ends
    them: at EOF, a whitespace-only line or a ``//`` line. Anything else
    raises :class:`_Irregular`. The first batch is one row and each next
    one doubles, up to :data:`_BATCH_BYTES`, so a small replicate is not
    read a whole buffer past its end.
    """
    offset = fh.tell()
    head = fh.read(n_cells + 2)
    if head[n_cells : n_cells + 1] == b"\n":
        stride = n_cells + 1
    elif head[n_cells:] == b"\r\n":
        stride = n_cells + 2
    else:
        raise _Irregular
    terminator = np.frombuffer(head[n_cells:stride], dtype=np.uint8)
    most = max(1, _BATCH_BYTES // stride)
    buf = np.empty(most * stride, dtype=np.uint8)
    rows = 1
    n_rows = 0
    fh.seek(offset)
    while True:
        view = buf[: rows * stride]
        got = _read_full(fh, view)
        k = got // stride
        valid = _valid_rows(
            view[: k * stride].reshape(k, stride), n_cells, terminator
        )
        n_rows += valid
        if valid < k or got < view.size:
            break
        rows = min(2 * rows, most)
    layout = RowLayout(offset, n_rows, n_cells, stride)
    fh.seek(layout.end)
    line = _read_line(fh)
    if not n_rows or (line is not None and line.strip() not in ("", "//")):
        raise _Irregular
    fh.seek(layout.end)
    return layout


def _walk_replicates(
    fh: BinaryIO,
) -> Iterator[Tuple[np.ndarray, RowLayout]]:
    """Walk the replicates of a binary ms stream the way
    :func:`_parse_lines` walks its lines, yielding each replicate's
    fractional positions and row layout (no rows for segsites 0).

    Raises :class:`_Irregular`, or the :class:`DataFormatError` of a bad
    header, where the line parser has to take over.
    """
    rep_index = 0
    while True:
        line = _read_line(fh)
        if line is None:
            return
        if line.strip() != "//":
            continue
        line = _next_content_line(fh)
        if line is None or not line.startswith("segsites:"):
            raise _Irregular
        segsites = parse_segsites_line(line, rep_index)
        if segsites:
            line = _next_content_line(fh)
            if line is None or not line.startswith("positions:"):
                raise _Irregular
            rel = parse_positions_line(line, segsites, rep_index)
            layout = _locate_rows(fh, segsites)
        else:
            rel, layout = np.zeros(0), RowLayout(fh.tell(), 0, 0, 1)
        yield rel, layout
        fh.seek(layout.end)
        rep_index += 1


def locate_replicate(
    fh: BinaryIO, replicate: int
) -> Optional[Tuple[np.ndarray, RowLayout]]:
    """The fractional positions and row layout of replicate
    ``replicate`` (0-based) of a binary ms stream.

    Returns None when the fixed-width reader cannot vouch for the input
    up to that replicate: it has no such replicate, a bad header, or rows
    without a layout. The line parser then gives the result or the error.
    """
    try:
        for index, found in enumerate(_walk_replicates(fh)):
            if index == replicate:
                return found
    except (_Irregular, DataFormatError):
        pass
    return None


class FixedRows:
    """Column reads from one replicate's rows: each call reads the rows
    once, a batch of whole rows at a time through one reusable buffer,
    and copies out only the requested sites."""

    def __init__(self, fh: BinaryIO, layout: RowLayout):
        self._fh = fh
        self._layout = layout
        self._batch_rows = max(
            1, min(layout.n_rows, _BATCH_BYTES // layout.stride)
        )
        self._buf = np.empty(
            self._batch_rows * layout.stride, dtype=np.uint8
        )

    def columns(self, lo: int, hi: int) -> Optional[np.ndarray]:
        """Sites ``[lo, hi)`` of every row as a ``(n_rows, hi - lo)`` 0/1
        ``uint8`` matrix, or None when the stream no longer holds the
        layout's rows (it ends early, or a terminator moved)."""
        layout = self._layout
        terminator = layout.terminator
        out = np.empty((layout.n_rows, hi - lo), dtype=np.uint8)
        self._fh.seek(layout.offset)
        for r0 in range(0, layout.n_rows, self._batch_rows):
            k = min(self._batch_rows, layout.n_rows - r0)
            view = self._buf[: k * layout.stride]
            if _read_full(self._fh, view) < view.size:
                return None
            block = view.reshape(k, layout.stride)
            if not (block[:, layout.n_cells :] == terminator).all():
                return None
            np.subtract(block[:, lo:hi], _ZERO, out=out[r0 : r0 + k])
        return out


def _parse_fixed(fh: BinaryIO, length: float) -> Optional[List[MsReplicate]]:
    """Every replicate of a binary ms stream through the fixed-width
    reader, or None if any of them needs the line parser."""
    replicates: List[MsReplicate] = []
    try:
        for rel, layout in _walk_replicates(fh):
            matrix = FixedRows(fh, layout).columns(0, layout.n_cells)
            if matrix is None:
                return None
            alignment = SNPAlignment(
                matrix=matrix,
                positions=scale_positions(rel, length),
                length=length,
            )
            replicates.append(
                MsReplicate(alignment=alignment, index=len(replicates))
            )
    except (_Irregular, DataFormatError):
        return None
    return replicates or None


def parse_ms(
    source: Union[str, TextIO],
    *,
    length: float = 1.0,
) -> List[MsReplicate]:
    """Parse an ms-format file or file object into replicates.

    Parameters
    ----------
    source:
        Path to an ms file, or an open text stream.
    length:
        Region length in base pairs; ms's fractional positions are scaled
        by this value.

    Returns
    -------
    list of MsReplicate

    Raises
    ------
    DataFormatError
        On structural problems: missing ``segsites``/``positions`` lines,
        haplotype rows of the wrong width, non-binary characters, or a
        non-ASCII byte in a file.
    """
    if isinstance(source, str):
        with open(source, "rb") as fh:
            replicates = _parse_fixed(fh, length)
        if replicates is not None:
            return replicates
        with open_ms(source) as fh:
            lines = list(fh)
    else:
        lines = list(source)
        text = "".join(lines)
        if text.isascii():
            replicates = _parse_fixed(io.BytesIO(text.encode("ascii")), length)
            if replicates is not None:
                return replicates
    return _parse_lines([ln.rstrip("\n") for ln in lines], length=length)


def parse_ms_text(text: str, *, length: float = 1.0) -> List[MsReplicate]:
    """Parse ms-format content held in a string (convenience wrapper)."""
    return parse_ms(io.StringIO(text), length=length)


def _parse_lines(lines: Sequence[str], *, length: float) -> List[MsReplicate]:
    replicates: List[MsReplicate] = []
    i = 0
    n = len(lines)
    rep_index = 0
    while i < n:
        if lines[i].strip() != "//":
            i += 1
            continue
        i += 1
        # segsites line
        while i < n and not lines[i].strip():
            i += 1
        if i >= n or not lines[i].startswith("segsites:"):
            raise DataFormatError(
                f"replicate {rep_index}: expected 'segsites:' after '//', "
                f"got {lines[i]!r}" if i < n else
                f"replicate {rep_index}: file ends after '//'"
            )
        segsites = parse_segsites_line(lines[i], rep_index)
        i += 1

        if segsites == 0:
            # Zero-variation replicate: no positions line, no haplotypes.
            alignment = SNPAlignment(
                matrix=np.zeros((0, 0), dtype=np.uint8),
                positions=np.zeros(0),
                length=length,
            )
            replicates.append(MsReplicate(alignment=alignment, index=rep_index))
            rep_index += 1
            continue

        while i < n and not lines[i].strip():
            i += 1
        if i >= n or not lines[i].startswith("positions:"):
            raise DataFormatError(
                f"replicate {rep_index}: expected 'positions:' line"
            )
        rel_positions = parse_positions_line(lines[i], segsites, rep_index)
        i += 1

        haplotypes: List[np.ndarray] = []
        while i < n and lines[i].strip() and lines[i].strip() != "//":
            haplotypes.append(
                parse_haplotype_line(lines[i].strip(), segsites, rep_index)
            )
            i += 1
        if not haplotypes:
            raise DataFormatError(
                f"replicate {rep_index}: no haplotype rows"
            )
        matrix = np.vstack(haplotypes)
        positions = scale_positions(rel_positions, length)
        alignment = SNPAlignment(matrix=matrix, positions=positions, length=length)
        replicates.append(MsReplicate(alignment=alignment, index=rep_index))
        rep_index += 1
    if not replicates:
        raise DataFormatError("no '//' replicate blocks found in ms input")
    return replicates


def ms_text(
    replicates: Iterable[SNPAlignment],
    *,
    command: Optional[str] = None,
    seeds: Sequence[int] = (1, 2, 3),
    decimals: int = 6,
) -> str:
    """Serialize alignments to ms format, returning the text.

    ``positions`` are written as fractions of each alignment's ``length``
    with ``decimals`` digits. The command echo defaults to an ms-style
    line reconstructed from the first replicate's dimensions.
    """
    reps = list(replicates)
    if not reps:
        raise ValueError("need at least one replicate to write")
    first = reps[0]
    cmd = command or f"ms {first.n_samples} {len(reps)} -t 5.0"
    out: List[str] = [cmd, " ".join(str(s) for s in seeds), ""]
    for aln in reps:
        out.append("//")
        out.append(f"segsites: {aln.n_sites}")
        if aln.n_sites:
            rel = aln.positions / aln.length
            out.append(
                "positions: "
                + " ".join(f"{p:.{decimals}f}" for p in rel)
            )
            for row in aln.matrix:
                out.append("".join("1" if v else "0" for v in row))
        out.append("")
    return "\n".join(out)


def write_ms(
    replicates: Iterable[SNPAlignment],
    path_or_stream: Union[str, TextIO],
    *,
    command: Optional[str] = None,
    seeds: Sequence[int] = (1, 2, 3),
    decimals: int = 6,
) -> None:
    """Write alignments to an ms-format file or stream."""
    text = ms_text(replicates, command=command, seeds=seeds, decimals=decimals)
    if isinstance(path_or_stream, str):
        with open(path_or_stream, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        path_or_stream.write(text)
