"""Word-packed SNP representation.

OmegaPlus compresses binary SNP data into machine words on the CPU before
any computation (Fig. 3, "data compression" step): each site's column of
``n_samples`` alleles becomes ``ceil(n_samples / 64)`` 64-bit words, and the
counts that feed r-squared come out of popcounts of ``AND``-ed words. The
:class:`PackedAlignment` here reproduces that layout; the popcount LD
kernels in :mod:`repro.ld.packed_kernels` consume it.

Layout choice: the per-site words are contiguous (site-major, i.e. shape
``(n_sites, n_words)``) because LD compares *pairs of sites* — the two
operand rows of every comparison are then two contiguous word vectors, the
same locality argument the paper makes for storing the DP matrix M in
column-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.alignment import SNPAlignment
from repro.errors import AlignmentError
from repro.utils.bitops import pack_bits, popcount64, unpack_bits

__all__ = ["PackedAlignment"]


@dataclass(frozen=True)
class PackedAlignment:
    """Bit-packed view of a :class:`SNPAlignment`.

    Attributes
    ----------
    words:
        ``uint64`` array of shape ``(n_sites, n_words)``; bit ``k`` of site
        ``s`` (sample index ``k``) lives in ``words[s, k // 64]`` at bit
        position ``63 - (k % 64)``.
    n_samples:
        Number of valid bits per site row.
    positions:
        Genomic coordinates, identical to the source alignment.
    length:
        Region length, identical to the source alignment.
    """

    words: np.ndarray
    n_samples: int
    positions: np.ndarray
    length: float

    @classmethod
    def from_alignment(cls, alignment: SNPAlignment) -> "PackedAlignment":
        """Pack each site column of ``alignment`` into 64-bit words."""
        # Transpose to (n_sites, n_samples) so the packed axis is samples.
        site_major = np.ascontiguousarray(alignment.matrix.T)
        words = pack_bits(site_major)
        return cls(
            words=words,
            n_samples=alignment.n_samples,
            positions=alignment.positions,
            length=alignment.length,
        )

    def __post_init__(self) -> None:
        words = np.ascontiguousarray(self.words, dtype=np.uint64)
        if words.ndim != 2:
            raise AlignmentError(
                f"words must be 2-D (sites x words), got shape {words.shape}"
            )
        needed = (self.n_samples + 63) // 64
        if words.shape[0] and words.shape[1] != needed:
            raise AlignmentError(
                f"{self.n_samples} samples require {needed} words per site, "
                f"got {words.shape[1]}"
            )
        object.__setattr__(self, "words", words)

    @property
    def n_sites(self) -> int:
        """Number of sites (rows of the word matrix)."""
        return self.words.shape[0]

    @property
    def n_words(self) -> int:
        """Number of 64-bit words per site."""
        return self.words.shape[1]

    def derived_counts(self) -> np.ndarray:
        """Derived-allele count per site via popcount (int64)."""
        if self.n_sites == 0:
            return np.zeros(0, dtype=np.int64)
        return popcount64(self.words).sum(axis=1)

    def pair_counts(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Co-occurrence counts ``n_11`` for site index pairs ``(i, j)``.

        ``n_11`` is the number of samples carrying the derived allele at
        *both* sites — the quantity ``n * p_ij`` in Eq. (1). Fully
        vectorized over the pair arrays.
        """
        i = np.asarray(i, dtype=np.intp)
        j = np.asarray(j, dtype=np.intp)
        both = self.words[i] & self.words[j]
        return popcount64(both).sum(axis=-1)

    def unpack(self) -> SNPAlignment:
        """Reconstruct the dense :class:`SNPAlignment` (round-trip inverse
        of :meth:`from_alignment`)."""
        if self.n_sites == 0:
            matrix = np.zeros((self.n_samples, 0), dtype=np.uint8)
        else:
            matrix = unpack_bits(self.words, self.n_samples).T
        return SNPAlignment(matrix=matrix, positions=self.positions, length=self.length)

    def nbytes(self) -> int:
        """Memory footprint of the packed words in bytes (the quantity the
        accelerator transfer models charge for SNP data)."""
        return int(self.words.nbytes)

