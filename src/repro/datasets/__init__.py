"""Dataset containers, ms-format I/O and synthetic generators.

Public entry points:

* :class:`~repro.datasets.alignment.SNPAlignment` — the binary alignment
  every computation consumes.
* :class:`~repro.datasets.packed.PackedAlignment` — word-packed form used
  by the popcount LD kernels (OmegaPlus's compressed representation).
* :func:`~repro.datasets.msformat.parse_ms` /
  :func:`~repro.datasets.msformat.write_ms` — Hudson's ms text format.
* The generators in :mod:`repro.datasets.generators` for synthetic
  workloads with controlled dimensions and LD structure.
"""

from repro.datasets.alignment import (
    SharedAlignmentSegments,
    SharedAlignmentSpec,
    SNPAlignment,
)
from repro.datasets.packed import PackedAlignment
from repro.datasets.msformat import (
    MsReplicate,
    ms_text,
    parse_ms,
    parse_ms_text,
    write_ms,
)
from repro.datasets.generators import (
    clustered_positions,
    haplotype_block_alignment,
    random_alignment,
    sweep_signature_alignment,
)
from repro.datasets.fasta import fasta_text, parse_fasta, parse_fasta_text
from repro.datasets.missing import (
    MISSING,
    MaskedAlignment,
    r_squared_pairwise_complete,
)
from repro.datasets.streaming import (
    AlignmentStreamSource,
    InMemoryStreamSource,
    StreamingAlignmentReader,
)
from repro.datasets.vcf import (
    parse_vcf,
    parse_vcf_text,
    vcf_text,
)

__all__ = [
    "SNPAlignment",
    "SharedAlignmentSegments",
    "SharedAlignmentSpec",
    "PackedAlignment",
    "MsReplicate",
    "parse_ms",
    "parse_ms_text",
    "write_ms",
    "ms_text",
    "random_alignment",
    "haplotype_block_alignment",
    "sweep_signature_alignment",
    "clustered_positions",
    "MISSING",
    "MaskedAlignment",
    "r_squared_pairwise_complete",
    "AlignmentStreamSource",
    "InMemoryStreamSource",
    "StreamingAlignmentReader",
    "parse_fasta",
    "parse_fasta_text",
    "fasta_text",
    "parse_vcf",
    "parse_vcf_text",
    "vcf_text",
]
