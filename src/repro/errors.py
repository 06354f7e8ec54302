"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one base class. Subclasses mirror
the major subsystems (datasets, LD computation, scanning, accelerator
models) so that error handling can be as precise as needed.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DataFormatError",
    "AlignmentError",
    "LDError",
    "ScanConfigError",
    "AcceleratorError",
    "ModelCalibrationError",
    "SimulationError",
    "StreamingError",
    "ShardError",
    "ManifestError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DataFormatError(ReproError, ValueError):
    """Malformed input data (e.g. an invalid ms-format file)."""


class AlignmentError(ReproError, ValueError):
    """Invalid SNP alignment: bad shape, values outside {0, 1}, or
    positions that are not strictly increasing."""


class LDError(ReproError, ValueError):
    """Invalid request to an LD computation routine (e.g. monomorphic
    sites where r-squared is undefined and masking was disabled)."""


class ScanConfigError(ReproError, ValueError):
    """Inconsistent scanner configuration (grid size, window bounds...)."""


class AcceleratorError(ReproError, RuntimeError):
    """An accelerator engine was driven outside its modelled envelope."""


class ModelCalibrationError(ReproError, ValueError):
    """A timing-model parameter is outside its physically meaningful range."""


class SimulationError(ReproError, RuntimeError):
    """The coalescent / sweep simulator hit an invalid configuration."""


class StreamingError(ReproError, RuntimeError):
    """A streaming source was driven outside its protocol: non-monotonic
    window ranges, a window outside the indexed site range, or an input
    that changed between the index pass and the chunk pass."""


class ShardError(ReproError, RuntimeError):
    """A sharded-scan orchestration failure: an incomplete manifest asked
    to merge, a shard sidecar that does not match its ledger entry, or a
    second orchestrator racing a live one."""


class ManifestError(ShardError):
    """A work manifest that cannot be used: malformed ledger lines, a
    version this build does not understand, or entries pointing at inputs
    that no longer match their recorded index."""
