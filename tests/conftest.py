"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

# Derandomize hypothesis so the suite is reproducible run to run; the
# property tests still explore the strategy space deterministically.
hypothesis_settings.register_profile("deterministic", derandomize=True)
hypothesis_settings.load_profile("deterministic")

from repro.datasets import (
    haplotype_block_alignment,
    random_alignment,
    sweep_signature_alignment,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_alignment():
    """30 samples x 60 sites, independent sites."""
    return random_alignment(30, 60, seed=101)


@pytest.fixture
def block_alignment():
    """Alignment with LD-block structure."""
    return haplotype_block_alignment(40, 120, seed=202)


@pytest.fixture
def sweep_alignment():
    """Alignment carrying a planted sweep signature at the centre."""
    return sweep_signature_alignment(40, 300, seed=303)


@pytest.fixture
def tiny_alignment():
    """Minimal alignment exercising edge cases (few sites)."""
    return random_alignment(10, 6, seed=404)


@pytest.fixture
def long_alignment():
    """128 samples x 100 000 sites, one site every 50 bp: a 30 kb
    ``max_window`` gives regions of about 1 200 sites, whose shared r²
    band over the whole alignment would need 1.18 GB."""
    from repro.datasets.alignment import SNPAlignment

    rng = np.random.default_rng(97)
    n_sites = 100_000
    return SNPAlignment(
        matrix=(rng.random((128, n_sites)) < 0.3).astype(np.uint8),
        positions=np.arange(n_sites) * 50.0 + 1.0,
        length=n_sites * 50.0,
    )


@pytest.fixture
def shm_names(monkeypatch):
    """Names of the shared-memory segments this process opens from now
    on, created or attached (worker processes are not seen)."""
    from multiprocessing import shared_memory

    names = []
    real_init = shared_memory.SharedMemory.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        names.append(self.name)

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", init)
    return names


@pytest.fixture
def block_length(monkeypatch):
    """Force the shared block rule (:func:`repro.core.grid.make_blocks`)
    to cut every grid into blocks of ``n`` positions, so a small grid has
    many blocks. Worker and shard processes forked afterwards inherit it."""
    import repro.core.grid as grid

    def force(n: int) -> None:
        monkeypatch.setattr(grid, "SHORTEST_BLOCK", n)
        monkeypatch.setattr(grid, "LONGEST_BLOCK", n)

    return force
