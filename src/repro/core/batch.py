"""Batched ω evaluation: pack many grid positions, score them in one pass.

The paper's accelerators win by amortizing per-launch overhead across many
grid positions (Eq. 4 dynamic dispatch + the multi-position buffers of
Section IV). The host hot path historically mirrored the *algorithm* but
not the *batching*: ``omega_max_at_split`` ran once per position, paying
~15 numpy dispatches per call even when the position contributed only a
handful of (i, j) border combinations. This module is the host-side
analogue of the device buffer layout:

* :class:`BatchedOmegaPlan` packs the ``left_sums`` / ``right_sums`` /
  ``cross_sums_grid`` inputs (one
  :meth:`~repro.core.dp.SumMatrix.split_operands` read per position)
  for a whole block of positions into
  contiguous ragged arenas — one flat float64 array per input kind plus
  ``intp`` offset tables (CSR-style). The cross-sum arena is the exact
  row-major flattening of each position's ``(R, L)`` score grid, so an
  element index decomposes as ``ii = e % L`` (left border) and
  ``jj = e // L`` (right border), matching ``np.argmax`` raveling.
* :func:`omega_max_batch` evaluates Eq. (2) over the whole arena in one
  vectorized pass and reduces each position's segment with
  ``np.maximum.reduceat``, recovering the *first* maximizing flat index
  per segment — bitwise-equal scores and identical argmax tie-breaking
  to per-position :func:`~repro.core.omega.omega_max_at_split`.

Bitwise equality holds because Eq. (2) is elementwise over the packed
operands: gathering ``sum_l[e]`` then dividing produces the same IEEE-754
doubles as broadcasting a ``(1, L)`` row over an ``(R, L)`` grid, and the
segmented max + first-hit scan reproduces ``np.argmax``'s first-occurrence
rule (including its "NaN wins" ordering, handled by a per-segment
fallback).

The same packed layout feeds the GPU engine's transfer model: the arena
sizes *are* the bytes a real multi-position launch would move, so
``_prep_seconds`` / ``_transfer_seconds`` charge packed buffers instead of
per-position estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.dp import SumMatrix
from repro.core.omega import DENOMINATOR_OFFSET, omega_from_sums
from repro.errors import ScanConfigError

__all__ = [
    "BatchedOmegaPlan",
    "BatchedOmegaResult",
    "omega_max_batch",
    "DEFAULT_BATCH_POSITIONS",
    "DEFAULT_BATCH_SCORE_BUDGET",
]

#: Default number of positions packed per batch (scanner flush trigger).
DEFAULT_BATCH_POSITIONS = 64

#: Default cap on packed score-grid elements per batch. Bounds arena
#: memory (8 bytes/score → 32 MiB at the default) and keeps the flat
#: evaluation cache-resident; a batch flushes when either limit is hit.
DEFAULT_BATCH_SCORE_BUDGET = 1 << 22


@dataclass(frozen=True)
class BatchedOmegaResult:
    """Per-position maxima for one evaluated batch (arrays, batch order).

    ``left_borders`` / ``right_borders`` hold the same *local site
    indices* the packed borders used (−1 for positions with no valid
    split); ``n_evaluations`` is each position's scored combination
    count. Field semantics match :class:`~repro.core.omega.OmegaMaximum`.
    """

    omegas: np.ndarray
    left_borders: np.ndarray
    right_borders: np.ndarray
    n_evaluations: np.ndarray


class BatchedOmegaPlan:
    """Ragged multi-position buffer pack for :func:`omega_max_batch`.

    Call :meth:`add` once per grid position (values are copied out of the
    :class:`~repro.core.dp.SumMatrix` immediately, so the matrix may be
    relocated or evicted afterwards), then evaluate with
    :func:`omega_max_batch`. ``full`` turns true when either the position
    or the packed-score budget is reached — the caller flushes and starts
    a new plan (or calls :meth:`reset`).

    Arena layout (built lazily on first access, cached):

    ``left_arena`` / ``n_left_arena`` / ``left_border_arena``
        Per-left-border data, positions back to back; position ``p``
        occupies ``left_offsets[p]:left_offsets[p+1]``.
    ``right_arena`` / ``n_right_arena`` / ``right_border_arena``
        Same for right borders.
    ``cross_arena``
        Row-major ``(R, L)`` cross sums per position, back to back;
        position ``p`` occupies ``score_offsets[p]:score_offsets[p+1]``
        (``R*L`` elements).
    """

    def __init__(
        self,
        max_positions: int = DEFAULT_BATCH_POSITIONS,
        score_budget: int = DEFAULT_BATCH_SCORE_BUDGET,
    ):
        if max_positions < 1:
            raise ScanConfigError(
                f"max_positions must be >= 1, got {max_positions}"
            )
        if score_budget < 1:
            raise ScanConfigError(
                f"score_budget must be >= 1, got {score_budget}"
            )
        self.max_positions = int(max_positions)
        self.score_budget = int(score_budget)
        self.reset()

    def reset(self) -> None:
        """Drop all packed positions (arenas included)."""
        self._sum_l: List[np.ndarray] = []
        self._sum_r: List[np.ndarray] = []
        self._cross: List[np.ndarray] = []
        self._n_left: List[np.ndarray] = []
        self._n_right: List[np.ndarray] = []
        self._left_borders: List[np.ndarray] = []
        self._right_borders: List[np.ndarray] = []
        self._n_scores = 0
        self._arenas: Optional[dict] = None

    # ------------------------------------------------------------------ #
    # packing

    def add(
        self,
        sums: SumMatrix,
        left_borders: np.ndarray,
        c: int,
        right_borders: np.ndarray,
    ) -> int:
        """Pack one position's window sums; returns its batch slot.

        Border arrays use the same local (region) coordinates as
        ``omega_max_at_split``; empty border sets are accepted and score
        as "no valid split" (ω = 0, borders = −1, 0 evaluations).
        """
        li = np.asarray(left_borders, dtype=np.intp)
        rj = np.asarray(right_borders, dtype=np.intp)
        slot = len(self._sum_l)
        if li.size == 0 or rj.size == 0:
            li = li[:0]
            rj = rj[:0]
            self._sum_l.append(np.empty(0))
            self._sum_r.append(np.empty(0))
            self._cross.append(np.empty(0))
            self._n_left.append(np.empty(0))
            self._n_right.append(np.empty(0))
            self._left_borders.append(li)
            self._right_borders.append(rj)
            self._arenas = None
            return slot
        # split_operands validates border ranges, so every packed element
        # has window sizes >= 1 — the checked=False precondition for the
        # evaluation pass.
        ops = sums.split_operands(li, c, rj)
        self._sum_l.append(ops.sum_l)
        self._sum_r.append(ops.sum_r)
        # Σ_LR evaluated as SumMatrix.cross_sums_grid does.
        self._cross.append(
            np.ravel((ops.head[:, None] - ops.block) + ops.tail[None, :])
        )
        self._n_left.append(ops.n_left)
        self._n_right.append(ops.n_right)
        self._left_borders.append(li)
        self._right_borders.append(rj)
        self._n_scores += li.size * rj.size
        self._arenas = None
        return slot

    @property
    def n_positions(self) -> int:
        return len(self._sum_l)

    @property
    def n_scores(self) -> int:
        """Total packed score-grid elements across all positions."""
        return self._n_scores

    @property
    def full(self) -> bool:
        """True once the next :meth:`add` should go to a fresh batch."""
        return (
            len(self._sum_l) >= self.max_positions
            or self._n_scores >= self.score_budget
        )

    # ------------------------------------------------------------------ #
    # arena views

    def _build(self) -> dict:
        if self._arenas is None:
            left_counts = np.array(
                [a.size for a in self._sum_l], dtype=np.intp
            )
            right_counts = np.array(
                [a.size for a in self._sum_r], dtype=np.intp
            )
            self._arenas = {
                "left_offsets": np.concatenate(
                    ([0], np.cumsum(left_counts))
                ),
                "right_offsets": np.concatenate(
                    ([0], np.cumsum(right_counts))
                ),
                "score_offsets": np.concatenate(
                    ([0], np.cumsum(left_counts * right_counts))
                ),
                "left_counts": left_counts,
                "right_counts": right_counts,
                "left_arena": _concat(self._sum_l, np.float64),
                "right_arena": _concat(self._sum_r, np.float64),
                "cross_arena": _concat(self._cross, np.float64),
                "n_left_arena": _concat(self._n_left, np.float64),
                "n_right_arena": _concat(self._n_right, np.float64),
                "left_border_arena": _concat(self._left_borders, np.intp),
                "right_border_arena": _concat(self._right_borders, np.intp),
            }
        return self._arenas

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        arenas = self._build()
        try:
            return arenas[name]
        except KeyError:
            raise AttributeError(name) from None

    # ------------------------------------------------------------------ #
    # byte accounting (consumed by the GPU engine's transfer model)

    @property
    def packed_border_floats(self) -> int:
        """Per-border operands packed host→device: the LS/RS window sums
        (the km/border arrays of the device layout), one float each."""
        return int(self._build()["left_offsets"][-1]) + int(
            self._build()["right_offsets"][-1]
        )

    @property
    def packed_score_floats(self) -> int:
        """Per-combination operands (the TS cross sums), one float per
        score-grid element."""
        return self._n_scores


def _concat(parts: List[np.ndarray], dtype) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate([np.asarray(p, dtype=dtype) for p in parts])


def omega_max_batch(
    plan: BatchedOmegaPlan,
    *,
    eps: float = DENOMINATOR_OFFSET,
) -> BatchedOmegaResult:
    """Score every packed position in one vectorized pass.

    One Eq. (2) evaluation over the flat arenas, then a segmented max
    (``np.maximum.reduceat`` over each position's contiguous segment) and
    a first-hit scan to recover ``np.argmax``'s first-occurrence index.
    Bitwise-equal to calling ``omega_max_at_split`` per position.
    """
    n = plan.n_positions
    omegas = np.zeros(n, dtype=np.float64)
    lefts = np.full(n, -1, dtype=np.intp)
    rights = np.full(n, -1, dtype=np.intp)
    counts = np.diff(plan.score_offsets)
    if n == 0 or plan.n_scores == 0:
        return BatchedOmegaResult(omegas, lefts, rights, counts)

    # ``cross_arena`` is each position's ``(R, L)`` grid flattened
    # row-major, so within a segment ``ii = e % L`` (left border index)
    # and ``jj = e // L`` (right border index): the coalesced
    # ``(outer, inner)`` decode of the device kernels.
    nonempty = counts > 0
    l_counts = plan.left_counts[nonempty]
    starts = plan.score_offsets[:-1][nonempty]
    seg_counts = counts[nonempty]
    within = np.arange(plan.n_scores, dtype=np.intp) - np.repeat(
        np.cumsum(seg_counts) - seg_counts, seg_counts
    )
    l_rep = np.repeat(l_counts, seg_counts)
    jj = within // l_rep
    l_idx = np.repeat(plan.left_offsets[:-1][nonempty], seg_counts) + (
        within - jj * l_rep
    )
    r_idx = np.repeat(plan.right_offsets[:-1][nonempty], seg_counts) + jj

    scores = omega_from_sums(
        plan.left_arena[l_idx],
        plan.right_arena[r_idx],
        plan.cross_arena,
        plan.n_left_arena[l_idx],
        plan.n_right_arena[r_idx],
        eps=eps,
        checked=False,
    )

    seg_max = np.maximum.reduceat(scores, starts)
    if seg_max.ndim == 0:  # reduceat collapses a single segment
        seg_max = seg_max.reshape(1)

    firsts = np.empty(starts.size, dtype=np.intp)
    finite = ~np.isnan(seg_max)
    if np.any(finite):
        # First element equal to its segment max = np.argmax's
        # first-occurrence winner. NaN never satisfies ==, so hits from
        # NaN segments can't pollute the searchsorted lookup.
        hits = scores == np.repeat(seg_max, seg_counts)
        hit_idx = np.flatnonzero(hits)
        firsts[finite] = hit_idx[
            np.searchsorted(hit_idx, starts[finite])
        ]
    for s in np.flatnonzero(~finite):
        # NaN segment (only reachable with eps=0): np.argmax ranks NaN
        # highest and returns the first one — defer to it directly.
        a = starts[s]
        firsts[s] = a + int(np.argmax(scores[a : a + seg_counts[s]]))

    rel = firsts - starts
    best_ii = rel % l_counts
    best_jj = rel // l_counts
    out = np.flatnonzero(nonempty)
    omegas[out] = scores[firsts]
    lefts[out] = plan.left_border_arena[
        plan.left_offsets[:-1][nonempty] + best_ii
    ]
    rights[out] = plan.right_border_arena[
        plan.right_offsets[:-1][nonempty] + best_jj
    ]
    return BatchedOmegaResult(omegas, lefts, rights, counts)
