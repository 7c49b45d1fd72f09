"""Patch and local position encodings: index computation only.

Patch positions: a patch's normalized row/col intervals are quantized onto a
128-way grid. Training picks a uniform index inside the closed quantized
interval; evaluation takes the rounded interval mean, which reproduces the
worked example: an 80x64 image patch covering rows [0.25, 0.5] and columns
[0.4, 0.6] quantizes to [32, 64] and [51, 77], giving eval indices 48 and 64.

Local positions: within a timestep, ``sequencer.OBSERVATION`` elements count
0, 1, 2, ...; the separator and all action elements each get one reserved slot.
"""

from __future__ import annotations

import numpy as np

from ..errors import CapacityError
from ..sequencer import LOCAL_NONE, OBSERVATION, RESERVED_SLOT
from .config import ModelConfig, mode_rules


def quantize_patch_interval(interval, vocab: int = 128) -> tuple[np.ndarray, np.ndarray]:
    """Closed quantized index intervals of normalized patch extents.

    ``interval`` is one ``(lo, hi)`` pair or a (P, 2) array of them; the two
    results have its shape without the last axis.
    """
    extent = np.asarray(interval, dtype=np.float64)
    lo, hi = extent[..., 0], extent[..., 1]
    valid = (0.0 <= lo) & (lo < hi) & (hi <= 1.0)
    if not np.all(valid):
        raise ValueError(
            f"patch intervals {extent[~valid].tolist()} must satisfy 0 <= lo < hi <= 1"
        )
    # keep indices addressable in the vocab-row table
    lo_q = np.minimum(np.rint(lo * vocab), vocab - 1).astype(np.int64)
    hi_q = np.minimum(np.rint(hi * vocab), vocab - 1).astype(np.int64)
    return lo_q, hi_q


def patch_position_index(
    interval,
    mode: str,
    rng: np.random.Generator | None = None,
    vocab: int = 128,
) -> np.ndarray:
    """Row or column encoding indices, one per ``(lo, hi)`` pair of ``interval``.

    Pretrain and finetune draw all indices with one ``rng.integers`` call,
    which yields the same values and leaves the same generator state as one
    call per patch.
    """
    lo_q, hi_q = quantize_patch_interval(interval, vocab)
    if mode_rules(mode).random_patch_positions:
        if rng is None:
            raise ValueError("train-mode patch positions need a random stream")
        return rng.integers(lo_q, hi_q + 1)
    return np.rint((lo_q + hi_q) / 2.0).astype(np.int64)


def resolve_local_indices(
    sources: np.ndarray, local_pos: np.ndarray, cfg: ModelConfig
) -> np.ndarray:
    """Local-position table indices of non-padding elements, on (L,) or (B, L)
    arrays: ``OBSERVATION`` sources take their ordinal, the others their
    ``RESERVED_SLOT``, the separator or action slot at the table's top."""
    obs = OBSERVATION[sources]
    most = int(local_pos[obs].max(initial=LOCAL_NONE))
    if most >= cfg.max_observation_elements:
        raise CapacityError(
            f"observation has {most + 1} elements, "
            f"local position table holds {cfg.max_observation_elements}"
        )
    reserved = np.array([cfg.separator_local_index, cfg.action_local_index])
    return np.where(obs, local_pos, reserved[RESERVED_SLOT[sources]])
