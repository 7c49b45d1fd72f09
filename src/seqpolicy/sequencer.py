"""Episode flattening into canonical element sequences with loss masks.

Per timestep the canonical order is: observation streams grouped by modality
class (text, then images, then tensors), streams within a class sorted
lexicographically by key, elements within a stream in codec order; then the
separator token; then the action tokens. Episodes concatenate timesteps in
time order, giving a total length of T * (k + m + n + 1 + A).

The loss mask is 1 exactly on text tokens and action tokens. Targets carry
the element's own token id except on image patches and non-text observation
tokens, which are never predicted. Those and every other per-source fact are
tables here, indexed by source value; the model and ``inspect`` read them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from . import codec
from .codec import Modality, TensorSchema
from .errors import SchemaError

TOKEN_NONE = -1
TARGET_NONE = -1
LOCAL_NONE = -1


class ElementSource(enum.IntEnum):
    """What produced a sequence element; drives masking and embedding."""

    PAD = 0
    TEXT = 1
    PATCH = 2
    TENSOR = 3
    SEPARATOR = 4
    ACTION = 5


# Per-source facts, indexed by ElementSource value. Each table names its
# members, so reordering the enum cannot misclassify a source.
HAS_TOKEN = np.zeros(len(ElementSource), bool)  # embedded from its token's row
HAS_TOKEN[[ElementSource.TEXT, ElementSource.TENSOR, ElementSource.SEPARATOR,
           ElementSource.ACTION]] = True
OBSERVATION = np.zeros(len(ElementSource), bool)  # local position is its ordinal
OBSERVATION[[ElementSource.TEXT, ElementSource.PATCH, ElementSource.TENSOR]] = True
RESERVED_SLOT = np.zeros(len(ElementSource), np.int64)  # separator 0, action 1
RESERVED_SLOT[[ElementSource.SEPARATOR, ElementSource.ACTION]] = 0, 1
TOKEN_RANGE = np.zeros((len(ElementSource), 2), np.int64)  # legal ids [lo, hi)
TOKEN_RANGE[ElementSource.TEXT] = 0, codec.TEXT_VOCAB
TOKEN_RANGE[[ElementSource.TENSOR, ElementSource.ACTION]] = 0, codec.CONTINUOUS_END
TOKEN_RANGE[ElementSource.SEPARATOR] = codec.SEPARATOR_TOKEN, codec.VOCAB_SIZE
# Whether the element carries loss, and whether its own token is its target.
_LOSS_TABLE = np.zeros(len(ElementSource), np.uint8)
_LOSS_TABLE[[ElementSource.TEXT, ElementSource.ACTION]] = 1
_TARGET_TABLE = np.zeros(len(ElementSource), bool)
_TARGET_TABLE[[ElementSource.TEXT, ElementSource.SEPARATOR, ElementSource.ACTION]] = True


def mask_of(sources: np.ndarray) -> np.ndarray:
    """Loss-mask bits (uint8) for an array of ElementSource values."""
    return _LOSS_TABLE[sources]


def targets_of(sources: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Each element's own token where it is predicted, TARGET_NONE elsewhere."""
    return np.where(_TARGET_TABLE[sources], tokens, TARGET_NONE).astype(np.int32)


@dataclass
class Timestep:
    """Observations keyed by stream name, plus an optional action.

    Each entry pairs the stream's schema with its raw (untokenized) value.
    ``action`` is absent on terminal timesteps.
    """

    observations: dict[str, tuple[TensorSchema, Any]]
    action: tuple[TensorSchema, Any] | None = None

    def __post_init__(self):
        for key, (schema, _) in self.observations.items():
            if key != schema.key:
                raise SchemaError(f"observation key {key!r} != schema key {schema.key!r}")
        if self.action is not None and not self.action[0].is_action:
            raise SchemaError("action schema must have is_action=True")

    def __eq__(self, other):
        if not isinstance(other, Timestep):
            return NotImplemented
        if set(self.observations) != set(other.observations):
            return False
        for key, (schema, value) in self.observations.items():
            oschema, ovalue = other.observations[key]
            if schema != oschema or not _values_equal(value, ovalue):
                return False
        if (self.action is None) != (other.action is None):
            return False
        if self.action is not None:
            return self.action[0] == other.action[0] and _values_equal(
                self.action[1], other.action[1]
            )
        return True


def _values_equal(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.array_equal(np.asarray(a), np.asarray(b))


@dataclass(eq=False)
class Episode:
    """One trajectory on a task, with one reward per timestep."""

    task_id: str
    timesteps: list[Timestep]
    rewards: list[float]

    def __post_init__(self):
        if len(self.rewards) != len(self.timesteps):
            raise SchemaError(
                f"{len(self.rewards)} rewards for {len(self.timesteps)} timesteps"
            )

    @property
    def total_return(self) -> float:
        return float(sum(self.rewards))

    def __len__(self) -> int:
        return len(self.timesteps)

    def __eq__(self, other):
        if not isinstance(other, Episode):
            return NotImplemented
        return (
            self.task_id == other.task_id
            and list(map(float, self.rewards)) == list(map(float, other.rewards))
            and self.timesteps == other.timesteps
        )


@dataclass
class SequenceLayout:
    """Per-timestep element counts; total length is T * (k + m + n + 1 + A)."""

    k: int  # text elements
    m: int  # image patches
    n: int  # tensor elements
    A: int  # action elements
    T: int  # timesteps

    @property
    def total(self) -> int:
        return self.T * (self.k + self.m + self.n + 1 + self.A)


@dataclass
class ElementSequence:
    """Flattened elements with aligned per-element metadata arrays.

    ``local_pos`` holds the within-timestep observation ordinal for
    observation elements and -1 for separator/action elements; the model maps
    the -1 slots to its dedicated table indices. ``timestep`` groups elements
    into timesteps (prompt regions use negative ids so they never merge with
    the live ones). Row k of ``patch_pixels`` (P, 16, 16, 3) and
    ``patch_intervals`` (P, 4) belongs to the k-th ``PATCH`` element; both are
    None when there is none. The loss mask and targets are not stored: they
    are :func:`mask_of` and :func:`targets_of` of the sources and tokens.
    """

    sources: np.ndarray
    tokens: np.ndarray
    local_pos: np.ndarray
    timestep: np.ndarray
    patch_pixels: np.ndarray | None = None
    patch_intervals: np.ndarray | None = None
    task_id: str = ""
    dataset: str | None = None

    def __post_init__(self):
        n = len(self.sources)
        for name in ("tokens", "local_pos", "timestep"):
            if len(getattr(self, name)) != n:
                raise SchemaError(f"{name} length != element count")
        count = int(np.count_nonzero(self.sources == ElementSource.PATCH))
        for name in ("patch_pixels", "patch_intervals"):
            rows = getattr(self, name)
            if (0 if rows is None else len(rows)) != count:
                raise SchemaError(f"{name} has a row count != {count} patch elements")

    def __len__(self) -> int:
        return len(self.sources)

    def slice(self, start: int, stop: int) -> "ElementSequence":
        pixels = intervals = None
        if self.patch_pixels is not None:
            is_patch = self.sources == ElementSource.PATCH
            first = int(np.count_nonzero(is_patch[:start]))
            last = first + int(np.count_nonzero(is_patch[start:stop]))
            if last > first:
                pixels = self.patch_pixels[first:last]
                intervals = self.patch_intervals[first:last]
        return ElementSequence(
            sources=self.sources[start:stop].copy(),
            tokens=self.tokens[start:stop].copy(),
            local_pos=self.local_pos[start:stop].copy(),
            timestep=self.timestep[start:stop].copy(),
            patch_pixels=pixels,
            patch_intervals=intervals,
            task_id=self.task_id,
            dataset=self.dataset,
        )


def _join_patches(pixels: list, intervals: list) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Patch rows concatenated in order (None entries skipped), or (None, None)."""
    pixels = [p for p in pixels if p is not None]
    if not pixels:
        return None, None
    return np.concatenate(pixels), np.concatenate([i for i in intervals if i is not None])


def concat_sequences(parts: Iterable[ElementSequence]) -> ElementSequence:
    parts = [p for p in parts if len(p) > 0]
    if not parts:
        raise ValueError("nothing to concatenate")
    pixels, intervals = _join_patches(
        [p.patch_pixels for p in parts], [p.patch_intervals for p in parts]
    )
    return ElementSequence(
        sources=np.concatenate([p.sources for p in parts]),
        tokens=np.concatenate([p.tokens for p in parts]),
        local_pos=np.concatenate([p.local_pos for p in parts]),
        timestep=np.concatenate([p.timestep for p in parts]),
        patch_pixels=pixels,
        patch_intervals=intervals,
        task_id=parts[0].task_id,
        dataset=parts[0].dataset,
    )


# ---------------------------------------------------------------------------
# flattening
# ---------------------------------------------------------------------------

_MODALITY_GROUP = {
    Modality.TEXT: 0,
    Modality.IMAGE: 1,
    Modality.DISCRETE: 2,
    Modality.CONTINUOUS: 2,
}
_OBSERVATION_SOURCE = {
    Modality.TEXT: ElementSource.TEXT,
    Modality.DISCRETE: ElementSource.TENSOR,
    Modality.CONTINUOUS: ElementSource.TENSOR,
}


def order_observation(
    observations: dict[str, tuple[TensorSchema, Any]],
) -> list[tuple[TensorSchema, Any]]:
    """(schema, value) streams: text, images, then tensors; keys lexicographic."""
    ordered = sorted(
        observations.items(), key=lambda kv: (_MODALITY_GROUP[kv[1][0].modality], kv[0])
    )
    return [stream for _, stream in ordered]


def flatten_episode(ep: Episode, dataset: str | None = None) -> ElementSequence:
    """Per timestep: observation streams, the separator, then action tokens."""
    _check_schema_consistency(ep)
    sources, tokens, local, ts_ids = [], [], [], []
    pixels, intervals = [], []
    for t, ts in enumerate(ep.timesteps):
        start = len(sources)
        for schema, value in order_observation(ts.observations):
            if schema.modality is Modality.IMAGE:
                arr = np.asarray(value)
                if arr.shape != schema.shape:
                    raise SchemaError(f"{schema.key}: image shape {arr.shape} != {schema.shape}")
                cut, extents = codec.image_to_patches(arr)
                pixels.append(cut)
                intervals.append(extents)
                sources.extend([ElementSource.PATCH] * len(cut))
                tokens.extend([TOKEN_NONE] * len(cut))
            else:
                ids = codec.encode(value, schema)
                sources.extend([_OBSERVATION_SOURCE[schema.modality]] * len(ids))
                tokens.extend(ids)
        local.extend(range(len(sources) - start))
        sources.append(ElementSource.SEPARATOR)
        tokens.append(codec.SEPARATOR_TOKEN)
        if ts.action is not None:
            ids = codec.encode(ts.action[1], ts.action[0])
            sources.extend([ElementSource.ACTION] * len(ids))
            tokens.extend(ids)
        local.extend([LOCAL_NONE] * (len(sources) - len(local)))
        ts_ids.extend([t] * (len(sources) - start))
    patch_pixels, patch_intervals = _join_patches(pixels, intervals)
    return ElementSequence(
        sources=np.array(sources, np.uint8),
        tokens=np.array(tokens, np.int32),
        local_pos=np.array(local, np.int32),
        timestep=np.array(ts_ids, np.int32),
        patch_pixels=patch_pixels,
        patch_intervals=patch_intervals,
        task_id=ep.task_id,
        dataset=dataset,
    )


def _check_schema_consistency(ep: Episode) -> None:
    seen: dict[str, TensorSchema] = {}
    for ts in ep.timesteps:
        for key, (schema, _) in ts.observations.items():
            if key in seen and seen[key] != schema:
                raise SchemaError(f"schema for {key!r} changes within episode")
            seen[key] = schema
        if ts.action is not None:
            key = "action:" + ts.action[0].key
            if key in seen and seen[key] != ts.action[0]:
                raise SchemaError("action schema changes within episode")
            seen[key] = ts.action[0]


def episode_layout(ep: Episode) -> SequenceLayout:
    """Per-timestep counts; raises if they vary across timesteps."""
    if not ep.timesteps:
        return SequenceLayout(0, 0, 0, 0, 0)
    counts = []
    for ts in ep.timesteps:
        k = m = n = a = 0
        for _, (schema, value) in ts.observations.items():
            if schema.modality is Modality.TEXT:
                k += len(codec.encode_text(value))
            elif schema.modality is Modality.IMAGE:
                m += schema.num_elements
            else:
                n += schema.num_elements
        if ts.action is not None:
            a = ts.action[0].num_elements
        counts.append((k, m, n, a))
    if len(set(counts)) != 1:
        raise SchemaError(f"ragged per-timestep layout: {sorted(set(counts))}")
    k, m, n, a = counts[0]
    return SequenceLayout(k=k, m=m, n=n, A=a, T=len(ep.timesteps))


# ---------------------------------------------------------------------------
# sampling and prompting
# ---------------------------------------------------------------------------

def sample_subsequence(seq: ElementSequence, length: int, rng: np.random.Generator) -> ElementSequence:
    """Uniform contiguous window of ``length`` elements, or all of a shorter ``seq``."""
    if length < 1:
        raise ValueError(f"window length must be >= 1, got {length}")
    n = len(seq)
    if n == 0:
        raise ValueError("cannot sample from an empty sequence")
    take = min(length, n)
    start = int(rng.integers(0, n - take + 1))
    return seq.slice(start, start + take)


PROMPT_END_PROBABILITY = 0.5  # a prompt is the source's final tokens this often
PROMPT_BUDGET_FRACTION = 0.5  # a prompt holds at most this share of the window


def apply_prompt(
    item: ElementSequence,
    source: ElementSequence,
    rng: np.random.Generator,
    length: int,
    prompt_probability: float = 0.25,
) -> tuple[ElementSequence, bool]:
    """Maybe prepend a same-task prompt window, keeping at most ``length`` elements.

    With ``prompt_probability`` a prompt window (at most
    ``PROMPT_BUDGET_FRACTION`` of the training ``length``) is taken from the
    same-task source: its final tokens with ``PROMPT_END_PROBABILITY``,
    otherwise a uniformly positioned window.
    The combined sequence keeps its leftmost ``length`` elements, so the
    prompt can displace the tail of the primary subsequence but never more
    than the budget fraction. Prompt tokens keep their modality-derived mask.
    """
    if source.task_id != item.task_id:
        raise ValueError(
            f"prompt source task {source.task_id!r} != item task {item.task_id!r}"
        )
    if rng.random() >= prompt_probability:
        return item, False
    budget = min(int(length * PROMPT_BUDGET_FRACTION), len(source))
    if budget == 0:
        return item, False
    if rng.random() < PROMPT_END_PROBABILITY:
        prompt = source.slice(len(source) - budget, len(source))
    else:
        start = int(rng.integers(0, len(source) - budget + 1))
        prompt = source.slice(start, start + budget)
    prompt.timestep = prompt_timesteps(prompt.timestep)
    return concat_sequences([prompt, item]).slice(0, length), True


def prompt_timesteps(timestep: np.ndarray) -> np.ndarray:
    """Timestep ids shifted below zero so a prompt never merges with live ones."""
    return (timestep.astype(np.int64) - (int(timestep.max()) + 1)).astype(np.int32)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class MaskedBatch:
    """Windows packed into rows.

    The per-element arrays stay aligned to the input elements. Training uses
    the shifted targets and loss mask, derived by :func:`targets_of` and
    :func:`mask_of`: ``shifted_targets()[.., l]`` is the token the model
    must predict from everything up to and including position ``l``.
    ``segments`` names the window (an index into ``provenance``) at each
    position; a row can hold several windows (see :func:`assemble_batch`).
    """

    tokens: np.ndarray          # (B, L) int32, -1 where no token
    sources: np.ndarray         # (B, L) uint8 ElementSource values
    local_pos: np.ndarray       # (B, L) int32 observation ordinals, -1 otherwise
    segments: np.ndarray        # (B, L) int32 window index into provenance
    patch_pixels: np.ndarray | None   # (P, 16, 16, 3) float64
    patch_slots: np.ndarray | None    # (P, 2) int32 rows of (batch, position)
    patch_intervals: np.ndarray | None  # (P, 4) float64 row_lo, row_hi, col_lo, col_hi
    provenance: list[tuple[str, str | None]]

    @property
    def batch_size(self) -> int:
        return self.tokens.shape[0]

    @property
    def seq_len(self) -> int:
        return self.tokens.shape[1]

    def _window_ends(self) -> np.ndarray:
        """(B, L) bool, true where the next position is in another window."""
        ends = np.ones(self.segments.shape, dtype=bool)
        ends[:, :-1] = self.segments[:, 1:] != self.segments[:, :-1]
        return ends

    def shifted_targets(self) -> np.ndarray:
        out = np.full(self.tokens.shape, TARGET_NONE, np.int32)
        out[:, :-1] = targets_of(self.sources[:, 1:], self.tokens[:, 1:])
        out[self._window_ends()] = TARGET_NONE
        return out

    def shifted_mask(self) -> np.ndarray:
        out = np.zeros(self.sources.shape, np.uint8)
        out[:, :-1] = mask_of(self.sources[:, 1:])
        out[self._window_ends()] = 0
        return out


def assemble_batch(items: list[ElementSequence]) -> MaskedBatch:
    """Pack windows of any length into rows as long as the longest window.

    Windows are placed first-fit by decreasing length (ties by index); rows
    are ordered by their lowest window index and keep their windows in index
    order. ``segments`` keeps windows apart: the model never attends across
    them and a window's last position predicts nothing. A row's trailing
    padding belongs to its last window. Patch arrays follow window order;
    ``patch_slots`` gives each patch's (row, position).
    """
    if not items:
        raise ValueError("cannot assemble an empty batch")
    lengths = [len(it) for it in items]
    capacity = max(lengths)
    rows: list[list[int]] = []
    free: list[int] = []
    for w in sorted(range(len(items)), key=lambda w: (-lengths[w], w)):
        r = next((r for r, f in enumerate(free) if f >= lengths[w]), len(rows))
        if r == len(rows):
            rows.append([])
            free.append(capacity)
        rows[r].append(w)
        free[r] -= lengths[w]
    layout = sorted(zip(map(sorted, rows), free))
    order = [w for row, _ in layout for w in row]
    # the last window of a row also spans the row's trailing padding
    pads = [left if w == row[-1] else 0 for row, left in layout for w in row]
    spans = [lengths[w] + pad for w, pad in zip(order, pads)]
    shape = (len(layout), capacity)
    real = None
    if any(pads):
        runs = [n for w, pad in zip(order, pads) for n in (lengths[w], pad)]
        real = np.repeat(np.tile([True, False], len(order)), runs)

    def lay(name: str, fill) -> np.ndarray:
        flat = np.concatenate([getattr(items[w], name) for w in order])
        if real is not None:
            out = np.full(real.size, fill, flat.dtype)
            out[real] = flat
            flat = out
        return flat.reshape(shape)

    tokens = lay("tokens", TOKEN_NONE)
    sources = lay("sources", ElementSource.PAD)
    segments = np.repeat(np.array(order, np.int32), spans).reshape(shape)
    patch_pixels, patch_intervals = _join_patches(
        [it.patch_pixels for it in items], [it.patch_intervals for it in items]
    )
    patch_slots = None
    if patch_pixels is not None:
        # patch positions in layout order, stably re-sorted into window order
        at = np.flatnonzero(sources == ElementSource.PATCH)
        at = at[np.argsort(segments.ravel()[at], kind="stable")]
        patch_slots = np.stack(np.divmod(at, capacity), axis=1).astype(np.int32)
    return MaskedBatch(
        tokens=tokens,
        sources=sources,
        local_pos=lay("local_pos", LOCAL_NONE),
        segments=segments,
        patch_pixels=patch_pixels,
        patch_slots=patch_slots,
        patch_intervals=patch_intervals,
        provenance=[(it.task_id, it.dataset) for it in items],
    )
