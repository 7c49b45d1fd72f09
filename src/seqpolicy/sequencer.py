"""Episode flattening into canonical element sequences with loss masks.

Per timestep the canonical order is: observation streams grouped by modality
class (text, then images, then tensors), streams within a class sorted
lexicographically by key, elements within a stream in codec order; then the
separator token; then the action tokens. Episodes concatenate timesteps in
time order, giving a total length of T * (k + m + n + 1 + A).

The loss mask is 1 exactly on text tokens and action tokens. Targets carry
the element's own token id except on image patches and non-text observation
tokens, which are never predicted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

import numpy as np

from . import codec
from .codec import ImagePatch, Modality, TensorSchema
from .errors import SchemaError

TOKEN_NONE = -1
TARGET_NONE = -1
LOCAL_NONE = -1
TIMESTEP_PAD = np.iinfo(np.int32).min  # sentinel, never a real timestep id


class ElementSource(enum.IntEnum):
    """What produced a sequence element; drives masking and embedding."""

    PAD = 0
    TEXT = 1
    PATCH = 2
    TENSOR = 3
    SEPARATOR = 4
    ACTION = 5


_MASKED_SOURCES = (ElementSource.TEXT, ElementSource.ACTION)
_TARGETED_SOURCES = (ElementSource.TEXT, ElementSource.SEPARATOR, ElementSource.ACTION)


@dataclass
class SequenceElement:
    """A single sequence atom: a token id or an image patch payload."""

    source: ElementSource
    token: int | None = None
    patch: ImagePatch | None = None

    def __post_init__(self):
        if self.source is ElementSource.PATCH:
            if self.patch is None or self.token is not None:
                raise SchemaError("patch elements carry a patch and no token")
        elif self.source is ElementSource.PAD:
            if self.token is not None or self.patch is not None:
                raise SchemaError("padding elements carry no payload")
        else:
            if self.token is None or self.patch is not None:
                raise SchemaError(f"{self.source.name} elements carry a token")


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
    observation elements and -1 for separator/action/padding; the model maps
    the -1 slots to its dedicated table indices. ``targets`` is -1 where the
    element is never predicted. ``timestep`` groups elements into timesteps
    (prompt regions use negative ids so they never merge with the live ones).
    """

    sources: np.ndarray
    tokens: np.ndarray
    local_pos: np.ndarray
    mask: np.ndarray
    targets: np.ndarray
    timestep: np.ndarray
    patches: dict[int, ImagePatch] = field(default_factory=dict)
    task_id: str = ""
    dataset: str | None = None

    def __post_init__(self):
        n = len(self.sources)
        for name in ("tokens", "local_pos", "mask", "targets", "timestep"):
            if len(getattr(self, name)) != n:
                raise SchemaError(f"{name} length != element count")
        for pos in self.patches:
            if self.sources[pos] != ElementSource.PATCH:
                raise SchemaError(f"patch payload at non-patch position {pos}")

    def __len__(self) -> int:
        return len(self.sources)

    @property
    def elements(self) -> list[SequenceElement]:
        out = []
        for i, src in enumerate(self.sources):
            src = ElementSource(int(src))
            if src is ElementSource.PATCH:
                out.append(SequenceElement(src, patch=self.patches[i]))
            elif src is ElementSource.PAD:
                out.append(SequenceElement(src))
            else:
                out.append(SequenceElement(src, token=int(self.tokens[i])))
        return out

    def real_length(self) -> int:
        """Length excluding trailing padding."""
        nonpad = np.nonzero(self.sources != ElementSource.PAD)[0]
        return 0 if nonpad.size == 0 else int(nonpad[-1]) + 1

    def slice(self, start: int, stop: int) -> "ElementSequence":
        patches = {
            pos - start: p for pos, p in self.patches.items() if start <= pos < stop
        }
        return ElementSequence(
            sources=self.sources[start:stop].copy(),
            tokens=self.tokens[start:stop].copy(),
            local_pos=self.local_pos[start:stop].copy(),
            mask=self.mask[start:stop].copy(),
            targets=self.targets[start:stop].copy(),
            timestep=self.timestep[start:stop].copy(),
            patches=patches,
            task_id=self.task_id,
            dataset=self.dataset,
        )

    def padded_to(self, length: int) -> "ElementSequence":
        n = len(self)
        if n > length:
            raise SchemaError(f"cannot pad length {n} down to {length}")
        if n == length:
            return self
        extra = length - n
        return ElementSequence(
            sources=np.concatenate([self.sources, np.full(extra, ElementSource.PAD, np.uint8)]),
            tokens=np.concatenate([self.tokens, np.full(extra, TOKEN_NONE, np.int32)]),
            local_pos=np.concatenate([self.local_pos, np.full(extra, LOCAL_NONE, np.int32)]),
            mask=np.concatenate([self.mask, np.zeros(extra, np.uint8)]),
            targets=np.concatenate([self.targets, np.full(extra, TARGET_NONE, np.int32)]),
            timestep=np.concatenate([self.timestep, np.full(extra, TIMESTEP_PAD, np.int32)]),
            patches=dict(self.patches),
            task_id=self.task_id,
            dataset=self.dataset,
        )


def concat_sequences(parts: Iterable[ElementSequence]) -> ElementSequence:
    parts = [p for p in parts if len(p) > 0]
    if not parts:
        raise ValueError("nothing to concatenate")
    patches: dict[int, ImagePatch] = {}
    offset = 0
    for p in parts:
        for pos, patch in p.patches.items():
            patches[pos + offset] = patch
        offset += len(p)
    return ElementSequence(
        sources=np.concatenate([p.sources for p in parts]),
        tokens=np.concatenate([p.tokens for p in parts]),
        local_pos=np.concatenate([p.local_pos for p in parts]),
        mask=np.concatenate([p.mask for p in parts]),
        targets=np.concatenate([p.targets for p in parts]),
        timestep=np.concatenate([p.timestep for p in parts]),
        patches=patches,
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


def order_observation(observations: dict[str, tuple[TensorSchema, Any]]) -> list[SequenceElement]:
    """Order observation streams: text, images, then tensors; keys lexicographic."""
    ordered = sorted(
        observations.items(), key=lambda kv: (_MODALITY_GROUP[kv[1][0].modality], kv[0])
    )
    elements: list[SequenceElement] = []
    for _, (schema, value) in ordered:
        if schema.modality is Modality.TEXT:
            if not isinstance(value, str):
                raise SchemaError(f"{schema.key}: text stream needs a str value")
            for t in codec.encode_text(value):
                elements.append(SequenceElement(ElementSource.TEXT, token=t))
        elif schema.modality is Modality.IMAGE:
            arr = np.asarray(value)
            if arr.shape != schema.shape:
                raise SchemaError(f"{schema.key}: image shape {arr.shape} != {schema.shape}")
            for patch in codec.image_to_patches(arr):
                elements.append(SequenceElement(ElementSource.PATCH, patch=patch))
        elif schema.modality is Modality.DISCRETE:
            for t in codec.encode_discrete(value, schema):
                elements.append(SequenceElement(ElementSource.TENSOR, token=t))
        else:
            for t in codec.encode_continuous(value, schema):
                elements.append(SequenceElement(ElementSource.TENSOR, token=t))
    return elements


def flatten_timestep(ts: Timestep) -> list[SequenceElement]:
    """Observation elements, separator, then action tokens (none if terminal)."""
    elements = order_observation(ts.observations)
    elements.append(SequenceElement(ElementSource.SEPARATOR, token=codec.SEPARATOR_TOKEN))
    if ts.action is not None:
        schema, value = ts.action
        if schema.modality is Modality.DISCRETE:
            action_tokens = codec.encode_discrete(value, schema)
        elif schema.modality is Modality.CONTINUOUS:
            action_tokens = codec.encode_continuous(value, schema)
        else:
            raise SchemaError(f"{schema.key}: unsupported action modality")
        for t in action_tokens:
            elements.append(SequenceElement(ElementSource.ACTION, token=t))
    return elements


def mask_bit(source: ElementSource) -> int:
    return 1 if source in _MASKED_SOURCES else 0


def target_of(element: SequenceElement) -> int:
    if element.source in _TARGETED_SOURCES:
        return int(element.token)
    return TARGET_NONE


def flatten_episode(ep: Episode, dataset: str | None = None) -> ElementSequence:
    """Concatenate flattened timesteps with masks, targets and local positions."""
    _check_schema_consistency(ep)
    sources, tokens, local, mask, targets, ts_ids = [], [], [], [], [], []
    patches: dict[int, ImagePatch] = {}
    pos = 0
    for t, ts in enumerate(ep.timesteps):
        elems = flatten_timestep(ts)
        obs_ordinal = 0
        for el in elems:
            sources.append(int(el.source))
            if el.source is ElementSource.PATCH:
                patches[pos] = el.patch
                tokens.append(TOKEN_NONE)
            else:
                tokens.append(int(el.token))
            if el.source in (ElementSource.TEXT, ElementSource.PATCH, ElementSource.TENSOR):
                local.append(obs_ordinal)
                obs_ordinal += 1
            else:
                local.append(LOCAL_NONE)
            mask.append(mask_bit(el.source))
            targets.append(target_of(el))
            ts_ids.append(t)
            pos += 1
    return ElementSequence(
        sources=np.array(sources, np.uint8),
        tokens=np.array(tokens, np.int32),
        local_pos=np.array(local, np.int32),
        mask=np.array(mask, np.uint8),
        targets=np.array(targets, np.int32),
        timestep=np.array(ts_ids, np.int32),
        patches=patches,
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
    """Uniform contiguous window of ``length`` elements, right-padded if short."""
    if length < 1:
        raise ValueError(f"window length must be >= 1, got {length}")
    n = len(seq)
    if n == 0:
        raise ValueError("cannot sample from an empty sequence")
    take = min(length, n)
    start = int(rng.integers(0, n - take + 1))
    return seq.slice(start, start + take).padded_to(length)


def apply_prompt(
    item: ElementSequence,
    source: Episode | ElementSequence | None,
    rng: np.random.Generator,
    prompt_probability: float = 0.25,
    end_probability: float = 0.5,
    budget_fraction: float = 0.5,
) -> tuple[ElementSequence, bool]:
    """Maybe prepend a same-task prompt window, keeping the training length.

    With ``prompt_probability`` a prompt window (at most ``budget_fraction``
    of the training length) is taken from the source episode: its final
    tokens with ``end_probability``, otherwise a uniformly positioned window.
    The combined sequence keeps its leftmost ``len(item)`` elements, so the
    prompt can displace the tail of the primary subsequence but never more
    than the budget fraction. Prompt tokens keep their modality-derived mask.
    """
    length = len(item)
    if source is not None:
        source_task = source.task_id
        if source_task != item.task_id:
            raise ValueError(
                f"prompt source task {source_task!r} != item task {item.task_id!r}"
            )
    if rng.random() >= prompt_probability:
        return item, False
    if source is None:
        return item, False
    src = source if isinstance(source, ElementSequence) else flatten_episode(source)
    src_len = src.real_length()
    if src_len == 0:
        return item, False
    budget = min(int(length * budget_fraction), src_len)
    if budget == 0:
        return item, False
    if rng.random() < end_probability:
        prompt = src.slice(src_len - budget, src_len)
    else:
        start = int(rng.integers(0, src_len - budget + 1))
        prompt = src.slice(start, start + budget)
    # shift prompt timestep ids below zero so they never merge with live ones
    shifted = prompt.timestep.astype(np.int64) - (int(prompt.timestep.max()) + 1)
    prompt.timestep = shifted.astype(np.int32)
    real_len = item.real_length()
    combined = concat_sequences([prompt, item.slice(0, real_len)])
    combined = combined.slice(0, min(length, len(combined))).padded_to(length)
    return combined, True


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class MaskedBatch:
    """Stacked element sequences plus targets and loss-mask bits.

    The per-element arrays stay aligned to the input elements. Training uses
    the shifted views: ``shifted_targets()[.., l]`` is the token the model
    must predict from everything up to and including position ``l``.
    """

    tokens: np.ndarray          # (B, L) int32, -1 where no token
    sources: np.ndarray         # (B, L) uint8 ElementSource values
    local_pos: np.ndarray       # (B, L) int32 observation ordinals, -1 otherwise
    mask: np.ndarray            # (B, L) uint8, element-aligned modality mask
    targets: np.ndarray         # (B, L) int32, -1 where never predicted
    timestep: np.ndarray        # (B, L) int32
    patch_pixels: np.ndarray | None   # (P, 16, 16, C) float64
    patch_slots: np.ndarray | None    # (P, 2) int32 rows of (batch, position)
    patch_intervals: np.ndarray | None  # (P, 4) float64 row_lo, row_hi, col_lo, col_hi
    provenance: list[tuple[str, str | None]]

    @property
    def batch_size(self) -> int:
        return self.tokens.shape[0]

    @property
    def seq_len(self) -> int:
        return self.tokens.shape[1]

    def shifted_targets(self) -> np.ndarray:
        out = np.full_like(self.targets, TARGET_NONE)
        out[:, :-1] = self.targets[:, 1:]
        return out

    def shifted_mask(self) -> np.ndarray:
        out = np.zeros_like(self.mask)
        out[:, :-1] = self.mask[:, 1:]
        return out

    def trimmed(self) -> "MaskedBatch":
        """The batch cut after its last column holding a non-padding element.

        Padding only trails and attention is causal, so the model sees the
        same inputs at every real position; the per-position arrays become
        views. Patches sit at real positions and are kept as they are. A
        batch with no trailing all-padding column is returned itself.
        """
        real = np.nonzero((self.sources != ElementSource.PAD).any(axis=0))[0]
        length = int(real[-1]) + 1 if real.size else 1
        if length == self.seq_len:
            return self
        return replace(
            self,
            tokens=self.tokens[:, :length],
            sources=self.sources[:, :length],
            local_pos=self.local_pos[:, :length],
            mask=self.mask[:, :length],
            targets=self.targets[:, :length],
            timestep=self.timestep[:, :length],
        )

    def unbatch(self) -> list[ElementSequence]:
        items = []
        for b in range(self.batch_size):
            patches = {}
            if self.patch_slots is not None:
                for p, (pb, pos) in enumerate(self.patch_slots):
                    if pb == b:
                        patches[int(pos)] = ImagePatch(
                            pixels=self.patch_pixels[p],
                            row_interval=tuple(self.patch_intervals[p, 0:2]),
                            col_interval=tuple(self.patch_intervals[p, 2:4]),
                        )
            task_id, dataset = self.provenance[b]
            items.append(
                ElementSequence(
                    sources=self.sources[b].copy(),
                    tokens=self.tokens[b].copy(),
                    local_pos=self.local_pos[b].copy(),
                    mask=self.mask[b].copy(),
                    targets=self.targets[b].copy(),
                    timestep=self.timestep[b].copy(),
                    patches=patches,
                    task_id=task_id,
                    dataset=dataset,
                )
            )
        return items


def assemble_batch(items: list[ElementSequence]) -> MaskedBatch:
    if not items:
        raise ValueError("cannot assemble an empty batch")
    length = len(items[0])
    if any(len(it) != length for it in items):
        raise SchemaError(f"ragged item lengths: {[len(it) for it in items]}")
    slots, pixels, intervals = [], [], []
    for b, item in enumerate(items):
        for pos in sorted(item.patches):
            patch = item.patches[pos]
            slots.append((b, pos))
            pixels.append(patch.pixels)
            intervals.append(
                (*patch.row_interval, *patch.col_interval)
            )
    if pixels:
        channels = {p.shape[2] for p in pixels}
        if len(channels) != 1:
            raise SchemaError(f"mixed patch channel counts in one batch: {channels}")
        patch_pixels = np.stack(pixels).astype(np.float64)
        patch_slots = np.array(slots, np.int32)
        patch_intervals = np.array(intervals, np.float64)
    else:
        patch_pixels = patch_slots = patch_intervals = None
    return MaskedBatch(
        tokens=np.stack([it.tokens for it in items]),
        sources=np.stack([it.sources for it in items]),
        local_pos=np.stack([it.local_pos for it in items]),
        mask=np.stack([it.mask for it in items]),
        targets=np.stack([it.targets for it in items]),
        timestep=np.stack([it.timestep for it in items]),
        patch_pixels=patch_pixels,
        patch_slots=patch_slots,
        patch_intervals=patch_intervals,
        provenance=[(it.task_id, it.dataset) for it in items],
    )
