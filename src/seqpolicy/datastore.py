"""Episode persistence, expert-return filtering, and weighted dataset mixing.

Episodes are stored as self-describing binary records holding raw values,
never tokens; tokenization is a view over storage, so codec parameters can
change without rewriting corpora. Each record is one ``seqpolicy.framing``
frame (magic "SQEP", version 1): length-prefixed and closed by a CRC-32 of
its body, giving cheap corruption detection. A file is written and read
one record after another, each streamed through the file like a checkpoint.

The body carries the task id, per-timestep rewards, a schema table
(length-prefixed UTF-8 keys plus shape/modality/range fields), and one
payload block per timestep referencing schema indices.
"""

from __future__ import annotations

import configparser
import glob as globlib
import io
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import Modality, TensorSchema
from .errors import ExhaustedStreamError, RecordFormatError, SchemaError
from .framing import Reader, Writer, atomic_writer
from .sequencer import ElementSequence, Episode, Timestep, flatten_episode, sample_subsequence

logger = logging.getLogger(__name__)

MAGIC = b"SQEP"
FORMAT_VERSION = 1

_MODALITY_CODE = {
    Modality.TEXT: 0,
    Modality.IMAGE: 1,
    Modality.DISCRETE: 2,
    Modality.CONTINUOUS: 3,
}
_CODE_MODALITY = {v: k for k, v in _MODALITY_CODE.items()}


# ---------------------------------------------------------------------------
# binary record encode/decode
# ---------------------------------------------------------------------------

def _write_schema(w: Writer, schema: TensorSchema) -> None:
    w.string(schema.key)
    w.u8(_MODALITY_CODE[schema.modality])
    w.u8(1 if schema.is_action else 0)
    w.u8(1 if schema.compand else 0)
    w.u8(len(schema.shape))
    for d in schema.shape:
        w.u32(d)
    if schema.value_range is not None:
        w.u8(1)
        w.f64(schema.value_range[0])
        w.f64(schema.value_range[1])
    else:
        w.u8(0)


def _read_schema(r: Reader) -> TensorSchema:
    key = r.string()
    code = r.u8()
    if code not in _CODE_MODALITY:
        raise RecordFormatError(f"schema {key!r}: unknown modality code {code}")
    modality = _CODE_MODALITY[code]
    is_action = bool(r.u8())
    compand = bool(r.u8())
    ndim = r.u8()
    shape = tuple(r.u32() for _ in range(ndim))
    value_range = None
    if r.u8():
        value_range = (r.f64(), r.f64())
    return TensorSchema(
        key=key,
        shape=shape,
        modality=modality,
        value_range=value_range,
        compand=compand,
        is_action=is_action,
    )


def _write_value(w: Writer, schema: TensorSchema, value) -> None:
    if schema.modality is Modality.TEXT:
        w.string(value)
        return
    arr = np.asarray(value)
    if arr.shape != schema.shape:
        raise SchemaError(f"{schema.key}: value shape {arr.shape} != {schema.shape}")
    if schema.modality is Modality.IMAGE:
        if arr.dtype != np.uint8:
            raise SchemaError(f"{schema.key}: image values stored as uint8")
        w.raw(arr.tobytes(order="C"))
    elif schema.modality is Modality.DISCRETE:
        w.raw(arr.astype("<i4").tobytes(order="C"))
    else:
        w.raw(arr.astype("<f8").tobytes(order="C"))


def _read_value(r: Reader, schema: TensorSchema):
    if schema.modality is Modality.TEXT:
        return r.string()
    count = int(np.prod(schema.shape)) if schema.shape else 1
    if schema.modality is Modality.IMAGE:
        raw = r.take(count)
        return np.frombuffer(raw, dtype=np.uint8).reshape(schema.shape).copy()
    if schema.modality is Modality.DISCRETE:
        raw = r.take(4 * count)
        arr = np.frombuffer(raw, dtype="<i4").astype(np.int64)
    else:
        raw = r.take(8 * count)
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return arr.reshape(schema.shape) if schema.shape else arr[0]


def _write_episode(f, ep: Episode) -> None:
    """Write one episode's record at the binary file ``f``'s position."""
    body = Writer(f, MAGIC, FORMAT_VERSION)
    body.string(ep.task_id)
    body.u32(len(ep.rewards))
    for rwd in ep.rewards:
        body.f64(float(rwd))

    schemas: list[TensorSchema] = []
    index: dict[TensorSchema, int] = {}

    def schema_idx(schema: TensorSchema) -> int:
        if schema not in index:
            index[schema] = len(schemas)
            schemas.append(schema)
        return index[schema]

    steps = []
    for ts in ep.timesteps:
        obs = [(schema_idx(schema), schema, value) for _, (schema, value) in sorted(ts.observations.items())]
        act = None
        if ts.action is not None:
            act = (schema_idx(ts.action[0]), ts.action[0], ts.action[1])
        steps.append((obs, act))

    body.u32(len(schemas))
    for schema in schemas:
        _write_schema(body, schema)
    body.u32(len(steps))
    for obs, act in steps:
        body.u32(len(obs))
        for idx, schema, value in obs:
            body.u32(idx)
            _write_value(body, schema, value)
        if act is None:
            body.u8(0)
        else:
            body.u8(1)
            body.u32(act[0])
            _write_value(body, act[1], act[2])
    body.finish()


def _read_episode(f) -> Episode:
    """Parse the record at the binary file ``f``'s position, leaving ``f``
    at the next record."""
    r = Reader(f, MAGIC, FORMAT_VERSION)
    task_id = r.string()
    n_rewards = r.u32()
    rewards = [r.f64() for _ in range(n_rewards)]
    n_schemas = r.u32()
    schemas = [_read_schema(r) for _ in range(n_schemas)]
    n_steps = r.u32()

    def next_schema() -> TensorSchema:
        idx = r.u32()
        if idx >= n_schemas:
            raise RecordFormatError(f"schema index {idx} out of range ({n_schemas} schemas)")
        return schemas[idx]

    timesteps = []
    for _ in range(n_steps):
        n_obs = r.u32()
        observations = {}
        for _ in range(n_obs):
            schema = next_schema()
            observations[schema.key] = (schema, _read_value(r, schema))
        action = None
        if r.u8():
            schema = next_schema()
            action = (schema, _read_value(r, schema))
        timesteps.append(Timestep(observations=observations, action=action))
    r.finish()
    return Episode(task_id=task_id, timesteps=timesteps, rewards=rewards)


def write_episodes(episodes: list[Episode], path) -> None:
    """Replace ``path`` with these records; a crash keeps the old file. Each
    record is framed in memory, where ``Writer.finish`` seeks, then written whole."""
    buf = io.BytesIO()
    with atomic_writer(path) as f:
        for ep in episodes:
            buf.seek(0)
            buf.truncate()
            _write_episode(buf, ep)
            f.write(buf.getvalue())


def read_episodes(path) -> list[Episode]:
    """Read all records concatenated in the file at ``path``, one after another."""
    episodes = []
    with open(path, "rb") as f:
        while f.peek(1):
            episodes.append(_read_episode(f))
    return episodes


# ---------------------------------------------------------------------------
# expert-return filtering
# ---------------------------------------------------------------------------

@dataclass
class FilterReport:
    expert_return: float
    window: int
    threshold: float
    kept: int
    dropped: int


def expert_window(n_episodes: int) -> int:
    """Window size: 10% of the data, at least 1, at most 1000 episodes."""
    return max(1, min(1000, n_episodes // 10))


def expert_return(returns: list[float]) -> tuple[float, int]:
    """Maximum windowed average return over the collected episodes."""
    values = np.asarray(returns, dtype=np.float64)
    if values.size == 0:
        raise ValueError("expert_return needs at least one episode return")
    w = expert_window(values.size)
    csum = np.concatenate([[0.0], np.cumsum(values)])
    window_means = (csum[w:] - csum[:-w]) / w
    return float(window_means.max()), w


def filter_episodes(
    episodes: list[Episode], fraction: float = 0.8
) -> tuple[list[Episode], FilterReport]:
    """Keep episodes whose return reaches ``fraction`` of the expert return.

    A negative expert return ``e`` gives the threshold ``e - (1 - fraction) * |e|``,
    so the threshold never lies above the expert return.
    """
    returns = [ep.total_return for ep in episodes]
    best, window = expert_return(returns)
    threshold = fraction * best if best >= 0 else best - (1.0 - fraction) * abs(best)
    kept = [ep for ep in episodes if ep.total_return >= threshold]
    report = FilterReport(
        expert_return=best,
        window=window,
        threshold=threshold,
        kept=len(kept),
        dropped=len(episodes) - len(kept),
    )
    return kept, report


# ---------------------------------------------------------------------------
# manifests and mixture sampling
# ---------------------------------------------------------------------------

@dataclass
class DatasetManifest:
    """One dataset entry: a name, episode files, and a mixture weight."""

    name: str
    paths: list[str]
    sample_weight: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("dataset name must be non-empty")
        if not (self.sample_weight > 0):
            raise ValueError(f"{self.name}: sample_weight must be > 0, got {self.sample_weight}")


def load_manifest(path) -> list[DatasetManifest]:
    """Parse a manifest file: one section per dataset with paths and weight."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"manifest not found: {path}")
    base = Path(path).parent
    manifests = []
    for name in parser.sections():
        section = parser[name]
        unknown = set(section) - {"paths", "weight"}
        if unknown:
            raise ValueError(f"manifest [{name}]: unknown keys {sorted(unknown)}")
        patterns = section.get("paths", "").split()
        if not patterns:
            raise ValueError(f"manifest [{name}]: missing paths")
        files: list[str] = []
        for pattern in patterns:
            full = pattern if Path(pattern).is_absolute() else str(base / pattern)
            files.extend(sorted(globlib.glob(full)))
        weight = section.getfloat("weight", fallback=None)
        if weight is None:
            raise ValueError(f"manifest [{name}]: missing weight")
        manifests.append(DatasetManifest(name=name, paths=files, sample_weight=weight))
    if not manifests:
        raise ValueError(f"manifest {path} declares no datasets")
    return manifests


def write_manifest(manifests: list[DatasetManifest], path) -> None:
    """Replace ``path`` with a manifest of these datasets; a crash keeps the old file."""
    parser = configparser.ConfigParser()
    for m in manifests:
        parser[m.name] = {"paths": " ".join(m.paths), "weight": repr(m.sample_weight)}
    text = io.StringIO()
    parser.write(text)
    with atomic_writer(path) as f:
        f.write(text.getvalue().encode())


class LoadedDataset:
    """Episodes of one dataset plus their flattened sequences.

    Every episode is flattened when the dataset loads, so a record the
    schema cannot encode raises ``SchemaError`` before training starts.
    """

    def __init__(self, manifest: DatasetManifest, episodes: list[Episode] | None = None):
        self.manifest = manifest
        if episodes is None:
            episodes = []
            for p in manifest.paths:
                episodes.extend(read_episodes(p))
        self.episodes = episodes
        self._flat = [flatten_episode(ep, dataset=manifest.name) for ep in episodes]
        self.by_task: dict[str, list[int]] = {}
        for i, ep in enumerate(episodes):
            self.by_task.setdefault(ep.task_id, []).append(i)

    @property
    def name(self) -> str:
        return self.manifest.name

    def flattened(self, index: int) -> ElementSequence:
        return self._flat[index]

    def __len__(self) -> int:
        return len(self.episodes)


class MixtureSampler:
    """Training windows drawn across weighted datasets, each with a prompt source.

    Every window comes from dataset ``d`` with probability proportional to
    its weight; within a dataset the episode is uniform, and the window is a
    uniform contiguous subsequence of ``seq_len`` elements, or the whole
    episode if it is shorter; windows are never padded. Fixed seeds make
    the draws exactly reproducible.
    """

    def __init__(self, datasets: list[LoadedDataset], seq_len: int, rng: np.random.Generator):
        nonempty = []
        for ds in datasets:
            if len(ds) == 0:
                logger.warning("dataset %s is empty; dropped from the mixture", ds.name)
            else:
                nonempty.append(ds)
        if not nonempty:
            raise ExhaustedStreamError("all datasets in the mixture are empty")
        self.datasets = nonempty
        weights = np.array([ds.manifest.sample_weight for ds in nonempty], dtype=np.float64)
        self.probabilities = weights / weights.sum()
        self.seq_len = seq_len
        self.rng = rng

    def draw(self) -> tuple[ElementSequence, ElementSequence]:
        """One training window and a uniform same-task episode of its dataset.

        The generator is consumed in a fixed order: dataset, episode, window
        start, then the prompt source's episode.
        """
        d = int(self.rng.choice(len(self.datasets), p=self.probabilities))
        ds = self.datasets[d]
        e = int(self.rng.integers(0, len(ds)))
        window = sample_subsequence(ds.flattened(e), self.seq_len, self.rng)
        same_task = ds.by_task[window.task_id]
        source = ds.flattened(same_task[int(self.rng.integers(0, len(same_task)))])
        return window, source

