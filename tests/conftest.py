import io
import json
import os

# One BLAS thread per test process, set before numpy loads: two processes
# that each run a multi-threaded BLAS on a small machine slow each other far
# more than twofold.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from seqpolicy import codec
from seqpolicy import model as M
from seqpolicy.codec import TensorSchema
from seqpolicy.corpora import collect_episodes, synthetic_text_episodes
from seqpolicy.datastore import DatasetManifest, LoadedDataset, MixtureSampler
from seqpolicy.envs import GridReach, GridReachExpert
from seqpolicy.framing import Reader, Writer
from seqpolicy.sequencer import (
    ElementSequence,
    Episode,
    Timestep,
    apply_prompt,
    flatten_episode,
    sample_subsequence,
)


class ScriptedRng:
    """Stand-in for numpy Generator with queued outcomes, for forcing branches."""

    def __init__(self, randoms=(), integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)

    def random(self):
        return self._randoms.pop(0)

    def integers(self, low, high=None):
        return self._integers.pop(0)


@pytest.fixture
def scripted_rng():
    return ScriptedRng


def rich_episode(seed=0, task="rich"):
    """Three timesteps covering every stored modality, one without an action."""
    rng = np.random.default_rng(seed)
    text = TensorSchema.text("note")
    image = TensorSchema.image("cam", 16, 32, 3)
    disc = TensorSchema.discrete("buttons", (2,))
    cont = TensorSchema.continuous("joints", (3,), (-2.0, 2.0))
    act = TensorSchema.continuous("torque", (2,), (-1.0, 1.0), is_action=True)
    steps = []
    for i in range(3):
        obs = {
            "note": (text, f"step {i}"),
            "cam": (image, rng.integers(0, 256, size=(16, 32, 3), dtype=np.uint8)),
            "buttons": (disc, rng.integers(0, 1024, size=(2,), dtype=np.int64)),
            "joints": (cont, rng.uniform(-2, 2, size=(3,))),
        }
        action = (act, rng.uniform(-1, 1, size=(2,))) if i < 2 else None
        steps.append(Timestep(observations=obs, action=action))
    return Episode(task_id=task, timesteps=steps, rewards=[0.0, 0.5, 1.0])


def micro_cfg(**overrides):
    """A two-block, width-16 model config; keyword arguments override fields."""
    base = dict(
        blocks=2,
        heads=2,
        width=16,
        ff_hidden=32,
        kv_size=8,
        context=32,
        local_pos_table=16,
        patch_pos_vocab=16,
        stochastic_depth=0.0,
        dropout=0.0,
    )
    base.update(overrides)
    return M.ModelConfig(**base)


MIXED_LEN = 64


def mixed_items() -> list[ElementSequence]:
    """Text, GridReach, image-patch and one prompted GridReach window."""
    rng = np.random.default_rng(5)
    grid = [flatten_episode(ep) for ep in collect_episodes(GridReach(seed=4), GridReachExpert(), 3)]
    text = flatten_episode(synthetic_text_episodes(1, seed=2, words_per_doc=4)[0])
    rich = flatten_episode(rich_episode(seed=1))
    items = [sample_subsequence(seq, MIXED_LEN, rng) for seq in (text, grid[0], rich)]
    prompted, was_prompted = apply_prompt(
        sample_subsequence(grid[1], MIXED_LEN, rng), grid[2], rng, MIXED_LEN,
        prompt_probability=1.0,
    )
    assert was_prompted
    return items + [prompted]


def unpackable_items() -> list[ElementSequence]:
    """Image-bearing windows of length 46, 30 and 38: no two share a row."""
    return [
        flatten_episode(rich_episode(seed=seed)).slice(0, length)
        for seed, length in ((1, 46), (2, 30), (3, 38))
    ]


def mixed_sampler(seed):
    """GridReach, synthetic text and image-patch datasets in one mixture."""
    def dataset(name, episodes):
        return LoadedDataset(DatasetManifest(name=name, paths=[], sample_weight=1.0), episodes)

    datasets = [
        dataset("grid", collect_episodes(GridReach(seed=7), GridReachExpert(), 4)),
        dataset("text", synthetic_text_episodes(4, seed=8, words_per_doc=4)),
        dataset("rich", [rich_episode(seed=s, task="rich") for s in range(3)]),
    ]
    return MixtureSampler(datasets, seq_len=MIXED_LEN, rng=np.random.default_rng(seed))


def golden_checkpoint(path) -> None:
    """Save the micro checkpoint whose bytes the golden digest pins."""
    cfg = micro_cfg(vocab=64)
    params = M.init_params(cfg, seed=11)
    opt = {
        "step": 17,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.ones_like(v) for k, v in params.items()},
    }
    M.save_checkpoint(path, cfg, params, optimizer_state=opt,
                      rng_states=M.RngStreams(3).state_dict(), extra={"step": 17})


def framed(magic: bytes, version: int, write) -> bytes:
    """The bytes of one frame whose body ``write(Writer)`` writes."""
    f = io.BytesIO()
    w = Writer(f, magic, version)
    write(w)
    w.finish()
    return f.getvalue()


def frame_body(data: bytes, magic: bytes, version: int) -> bytes:
    """The body of the frame ``data`` starts with, once its header and CRC are checked."""
    r = Reader(io.BytesIO(data), magic, version)
    return r.take(r.size)


def rewrite_checkpoint_config(data: bytes, edit) -> bytes:
    """Checkpoint bytes whose config JSON is ``edit(config dict)``; the rest is kept."""
    from seqpolicy.model.checkpoint import CHECKPOINT_VERSION, MAGIC

    r = Reader(io.BytesIO(data), MAGIC, CHECKPOINT_VERSION)
    config = json.dumps(edit(json.loads(r.string())))
    rest = r.take(r.size - r.pos)
    return framed(MAGIC, CHECKPOINT_VERSION, lambda w: (w.string(config), w.raw(rest)))


def build_layout_episode(
    T: int,
    text_len: int = 0,
    patch_grid: tuple[int, int] | None = None,
    tensor_shape: tuple[int, ...] | None = None,
    action_shape: tuple[int, ...] = (),
    seed: int = 0,
    task_id: str = "layout-task",
) -> Episode:
    """Episode with a fixed per-timestep layout (k, m, n, A) for layout tests."""
    rng = np.random.default_rng(seed)
    schemas: dict[str, TensorSchema] = {}
    if text_len:
        schemas["a_text"] = TensorSchema.text("a_text")
    if patch_grid:
        schemas["b_image"] = TensorSchema.image(
            "b_image", patch_grid[0] * 16, patch_grid[1] * 16, 3
        )
    if tensor_shape is not None:
        schemas["c_tensor"] = TensorSchema.discrete("c_tensor", tensor_shape)
    action_schema = TensorSchema.discrete("act", action_shape, is_action=True)
    timesteps = []
    for _ in range(T):
        obs = {}
        if text_len:
            obs["a_text"] = (
                schemas["a_text"],
                "".join(chr(rng.integers(97, 123)) for _ in range(text_len)),
            )
        if patch_grid:
            obs["b_image"] = (
                schemas["b_image"],
                rng.integers(0, 256, size=schemas["b_image"].shape, dtype=np.uint8),
            )
        if tensor_shape is not None:
            obs["c_tensor"] = (
                schemas["c_tensor"],
                rng.integers(0, 1024, size=tensor_shape or None, dtype=np.int64)
                if tensor_shape
                else np.int64(rng.integers(0, 1024)),
            )
        action = rng.integers(0, 1024, size=action_shape or None, dtype=np.int64)
        if not action_shape:
            action = np.int64(action)
        timesteps.append(Timestep(observations=obs, action=(action_schema, action)))
    return Episode(task_id=task_id, timesteps=timesteps, rewards=[0.0] * T)


def one_stream_record(schema_index=0, modality_code=2) -> bytes:
    """A CRC-valid one-timestep episode record with a chosen schema index and
    modality code; the defaults (index 0, discrete) make a valid record."""
    from seqpolicy.datastore import FORMAT_VERSION, MAGIC

    def body(w: Writer) -> None:
        w.string("t")
        w.u32(1)  # rewards
        w.f64(0.0)
        w.u32(1)  # schemas: key, modality, is_action, compand, ndim, no range
        w.string("o")
        for field_value in (modality_code, 0, 0, 0, 0):
            w.u8(field_value)
        w.u32(1)  # timesteps
        w.u32(1)  # observations
        w.u32(schema_index)
        w.raw(np.int32(5).tobytes())
        w.u8(0)  # no action

    return framed(MAGIC, FORMAT_VERSION, body)


@pytest.fixture
def layout_episode_factory():
    return build_layout_episode


def manual_sequence(spec, seed=0, task_id="manual", dataset=None):
    """Build an ElementSequence from terse element descriptors.

    spec: list of tuples, one per element:
      ("text", token) ("tensor", token) ("action", token) ("sep",)
      ("patch", (row_lo, row_hi), (col_lo, col_hi)) ("pad",) ("ts",)
    ("ts",) advances the timestep counter. Observation ordinals restart per
    timestep. Patches get random normalized pixels from ``seed``.
    """
    from seqpolicy import sequencer as sq

    rng = np.random.default_rng(seed)
    sources, tokens, local, ts_ids = [], [], [], []
    pixels, intervals = [], []
    t, ordinal = 0, 0
    for entry in spec:
        kind = entry[0]
        if kind == "ts":
            t += 1
            ordinal = 0
            continue
        if kind == "pad":
            sources.append(int(sq.ElementSource.PAD))
            tokens.append(sq.TOKEN_NONE)
            local.append(sq.LOCAL_NONE)
            ts_ids.append(t)
            continue
        if kind == "patch":
            src = sq.ElementSource.PATCH
            pixels.append(rng.uniform(-0.25, 0.25, size=(16, 16, 3)))
            intervals.append(entry[1] + entry[2])
            tok = sq.TOKEN_NONE
        else:
            src = {
                "text": sq.ElementSource.TEXT,
                "tensor": sq.ElementSource.TENSOR,
                "action": sq.ElementSource.ACTION,
                "sep": sq.ElementSource.SEPARATOR,
            }[kind]
            tok = codec.SEPARATOR_TOKEN if kind == "sep" else int(entry[1])
        sources.append(int(src))
        tokens.append(tok)
        if src in (sq.ElementSource.TEXT, sq.ElementSource.PATCH, sq.ElementSource.TENSOR):
            local.append(ordinal)
            ordinal += 1
        else:
            local.append(sq.LOCAL_NONE)
        ts_ids.append(t)
    return sq.ElementSequence(
        sources=np.array(sources, np.uint8),
        tokens=np.array(tokens, np.int32),
        local_pos=np.array(local, np.int32),
        timestep=np.array(ts_ids, np.int32),
        patch_pixels=np.stack(pixels) if pixels else None,
        patch_intervals=np.array(intervals, np.float64) if pixels else None,
        task_id=task_id,
        dataset=dataset,
    )


def masked_nll_loss(logits: np.ndarray, targets, mask) -> M.LossResult:
    """Reference loss, independent of the fused one in ``loss_and_grads``:
    -sum over masked positions of log softmax(logits)[target].

    ``logits``: (..., V); ``targets`` and ``mask`` match the leading shape.
    Positions with mask 0 contribute exactly zero whatever their target says.
    An all-zero mask yields a defined 0 loss.
    """
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_targets = np.asarray(targets).reshape(-1)
    flat_mask = np.asarray(mask).reshape(-1)
    sel = np.nonzero(flat_mask != 0)[0]
    if sel.size == 0:
        return M.LossResult(total=0.0, masked_tokens=0)
    picked = flat_targets[sel]
    if picked.min() < 0 or picked.max() >= logits.shape[-1]:
        raise ValueError("masked position has no concrete target token")
    shifted = flat_logits[sel].astype(np.float64)
    shifted -= shifted.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    nll = -logp[np.arange(sel.size), picked]
    return M.LossResult(total=float(nll.sum()), masked_tokens=int(sel.size))
