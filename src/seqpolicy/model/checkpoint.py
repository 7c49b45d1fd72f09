"""Versioned binary checkpoints: named float32 tensors plus optimizer and
random-stream state, framed and checksummed like episode records."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from ..codec import TEXT_VOCAB, VOCAB_SIZE
from ..errors import RecordFormatError
from ..framing import Reader, Writer, atomic_writer, frame, unframe
from .config import ModelConfig

MAGIC = b"SQCK"
CHECKPOINT_VERSION = 1

# Former config fields that v1 files hold, at the only values the model has:
# RGB patches, and action tokens embedded like any other token.
_FIXED_FIELDS = {"patch_channels": 3, "zero_action_inputs": False}


def save_checkpoint(
    path,
    cfg: ModelConfig,
    params: dict[str, np.ndarray],
    optimizer_state: dict | None = None,
    rng_states: dict | None = None,
    extra: dict | None = None,
) -> None:
    """Replace ``path`` with a checkpoint; a crash keeps the old file."""
    w = Writer()
    w.string(json.dumps(dataclasses.asdict(cfg)))
    w.u32(len(params))
    for name in sorted(params):
        w.tensor(name, params[name])
    if optimizer_state is not None:
        w.u8(1)
        w.u64(optimizer_state["step"])
        for group in (optimizer_state["m"], optimizer_state["v"]):
            w.u32(len(group))
            for name in sorted(group):
                w.tensor(name, group[name])
    else:
        w.u8(0)
    for blob in (rng_states, extra):
        if blob is not None:
            w.u8(1)
            w.string(json.dumps(blob))
        else:
            w.u8(0)
    with atomic_writer(path) as f:
        f.write(frame(MAGIC, CHECKPOINT_VERSION, w.buf))


def load_checkpoint(path) -> dict:
    """Returns {cfg, params, optimizer_state, rng_states, extra}."""
    body, _ = unframe(Path(path).read_bytes(), 0, MAGIC, CHECKPOINT_VERSION)
    r = Reader(body)
    try:
        raw = json.loads(r.string())
        for key, value in _FIXED_FIELDS.items():
            if (found := raw.pop(key, value)) != value:
                raise ValueError(f"sets {key}={found!r}, not {value!r}")
        cfg = ModelConfig(**raw)
    except (TypeError, ValueError) as exc:  # not JSON, a key ModelConfig lacks, a bad value
        raise RecordFormatError(f"checkpoint config: {exc}") from None
    params = dict(r.tensor() for _ in range(r.u32()))
    optimizer_state = None
    if r.u8():
        step = r.u64()
        m, v = [dict(r.tensor() for _ in range(r.u32())) for _ in range(2)]
        optimizer_state = {"step": step, "m": m, "v": v}
    rng_states = json.loads(r.string()) if r.u8() else None
    extra = json.loads(r.string()) if r.u8() else None
    # A file with more vocabulary rows is in the former id layout: text rows
    # first, then the bins and the separator as its last rows.
    if cfg.vocab > VOCAB_SIZE:
        kept = np.r_[:TEXT_VOCAB, cfg.vocab - VOCAB_SIZE + TEXT_VOCAB:cfg.vocab]
        cfg = dataclasses.replace(cfg, vocab=VOCAB_SIZE)
        moments = (optimizer_state["m"], optimizer_state["v"]) if optimizer_state else ()
        for group in (params, *moments):
            group["embed/vocab"] = group["embed/vocab"][kept]
    return {
        "cfg": cfg,
        "params": params,
        "optimizer_state": optimizer_state,
        "rng_states": rng_states,
        "extra": extra,
    }
