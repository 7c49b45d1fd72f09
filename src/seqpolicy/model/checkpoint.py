"""Versioned binary checkpoints: named float32 tensors plus optimizer and
random-stream state, framed and checksummed like episode records.

A tensor is stored as ``u32 name_len | name | u8 ndim | u32 dims... |
float32 data``. Saving and loading stream through the file, one tensor at
a time, so neither holds a second copy of the checkpoint."""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from ..codec import TEXT_VOCAB, VOCAB_SIZE
from ..errors import RecordFormatError
from ..framing import Reader, Writer, atomic_writer
from .config import ModelConfig

MAGIC = b"SQCK"
CHECKPOINT_VERSION = 1

# Former config fields that v1 files hold, at the only values the model has:
# RGB patches, and action tokens embedded like any other token.
_FIXED_FIELDS = {"patch_channels": 3, "zero_action_inputs": False}


def _write_tensors(w: Writer, group: dict[str, np.ndarray]) -> None:
    w.u32(len(group))
    for name in sorted(group):
        value = group[name]
        w.string(name)
        w.u8(value.ndim)
        for d in value.shape:
            w.u32(d)
        # written from the tensor's own memory; a float64 one is converted alone
        w.raw(memoryview(np.ascontiguousarray(value, dtype="<f4")))


def _read_tensors(r: Reader) -> dict[str, np.ndarray]:
    tensors = {}
    for _ in range(r.u32()):
        name = r.string()
        tensors[name] = r.floats(tuple(r.u32() for _ in range(r.u8())))
    return tensors


def save_checkpoint(
    path,
    cfg: ModelConfig,
    params: dict[str, np.ndarray],
    optimizer_state: dict | None = None,
    rng_states: dict | None = None,
    extra: dict | None = None,
) -> None:
    """Replace ``path`` with a checkpoint; a crash keeps the old file."""
    with atomic_writer(path) as f:
        w = Writer(f, MAGIC, CHECKPOINT_VERSION)
        w.string(json.dumps(dataclasses.asdict(cfg)))
        _write_tensors(w, params)
        if optimizer_state is not None:
            w.u8(1)
            w.u64(optimizer_state["step"])
            _write_tensors(w, optimizer_state["m"])
            _write_tensors(w, optimizer_state["v"])
        else:
            w.u8(0)
        for blob in (rng_states, extra):
            if blob is not None:
                w.u8(1)
                w.string(json.dumps(blob))
            else:
                w.u8(0)
        w.finish()


def load_checkpoint(path) -> dict:
    """Returns {cfg, params, optimizer_state, rng_states, extra}."""
    with open(path, "rb") as f:
        r = Reader(f, MAGIC, CHECKPOINT_VERSION)
        try:
            raw = json.loads(r.string())
            for key, value in _FIXED_FIELDS.items():
                if (found := raw.pop(key, value)) != value:
                    raise ValueError(f"sets {key}={found!r}, not {value!r}")
            cfg = ModelConfig(**raw)
        except (TypeError, ValueError) as exc:  # not JSON, a key ModelConfig lacks, a bad value
            raise RecordFormatError(f"checkpoint config: {exc}") from None
        params = _read_tensors(r)
        optimizer_state = None
        if r.u8():
            step = r.u64()
            m, v = _read_tensors(r), _read_tensors(r)
            optimizer_state = {"step": step, "m": m, "v": v}
        try:
            rng_states = json.loads(r.string()) if r.u8() else None
            extra = json.loads(r.string()) if r.u8() else None
        except ValueError as exc:
            raise RecordFormatError(f"checkpoint rng_states/extra: {exc}") from None
        r.finish()
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
