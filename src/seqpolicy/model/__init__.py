"""Embedding function, decoder-only transformer, masked loss, checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import FULL_SCALE, MODES, ModelConfig, micro, tiny
from .network import (
    KVCache,
    LossResult,
    ModelState,
    RngStreams,
    embed_batch,
    forward_logits,
    hidden_fwd,
    init_params,
    loss_and_grads,
    parameter_count,
    validate_gradients,
)
from .positions import (
    patch_position_index,
    quantize_patch_interval,
    resolve_local_indices,
)

__all__ = [
    "FULL_SCALE",
    "KVCache",
    "LossResult",
    "MODES",
    "ModelConfig",
    "ModelState",
    "RngStreams",
    "embed_batch",
    "forward_logits",
    "hidden_fwd",
    "init_params",
    "load_checkpoint",
    "loss_and_grads",
    "micro",
    "parameter_count",
    "patch_position_index",
    "quantize_patch_interval",
    "resolve_local_indices",
    "save_checkpoint",
    "tiny",
    "validate_gradients",
]
