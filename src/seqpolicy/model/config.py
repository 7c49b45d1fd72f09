"""Transformer and embedder shape parameters."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..codec import VOCAB_SIZE
from ..errors import ConfigError


@dataclass(frozen=True)
class ModeRules:
    """What a model mode randomises: patch positions, block skips, dropout."""

    random_patch_positions: bool
    stochastic_depth: bool
    dropout: bool


MODES = {
    "pretrain": ModeRules(random_patch_positions=True, stochastic_depth=True, dropout=False),
    "finetune": ModeRules(random_patch_positions=True, stochastic_depth=False, dropout=True),
    "eval": ModeRules(random_patch_positions=False, stochastic_depth=False, dropout=False),
}


def mode_rules(mode: str) -> ModeRules:
    """The rules of ``mode``; a mode outside ``MODES`` is an error, never eval."""
    if mode not in MODES:
        raise ValueError(f"unknown model mode {mode!r}; choose from {tuple(MODES)}")
    return MODES[mode]


@dataclass(frozen=True)
class ModelConfig:
    """Decoder-only transformer shapes.

    ``kv_size`` is explicit rather than derived from ``width // heads``; the
    attention output concatenation is ``heads * kv_size`` wide and projected
    back to ``width``. The discrete vocabulary shares its embedding matrix
    with the output projection; row ``i`` of ``embed/vocab`` is token id ``i``.
    """

    blocks: int
    heads: int
    width: int
    ff_hidden: int
    kv_size: int
    context: int
    vocab: int = VOCAB_SIZE
    local_pos_table: int = 512
    patch_pos_vocab: int = 128
    stochastic_depth: float = 0.1
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("blocks", "heads", "width", "ff_hidden", "kv_size", "context", "vocab"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.width % 4:
            raise ConfigError("width must be divisible by 4 (patch embedder channels)")
        if self.local_pos_table < 3:
            raise ConfigError("local_pos_table needs room for separator and action slots")
        if not (0.0 <= self.stochastic_depth < 1.0):
            raise ConfigError("stochastic_depth must be in [0, 1)")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must be in [0, 1)")

    @property
    def separator_local_index(self) -> int:
        return self.local_pos_table - 2

    @property
    def action_local_index(self) -> int:
        return self.local_pos_table - 1

    @property
    def max_observation_elements(self) -> int:
        return self.local_pos_table - 2

    @property
    def patch_hidden(self) -> int:
        return self.width // 4


def tiny(**overrides) -> ModelConfig:
    """Desk-scale default sized for CI runtimes."""
    cfg = ModelConfig(
        blocks=4,
        heads=4,
        width=128,
        ff_hidden=512,
        kv_size=32,
        context=256,
    )
    return replace(cfg, **overrides)


def micro(**overrides) -> ModelConfig:
    """Smallest sane shape."""
    cfg = ModelConfig(
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
    return replace(cfg, **overrides)


# Published full-scale shapes; expressible but far beyond desk budgets.
FULL_SCALE = {
    "1.18b": ModelConfig(
        blocks=24, heads=16, width=2048, ff_hidden=8192, kv_size=128, context=1024
    ),
    "364m": ModelConfig(
        blocks=12, heads=12, width=1536, ff_hidden=6144, kv_size=128, context=1024
    ),
    "79m": ModelConfig(
        blocks=8, heads=24, width=768, ff_hidden=3072, kv_size=32, context=1024
    ),
}
