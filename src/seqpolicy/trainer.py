"""Pretraining and fine-tuning loops with the warmup+cosine schedule.

A full train step is a pure function of (parameters, optimizer state, batch,
random cursors): two runs with equal seeds produce bit-identical metrics
logs. Metrics lines therefore carry no timestamps, and floats are written
with shortest-roundtrip repr.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datastore import MixtureSampler
from .errors import CapacityError, NonFiniteAbort
from .model import ModelState, loss_and_grads, save_checkpoint
from .model.config import ModelConfig
from .sequencer import apply_prompt, assemble_batch


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleConfig:
    """Linear warmup to lr_max, then cosine decay by decay_factor, then flat."""

    warmup_steps: int = 15_000
    lr_start: float = 1e-7
    lr_max: float = 1e-4
    decay_steps: int = 1_000_000
    decay_factor: float = 10.0


def lr_schedule(step: int, s: ScheduleConfig) -> float:
    if step < 0:
        raise ValueError("step must be >= 0")
    if s.warmup_steps > 0 and step < s.warmup_steps:
        frac = step / s.warmup_steps
        return s.lr_start + (s.lr_max - s.lr_start) * frac
    lr_min = s.lr_max / s.decay_factor
    t = min(step - s.warmup_steps, s.decay_steps)
    cos = 0.5 * (1.0 + math.cos(math.pi * t / s.decay_steps))
    return lr_min + (s.lr_max - lr_min) * cos


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerConfig:
    """Adam moments; weight decay is decoupled (applied directly to weights)."""

    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1


def init_optimizer_state(params: dict[str, np.ndarray]) -> dict:
    return {
        "step": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def optimizer_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: dict,
    lr: float,
    cfg: OptimizerConfig,
) -> None:
    """One decoupled-weight-decay adaptive-moment update, in place.

    Non-finite gradients abort with diagnostics; there is no silent clipping.
    Scratch buffers persist in the state dict to avoid re-allocating the
    largest tensors every step (they are not part of checkpoints).
    """
    bad = [k for k, g in grads.items() if not np.all(np.isfinite(g))]
    if bad:
        raise NonFiniteAbort(
            f"non-finite gradients for {len(bad)} parameters",
            diagnostics={"step": state["step"], "parameters": sorted(bad)},
        )
    state["step"] += 1
    t = state["step"]
    b1, b2 = cfg.beta1, cfg.beta2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    scratch = state.setdefault("scratch", {})
    for k, p in params.items():
        g = grads[k]
        m = state["m"][k]
        v = state["v"][k]
        if k not in scratch or scratch[k][0].shape != p.shape:
            scratch[k] = (np.empty_like(p), np.empty_like(p))
        s1, s2 = scratch[k]
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - b2
        v *= b2
        v += s1
        np.multiply(g, 1.0 - b1, out=s1)
        m *= b1
        m += s1
        np.divide(v, bias2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += cfg.eps
        np.divide(m, bias1, out=s1)
        s1 /= s2
        if cfg.weight_decay:
            np.multiply(p, cfg.weight_decay, out=s2)
            s1 += s2
        s1 *= lr
        p -= s1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class MetricsLog:
    """Append-only text records; identical runs write identical bytes."""

    def __init__(self, path=None):
        self.path = Path(path) if path is not None else None
        self.lines: list[str] = []
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")

    def log(self, step: int, fields: dict) -> None:
        parts = [f"step={step}"]
        for key, value in fields.items():
            parts.append(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")
        line = " ".join(parts)
        self.lines.append(line)
        if self.path is not None:
            with open(self.path, "a") as f:
                f.write(line + "\n")

    def column(self, key: str) -> list[float]:
        out = []
        prefix = key + "="
        for line in self.lines:
            for part in line.split():
                if part.startswith(prefix):
                    out.append(float(part[len(prefix):]))
        return out

    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


def moving_average(values, window: int) -> list[float]:
    out = []
    for i in range(len(values)):
        chunk = values[max(0, i - window + 1) : i + 1]
        out.append(float(np.mean(chunk)))
    return out


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    steps: int
    batch_size: int = 16
    seq_len: int = 256
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    optim: OptimizerConfig = field(default_factory=OptimizerConfig)
    prompt_probability: float = 0.25
    checkpoint_every: int = 500


@dataclass
class TrainResult:
    state: ModelState
    optimizer_state: dict
    metrics: MetricsLog
    prompted_fraction: float
    counters: dict
    eval_scores: list[float] = field(default_factory=list)


def _draw_batch(sampler: MixtureSampler, batch_size: int, prompt_probability: float, counters):
    """One batch of windows (some prompted), cut to its longest real row."""
    items = []
    prompted = 0
    for _ in range(batch_size):
        window, ds, _ = sampler.draw()
        source = sampler.prompt_source(ds, window.task_id)
        if source is None:
            counters["prompt_skipped"] += 1
            items.append(window)
            continue
        item, was_prompted = apply_prompt(
            window, source, sampler.rng, prompt_probability=prompt_probability
        )
        prompted += int(was_prompted)
        items.append(item)
    return assemble_batch(items).trimmed(), prompted


def _train_loop(
    state: ModelState,
    sampler: MixtureSampler,
    cfg: TrainConfig,
    mode: str,
    metrics: MetricsLog,
    out_dir=None,
    step_offset: int = 0,
    constant_lr: float | None = None,
    eval_every: int = 0,
    eval_fn=None,
) -> TrainResult:
    if cfg.seq_len > state.cfg.context:
        # checked up front: a trimmed batch can be shorter than the context
        raise CapacityError(f"seq_len {cfg.seq_len} exceeds context {state.cfg.context}")
    params = state.params
    sampler.seq_len = cfg.seq_len
    opt_state = init_optimizer_state(params)
    counters = {"prompt_skipped": 0, "zero_mask_batches": 0}
    prompted_total = 0
    tokens_processed = 0
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    eval_scores: list[float] = []

    for step in range(cfg.steps):
        lr = constant_lr if constant_lr is not None else lr_schedule(step + step_offset, cfg.schedule)
        batch, prompted = _draw_batch(sampler, cfg.batch_size, cfg.prompt_probability, counters)
        prompted_total += prompted
        loss, grads = loss_and_grads(
            params, state.cfg, batch, mode=mode, streams=state.streams, reduction="mean"
        )
        if not math.isfinite(loss.total):
            diagnostics = {"step": step, "loss": loss.total}
            if out_dir is not None:
                (out_dir / "abort_dump.json").write_text(json.dumps(diagnostics, indent=2))
            raise NonFiniteAbort("non-finite loss", diagnostics=diagnostics)
        if loss.masked_tokens == 0:
            counters["zero_mask_batches"] += 1
        optimizer_step(params, grads, opt_state, lr, cfg.optim)
        tokens_processed += batch.batch_size * cfg.seq_len  # drawn positions, before the trim

        per_dataset: dict[str, float] = {}
        for (task, dataset), item_loss in zip(batch.provenance, loss.per_item):
            name = dataset or "unknown"
            per_dataset[name] = per_dataset.get(name, 0.0) + float(item_loss)
        fields = {
            "lr": lr,
            "loss": loss.total,
            "loss_mean": loss.mean,
            "masked": loss.masked_tokens,
            "tokens": tokens_processed,
            "prompted": prompted,
        }
        for name in sorted(per_dataset):
            fields[f"loss/{name}"] = per_dataset[name]
        metrics.log(step, fields)

        if eval_every and eval_fn is not None and (step + 1) % eval_every == 0:
            score = float(eval_fn(state))
            eval_scores.append(score)
            metrics.log(step, {"eval_score": score})

        if out_dir is not None and cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
            _save(out_dir / f"step{step + 1:07d}.ckpt", state, opt_state, step + 1)

    if out_dir is not None:
        _save(out_dir / "final.ckpt", state, opt_state, cfg.steps)
    return TrainResult(
        state=state,
        optimizer_state=opt_state,
        metrics=metrics,
        prompted_fraction=(
            prompted_total / (cfg.steps * cfg.batch_size) if cfg.steps else 0.0
        ),
        counters=counters,
        eval_scores=eval_scores,
    )


def _save(path, state: ModelState, opt_state: dict, step: int) -> None:
    save_checkpoint(
        path,
        state.cfg,
        state.params,
        optimizer_state=opt_state,
        rng_states=state.streams.state_dict(),
        extra={"step": step},
    )


def pretrain(
    sampler: MixtureSampler,
    state: ModelState,
    cfg: TrainConfig,
    out_dir=None,
    log_path=None,
) -> TrainResult:
    """Masked-loss pretraining with prompt conditioning and stochastic depth."""
    metrics = MetricsLog(log_path)
    return _train_loop(state, sampler, cfg, mode="pretrain", metrics=metrics, out_dir=out_dir)


@dataclass
class FinetuneConfig:
    steps: int = 10_000
    batch_size: int = 64
    seq_len: int = 256
    lr: float = 1e-5
    prompt_probability: float = 0.25
    eval_every: int = 100
    checkpoint_every: int = 0


def finetune(
    state: ModelState,
    sampler: MixtureSampler,
    cfg: FinetuneConfig,
    eval_fn=None,
    out_dir=None,
    log_path=None,
) -> TrainResult:
    """Adam without weight decay at a constant learning rate, dropout active.

    ``eval_fn(state) -> score`` is called every ``eval_every`` steps; the
    recorded curve feeds :func:`eval_protocol`. Zero steps return the input
    model untouched.
    """
    tasks = set()
    for ds in sampler.datasets:
        tasks |= ds.manifest.task_ids
    if len(tasks) > 1:
        raise ValueError(f"fine-tuning expects a single task, got {sorted(tasks)}")
    metrics = MetricsLog(log_path)
    train_cfg = TrainConfig(
        steps=cfg.steps,
        batch_size=cfg.batch_size,
        seq_len=cfg.seq_len,
        optim=OptimizerConfig(weight_decay=0.0),
        prompt_probability=cfg.prompt_probability,
        checkpoint_every=cfg.checkpoint_every,
    )
    return _train_loop(
        state,
        sampler,
        train_cfg,
        mode="finetune",
        metrics=metrics,
        out_dir=out_dir,
        constant_lr=cfg.lr,
        eval_every=cfg.eval_every,
        eval_fn=eval_fn,
    )


def eval_protocol(scores: list[float], window: int = 5) -> float:
    """Best trailing moving average of periodic evaluation scores.

    Windows shorter than ``window`` average whatever exists.
    """
    if not scores:
        raise ValueError("eval_protocol needs at least one evaluation")
    return max(moving_average(scores, window))


# ---------------------------------------------------------------------------
# scaling and ablation harnesses
# ---------------------------------------------------------------------------

def scaling_ladder(context: int = 128) -> list[ModelConfig]:
    """Three shapes with strictly increasing parameter counts."""
    return [
        ModelConfig(blocks=2, heads=2, width=32, ff_hidden=128, kv_size=16,
                    context=context, stochastic_depth=0.1, dropout=0.1),
        ModelConfig(blocks=2, heads=4, width=64, ff_hidden=256, kv_size=16,
                    context=context, stochastic_depth=0.1, dropout=0.1),
        ModelConfig(blocks=4, heads=4, width=96, ff_hidden=384, kv_size=24,
                    context=context, stochastic_depth=0.1, dropout=0.1),
    ]


ABLATION_ARMS = ("all", "same_domain", "no_control", "scratch")


def ablation_manifests(arm: str, manifests, target_domain: str, text_marker: str = "text"):
    """Pretraining dataset selection for one ablation arm.

    Returns (manifest subset, use_pretrained). ``scratch`` pretrains on
    nothing; ``no_control`` keeps only datasets whose name carries the
    text marker; ``same_domain`` keeps datasets naming the target domain.
    """
    if arm not in ABLATION_ARMS:
        raise ValueError(f"unknown ablation arm {arm!r}; choose from {ABLATION_ARMS}")
    if arm == "scratch":
        return [], False
    if arm == "all":
        return list(manifests), True
    if arm == "same_domain":
        chosen = [m for m in manifests if target_domain in m.name]
    else:
        chosen = [m for m in manifests if text_marker in m.name]
    if not chosen:
        raise ValueError(f"ablation arm {arm!r} selected no datasets")
    return chosen, True
