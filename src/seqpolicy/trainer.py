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
from .errors import CapacityError, ConfigError, NonFiniteAbort
from .framing import atomic_writer
from .model import ModelState, loss_and_grads, save_checkpoint
from .sequencer import apply_prompt, assemble_batch


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

# Fixed as in the paper: AdamW's betas and epsilon, and the rate the linear
# warmup starts from.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.95
ADAM_EPS = 1e-8
LR_START = 1e-7


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to lr_max, then cosine decay by decay_factor, then flat."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if cfg.warmup_steps > 0 and step < cfg.warmup_steps:
        frac = step / cfg.warmup_steps
        return LR_START + (cfg.lr_max - LR_START) * frac
    lr_min = cfg.lr_max / cfg.decay_factor
    t = min(step - cfg.warmup_steps, cfg.decay_steps)
    cos = 0.5 * (1.0 + math.cos(math.pi * t / cfg.decay_steps))
    return lr_min + (cfg.lr_max - lr_min) * cos


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def init_optimizer_state(params: dict[str, np.ndarray]) -> dict:
    return {
        "step": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


# Elements per AdamW pass: small enough that a block of each operand stays in
# cache across the update's ~16 ufunc passes, large enough to amortise calls.
ADAM_BLOCK = 32768


def optimizer_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: dict,
    lr: float,
    weight_decay: float,
) -> None:
    """One decoupled-weight-decay adaptive-moment update, in place.

    A parameter with no entry in ``grads`` has a zero gradient. It is skipped
    when ``weight_decay`` is 0 and both its moments are all zero, since its
    update is then exactly zero; otherwise it takes the update of a zero
    gradient. Non-finite gradients abort with diagnostics before any update;
    there is no silent clipping. Each tensor is updated in blocks of
    ``ADAM_BLOCK`` elements through two block-sized scratch buffers; the
    arithmetic is elementwise, so the result does not depend on the blocking.
    """
    bad = [k for k, g in grads.items() if not np.all(np.isfinite(g))]
    if bad:
        raise NonFiniteAbort(
            f"non-finite gradients for {len(bad)} parameters",
            diagnostics={"step": state["step"], "parameters": sorted(bad)},
        )
    state["step"] += 1
    t = state["step"]
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    buffers: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}
    for k, p in params.items():
        if p.dtype not in buffers:
            buffers[p.dtype] = (np.empty(ADAM_BLOCK, p.dtype), np.empty(ADAM_BLOCK, p.dtype))
        scratch1, scratch2 = buffers[p.dtype]
        flat_p, flat_m, flat_v = _flat(p), _flat(state["m"][k]), _flat(state["v"][k])
        if k in grads:
            flat_g = grads[k].reshape(-1)
        elif weight_decay or flat_m.any() or flat_v.any():
            flat_g = np.zeros(p.size, p.dtype)
        else:
            continue
        for lo in range(0, p.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, p.size)
            g, m, v, w = flat_g[lo:hi], flat_m[lo:hi], flat_v[lo:hi], flat_p[lo:hi]
            s1, s2 = scratch1[: hi - lo], scratch2[: hi - lo]
            np.multiply(g, g, out=s1)
            s1 *= 1.0 - b2
            v *= b2
            v += s1
            np.multiply(g, 1.0 - b1, out=s1)
            m *= b1
            m += s1
            np.divide(v, bias2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += ADAM_EPS
            np.divide(m, bias1, out=s1)
            s1 /= s2
            if weight_decay:
                np.multiply(w, weight_decay, out=s2)
                s1 += s2
            s1 *= lr
            w -= s1


def _flat(a: np.ndarray) -> np.ndarray:
    """A 1-D view of ``a``, so that in-place updates through it reach ``a``."""
    if not a.flags.c_contiguous:
        raise ValueError("optimizer parameters and moments must be C-contiguous")
    return a.reshape(-1)


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

# Least legal value of each training key (zero steps trains nothing, and
# lr_schedule divides by decay_steps); ``not >=`` refuses NaN too.
_LEAST = {
    "steps": 0, "batch_size": 1, "seq_len": 1, "checkpoint_every": 0, "eval_every": 0,
    "warmup_steps": 0, "decay_steps": 1, "lr_max": 0, "lr": 0, "weight_decay": 0,
}


def _check_ranges(cfg) -> None:
    """Refuse values no training loop can use, before any data is read."""
    for name, least in _LEAST.items():
        if hasattr(cfg, name) and not getattr(cfg, name) >= least:
            raise ConfigError(f"{name} must be >= {least}")
    if not 0 <= cfg.prompt_probability <= 1:
        raise ConfigError("prompt_probability must be in [0, 1]")


@dataclass
class TrainConfig:
    steps: int = 100
    batch_size: int = 16
    seq_len: int = 256
    prompt_probability: float = 0.25
    checkpoint_every: int = 500
    warmup_steps: int = 15_000
    lr_max: float = 1e-4
    decay_steps: int = 1_000_000
    decay_factor: float = 10.0
    weight_decay: float = 0.1

    def __post_init__(self):
        _check_ranges(self)
        if not self.decay_factor > 0:  # lr_schedule divides by it
            raise ConfigError("decay_factor must be > 0")


@dataclass
class TrainResult:
    state: ModelState
    optimizer_state: dict
    metrics: MetricsLog
    prompted_fraction: float
    eval_scores: list[float] = field(default_factory=list)


def _draw_batch(sampler: MixtureSampler, batch_size: int, prompt_probability: float):
    """One batch of windows (some prompted), packed several to a row."""
    items = []
    prompted = 0
    for _ in range(batch_size):
        window, source = sampler.draw()
        item, was_prompted = apply_prompt(
            window, source, sampler.rng, sampler.seq_len, prompt_probability=prompt_probability
        )
        prompted += int(was_prompted)
        items.append(item)
    return assemble_batch(items), prompted


def _train_loop(
    state: ModelState,
    sampler: MixtureSampler,
    cfg: TrainConfig,
    mode: str,
    metrics: MetricsLog,
    out_dir=None,
    eval_every: int = 0,
    eval_fn=None,
) -> TrainResult:
    if cfg.seq_len > state.cfg.context:
        # checked up front: a packed batch can be shorter than the context
        raise CapacityError(f"seq_len {cfg.seq_len} exceeds context {state.cfg.context}")
    params = state.params
    sampler.seq_len = cfg.seq_len
    opt_state = init_optimizer_state(params)
    prompted_total = 0
    tokens_processed = 0
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    eval_scores: list[float] = []

    for step in range(cfg.steps):
        lr = lr_schedule(opt_state["step"], cfg)
        batch, prompted = _draw_batch(sampler, cfg.batch_size, cfg.prompt_probability)
        prompted_total += prompted
        loss, grads = loss_and_grads(
            params, state.cfg, batch, mode=mode, streams=state.streams, reduction="mean"
        )
        if not math.isfinite(loss.total):
            diagnostics = {"step": step, "loss": loss.total}
            if out_dir is not None:
                with atomic_writer(out_dir / "abort_dump.json") as f:
                    f.write(json.dumps(diagnostics, indent=2).encode())
            raise NonFiniteAbort("non-finite loss", diagnostics=diagnostics)
        optimizer_step(params, grads, opt_state, lr, cfg.weight_decay)
        tokens_processed += cfg.batch_size * cfg.seq_len  # nominal, not the packed positions

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

    def __post_init__(self):
        _check_ranges(self)


def finetune(
    state: ModelState,
    sampler: MixtureSampler,
    cfg: FinetuneConfig,
    eval_fn=None,
    out_dir=None,
    log_path=None,
) -> TrainResult:
    """Adam without weight decay at a constant learning rate, dropout active.

    The constant rate is a flat schedule, so like pretraining's it follows
    the optimizer's step.

    ``eval_fn(state) -> score`` is called every ``eval_every`` steps; the
    recorded curve feeds :func:`eval_protocol`. Zero steps return the input
    model untouched.
    """
    tasks = {task for ds in sampler.datasets for task in ds.by_task}
    if len(tasks) > 1:
        raise ValueError(f"fine-tuning expects a single task, got {sorted(tasks)}")
    metrics = MetricsLog(log_path)
    train_cfg = TrainConfig(
        steps=cfg.steps,
        batch_size=cfg.batch_size,
        seq_len=cfg.seq_len,
        prompt_probability=cfg.prompt_probability,
        checkpoint_every=0,
        warmup_steps=0,
        lr_max=cfg.lr,
        decay_factor=1.0,
        weight_decay=0.0,
    )
    return _train_loop(
        state,
        sampler,
        train_cfg,
        mode="finetune",
        metrics=metrics,
        out_dir=out_dir,
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
# ablation harness
# ---------------------------------------------------------------------------

ABLATION_ARMS = ("all", "same_domain", "no_control")


def ablation_manifests(arm: str, manifests, target_domain: str):
    """Pretraining dataset selection for one ablation arm.

    ``no_control`` keeps only datasets whose name contains ``"text"`` and
    ``same_domain`` keeps datasets naming the target domain; either raises
    if it keeps none. The paper's from-scratch arm pretrains on nothing: it
    is fine-tuning a fresh model, with no checkpoint.
    """
    if arm not in ABLATION_ARMS:
        raise ValueError(f"unknown ablation arm {arm!r}; choose from {ABLATION_ARMS}")
    if arm == "all":
        return list(manifests)
    if arm == "same_domain":
        chosen = [m for m in manifests if target_domain in m.name]
    else:
        chosen = [m for m in manifests if "text" in m.name]
    if not chosen:
        raise ValueError(f"ablation arm {arm!r} selected no datasets")
    return chosen
