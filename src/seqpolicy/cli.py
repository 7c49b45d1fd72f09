"""Operator command line: filter, pretrain, finetune, rollout, inspect.

Configuration comes from a text key-value file with command-line overrides
(``--set key=value``); flags beat the config file, which beats defaults.
Every run prints and stores its fully resolved configuration. Unknown keys
are errors.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numeric abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import codec
from .corpora import collect_episodes, run_policy_episode
from .datastore import (
    LoadedDataset,
    MixtureSampler,
    filter_episodes,
    load_manifest,
    read_episodes,
    write_episodes,
    write_manifest,
)
from .envs import ENV_NAMES, make_env, make_expert
from .errors import (
    ConfigError,
    ExhaustedStreamError,
    NonFiniteAbort,
    RecordFormatError,
    SchemaError,
)
from .framing import atomic_writer
from .model import (
    FULL_SCALE,
    ModelConfig,
    ModelState,
    RngStreams,
    load_checkpoint,
    micro,
    tiny,
)
from .policy import RolloutConfig, rollout
from .sequencer import ElementSource, Episode, episode_layout, flatten_episode
from .trainer import (
    ABLATION_ARMS,
    FinetuneConfig,
    OptimizerConfig,
    ScheduleConfig,
    TrainConfig,
    ablation_manifests,
    eval_protocol,
    finetune,
    pretrain,
)

SEED_ENV_VAR = "SEQPOLICY_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

_MODEL_KEYS = {
    "model.preset": str,
    "model.blocks": int,
    "model.heads": int,
    "model.width": int,
    "model.ff_hidden": int,
    "model.kv_size": int,
    "model.context": int,
    "model.vocab": int,
    "model.local_pos_table": int,
    "model.patch_pos_vocab": int,
    "model.patch_channels": int,
    "model.stochastic_depth": float,
    "model.dropout": float,
    "model.zero_action_inputs": bool,
}

_COMMAND_KEYS: dict[str, dict[str, type]] = {
    "pretrain": {
        "manifest": str,
        "out_dir": str,
        "steps": int,
        "batch_size": int,
        "seq_len": int,
        "warmup_steps": int,
        "lr_start": float,
        "lr_max": float,
        "decay_steps": int,
        "decay_factor": float,
        "beta1": float,
        "beta2": float,
        "eps": float,
        "weight_decay": float,
        "prompt_probability": float,
        "checkpoint_every": int,
        "preset": str,
        "target_domain": str,
        "checkpoint": str,
        "seed": int,
        **_MODEL_KEYS,
    },
    "finetune": {
        "manifest": str,
        "out_dir": str,
        "checkpoint": str,
        "preset": str,
        "steps": int,
        "batch_size": int,
        "seq_len": int,
        "lr": float,
        "eval_every": int,
        "eval_rollouts": int,
        "prompt_probability": float,
        "env": str,
        "seed": int,
        **_MODEL_KEYS,
    },
}

_DEFAULTS: dict[str, dict] = {
    "pretrain": {
        "out_dir": "runs/pretrain",
        "steps": 100,
        "batch_size": 16,
        "seq_len": 256,
        "warmup_steps": 15_000,
        "lr_start": 1e-7,
        "lr_max": 1e-4,
        "decay_steps": 1_000_000,
        "decay_factor": 10.0,
        "beta1": 0.9,
        "beta2": 0.95,
        "eps": 1e-8,
        "weight_decay": 0.1,
        "prompt_probability": 0.25,
        "checkpoint_every": 500,
        "preset": "all",
        "target_domain": "",
        "checkpoint": "",
        "seed": 0,
        "model.preset": "tiny",
    },
    "finetune": {
        "out_dir": "runs/finetune",
        "checkpoint": "",
        "preset": "all",
        "steps": 10_000,
        "batch_size": 64,
        "seq_len": 256,
        "lr": 1e-5,
        "eval_every": 100,
        "eval_rollouts": 10,
        "prompt_probability": 0.25,
        "env": "",
        "seed": 0,
        "model.preset": "tiny",
    },
}


def _coerce(key: str, raw: str, kind):
    if kind is bool:
        low = str(raw).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}") from exc


def parse_config_file(path) -> dict[str, str]:
    """KEY = VALUE lines; '#' starts a comment."""
    out: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected KEY = VALUE")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve_config(command: str, config_path, overrides: list[str], seed_flag) -> dict:
    schema = _COMMAND_KEYS[command]
    resolved = dict(_DEFAULTS[command])
    raw: dict[str, str] = {}
    if config_path:
        raw.update(parse_config_file(config_path))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    for key, value in raw.items():
        resolved[key] = _coerce(key, value, schema[key])
    if seed_flag is not None:
        resolved["seed"] = int(seed_flag)
    elif os.environ.get(SEED_ENV_VAR) and "seed" not in raw:
        resolved["seed"] = int(os.environ[SEED_ENV_VAR])
    return resolved


def _log_resolved(command: str, resolved: dict, out_dir: Path | None) -> None:
    lines = [f"{command}.{k} = {resolved[k]}" for k in sorted(resolved)]
    for line in lines:
        print(line)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "resolved_config.txt").write_text("\n".join(lines) + "\n")


def build_model_config(resolved: dict) -> ModelConfig:
    preset = resolved.get("model.preset", "tiny")
    if preset == "tiny":
        cfg = tiny()
    elif preset == "micro":
        cfg = micro()
    elif preset in FULL_SCALE:
        cfg = FULL_SCALE[preset]
    else:
        raise ConfigError(f"unknown model.preset {preset!r}")
    overrides = {
        key.split(".", 1)[1]: value
        for key, value in resolved.items()
        if key.startswith("model.") and key != "model.preset" and value is not None
    }
    return cfg.replace(**overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_filter(args) -> int:
    manifests = load_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_lines = []
    filtered_manifests = []
    for manifest in manifests:
        dataset = LoadedDataset(manifest)
        by_task: dict[str, list] = {}
        for ep in dataset.episodes:
            by_task.setdefault(ep.task_id, []).append(ep)
        kept_all = []
        for task_id in sorted(by_task):
            kept, report = filter_episodes(by_task[task_id], fraction=args.fraction)
            kept_all.extend(kept)
            report_lines.append(
                f"dataset={manifest.name} task={task_id} expert_return={report.expert_return!r} "
                f"window={report.window} threshold={report.threshold!r} "
                f"kept={report.kept} dropped={report.dropped}"
            )
        path = out_dir / f"{manifest.name}.ep"
        write_episodes(kept_all, path)
        # relative to the filtered manifest, which sits next to the file
        filtered_manifests.append(
            type(manifest)(
                name=manifest.name, paths=[path.name], sample_weight=manifest.sample_weight
            )
        )
    write_manifest(filtered_manifests, out_dir / "manifest.cfg")
    with atomic_writer(out_dir / "filter_report.txt") as f:
        f.write(("\n".join(report_lines) + "\n").encode())
    for line in report_lines:
        print(line)
    print(f"filtered manifest: {out_dir / 'manifest.cfg'}")
    return EXIT_OK


def _state_from_checkpoint(path) -> tuple[ModelState, dict | None]:
    loaded = load_checkpoint(path)
    streams = RngStreams(0)
    if loaded["rng_states"]:
        streams.load_state(loaded["rng_states"])
    state = ModelState(cfg=loaded["cfg"], params=loaded["params"], streams=streams)
    return state, loaded["extra"]


def cmd_pretrain(args) -> int:
    resolved = resolve_config("pretrain", args.config, args.set, args.seed)
    out_dir = Path(resolved["out_dir"])
    _log_resolved("pretrain", resolved, out_dir)
    if not resolved.get("manifest"):
        raise ConfigError("pretrain needs a manifest")
    manifests = load_manifest(resolved["manifest"])
    chosen, use_checkpoint = ablation_manifests(
        resolved["preset"], manifests, resolved["target_domain"]
    )
    seed = resolved["seed"]
    if resolved["preset"] == "scratch" or not chosen:
        print("preset=scratch selects no pretraining data; nothing to do")
        return EXIT_OK
    if resolved["checkpoint"] and use_checkpoint:
        state, _ = _state_from_checkpoint(resolved["checkpoint"])
    else:
        state = ModelState.initialize(build_model_config(resolved), seed=seed)
    sampler = MixtureSampler(
        [LoadedDataset(m) for m in chosen],
        seq_len=resolved["seq_len"],
        rng=np.random.default_rng(seed),
    )
    cfg = TrainConfig(
        steps=resolved["steps"],
        batch_size=resolved["batch_size"],
        seq_len=resolved["seq_len"],
        schedule=ScheduleConfig(
            warmup_steps=resolved["warmup_steps"],
            lr_start=resolved["lr_start"],
            lr_max=resolved["lr_max"],
            decay_steps=resolved["decay_steps"],
            decay_factor=resolved["decay_factor"],
        ),
        optim=OptimizerConfig(
            beta1=resolved["beta1"],
            beta2=resolved["beta2"],
            eps=resolved["eps"],
            weight_decay=resolved["weight_decay"],
        ),
        prompt_probability=resolved["prompt_probability"],
        checkpoint_every=resolved["checkpoint_every"],
    )
    result = pretrain(sampler, state, cfg, out_dir=out_dir, log_path=out_dir / "metrics.log")
    final_loss = result.metrics.column("loss_mean")[-1] if result.metrics.lines else float("nan")
    print(f"final loss_mean={final_loss!r} prompted_fraction={result.prompted_fraction!r}")
    print(f"checkpoint: {out_dir / 'final.ckpt'}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    resolved = resolve_config("finetune", args.config, args.set, args.seed)
    out_dir = Path(resolved["out_dir"])
    _log_resolved("finetune", resolved, out_dir)
    if not resolved.get("manifest"):
        raise ConfigError("finetune needs a manifest of demonstrations")
    manifests = load_manifest(resolved["manifest"])
    seed = resolved["seed"]
    if resolved["preset"] == "scratch" or not resolved["checkpoint"]:
        if resolved["checkpoint"] and resolved["preset"] == "scratch":
            print("preset=scratch: ignoring the provided checkpoint")
        state = ModelState.initialize(build_model_config(resolved), seed=seed)
    else:
        state, _ = _state_from_checkpoint(resolved["checkpoint"])
    sampler = MixtureSampler(
        [LoadedDataset(m) for m in manifests],
        seq_len=resolved["seq_len"],
        rng=np.random.default_rng(seed),
    )
    eval_fn = None
    if resolved["env"]:
        env_name = resolved["env"]
        rollouts = resolved["eval_rollouts"]

        def eval_fn(model_state):
            scores = []
            for i in range(rollouts):
                env = make_env(env_name, seed=10_000 + i)
                _, ret, _ = rollout(model_state, env, RolloutConfig(), np.random.default_rng(i))
                scores.append(ret)
            return float(np.mean(scores))

    cfg = FinetuneConfig(
        steps=resolved["steps"],
        batch_size=resolved["batch_size"],
        seq_len=resolved["seq_len"],
        lr=resolved["lr"],
        prompt_probability=resolved["prompt_probability"],
        eval_every=resolved["eval_every"],
    )
    result = finetune(state, sampler, cfg, eval_fn=eval_fn,
                      out_dir=out_dir, log_path=out_dir / "metrics.log")
    if result.eval_scores:
        print(f"eval curve: {result.eval_scores}")
        print(f"final score (smoothed max): {eval_protocol(result.eval_scores)!r}")
    print(f"checkpoint: {out_dir / 'final.ckpt'}")
    return EXIT_OK


def cmd_rollout(args) -> int:
    if args.env not in ENV_NAMES:
        raise ConfigError(f"unknown env {args.env!r}; choose from {ENV_NAMES}")
    warnings: list[str] = []
    prompt = None
    if args.prompt:
        if Path(args.prompt).exists():
            prompt_eps = read_episodes(args.prompt)
            if prompt_eps:
                prompt = prompt_eps[0]
        else:
            warnings.append(f"prompt file {args.prompt} absent; rolling out unprompted")
    if prompt is None and args.env.startswith("bandit"):
        warnings.append(f"{args.env} is prompt-disambiguated; unprompted rollouts are a coin flip")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)

    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    episodes: list[Episode] = []
    returns: list[float] = []
    if args.expert:
        expert = make_expert(args.env)
        for i in range(args.episodes):
            env = make_env(args.env, seed=args.seed + i)
            ep = run_policy_episode(env, expert)
            episodes.append(ep)
            returns.append(ep.total_return)
    else:
        if not args.checkpoint:
            raise ConfigError("rollout needs --checkpoint or --expert")
        state, _ = _state_from_checkpoint(args.checkpoint)
        cfg = RolloutConfig(
            prompt=prompt,
            prompt_budget=args.prompt_budget,
            context=args.context,
            sampling="temperature" if args.temperature is not None else "greedy",
            temperature=args.temperature if args.temperature is not None else 1.0,
            action_mode="parallel" if args.parallel else "autoregressive",
            context_timesteps=args.context_timesteps,
        )
        rng = np.random.default_rng(args.seed)
        for i in range(args.episodes):
            env = make_env(args.env, seed=args.seed + i)
            ep, ret, _ = rollout(state, env, cfg, rng)
            episodes.append(ep)
            returns.append(ret)

    mean = float(np.mean(returns)) if returns else 0.0
    for i, ret in enumerate(returns):
        print(f"episode={i} return={ret!r}")
    print(f"mean_return={mean!r} episodes={len(returns)}")
    if out_dir is not None:
        write_episodes(episodes, out_dir / "transcripts.ep")
        summary = {"env": args.env, "episodes": len(returns), "returns": returns,
                   "mean_return": mean, "warnings": warnings}
        (out_dir / "rollout_summary.json").write_text(json.dumps(summary, indent=2))
    return EXIT_OK


def _token_range_violations(seq) -> list[str]:
    problems = []
    for i, src in enumerate(seq.sources):
        src = ElementSource(int(src))
        tok = int(seq.tokens[i])
        if src == ElementSource.TEXT and not (0 <= tok < codec.TEXT_VOCAB):
            problems.append(f"text token {tok} at {i}")
        if src == ElementSource.SEPARATOR and tok != codec.SEPARATOR_TOKEN:
            problems.append(f"separator token {tok} at {i}")
        if src == ElementSource.TENSOR and not (
            0 <= tok < codec.DISCRETE_VOCAB or codec.CONTINUOUS_BASE <= tok < codec.CONTINUOUS_END
        ):
            problems.append(f"tensor token {tok} at {i}")
        if src == ElementSource.ACTION and not (
            0 <= tok < codec.DISCRETE_VOCAB or codec.CONTINUOUS_BASE <= tok < codec.CONTINUOUS_END
        ):
            problems.append(f"action token {tok} at {i}")
        if seq.mask[i] and src not in (ElementSource.TEXT, ElementSource.ACTION):
            problems.append(f"mask bit on {src.name} at {i}")
    return problems


def cmd_inspect(args) -> int:
    episodes = read_episodes(args.episode_file)
    bad = 0
    for n, ep in enumerate(episodes):
        seq = flatten_episode(ep)
        try:
            layout = episode_layout(ep)
            expected = layout.total
            layout_txt = (
                f"k={layout.k} m={layout.m} n={layout.n} A={layout.A} T={layout.T} "
                f"L={expected}"
            )
        except SchemaError:
            expected = None
            layout_txt = "ragged per-timestep layout"
        print(
            f"episode={n} task={ep.task_id} timesteps={len(ep)} return={ep.total_return!r} "
            f"{layout_txt} elements={len(seq)} masked={int(seq.mask.sum())}"
        )
        if expected is not None and expected != len(seq):
            print(f"  VIOLATION: length {len(seq)} != layout total {expected}")
            bad += 1
        for problem in _token_range_violations(seq):
            print(f"  VIOLATION: {problem}")
            bad += 1
    print(f"episodes={len(episodes)} violations={bad}")
    return EXIT_OK if bad == 0 else EXIT_DATA


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqpolicy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="expert-return filter a manifest of episodes")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fraction", type=float, default=0.8)
    p.set_defaults(func=cmd_filter)

    for name, fn in (("pretrain", cmd_pretrain), ("finetune", cmd_finetune)):
        p = sub.add_parser(name, help=f"{name} a model from a config file")
        p.add_argument("--config", default=None)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=fn)

    p = sub.add_parser("rollout", help="roll a checkpoint (or scripted expert) in an env")
    p.add_argument("--checkpoint", default="")
    p.add_argument("--env", required=True)
    p.add_argument("--episodes", "-n", type=int, default=50)
    p.add_argument("--prompt", default="")
    p.add_argument("--prompt-budget", type=int, default=1024)
    p.add_argument("--context", type=int, default=1024)
    p.add_argument("--context-timesteps", type=int, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--expert", action="store_true")
    p.add_argument("--out", default="")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("inspect", help="dump layout and contract checks for an episode file")
    p.add_argument("episode_file")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RecordFormatError, SchemaError, ExhaustedStreamError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteAbort as exc:
        print(f"numeric abort: {exc} {exc.diagnostics}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
