"""Operator command line: filter, pretrain, finetune, rollout, inspect.

Configuration comes from a text key-value file with command-line overrides
(``--set key=value``); flags beat the config file, which beats defaults.
The keys of ``pretrain``/``finetune`` are the fields of ``TrainConfig``
or ``FinetuneConfig``, ``model.<field>`` for ``ModelConfig``, and the
command-line keys ``manifest``, ``out_dir``, ``checkpoint``, ``seed``,
``model.preset``, plus ``preset`` (the pretraining data of one ablation arm)
and ``target_domain`` (pretrain) or ``env`` and ``eval_rollouts`` (finetune).
A run trains its checkpoint's model, or with no checkpoint a fresh one, so
the paper's from-scratch arm is ``finetune`` with no checkpoint. Every run
prints and stores its fully resolved configuration. Unknown keys are errors.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numeric abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import codec
from .corpora import run_policy_episode
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
from .policy import RolloutConfig, evaluate_policy
from .sequencer import (HAS_TOKEN, TOKEN_RANGE, ElementSource, episode_layout,
                        flatten_episode, mask_of)
from .trainer import (
    ABLATION_ARMS,
    FinetuneConfig,
    TrainConfig,
    ablation_manifests,
    eval_protocol,
    finetune,
    pretrain,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

# Keys of the command line itself; every other key is a config dataclass
# field. (type, default); a MISSING default leaves the key out unless set.
_SHARED_CLI_KEYS = {
    "manifest": (str, MISSING),
    "checkpoint": (str, ""),
    "seed": (int, 0),
    "model.preset": (str, "tiny"),
}
_CLI_KEYS = {
    "pretrain": {**_SHARED_CLI_KEYS, "out_dir": (str, "runs/pretrain"), "preset": (str, "all"),
                 "target_domain": (str, "")},
    "finetune": {**_SHARED_CLI_KEYS, "out_dir": (str, "runs/finetune"), "env": (str, ""),
                 "eval_rollouts": (int, 10)},
}


def _config_keys(cls) -> dict[str, tuple[type, object]]:
    """Key -> (type, default) per field of a config dataclass."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in fields(cls)}


def _build(cls, resolved: dict):
    """``cls`` from the resolved keys."""
    return cls(**{f.name: resolved[f.name] for f in fields(cls)})


_CONFIG_CLASS = {"pretrain": TrainConfig, "finetune": FinetuneConfig}
_SCHEMA = {
    command: {
        **_config_keys(cls),
        # the model preset decides every ModelConfig field left unset
        **{f"model.{k}": (kind, MISSING) for k, (kind, _) in _config_keys(ModelConfig).items()},
        **_CLI_KEYS[command],
    }
    for command, cls in _CONFIG_CLASS.items()
}


def _coerce(key: str, raw: str, kind):
    """``raw`` as ``kind``: every key is an int, a float or a str."""
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
    schema = _SCHEMA[command]
    resolved = {key: default for key, (_, default) in schema.items() if default is not MISSING}
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
        resolved[key] = _coerce(key, value, schema[key][0])
    if command == "pretrain":
        arm, domain = resolved["preset"], resolved["target_domain"]
        if arm not in ABLATION_ARMS:
            raise ConfigError(f"unknown ablation arm {arm!r}; choose from {ABLATION_ARMS}")
        if arm == "same_domain" and not domain:
            raise ConfigError("preset=same_domain needs a target_domain")
        if domain and arm != "same_domain":
            raise ConfigError(f"target_domain is read only by preset=same_domain, not preset={arm}")
    else:
        if resolved["env"] and resolved["env"] not in ENV_NAMES:
            raise ConfigError(f"unknown env {resolved['env']!r}; choose from {ENV_NAMES}")
        if resolved["eval_rollouts"] < 1:
            raise ConfigError("eval_rollouts must be >= 1")
    model_keys = sorted(k for k in raw if k.startswith("model."))
    if model_keys and resolved["checkpoint"]:
        raise ConfigError(f"{model_keys} cannot change the checkpoint's model")
    _build(_CONFIG_CLASS[command], resolved)  # raises on values the run cannot use
    if not resolved["checkpoint"]:
        build_model_config(resolved)  # and so does a fresh model the run cannot build
    if seed_flag is not None:
        resolved["seed"] = int(seed_flag)
    if resolved["seed"] < 0:
        raise ConfigError("seed must be >= 0")
    return resolved


def _log_resolved(command: str, resolved: dict, out_dir: Path) -> None:
    lines = [f"{command}.{k} = {resolved[k]}" for k in sorted(resolved)]
    for line in lines:
        print(line)
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_writer(out_dir / "resolved_config.txt") as f:
        f.write(("\n".join(lines) + "\n").encode())


def build_model_config(resolved: dict) -> ModelConfig:
    preset = resolved["model.preset"]
    cfg = {"tiny": tiny(), "micro": micro(), **FULL_SCALE}.get(preset)
    if cfg is None:
        raise ConfigError(f"unknown model.preset {preset!r}")
    overrides = {
        key.split(".", 1)[1]: value
        for key, value in resolved.items()
        if key.startswith("model.") and key != "model.preset"
    }
    cfg = replace(cfg, **overrides)
    if cfg.vocab != codec.VOCAB_SIZE:
        raise ConfigError(f"model.vocab must be {codec.VOCAB_SIZE}, one row per token id, "
                          f"got {cfg.vocab}")
    return cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_filter(args) -> int:
    if not 0.0 <= args.fraction <= 1.0:
        raise ConfigError(f"--fraction must be in [0, 1], got {args.fraction}")
    manifests = load_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_lines = []
    filtered_manifests = []
    for manifest in manifests:
        # the episodes alone: filtering needs no flattened sequences
        episodes = [ep for p in manifest.paths for ep in read_episodes(p)]
        kept_all = []
        for task_id in sorted({ep.task_id for ep in episodes}):
            same_task = [ep for ep in episodes if ep.task_id == task_id]
            kept, report = filter_episodes(same_task, fraction=args.fraction)
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


def _state_from_checkpoint(path) -> ModelState:
    loaded = load_checkpoint(path)
    streams = RngStreams(0)
    if loaded["rng_states"]:
        streams.load_state(loaded["rng_states"])
    return ModelState(cfg=loaded["cfg"], params=loaded["params"], streams=streams)


def _prepare_training(command: str, args) -> tuple[dict, Path, list, ModelState]:
    """The resolved config, run directory, manifests and checkpoint's or fresh model."""
    resolved = resolve_config(command, args.config, args.set, args.seed)
    out_dir = Path(resolved["out_dir"])
    _log_resolved(command, resolved, out_dir)
    if not resolved.get("manifest"):
        raise ConfigError(f"{command} needs a manifest")
    manifests = load_manifest(resolved["manifest"])
    if resolved["checkpoint"]:
        state = _state_from_checkpoint(resolved["checkpoint"])
    else:
        state = ModelState.initialize(build_model_config(resolved), seed=resolved["seed"])
    return resolved, out_dir, manifests, state


def _sampler(manifests, resolved: dict) -> MixtureSampler:
    return MixtureSampler(
        [LoadedDataset(m) for m in manifests],
        seq_len=resolved["seq_len"],
        rng=np.random.default_rng(resolved["seed"]),
    )


def cmd_pretrain(args) -> int:
    resolved, out_dir, manifests, state = _prepare_training("pretrain", args)
    chosen = ablation_manifests(resolved["preset"], manifests, resolved["target_domain"])
    cfg = _build(TrainConfig, resolved)
    sampler = _sampler(chosen, resolved)  # a data error comes before the warning
    if cfg.steps <= cfg.warmup_steps:
        print(f"warning: steps={cfg.steps} <= warmup_steps={cfg.warmup_steps}: the whole run "
              f"warms up, below lr_max={cfg.lr_max!r}", file=sys.stderr)
    result = pretrain(sampler, state, cfg, out_dir=out_dir, log_path=out_dir / "metrics.log")
    loss, lr = (result.metrics.column(key)[-1] if result.metrics.lines else float("nan")
                for key in ("loss_mean", "lr"))
    print(f"final loss_mean={loss!r} prompted_fraction={result.prompted_fraction!r} lr={lr!r}")
    print(f"checkpoint: {out_dir / 'final.ckpt'}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    resolved, out_dir, manifests, state = _prepare_training("finetune", args)
    eval_fn = None
    if resolved["env"]:
        env_name = resolved["env"]
        rollouts = resolved["eval_rollouts"]

        def eval_fn(model_state):
            # greedy, so the sampling RNG is never drawn from
            result = evaluate_policy(model_state, lambda s: make_env(env_name, seed=s),
                                     RolloutConfig(), rollouts, seed=10_000)
            return result.mean_return

    cfg = _build(FinetuneConfig, resolved)
    result = finetune(state, _sampler(manifests, resolved), cfg, eval_fn=eval_fn,
                      out_dir=out_dir, log_path=out_dir / "metrics.log")
    if result.eval_scores:
        print(f"eval curve: {result.eval_scores}")
        print(f"final score (smoothed max): {eval_protocol(result.eval_scores)!r}")
    print(f"checkpoint: {out_dir / 'final.ckpt'}")
    return EXIT_OK


def cmd_rollout(args) -> int:
    if args.env not in ENV_NAMES:
        raise ConfigError(f"unknown env {args.env!r}; choose from {ENV_NAMES}")
    if args.episodes < 1:
        raise ConfigError(f"--episodes must be >= 1, got {args.episodes}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.expert == bool(args.checkpoint):
        raise ConfigError("rollout takes exactly one of --checkpoint and --expert")
    model_flags = {"prompt": args.prompt, "prompt_budget": args.prompt_budget,
                   "context": args.context, "temperature": args.temperature}
    given = {key: value for key, value in model_flags.items() if value is not None}
    if args.expert and given:
        flags = ", ".join("--" + key.replace("_", "-") for key in given)
        raise ConfigError(f"--expert takes no {flags}: only a model rollout reads them")
    warnings: list[str] = []
    prompt = None
    if args.prompt:
        if not Path(args.prompt).exists():
            warnings.append(f"prompt file {args.prompt} absent; rolling out unprompted")
        elif not (prompt_eps := read_episodes(args.prompt)):
            warnings.append(f"prompt file {args.prompt} holds no episodes; rolling out unprompted")
        else:
            prompt = prompt_eps[0]
    if prompt is None and not args.expert and args.env.startswith("bandit"):
        warnings.append(f"{args.env} is prompt-disambiguated; unprompted rollouts are a coin flip")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    given.pop("prompt", None)
    cfg = RolloutConfig(prompt=prompt, **given)

    counts = {}
    if args.expert:
        expert = make_expert(args.env)
        episodes = [run_policy_episode(make_env(args.env, seed=args.seed + i), expert)
                    for i in range(args.episodes)]
    else:
        state = _state_from_checkpoint(args.checkpoint)
        result = evaluate_policy(
            state, lambda s: make_env(args.env, seed=s), cfg, args.episodes, seed=args.seed
        )
        episodes = result.episodes
        counts = {key: sum(getattr(s, key) for s in result.stats)
                  for key in ("truncations", "rebuilds")}
    returns = [ep.total_return for ep in episodes]

    mean = float(np.mean(returns))
    for i, ret in enumerate(returns):
        print(f"episode={i} return={ret!r}")
    print(f"mean_return={mean!r} episodes={len(returns)}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_episodes(episodes, out_dir / "transcripts.ep")
        summary = {"env": args.env, "episodes": len(returns), "returns": returns,
                   "mean_return": mean, **counts, "warnings": warnings}
        with atomic_writer(out_dir / "rollout_summary.json") as f:
            f.write(json.dumps(summary, indent=2).encode())
    return EXIT_OK


def _token_range_violations(seq) -> list[str]:
    """Tokens outside their source's ``TOKEN_RANGE``, in position order."""
    src, tok = seq.sources, seq.tokens
    lo, hi = TOKEN_RANGE[src].T
    bad = np.flatnonzero(HAS_TOKEN[src] & ((tok < lo) | (tok >= hi)))
    return [f"{ElementSource(int(src[i])).name.lower()} token {int(tok[i])} at {i}" for i in bad]


def cmd_inspect(args) -> int:
    episodes = read_episodes(args.episode_file)
    bad = 0
    unencodable = None
    for n, ep in enumerate(episodes):
        try:
            seq = flatten_episode(ep)
        except SchemaError as e:
            print(f"episode={n} task={ep.task_id}  VIOLATION: {e}")
            bad += 1
            unencodable = unencodable or e
            continue
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
            f"{layout_txt} elements={len(seq)} masked={int(mask_of(seq.sources).sum())}"
        )
        if expected is not None and expected != len(seq):
            print(f"  VIOLATION: length {len(seq)} != layout total {expected}")
            bad += 1
        for problem in _token_range_violations(seq):
            print(f"  VIOLATION: {problem}")
            bad += 1
    print(f"episodes={len(episodes)} violations={bad}")
    if unencodable is not None:
        raise unencodable  # reported as a data error, the first one found
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
    # None marks a flag not given, so --expert can refuse the model-only ones
    p.add_argument("--prompt")
    p.add_argument("--prompt-budget", type=int)
    p.add_argument("--context", type=int)
    p.add_argument("--temperature", type=float)
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
