"""Deploy a trained model as a control policy.

The model acts like a scripted expert: a ``ModelActor`` maps each observation
set to an action, and ``corpora.run_policy_episode``, the one loop that steps
every env, drives it. The actor tokenizes each observation exactly as training
did (same flattening code path), appends a separator, samples the action
tokens one at a time, each conditioned on the context so far, and decodes them
by inverting the codec. The context is one element sequence: the prompt,
an episode of the env's own task, on timestep ids below zero, then each
observation and its action tokens. A prompt from another task is refused.
When the next step would overflow the window, truncation drops the oldest
whole timesteps until the context fills at most half of it, so the local
structure the model saw during training survives, and the prompt, which
sits at the front, goes first.

Each rollout keeps one K/V cache of its context, so a forward pass embeds
and runs only the positions added since the last one; its last block runs
past keys and values only at the sampled position. A truncation changes
every deeper layer's keys and values, so it starts a new cache, from the
keys and values of the prompt elements still in the context: those depend
on the prompt and the weights alone, so an evaluation computes them once.
Dropping to half the window makes such rebuilds rare: the passes after one
extend its cache until the window fills again.

Sampled action tokens are range-masked to the legal token range of the
action schema (continuous bins or the discrete range), so illegal ids are
never emitted. Token id ``i`` is logit ``i``, so that range slices the logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import codec
from .codec import Modality, TensorSchema
from .corpora import run_policy_episode
from .errors import ConfigError
from .model import KVCache, ModelState, forward_logits
from .sequencer import (
    ElementSequence,
    ElementSource,
    Episode,
    Timestep,
    assemble_batch,
    concat_sequences,
    flatten_episode,
    prompt_timesteps,
)

LEGAL_DISCRETE = (0, codec.DISCRETE_VOCAB)
LEGAL_CONTINUOUS = (codec.CONTINUOUS_BASE, codec.CONTINUOUS_END)


@dataclass
class RolloutConfig:
    prompt: Episode | None = None
    prompt_budget: int = 1024
    context: int = 1024
    temperature: float = 0.0  # 0 samples greedily

    def __post_init__(self):
        if not (self.temperature >= 0):
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")
        if self.prompt_budget < 0:
            raise ConfigError(f"prompt_budget must be >= 0, got {self.prompt_budget}")
        if self.context < 1:
            raise ConfigError(f"context must be >= 1, got {self.context}")


@dataclass
class RolloutStats:
    forward_passes: int = 0
    env_steps: int = 0
    prompted: bool = False
    truncations: int = 0  # timesteps dropped from the front of the context
    rebuilds: int = 0  # steps whose truncation started a fresh cache


def legal_token_range(schema: TensorSchema) -> tuple[int, int]:
    if schema.modality is Modality.DISCRETE:
        return LEGAL_DISCRETE
    if schema.modality is Modality.CONTINUOUS:
        return LEGAL_CONTINUOUS
    raise ConfigError(f"{schema.key}: not an action modality")


def sample_token(
    logits: np.ndarray,
    lo: int,
    hi: int,
    temperature: float,
    rng: np.random.Generator,
) -> int:
    """Pick one token id in [lo, hi) after renormalizing over that range;
    temperature 0 takes the argmax."""
    sub = np.asarray(logits[lo:hi], dtype=np.float64)
    if temperature == 0.0:
        return lo + int(np.argmax(sub))
    z = sub / temperature
    z -= z.max()
    p = np.exp(z)
    p /= p.sum()
    return lo + int(rng.choice(hi - lo, p=p))


def _observation_fragment(task_id: str, observations, timestep_id: int) -> ElementSequence:
    """Flatten one observation set plus separator, exactly as training does."""
    ep = Episode(task_id=task_id, timesteps=[Timestep(observations=observations)], rewards=[0.0])
    frag = flatten_episode(ep)
    frag.timestep[:] = timestep_id
    return frag


def _with_action(seq: ElementSequence, token: int) -> ElementSequence:
    """``seq`` followed by an action element in its last timestep."""
    action = ElementSequence(
        sources=np.full(1, ElementSource.ACTION, np.uint8),
        tokens=np.array([token], np.int32),
        local_pos=np.full(1, -1, np.int32),
        timestep=np.full(1, seq.timestep[-1], np.int32),
        task_id=seq.task_id,
    )
    return concat_sequences([seq, action])


def _prompt_sequence(prompt: Episode, budget: int) -> ElementSequence:
    """The first ``budget`` prompt elements, on timestep ids below zero."""
    flat = flatten_episode(prompt).slice(0, budget)
    if len(flat):
        flat.timestep = prompt_timesteps(flat.timestep)
    return flat


def _drop_oldest_timesteps(
    seq: ElementSequence, limit: int, reserve: int, stats: RolloutStats
) -> ElementSequence:
    """``seq`` if ``reserve`` more elements fit in ``limit``. Otherwise drop
    whole timesteps from the front until the rest and ``reserve`` fill at most
    half of ``limit``, or keep only the newest timestep if it needs more."""
    starts = np.r_[0, np.flatnonzero(np.diff(seq.timestep)) + 1]
    needs = len(seq) - starts + reserve  # elements if the context starts at each timestep
    if needs[0] <= limit:
        return seq
    if needs[-1] > limit:
        raise ConfigError(
            f"a single timestep ({len(seq) - int(starts[-1])} elements + {reserve} action "
            f"tokens) exceeds the context window of {limit}"
        )
    fits = np.flatnonzero(needs <= limit // 2)
    drop = int(fits[0]) if fits.size else len(starts) - 1
    stats.truncations += drop
    return seq.slice(int(starts[drop]), len(seq))


def encode_action(value, schema: TensorSchema) -> list[int]:
    return codec.encode(value, schema)


class ModelActor:
    """The model as the policy of one episode on ``env``, with its context, K/V
    cache and statistics. ``prompt_kv`` maps ``n`` to a cache of the prompt's
    last ``n`` elements; only actors with the same params and prompt may share it.
    """

    def __init__(self, state: ModelState, env, cfg: RolloutConfig, rng: np.random.Generator,
                 prompt_kv: dict[int, KVCache]):
        if cfg.prompt is not None and cfg.prompt.task_id != env.task_id:
            raise ConfigError(f"prompt task {cfg.prompt.task_id!r} != env task {env.task_id!r}")
        self.state, self.cfg, self.rng, self.prompt_kv = state, cfg, rng, prompt_kv
        self.task_id, self.schema = env.task_id, env.spec.action_schema
        self.limit = min(cfg.context, state.cfg.context)
        self.stats = RolloutStats(prompted=cfg.prompt is not None)
        self.seq = None if cfg.prompt is None else _prompt_sequence(cfg.prompt, cfg.prompt_budget)
        self.cache: KVCache | None = None

    def act(self, observations):
        """Sample the action one token at a time, each from one forward pass
        over the context positions the cache does not hold yet."""
        stats, schema = self.stats, self.schema
        step = _observation_fragment(self.task_id, observations, stats.env_steps)
        seq = step if self.seq is None else concat_sequences([self.seq, step])
        truncations = stats.truncations
        seq = _drop_oldest_timesteps(seq, self.limit, schema.num_elements, stats)
        rebuild = stats.truncations > truncations
        stats.rebuilds += rebuild
        fresh = self.cache is None or rebuild
        if fresh:  # a dropped timestep changes every deeper K/V, but not the prompt's
            n = int(np.count_nonzero(seq.timestep < 0))
            self.cache = replace(self.prompt_kv[n]) if n in self.prompt_kv else KVCache()
        tokens = []
        for _ in range(schema.num_elements):
            stats.forward_passes += 1
            logits = forward_logits(
                self.state.params, self.state.cfg, assemble_batch([seq]),
                positions=np.array([len(seq) - 1]), cache=self.cache,
            )
            token = sample_token(logits[0], *legal_token_range(schema), self.cfg.temperature,
                                 self.rng)
            tokens.append(token)
            seq = _with_action(seq, token)
        if fresh and n not in self.prompt_kv:
            self.prompt_kv[n] = self.cache.prefix(n)
        self.seq = seq
        stats.env_steps += 1
        return codec.decode(tokens, schema)


def rollout(
    state: ModelState,
    env,
    cfg: RolloutConfig,
    rng: np.random.Generator | None = None,
    *,
    prompt_kv: dict[int, KVCache] | None = None,
) -> tuple[Episode, float, RolloutStats]:
    """Run the model as a policy for one episode; returns the realized
    episode, its total return, and the ``ModelActor``'s statistics."""
    rng = rng if rng is not None else np.random.default_rng(0)
    actor = ModelActor(state, env, cfg, rng, {} if prompt_kv is None else prompt_kv)
    episode = run_policy_episode(env, actor)
    return episode, episode.total_return, actor.stats


@dataclass
class EvalResult:
    returns: list[float]
    episodes: list[Episode] = field(default_factory=list)
    stats: list[RolloutStats] = field(default_factory=list)

    @property
    def mean_return(self) -> float:
        return float(np.mean(self.returns)) if self.returns else 0.0


def evaluate_policy(
    state: ModelState,
    env_factory,
    cfg: RolloutConfig,
    episodes: int,
    seed: int = 0,
) -> EvalResult:
    """Average the policy over repeated rollouts on freshly seeded envs; they
    share the prompt's keys and values."""
    rng = np.random.default_rng(seed)
    result = EvalResult(returns=[])
    prompt_kv: dict[int, KVCache] = {}
    for i in range(episodes):
        env = env_factory(seed + i)
        episode, ret, stats = rollout(state, env, cfg, rng, prompt_kv=prompt_kv)
        result.returns.append(ret)
        result.episodes.append(episode)
        result.stats.append(stats)
    return result
