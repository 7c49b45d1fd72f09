"""Deploy a trained model as a control policy.

The loop tokenizes each observation exactly as training did (same flattening
code path), appends a separator, samples the action tokens one at a time,
each conditioned on the context so far, decodes them by inverting the codec,
and steps the environment. The context is one element sequence: the prompt,
an episode of the env's own task, on timestep ids below zero, then each
observation and its action tokens. A prompt from another task is refused.
Truncation drops its oldest whole timesteps, so the local structure the
model saw during training survives.

Each rollout keeps one K/V cache of its context, so a forward pass embeds
and runs only the positions added since the last one; its last block runs
past keys and values only at the sampled position. A truncation changes
every deeper layer's keys and values, so it starts a new cache, from the
keys and values of the prompt elements still in the context: those depend
on the prompt and the weights alone, so an evaluation computes them once.

Sampled action tokens are range-masked to the legal token range of the
action schema (continuous bins or the discrete range), so illegal ids are
never emitted. Token id ``i`` is logit ``i``, so that range slices the logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import codec
from .codec import Modality, TensorSchema
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
    truncations: int = 0


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


def _with_actions(seq: ElementSequence, tokens: list[int]) -> ElementSequence:
    """``seq`` followed by action elements in its last timestep."""
    n = len(tokens)
    actions = ElementSequence(
        sources=np.full(n, ElementSource.ACTION, np.uint8),
        tokens=np.array(tokens, np.int32),
        local_pos=np.full(n, -1, np.int32),
        timestep=np.full(n, seq.timestep[-1], np.int32),
        task_id=seq.task_id,
    )
    return concat_sequences([seq, actions])


def _prompt_sequence(prompt: Episode, budget: int) -> ElementSequence:
    """The first ``budget`` prompt elements, on timestep ids below zero."""
    flat = flatten_episode(prompt).slice(0, budget)
    if len(flat):
        flat.timestep = prompt_timesteps(flat.timestep)
    return flat


def _drop_oldest_timesteps(
    seq: ElementSequence, limit: int, reserve: int, stats: RolloutStats
) -> ElementSequence:
    """Drop whole timesteps from the front of ``seq`` until ``reserve`` more
    elements fit in ``limit``."""
    starts = np.r_[0, np.flatnonzero(np.diff(seq.timestep)) + 1]
    fits = np.flatnonzero(len(seq) - starts + reserve <= limit)
    if fits.size == 0:
        raise ConfigError(
            f"a single timestep ({len(seq) - int(starts[-1])} elements + {reserve} action "
            f"tokens) exceeds the context window of {limit}"
        )
    drop = int(fits[0])
    stats.truncations += drop
    return seq.slice(int(starts[drop]), len(seq)) if drop else seq


def sample_action(
    state: ModelState,
    seq: ElementSequence,
    schema: TensorSchema,
    cfg: RolloutConfig,
    rng: np.random.Generator,
    stats: RolloutStats,
    cache: KVCache,
) -> tuple[ElementSequence, list[int]]:
    """One token at a time, each from one forward pass over the positions of
    ``seq`` that ``cache`` does not hold yet."""
    tokens = []
    for _ in range(schema.num_elements):
        stats.forward_passes += 1
        logits = forward_logits(
            state.params, state.cfg, assemble_batch([seq]),
            positions=np.array([len(seq) - 1]), cache=cache,
        )
        token = sample_token(logits[0], *legal_token_range(schema), cfg.temperature, rng)
        tokens.append(token)
        seq = _with_actions(seq, [token])
    return seq, tokens


def encode_action(value, schema: TensorSchema) -> list[int]:
    return codec.encode(value, schema)


def rollout(
    state: ModelState,
    env,
    cfg: RolloutConfig,
    rng: np.random.Generator | None = None,
    *,
    prompt_kv: dict[int, KVCache] | None = None,
) -> tuple[Episode, float, RolloutStats]:
    """Run the model as a policy for one episode; returns the realized
    episode, its total return, and per-rollout statistics. ``prompt_kv``
    maps ``n`` to a cache of the prompt's last ``n`` elements; only rollouts
    with the same params and prompt may share it.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    prompt_kv = {} if prompt_kv is None else prompt_kv
    schema = env.spec.action_schema
    limit = min(cfg.context, state.cfg.context)
    stats = RolloutStats()
    seq = None
    if cfg.prompt is not None:
        if cfg.prompt.task_id != env.task_id:
            raise ConfigError(f"prompt task {cfg.prompt.task_id!r} != env task {env.task_id!r}")
        seq = _prompt_sequence(cfg.prompt, cfg.prompt_budget)
        stats.prompted = True

    cache = None
    observations = env.reset()
    timesteps: list[Timestep] = []
    rewards: list[float] = []
    for t in range(env.spec.episode_length):
        step = _observation_fragment(env.task_id, observations, t)
        seq = step if seq is None else concat_sequences([seq, step])
        truncations = stats.truncations
        seq = _drop_oldest_timesteps(seq, limit, schema.num_elements, stats)
        fresh = cache is None or stats.truncations > truncations
        if fresh:  # a dropped timestep changes every deeper K/V, but not the prompt's
            n = int(np.count_nonzero(seq.timestep < 0))
            cache = replace(prompt_kv[n]) if n in prompt_kv else KVCache()
        seq, tokens = sample_action(state, seq, schema, cfg, rng, stats, cache)
        if fresh:
            prompt_kv.setdefault(n, cache.prefix(n))
        action = codec.decode(tokens, schema)
        next_observations, reward, done = env.step(action)
        timesteps.append(Timestep(observations=observations, action=(schema, action)))
        rewards.append(float(reward))
        stats.env_steps += 1
        observations = next_observations
        if done:
            break
    episode = Episode(task_id=env.task_id, timesteps=timesteps, rewards=rewards)
    return episode, episode.total_return, stats


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
