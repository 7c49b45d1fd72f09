"""Deploy a trained model as a control policy.

The loop tokenizes each observation exactly as training did (same flattening
code path), appends a separator, samples the action tokens, decodes them by
inverting the codec, and steps the environment. The context is a sliding
window over the most recent elements; truncation only ever drops whole
timesteps, so the local structure the model saw during training survives.

Sampled action tokens are range-masked to the legal token range of the
action schema (continuous bins or the discrete range), so illegal ids are
never emitted. A legal id range is contiguous in the model's rows too
(``vocab_table``), so sampling runs on that row range and maps back to ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import codec
from .codec import Modality, TensorSchema
from .errors import ConfigError
from .model import ModelState, forward_logits, vocab_table
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
    sampling: str = "greedy"  # "greedy" or "temperature"
    temperature: float = 1.0
    action_mode: str = "autoregressive"  # or "parallel"
    context_timesteps: int | None = None  # low-latency mode: 1


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
    sampling: str,
    temperature: float,
    rng: np.random.Generator,
) -> int:
    """Pick one token id in [lo, hi) after renormalizing over that range."""
    sub = np.asarray(logits[lo:hi], dtype=np.float64)
    if sampling == "greedy" or (sampling == "temperature" and temperature <= 0.0):
        return lo + int(np.argmax(sub))
    if sampling != "temperature":
        raise ConfigError(f"unknown sampling mode {sampling!r}")
    z = sub / temperature
    z -= z.max()
    p = np.exp(z)
    p /= p.sum()
    return lo + int(rng.choice(hi - lo, p=p))


def _sample_ids(
    state: ModelState, logits: np.ndarray, schema: TensorSchema, cfg: RolloutConfig,
    rng: np.random.Generator,
) -> list[int]:
    """One legal token id per logits row: sampled over the rows holding the
    schema's legal ids, then mapped back to ids."""
    ids = vocab_table(state.cfg.vocab)[0]
    lo, hi = (int(r) for r in np.searchsorted(ids, legal_token_range(schema)))
    return [
        int(ids[sample_token(row, lo, hi, cfg.sampling, cfg.temperature, rng)]) for row in logits
    ]


def _observation_fragment(task_id: str, observations, timestep_id: int) -> ElementSequence:
    """Flatten one observation set plus separator, exactly as training does."""
    ep = Episode(task_id=task_id, timesteps=[Timestep(observations=observations)], rewards=[0.0])
    frag = flatten_episode(ep)
    frag.timestep[:] = timestep_id
    return frag


def _action_element(token: int, timestep_id: int, task_id: str) -> ElementSequence:
    return ElementSequence(
        sources=np.array([ElementSource.ACTION], np.uint8),
        tokens=np.array([token], np.int32),
        local_pos=np.array([-1], np.int32),
        timestep=np.array([timestep_id], np.int32),
        task_id=task_id,
    )


def _prompt_fragments(prompt: Episode, budget: int, task_id: str) -> list[ElementSequence]:
    flat = flatten_episode(prompt)
    flat = flat.slice(0, min(budget, len(flat)))
    if len(flat) == 0:
        return []
    flat.timestep = prompt_timesteps(flat.timestep)
    flat.task_id = task_id
    fragments = []
    boundaries = np.nonzero(np.diff(flat.timestep))[0] + 1
    start = 0
    for stop in list(boundaries) + [len(flat)]:
        fragments.append(flat.slice(start, int(stop)))
        start = int(stop)
    return fragments


class _Context:
    """Timestep-granular sliding window of sequence fragments."""

    def __init__(self, limit: int):
        self.limit = limit
        self.fragments: list[ElementSequence] = []
        self.truncations = 0

    def total(self) -> int:
        return sum(len(f) for f in self.fragments)

    def append(self, frag: ElementSequence) -> None:
        self.fragments.append(frag)

    def extend_last(self, frag: ElementSequence) -> None:
        self.fragments[-1] = concat_sequences([self.fragments[-1], frag])

    def enforce(self, reserve: int = 0, keep_timesteps: int | None = None) -> None:
        if keep_timesteps is not None and len(self.fragments) > keep_timesteps:
            self.truncations += len(self.fragments) - keep_timesteps
            self.fragments = self.fragments[-keep_timesteps:]
        while self.total() + reserve > self.limit and len(self.fragments) > 1:
            self.fragments.pop(0)
            self.truncations += 1
        if self.total() + reserve > self.limit:
            raise ConfigError(
                f"a single timestep ({self.total()} elements + {reserve} action tokens) "
                f"exceeds the context window of {self.limit}"
            )

    def sequence(self) -> ElementSequence:
        return concat_sequences(self.fragments)


def _logits_at(
    state: ModelState, seq: ElementSequence, positions: np.ndarray, stats: RolloutStats
) -> np.ndarray:
    """(len(positions), cfg.vocab) logits from one forward pass over ``seq``."""
    stats.forward_passes += 1
    return forward_logits(state.params, state.cfg, assemble_batch([seq]), positions=positions)


def sample_action_autoregressive(
    state: ModelState,
    context: _Context,
    schema: TensorSchema,
    cfg: RolloutConfig,
    rng: np.random.Generator,
    timestep_id: int,
    stats: RolloutStats,
) -> list[int]:
    """One token at a time, each conditioned on everything sampled so far."""
    tokens = []
    for _ in range(schema.num_elements):
        seq = context.sequence()
        logits = _logits_at(state, seq, np.array([len(seq) - 1]), stats)
        [token] = _sample_ids(state, logits, schema, cfg, rng)
        tokens.append(token)
        context.extend_last(_action_element(token, timestep_id, context.fragments[-1].task_id))
    return tokens


def sample_action_parallel(
    state: ModelState,
    context: _Context,
    schema: TensorSchema,
    cfg: RolloutConfig,
    rng: np.random.Generator,
    timestep_id: int,
    stats: RolloutStats,
) -> list[int]:
    """All action tokens from a single forward pass over zeroed placeholders.

    :func:`rollout` has already refused a model without ``zero_action_inputs``.
    """
    count = schema.num_elements
    task_id = context.fragments[-1].task_id
    for _ in range(count):
        context.extend_last(_action_element(0, timestep_id, task_id))
    seq = context.sequence()
    # the separator and all but the last placeholder feed the action slots
    logits = _logits_at(state, seq, np.arange(len(seq) - 1 - count, len(seq) - 1), stats)
    tokens = _sample_ids(state, logits, schema, cfg, rng)
    context.fragments[-1].tokens[-count:] = tokens
    return tokens


def decode_action(tokens: list[int], schema: TensorSchema):
    return codec.decode(tokens, schema)


def encode_action(value, schema: TensorSchema) -> list[int]:
    return codec.encode(value, schema)


def rollout(
    state: ModelState,
    env,
    cfg: RolloutConfig,
    rng: np.random.Generator | None = None,
) -> tuple[Episode, float, RolloutStats]:
    """Run the model as a policy for one episode; returns the realized
    episode, its total return, and per-rollout statistics."""
    rng = rng if rng is not None else np.random.default_rng(0)
    if cfg.action_mode not in ("autoregressive", "parallel"):
        raise ConfigError(f"unknown action_mode {cfg.action_mode!r}")
    if cfg.action_mode == "parallel" and not state.cfg.zero_action_inputs:
        raise ConfigError(
            "parallel action sampling needs a model trained with zero_action_inputs"
        )
    schema = env.spec.action_schema
    reserve = schema.num_elements
    stats = RolloutStats()
    context = _Context(limit=min(cfg.context, state.cfg.context))
    if cfg.prompt is not None:
        for frag in _prompt_fragments(cfg.prompt, cfg.prompt_budget, env.task_id):
            context.append(frag)
        stats.prompted = True

    sampler = (
        sample_action_autoregressive
        if cfg.action_mode == "autoregressive"
        else sample_action_parallel
    )
    observations = env.reset()
    timesteps: list[Timestep] = []
    rewards: list[float] = []
    for t in range(env.spec.episode_length):
        context.append(_observation_fragment(env.task_id, observations, t))
        context.enforce(reserve=reserve, keep_timesteps=cfg.context_timesteps)
        tokens = sampler(state, context, schema, cfg, rng, t, stats)
        action = decode_action(tokens, schema)
        next_observations, reward, done = env.step(action)
        timesteps.append(Timestep(observations=observations, action=(schema, action)))
        rewards.append(float(reward))
        stats.env_steps += 1
        observations = next_observations
        if done:
            break
    stats.truncations = context.truncations
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
    """Average the policy over repeated rollouts on freshly seeded envs."""
    rng = np.random.default_rng(seed)
    result = EvalResult(returns=[])
    for i in range(episodes):
        env = env_factory(seed + i)
        episode, ret, stats = rollout(state, env, cfg, rng)
        result.returns.append(ret)
        result.episodes.append(episode)
        result.stats.append(stats)
    return result
