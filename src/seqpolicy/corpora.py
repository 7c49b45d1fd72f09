"""Toy corpus builders: scripted-expert experience and a synthetic text set."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .datastore import DatasetManifest, write_episodes
from .sequencer import Episode, Timestep

_WORDS = (
    "amber basin cedar delta ember fjord gully heron inlet jetty knoll larch "
    "mesa node oriole pylon quartz ridge slate tarn updraft vale wharf xenon "
    "yonder zephyr"
).split()


def run_policy_episode(env, actor) -> Episode:
    """Roll one episode with ``actor.act(observation_set) -> raw action``: the
    one loop that steps an env, for scripted experts and ``policy.ModelActor``."""
    obs = env.reset()
    timesteps: list[Timestep] = []
    rewards: list[float] = []
    action_schema = env.spec.action_schema
    for _ in range(env.spec.episode_length):
        action = actor.act(obs)
        next_obs, reward, done = env.step(action)
        timesteps.append(Timestep(observations=obs, action=(action_schema, action)))
        rewards.append(float(reward))
        obs = next_obs
        if done:
            break
    return Episode(task_id=env.task_id, timesteps=timesteps, rewards=rewards)


def collect_episodes(env, actor, count: int) -> list[Episode]:
    return [run_policy_episode(env, actor) for _ in range(count)]


def synthetic_text_episodes(count: int, seed: int = 0, words_per_doc: int = 8) -> list[Episode]:
    """Deterministic word-salad documents as single-timestep text episodes."""
    from .codec import TensorSchema

    rng = np.random.default_rng(seed)
    schema = TensorSchema.text("doc")
    episodes = []
    for _ in range(count):
        text = " ".join(rng.choice(_WORDS) for _ in range(words_per_doc))
        ts = Timestep(observations={"doc": (schema, text)})
        episodes.append(Episode(task_id="text", timesteps=[ts], rewards=[0.0]))
    return episodes


def build_dataset(
    out_dir, name: str, episodes: list[Episode], weight: float = 1.0
) -> DatasetManifest:
    """Write episodes to ``<out_dir>/<name>.ep`` and return its manifest entry."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.ep"
    write_episodes(episodes, path)
    return DatasetManifest(name=name, paths=[str(path)], sample_weight=weight)
