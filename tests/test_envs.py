import numpy as np
import pytest

from seqpolicy.corpora import (
    build_dataset,
    collect_episodes,
    run_policy_episode,
    synthetic_text_episodes,
)
from seqpolicy.datastore import LoadedDataset, read_episodes
from seqpolicy.envs import (
    GridReach,
    GridReachExpert,
    LineReacher,
    LineReacherExpert,
    TwoTaskBandit,
    TwoTaskBanditExpert,
    make_env,
    make_expert,
)
from seqpolicy.sequencer import episode_layout, flatten_episode, mask_of


class TestGridReach:
    def test_expert_always_scores_one(self):
        env = GridReach(seed=0)
        expert = GridReachExpert()
        for _ in range(50):
            ep = run_policy_episode(env, expert)
            assert ep.total_return == 1.0
            assert len(ep) <= GridReach.HORIZON

    def test_expert_is_shortest_path(self):
        env = GridReach(seed=1)
        expert = GridReachExpert()
        for _ in range(25):
            obs = env.reset()
            agent = int(obs["agent"][1])
            goal = int(obs["goal"][1])
            ar, ac = divmod(agent, 5)
            gr, gc = divmod(goal, 5)
            manhattan = abs(ar - gr) + abs(ac - gc)
            steps = 0
            done = False
            while not done:
                obs, reward, done = env.step(expert.act(obs))
                steps += 1
            assert steps == manhattan

    def test_invalid_action_wastes_step(self):
        env = GridReach(seed=2)
        env.reset()
        before = env._agent
        _, reward, _ = env.step(np.int64(7))
        assert env._agent == before and reward == 0.0

    def test_layout(self):
        ep = run_policy_episode(GridReach(seed=3), GridReachExpert())
        layout = episode_layout(ep)
        assert (layout.k, layout.m, layout.n, layout.A) == (0, 0, 2, 1)
        assert len(flatten_episode(ep)) == layout.total


class TestTwoTaskBandit:
    def test_expert_on_own_task(self):
        for variant in ("a", "b"):
            env = TwoTaskBandit(variant)
            ep = run_policy_episode(env, TwoTaskBanditExpert(variant))
            assert ep.total_return == 1.0
            assert len(ep) == 1

    def test_expert_on_opposite_task(self):
        env = TwoTaskBandit("b")
        ep = run_policy_episode(env, TwoTaskBanditExpert("a"))
        assert ep.total_return == 0.0

    def test_specs_identical_across_tasks(self):
        a, b = TwoTaskBandit("a"), TwoTaskBandit("b")
        assert a.spec == b.spec
        assert a.task_id != b.task_id


class TestLineReacher:
    def test_expert_final_distance(self):
        env = LineReacher(seed=0)
        expert = LineReacherExpert()
        distances = []
        for _ in range(200):
            ep = run_policy_episode(env, expert)
            distances.append(1.0 - ep.total_return)  # reward = 1 - min(1, |gap|)
        distances = np.array(distances)
        assert distances.max() < 0.05
        assert distances.mean() < 0.02

    def test_observation_companded(self):
        env = LineReacher(seed=1)
        schema = env.spec.observation_schemas["delta"]
        assert schema.compand
        assert not env.spec.action_schema.compand

    def test_reward_only_on_final_step(self):
        ep = run_policy_episode(LineReacher(seed=2), LineReacherExpert())
        assert all(r == 0.0 for r in ep.rewards[:-1])
        assert 0.0 <= ep.rewards[-1] <= 1.0


class TestRegistry:
    def test_make_env_names(self):
        for name in ("gridreach", "bandit_a", "bandit_b", "linereacher"):
            env = make_env(name, seed=0)
            expert = make_expert(name)
            ep = run_policy_episode(env, expert)
            assert ep.task_id == env.task_id

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_env("atari")


class TestCorpora:
    def test_collect_and_store(self, tmp_path):
        episodes = collect_episodes(GridReach(seed=4), GridReachExpert(), 5)
        manifest = build_dataset(tmp_path, "grid", episodes, weight=0.5)
        assert read_episodes(manifest.paths[0]) == episodes
        loaded = LoadedDataset(manifest)
        assert list(loaded.by_task) == ["gridreach"]

    def test_synthetic_text(self):
        eps = synthetic_text_episodes(4, seed=1)
        assert all(ep.task_id == "text" for ep in eps)
        seq = flatten_episode(eps[0])
        # text tokens are masked targets; the separator is not
        assert int(mask_of(seq.sources).sum()) == len(seq) - 1
        again = synthetic_text_episodes(4, seed=1)
        assert eps == again
