"""The paper's desk-scale claims, through ``pretrain`` and ``evaluate_policy``.

Every other gate compares a change with its parent. These check that the
system does what the paper says: a small model imitates a scripted expert,
a same-task prompt tells it which of two otherwise identical tasks it is
playing, and one set of weights trained on every built-in task plus text
plays them all. The imitation claim is also run end to end through the
command line. The thresholds sit below the worst of seeds 0-3; a change that
moves a result below them is investigated, not re-tuned.
"""

import json
from functools import partial

import numpy as np

from seqpolicy.cli import EXIT_OK, main
from seqpolicy.corpora import collect_episodes, run_policy_episode, synthetic_text_episodes
from seqpolicy.datastore import DatasetManifest, LoadedDataset, MixtureSampler
from seqpolicy.envs import (
    GridReach,
    GridReachExpert,
    TwoTaskBandit,
    TwoTaskBanditExpert,
    make_env,
    make_expert,
)
from seqpolicy.model import ModelState, tiny
from seqpolicy.policy import RolloutConfig, evaluate_policy
from seqpolicy.trainer import TrainConfig, pretrain

SEED = 0
# mean LineReacher return of a uniform-random policy and of the expert, over
# 50 env seeds from 5000
LINEREACHER_RANDOM, LINEREACHER_EXPERT = 0.25, 0.99


def _pretrained(datasets: dict, seq_len: int, prompt_probability: float, seed: int = SEED,
                model: dict | None = None, **schedule) -> ModelState:
    """A 2-block, width-64 model pretrained at batch 16 on these episodes,
    300 steps with warmup and decay unless ``schedule`` says otherwise."""
    cfg = tiny(blocks=2, width=64, ff_hidden=256, kv_size=16, context=seq_len, dropout=0.1,
               **(model or {}))
    loaded = [
        LoadedDataset(DatasetManifest(name=name, paths=[], sample_weight=1.0), episodes)
        for name, episodes in datasets.items()
    ]
    sampler = MixtureSampler(loaded, seq_len, np.random.default_rng(seed))
    train_cfg = TrainConfig(
        batch_size=16,
        seq_len=seq_len,
        prompt_probability=prompt_probability,
        checkpoint_every=0,
        lr_max=1e-3,
        **{"steps": 300, "warmup_steps": 30, "decay_steps": 270, **schedule},
    )
    return pretrain(sampler, ModelState.initialize(cfg, seed=seed), train_cfg).state


def test_imitation_solves_gridreach():
    episodes = collect_episodes(GridReach(seed=SEED), GridReachExpert(), 300)
    state = _pretrained({"grid": episodes}, seq_len=32, prompt_probability=0.25)
    result = evaluate_policy(state, lambda s: GridReach(seed=s), RolloutConfig(), 50, seed=1000)
    # reward 1.0 marks reaching the goal, so the mean return is the success rate
    assert np.mean(result.returns) >= 0.8


def test_cli_walkthrough_solves_gridreach(tmp_path, monkeypatch):
    """Expert rollouts, filter, pretrain and rollout, as the README runs them."""
    monkeypatch.chdir(tmp_path)
    assert main(["rollout", "--env", "gridreach", "--expert", "-n", "300", "--seed", str(SEED),
                 "--out", "corpus/grid"]) == EXIT_OK
    (tmp_path / "corpus" / "manifest.cfg").write_text(
        "[grid_expert]\npaths = grid/transcripts.ep\nweight = 1.0\n"
    )
    assert main(["filter", "--manifest", "corpus/manifest.cfg",
                 "--out", "corpus/filtered"]) == EXIT_OK
    scale = ("steps=300 batch_size=16 seq_len=32 warmup_steps=30 lr_max=1e-3 decay_steps=270 "
             "checkpoint_every=0 model.blocks=2 model.width=64 model.ff_hidden=256 "
             "model.kv_size=16 model.context=32")
    sets = [arg for item in scale.split() for arg in ("--set", item)]
    assert main(["pretrain", "--set", "manifest=corpus/filtered/manifest.cfg", *sets,
                 "--set", "out_dir=runs/grid", "--seed", str(SEED)]) == EXIT_OK
    assert main(["rollout", "--checkpoint", "runs/grid/final.ckpt", "--env", "gridreach",
                 "-n", "50", "--seed", "1000", "--out", "runs/rollout"]) == EXIT_OK
    summary = json.loads((tmp_path / "runs" / "rollout" / "rollout_summary.json").read_text())
    assert summary["mean_return"] >= 0.8


def test_prompt_selects_the_bandit_task():
    datasets = {
        f"bandit_{v}": collect_episodes(TwoTaskBandit(v), TwoTaskBanditExpert(v), 60) for v in "ab"
    }
    state = _pretrained(datasets, seq_len=16, prompt_probability=0.5)
    unprompted = []
    for v in "ab":
        make_env = partial(TwoTaskBandit, v)
        prompt = run_policy_episode(TwoTaskBandit(v), TwoTaskBanditExpert(v))
        prompted = evaluate_policy(state, make_env, RolloutConfig(prompt=prompt), 10, seed=2000)
        assert np.mean(prompted.returns) == 1.0, f"bandit_{v}"
        unprompted.append(np.mean(evaluate_policy(state, make_env, RolloutConfig(), 10).returns))
    # the observation is constant, so without a prompt one task is all it can solve
    assert sorted(unprompted) == [0.0, 1.0]


def _generalist_scores(seed: int = SEED) -> dict[str, float]:
    """Prompted mean returns of one model trained on every built-in task plus text.

    Its rollouts hold 32 elements, so the prompt leaves the context within a
    few steps and GridReach truncates often.
    """
    corpus = {"gridreach": 300, "linereacher": 200, "bandit_a": 60, "bandit_b": 60}
    datasets = {name: collect_episodes(make_env(name, seed), make_expert(name), count)
                for name, count in corpus.items()}
    datasets["text"] = synthetic_text_episodes(200, seed=seed)
    state = _pretrained(datasets, seq_len=32, prompt_probability=0.5, seed=seed,
                        model={"stochastic_depth": 0.0}, steps=1200, warmup_steps=0,
                        decay_factor=1.0, weight_decay=0.0)
    scores = {}
    for name, episodes in (("gridreach", 50), ("linereacher", 50), ("bandit_a", 10),
                           ("bandit_b", 10)):
        prompt = run_policy_episode(make_env(name, 999), make_expert(name))
        cfg = RolloutConfig(prompt=prompt, context=32)
        scores[name] = evaluate_policy(state, partial(make_env, name), cfg, episodes,
                                       seed=1000).mean_return
    return scores


def test_one_model_plays_every_task():
    scores = _generalist_scores()
    line = (scores["linereacher"] - LINEREACHER_RANDOM) / (LINEREACHER_EXPERT
                                                            - LINEREACHER_RANDOM)
    # LineReacher is reported, not gated: its worst seed sits close to random
    report = f"prompted mean returns {scores}; LineReacher normalized {line:.2f}"
    assert scores["gridreach"] >= 0.6, report
    assert scores["bandit_a"] == scores["bandit_b"] == 1.0, report
