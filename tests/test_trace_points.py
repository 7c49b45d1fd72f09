"""Every function the benchmark's tracer wraps still exists where it looks.

``perfbench/bench_trace.py`` wraps ``owner.__dict__[attr]`` for each trace
point, so a rename in the program breaks a traced benchmark run. This test
reads that table and fails on the rename instead. A name that stays imported
but is no longer called would silently zero the benchmark's numbers, so the
second episode of a traced evaluation, which reuses the prompt's keys and
values, must also reach every ``policy`` trace point, flattening and
action decoding every ``codec`` one, and a pretrain and a finetune step every
``trainer`` one.
"""

import importlib.util
from pathlib import Path

import numpy as np

from seqpolicy import model as M
from seqpolicy.codec import TensorSchema
from seqpolicy.corpora import collect_episodes, run_policy_episode
from seqpolicy.datastore import DatasetManifest, LoadedDataset, MixtureSampler
from seqpolicy.envs import GridReach, GridReachExpert
from seqpolicy.policy import RolloutConfig
from seqpolicy.sequencer import flatten_episode

from conftest import micro_cfg, rich_episode

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _bench_trace():
    spec = importlib.util.spec_from_file_location("_bench_trace_points", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    return bench_trace


def _call_recorder(bench_trace):
    """A tracer that also records the name of each wrapped function it ran.

    Some trace points share a span name, so spans alone cannot tell which of
    them ran.
    """

    class CallRecorder(bench_trace.Tracer):
        def __init__(self):
            super().__init__()
            self.called = set()

        def wrap(self, original, name):
            traced = super().wrap(original, name)

            def recorded(*args, **kwargs):
                self.called.add(original.__name__)
                return traced(*args, **kwargs)

            return recorded

    return CallRecorder()


def test_every_trace_point_resolves():
    bench_trace = _bench_trace()
    assert bench_trace.TRACE_POINTS
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in bench_trace.TRACE_POINTS
        if not callable(vars(owner).get(attr))
    ]
    assert not missing, f"trace points that no longer resolve: {missing}"


def test_prompted_rollout_reaches_every_policy_trace_point(monkeypatch):
    """The second episode of an evaluation starts from the prompt keys and
    values the first one stored, and still reaches every trace point."""
    bench_trace = _bench_trace()
    policy = bench_trace.policy
    cfg = micro_cfg(context=64)
    state = M.ModelState(cfg, M.init_params(cfg, seed=1), M.RngStreams(0))
    prompt = run_policy_episode(GridReach(seed=2), GridReachExpert())
    embedded = []
    real_embed = M.network.embed_batch

    def spy(params, cfg, batch, *args):
        embedded.append(batch.tokens.size)
        return real_embed(params, cfg, batch, *args)

    monkeypatch.setattr(M.network, "embed_batch", spy)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        result = policy.evaluate_policy(state, GridReach, RolloutConfig(prompt=prompt), 2, seed=3)
    finally:
        tracer.uninstall()
    assert embedded[result.stats[0].forward_passes] < embedded[0]  # the prompt is not re-run
    second = [i for i, span in enumerate(tracer.spans) if span[0] == "policy.rollout"][1]

    def in_second(i):
        while i is not None and i != second:
            i = tracer.spans[i][3]
        return i == second

    recorded = {span[0] for i, span in enumerate(tracer.spans) if in_second(i)}
    expected = {name for owner, _, name in bench_trace.TRACE_POINTS if owner is policy}
    assert len(expected) == 6
    assert not expected - recorded, f"trace points never reached: {expected - recorded}"


def test_flatten_and_decode_reach_every_codec_trace_point():
    bench_trace = _bench_trace()
    codec = bench_trace.codec
    discrete = TensorSchema.discrete("a", (2,), is_action=True)
    continuous = TensorSchema.continuous("b", (2,), (-1.0, 1.0), is_action=True)
    tracer = _call_recorder(bench_trace)
    tracer.install()
    try:
        flatten_episode(rich_episode())
        codec.decode([3, 7], discrete)
        codec.decode([1024, 2047], continuous)
    finally:
        tracer.uninstall()
    expected = {attr for owner, attr, _ in bench_trace.TRACE_POINTS if owner is codec}
    assert len(expected) == 6
    assert not expected - tracer.called, f"trace points never reached: {expected - tracer.called}"


def test_training_reaches_every_trainer_trace_point():
    """Flattening runs inside the trace because the datasets flatten when they load."""
    bench_trace = _bench_trace()
    trainer = bench_trace.trainer
    cfg = micro_cfg(context=64, stochastic_depth=0.1, dropout=0.1)
    episodes = collect_episodes(GridReach(seed=2), GridReachExpert(), 4)

    def sampler():
        ds = LoadedDataset(DatasetManifest(name="grid", paths=[], sample_weight=1.0), episodes)
        return MixtureSampler([ds], seq_len=32, rng=np.random.default_rng(0))

    tracer = _call_recorder(bench_trace)
    tracer.install()
    try:
        state = M.ModelState(cfg, M.init_params(cfg, seed=1), M.RngStreams(0))
        trainer.pretrain(sampler(), state, trainer.TrainConfig(
            steps=1, batch_size=4, seq_len=32, prompt_probability=0.5, checkpoint_every=0))
        trainer.finetune(state, sampler(), trainer.FinetuneConfig(
            steps=1, batch_size=4, seq_len=32, prompt_probability=0.5, eval_every=0))
    finally:
        tracer.uninstall()
    expected = {attr for owner, attr, _ in bench_trace.TRACE_POINTS if owner is trainer}
    assert len(expected) == 7
    expected |= {"draw", "flatten_episode"}
    assert not expected - tracer.called, f"trace points never reached: {expected - tracer.called}"
