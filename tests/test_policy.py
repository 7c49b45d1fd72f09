import hashlib
import itertools

import numpy as np
import pytest

from seqpolicy import policy
from seqpolicy import codec
from seqpolicy.codec import CONTINUOUS_BASE, CONTINUOUS_END, VOCAB_SIZE, TensorSchema
from seqpolicy.corpora import run_policy_episode
from seqpolicy.envs import (
    ENV_NAMES,
    GridReach,
    GridReachExpert,
    LineReacher,
    make_env,
    make_expert,
)
from seqpolicy.errors import ConfigError
from seqpolicy.model import KVCache, ModelConfig, ModelState, RngStreams, init_params
from seqpolicy.model import network
from seqpolicy.policy import ModelActor, RolloutConfig, evaluate_policy, rollout, sample_token
from seqpolicy.sequencer import (
    ElementSequence,
    ElementSource,
    assemble_batch,
    flatten_episode,
    mask_of,
    targets_of,
)

from conftest import MIXED_LEN, build_layout_episode, micro_cfg, mixed_items


def tiny_state(**overrides):
    base = dict(
        blocks=2,
        heads=2,
        width=32,
        ff_hidden=64,
        kv_size=8,
        context=128,
        local_pos_table=32,
        stochastic_depth=0.0,
        dropout=0.0,
    )
    base.update(overrides)
    return ModelState.initialize(ModelConfig(**base), seed=0)


class TestSampleToken:
    def test_temperature_zero_is_argmax(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=40_000)
        lo, hi = 100, 1100
        assert sample_token(logits, lo, hi, 0.0, rng) == lo + int(np.argmax(logits[lo:hi]))

    def test_range_masking_continuous(self):
        rng = np.random.default_rng(1)
        schema = TensorSchema.continuous("a", (1,), (-1.0, 1.0), is_action=True)
        lo, hi = policy.legal_token_range(schema)
        assert (lo, hi) == (CONTINUOUS_BASE, CONTINUOUS_END)
        for _ in range(200):
            logits = rng.normal(size=VOCAB_SIZE) * 5
            tok = sample_token(logits, lo, hi, 1.0, rng)
            assert CONTINUOUS_BASE <= tok < CONTINUOUS_END

    def test_range_masking_discrete(self):
        rng = np.random.default_rng(2)
        schema = TensorSchema.discrete("a", (), is_action=True)
        lo, hi = policy.legal_token_range(schema)
        assert (lo, hi) == (0, 1024)
        for _ in range(200):
            logits = rng.normal(size=VOCAB_SIZE) * 5
            tok = sample_token(logits, lo, hi, 1.0, rng)
            assert 0 <= tok < 1024


def _spy_batches(monkeypatch):
    """The list of every sequence ``rollout`` hands to ``assemble_batch``."""
    seen = []
    real = policy.assemble_batch

    def spy(items):
        seen.extend(item.slice(0, len(item)) for item in items)
        return real(items)

    monkeypatch.setattr(policy, "assemble_batch", spy)
    return seen


class _FixedVectorEnv:
    """A=3 continuous action; used for forward-pass counting."""

    task_id = "vector"

    def __init__(self, seed=0):
        from seqpolicy.envs import EnvSpec

        self._obs_schema = TensorSchema.continuous("state", (2,), (-1.0, 1.0))
        self.spec = EnvSpec(
            observation_schemas={"state": self._obs_schema},
            action_schema=TensorSchema.continuous("cmd", (3,), (-1.0, 1.0), is_action=True),
            episode_length=2,
            reward_range=(0.0, 1.0),
        )
        self._steps = 0

    def reset(self):
        self._steps = 0
        return {"state": (self._obs_schema, np.zeros(2))}

    def step(self, action):
        self._steps += 1
        return (
            {"state": (self._obs_schema, np.zeros(2))},
            0.0,
            self._steps >= self.spec.episode_length,
        )


def _timesteps(*lengths: int) -> ElementSequence:
    """A sequence of timesteps with these element counts, ids from 0."""
    ids = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    return ElementSequence(
        sources=np.full(ids.size, ElementSource.TENSOR, np.uint8),
        tokens=np.arange(ids.size, dtype=np.int32),
        local_pos=np.zeros(ids.size, np.int32),
        timestep=ids,
    )


class TestDropOldestTimesteps:
    def test_a_fitting_context_is_kept(self):
        seq, stats = _timesteps(4, 4, 3), policy.RolloutStats()
        assert policy._drop_oldest_timesteps(seq, 12, 1, stats) is seq
        assert stats.truncations == 0

    def test_overflow_drops_to_half_the_window(self):
        seq, stats = _timesteps(4, 4, 4, 4, 3), policy.RolloutStats()
        kept = policy._drop_oldest_timesteps(seq, 16, 1, stats)
        # 19 elements + 1 reserve overflow 16; the newest two timesteps and
        # the reserve fill 8 = 16 // 2, and one more timestep would not fit
        assert len(kept) + 1 <= 8 < len(kept) + 1 + 4
        assert np.array_equal(kept.tokens, seq.tokens[12:])
        assert np.array_equal(kept.timestep, [3] * 4 + [4] * 3)
        assert stats.truncations == 3

    def test_newest_timestep_alone_when_it_needs_more_than_half(self):
        seq, stats = _timesteps(4, 4, 6), policy.RolloutStats()
        # 14 + 2 overflow 12; the last two timesteps would fit in 12, but
        # the newest alone already needs 8 > 6
        kept = policy._drop_oldest_timesteps(seq, 12, 2, stats)
        assert np.array_equal(kept.tokens, seq.tokens[8:])
        assert stats.truncations == 2


class TestRollout:
    def test_one_token_sampled_per_step_single_action(self):
        state = tiny_state()
        env = GridReach(seed=0)
        episode, _, stats = rollout(state, env, RolloutConfig(temperature=0.0))
        # A=1: exactly one forward pass per environment step
        assert stats.forward_passes == stats.env_steps == len(episode)

    def test_one_forward_pass_per_action_token(self):
        episode, _, stats = rollout(tiny_state(), _FixedVectorEnv(), RolloutConfig())
        # A=3: one forward pass per action token
        assert stats.forward_passes == 3 * stats.env_steps
        assert episode.timesteps[0].action[1].shape == (3,)

    def test_greedy_rollout_deterministic(self):
        state = tiny_state()
        ep1, r1, _ = rollout(state, GridReach(seed=5), RolloutConfig())
        ep2, r2, _ = rollout(state, GridReach(seed=5), RolloutConfig())
        assert r1 == r2
        assert ep1 == ep2

    def test_action_tokens_reencode_identically(self):
        state = tiny_state()
        env = LineReacher(seed=3)
        episode, _, _ = rollout(state, env, RolloutConfig())
        for ts in episode.timesteps:
            schema, value = ts.action
            tokens = policy.encode_action(value, schema)
            assert codec.decode(tokens, schema).tolist() == np.asarray(value).tolist()

    def test_deployment_layout_matches_training(self, monkeypatch):
        state = tiny_state()
        seen = _spy_batches(monkeypatch)
        episode, _, _ = rollout(state, GridReach(seed=7), RolloutConfig())
        # the last context the model sees is the episode up to its final action
        trained_view = flatten_episode(episode).slice(0, -1)
        live = seen[-1]
        assert np.array_equal(live.sources, trained_view.sources)
        assert np.array_equal(live.tokens, trained_view.tokens)
        assert np.array_equal(live.local_pos, trained_view.local_pos)
        assert np.array_equal(live.timestep, trained_view.timestep)

    def test_truncation_at_timestep_granularity(self):
        # context big enough for ~3 gridreach timesteps (4 elements each)
        state = tiny_state()
        env = GridReach(seed=8)
        episode, _, stats = rollout(state, env, RolloutConfig(context=13))
        assert stats.truncations > 0
        assert len(episode) > 3  # kept rolling after truncation began

    def test_single_timestep_overflow_rejected(self):
        state = tiny_state()
        with pytest.raises(ConfigError):
            rollout(state, GridReach(seed=0), RolloutConfig(context=3))

    def test_benchmark_shape_rebuilds_twice_per_episode(self):
        """Context 64 and a 32-element prompt, as perfbench's GridReach rollout:
        dropping one timestep per overflow rebuilt on 12 of the 20 steps."""
        prompt = run_policy_episode(GridReach(seed=142), GridReachExpert())
        assert len(flatten_episode(prompt)) >= 32  # 8 timesteps of 4 elements
        cfg = RolloutConfig(prompt=prompt, prompt_budget=32, context=64)
        _, _, stats = rollout(tiny_state(), GridReach(seed=3), cfg)
        assert (stats.env_steps, stats.rebuilds, stats.truncations) == (20, 2, 18)

    def test_prompt_prepended_and_budgeted(self, monkeypatch):
        state = tiny_state()
        demo = run_policy_episode(GridReach(seed=9), GridReachExpert())
        seen = _spy_batches(monkeypatch)
        _, _, stats = rollout(state, GridReach(seed=9), RolloutConfig(prompt=demo, prompt_budget=6))
        assert stats.prompted
        first = seen[0]
        prompt = first.timestep < 0
        assert np.count_nonzero(prompt) == 6 and prompt[:6].all()
        assert np.array_equal(first.tokens[:6], flatten_episode(demo).tokens[:6])
        assert (first.timestep[6:] == 0).all()

    def test_prompt_of_another_task_rejected(self):
        demo = run_policy_episode(make_env("bandit_b", 9), make_expert("bandit_b"))
        with pytest.raises(ConfigError, match="prompt task 'bandit_b' != env task 'bandit_a'"):
            rollout(tiny_state(), make_env("bandit_a", 9), RolloutConfig(prompt=demo))

    @pytest.mark.parametrize(
        "bad", [{"prompt_budget": -3}, {"temperature": -1.0}, {"temperature": -0.5},
                {"temperature": float("nan")}, {"context": 0}, {"context": -3}]
    )
    def test_bad_config_rejected(self, bad):
        with pytest.raises(ConfigError):
            RolloutConfig(**bad)

    def test_temperature_zero_is_greedy(self):
        state = tiny_state()
        episodes = [
            rollout(state, GridReach(seed=5), cfg, np.random.default_rng(seed))[0]
            for cfg, seed in ((RolloutConfig(temperature=0.0), 1), (RolloutConfig(), 2))
        ]
        tokens = [flatten_episode(ep).tokens for ep in episodes]
        assert np.array_equal(tokens[0], tokens[1])

    def test_model_actor_in_the_episode_loop_is_rollout(self):
        state = tiny_state()
        prompt = run_policy_episode(GridReach(seed=99), GridReachExpert())
        cfg = RolloutConfig(prompt=prompt, prompt_budget=6, context=13, temperature=0.7)
        episode, ret, stats = rollout(state, GridReach(seed=4), cfg, np.random.default_rng(1))
        env = GridReach(seed=4)
        actor = ModelActor(state, env, cfg, np.random.default_rng(1), {})
        assert run_policy_episode(env, actor) == episode
        assert actor.stats == stats
        assert stats.prompted and stats.truncations and ret == episode.total_return

    def test_evaluate_policy_mean(self):
        state = tiny_state()
        result = evaluate_policy(state, lambda s: GridReach(seed=s), RolloutConfig(), episodes=4)
        assert result.mean_return == pytest.approx(float(np.mean(result.returns)))
        assert len(result.episodes) == 4


# Each of 32 rollouts is hashed on its own: its actions, return and
# (forward_passes, env_steps, prompted, truncations), plus the integer arrays
# and positions of every batch the model is asked for logits on. Logits stay
# out, so the BLAS build cannot move it. The cases whose context never
# overflows fold into NO_OVERFLOW_DIGEST, which no change to what an overflow
# drops can move; the truncating ones fold into ROLLOUT_DIGEST, re-pinned when
# an overflow began dropping the context to half its window.
NO_OVERFLOW_DIGEST = "9bfebb0bf5d0e8c02986bbbe1840b347ece5f1889be6b0eb1fc47828c2342514"
ROLLOUT_DIGEST = "2cf8838683d53e5c0eccdb5bcd694a80f27fadeb0c1fde4a9c2c5d2b4727b854"
DIGEST_CASES = {"no_overflow": 24, "overflow": 8}


def _rollout_grid_digests(monkeypatch) -> dict[str, tuple[int, str]]:
    """Case count and SHA-256 of the grid's rollouts, split by whether they truncated."""
    case = hashlib.sha256()
    real_forward = policy.forward_logits

    def recording_forward(params, cfg, batch, positions=None, **kwargs):
        derived = {"mask": mask_of(batch.sources),
                   "targets": targets_of(batch.sources, batch.tokens)}
        for name in ("tokens", "sources", "local_pos", "mask", "targets", "segments"):
            arr = derived[name] if name in derived else getattr(batch, name)
            case.update(name.encode() + arr.dtype.str.encode() + repr(arr.shape).encode())
            case.update(arr.tobytes())
        case.update(np.asarray(positions, np.int64).tobytes())
        return real_forward(params, cfg, batch, positions=positions, **kwargs)

    monkeypatch.setattr(policy, "forward_logits", recording_forward)
    cfg = micro_cfg(width=32, kv_size=16, context=128, local_pos_table=32)
    state = ModelState(cfg, init_params(cfg, seed=5, dtype=np.float64), RngStreams(0))
    prompts = {
        name: run_policy_episode(make_env(name, seed=99), make_expert(name)) for name in ENV_NAMES
    }
    groups = {"no_overflow": [0, hashlib.sha256()], "overflow": [0, hashlib.sha256()]}
    for env_name, prompted, context, temperature in itertools.product(
        ENV_NAMES, (False, True), (1024, 12), (0.0, 0.7)
    ):
        case = hashlib.sha256()
        rcfg = RolloutConfig(
            prompt=prompts[env_name] if prompted else None, context=context,
            temperature=temperature,
        )
        episode, ret, stats = rollout(
            state, make_env(env_name, seed=3), rcfg, np.random.default_rng(8)
        )
        actions = [np.asarray(ts.action[1]).tolist() for ts in episode.timesteps]
        counts = (stats.forward_passes, stats.env_steps, stats.prompted, stats.truncations)
        case.update(repr((actions, ret, counts)).encode())
        group = groups["overflow" if stats.truncations else "no_overflow"]
        group[0] += 1
        group[1].update(case.digest())
    return {name: (n, h.hexdigest()) for name, (n, h) in groups.items()}


def test_no_overflow_rollout_digest(monkeypatch):
    """Rollouts that never truncate run exactly the passes they always did."""
    count, digest = _rollout_grid_digests(monkeypatch)["no_overflow"]
    assert count == DIGEST_CASES["no_overflow"]
    assert digest == NO_OVERFLOW_DIGEST


def test_rollout_golden_digest(monkeypatch):
    count, digest = _rollout_grid_digests(monkeypatch)["overflow"]
    assert count == DIGEST_CASES["overflow"]
    assert digest == ROLLOUT_DIGEST


# Bounds on the largest |cached - uncached| logit gap, relative to the largest
# |uncached| logit.
CACHE_RTOL = {np.float64: 1e-12, np.float32: 16 * float(np.finfo(np.float32).eps)}


def _digest_state(dtype):
    cfg = micro_cfg(width=32, kv_size=16, context=128, local_pos_table=32)
    return ModelState(cfg, init_params(cfg, seed=5, dtype=dtype), RngStreams(0))


def _relative_gap(cached, plain):
    return float(np.abs(cached - plain).max() / np.abs(plain).max())


def _all_positions(params, cfg, batch, positions):
    """Logits at ``positions`` taken from a pass that runs every position
    through every block: the reference for passes that prune."""
    return network.forward_logits(params, cfg, batch)[np.arange(batch.batch_size), positions]


def _check_every_pass(monkeypatch):
    """The list of each pass's cached-vs-uncached relative gap; each pass of a
    rollout also runs without its cache, over all positions of the same batch."""
    gaps = []
    real = policy.forward_logits

    def checking(params, cfg, batch, positions=None, cache=None):
        assert cache is not None
        cached = real(params, cfg, batch, positions=positions, cache=cache)
        gaps.append(_relative_gap(cached, _all_positions(params, cfg, batch, positions)))
        return cached

    monkeypatch.setattr(policy, "forward_logits", checking)
    return gaps


class TestKVCache:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("context", [1024, 12])
    @pytest.mark.parametrize("prompted", [False, True])
    @pytest.mark.parametrize("env_name", ENV_NAMES)
    def test_cached_logits_match_uncached(self, monkeypatch, env_name, prompted, context, dtype):
        prompt = (
            run_policy_episode(make_env(env_name, seed=99), make_expert(env_name))
            if prompted else None
        )
        gaps = _check_every_pass(monkeypatch)
        # later episodes start from the prompt keys and values of earlier ones
        result = evaluate_policy(
            _digest_state(dtype), lambda s: make_env(env_name, seed=s),
            RolloutConfig(prompt=prompt, context=context), episodes=3, seed=3,
        )
        assert len(gaps) == sum(s.forward_passes for s in result.stats)
        assert max(gaps) <= CACHE_RTOL[dtype]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_cached_logits_match_uncached_three_token_actions(self, monkeypatch, dtype):
        gaps = _check_every_pass(monkeypatch)
        _, _, stats = rollout(_digest_state(dtype), _FixedVectorEnv(), RolloutConfig())
        assert len(gaps) == stats.forward_passes == 6
        assert max(gaps) <= CACHE_RTOL[dtype]

    def test_patches_in_the_tail_embed_at_their_slots(self):
        cfg = micro_cfg(context=64)
        params = init_params(cfg, seed=2, dtype=np.float64)
        seq = flatten_episode(build_layout_episode(6, text_len=2, patch_grid=(2, 2), seed=3))
        cache = KVCache()
        assert len(seq) == 48  # 2 text ids, 4 patches, separator and action per step
        # uneven steps put cache boundaries before, inside and after patch runs
        for end in (3, 4, 9, 10, 17, 18, 19, 26, 33, 45, 48):
            batch = assemble_batch([seq.slice(0, end)])
            cached = network.forward_logits(params, cfg, batch, np.array([end - 1]), cache)
            plain = _all_positions(params, cfg, batch, np.array([end - 1]))
            assert cache.length == end
            assert _relative_gap(cached, plain) <= CACHE_RTOL[np.float64]

    def test_each_position_embedded_once(self, monkeypatch):
        embedded = []
        real = network.embed_batch

        def spy(params, cfg, batch, *args):
            embedded.append(batch.tokens.size)
            return real(params, cfg, batch, *args)

        monkeypatch.setattr(network, "embed_batch", spy)
        demo = run_policy_episode(LineReacher(seed=9), make_expert("linereacher"))
        result = evaluate_policy(
            tiny_state(), LineReacher, RolloutConfig(prompt=demo, prompt_budget=30),
            episodes=3, seed=3,
        )
        assert not any(s.truncations for s in result.stats)
        assert len(embedded) == sum(s.forward_passes for s in result.stats)
        # the prompt is embedded once per evaluation; each episode's last
        # action token is sampled, never embedded
        assert sum(embedded) == 30 + sum(len(flatten_episode(ep)) - 1 for ep in result.episodes)

    def test_shared_prompt_kv_is_never_written(self, monkeypatch):
        """Each rollout of an evaluation reads the entries the earlier ones stored."""
        stored = {}
        real = policy.rollout

        def snapshot(*args, prompt_kv):
            out = real(*args, prompt_kv=prompt_kv)
            for n, entry in prompt_kv.items():
                arrays = [a for kv in entry.kv for a in kv]
                arrays += [entry.tokens, entry.sources, entry.local_pos]
                stored.setdefault(n, (arrays, [a.tobytes() for a in arrays]))
            return out

        monkeypatch.setattr(policy, "rollout", snapshot)
        prompt = run_policy_episode(GridReach(seed=99), GridReachExpert())
        result = evaluate_policy(_digest_state(np.float32), GridReach,
                                 RolloutConfig(prompt=prompt, context=12), episodes=3, seed=3)
        assert all(s.truncations for s in result.stats) and len(stored) > 1
        for arrays, before in stored.values():
            assert [a.tobytes() for a in arrays] == before

    def test_shared_prompt_entries_own_their_memory(self, monkeypatch):
        """Each entry is a copy of its source cache's first ``n`` positions,
        so it keeps none of the whole-context arrays alive."""
        cuts = []
        real_prefix = KVCache.prefix

        def spy(cache, n):
            entry = real_prefix(cache, n)
            cuts.append((entry, [a for kv in cache.kv for a in kv],
                         [cache.tokens, cache.sources, cache.local_pos]))
            return entry

        shared = []
        real_rollout = policy.rollout

        def keep(*args, prompt_kv):
            shared.append(prompt_kv)
            return real_rollout(*args, prompt_kv=prompt_kv)

        monkeypatch.setattr(KVCache, "prefix", spy)
        monkeypatch.setattr(policy, "rollout", keep)
        prompt = run_policy_episode(GridReach(seed=99), GridReachExpert())
        evaluate_policy(_digest_state(np.float32), GridReach,
                        RolloutConfig(prompt=prompt, context=12), episodes=3, seed=3)
        prompt_kv = shared[0]
        stored = [(n, cut) for n, entry in prompt_kv.items() for cut in cuts if cut[0] is entry]
        assert len(stored) == len(prompt_kv) > 1
        for n, (entry, kv, per_position) in stored:
            arrays = [a for pair in entry.kv for a in pair]
            assert all(a.base is None for a in arrays + [entry.tokens, entry.sources,
                                                         entry.local_pos])
            for a, whole in zip(arrays, kv, strict=True):
                assert np.array_equal(a, whole[:, :, :n])
            for a, whole in zip((entry.tokens, entry.sources, entry.local_pos), per_position):
                assert np.array_equal(a, whole[:n])

    def test_sampled_rows_of_a_packed_batch(self):
        """Pruning the last block to one position per row keeps each row's
        windows apart."""
        cfg = micro_cfg(context=MIXED_LEN, local_pos_table=64)
        params = init_params(cfg, seed=3, dtype=np.float64)
        batch = assemble_batch(mixed_items())
        assert any(len(np.unique(row)) > 1 for row in batch.segments)
        full = network.forward_logits(params, cfg, batch)
        rng = np.random.default_rng(0)
        for _ in range(8):
            positions = rng.integers(batch.seq_len, size=batch.batch_size)
            picked = network.forward_logits(params, cfg, batch, positions)
            plain = full[np.arange(batch.batch_size), positions]
            assert _relative_gap(picked, plain) <= CACHE_RTOL[np.float64]

    def _filled_cache(self):
        cfg = micro_cfg()
        params = init_params(cfg, seed=1, dtype=np.float64)
        seq = flatten_episode(build_layout_episode(3, tensor_shape=(2,), seed=4))
        cache = KVCache()
        network.forward_logits(params, cfg, assemble_batch([seq.slice(0, 5)]), np.array([4]), cache)
        return params, cfg, seq, cache

    def test_changed_prefix_refused(self):
        params, cfg, seq, cache = self._filled_cache()
        changed = seq.slice(0, len(seq))
        changed.tokens[2] += 1
        with pytest.raises(ValueError, match="differ"):
            network.forward_logits(
                params, cfg, assemble_batch([changed]), np.array([len(seq) - 1]), cache
            )

    def test_position_inside_prefix_refused(self):
        params, cfg, seq, cache = self._filled_cache()
        with pytest.raises(ValueError, match="inside the cached prefix"):
            network.forward_logits(params, cfg, assemble_batch([seq]), np.array([4]), cache)
        with pytest.raises(ValueError, match="inside the cached prefix"):
            network.forward_logits(params, cfg, assemble_batch([seq]), None, cache)

    def test_two_row_batch_refused(self):
        params, cfg, seq, _ = self._filled_cache()
        batch = assemble_batch([seq, seq])
        with pytest.raises(ValueError, match="one window in one row"):
            network.forward_logits(params, cfg, batch, np.array([4, 4]), KVCache())
