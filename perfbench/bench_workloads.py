"""The benchmark's workloads, driven only through seqpolicy's public calls.

Every workload runs the same phases: set-up (corpus generation, filter,
write, read, flatten, model init) with warm-up, then ``--seconds`` of
rounds that alternate a training chunk and a prompted rollout chunk, then
checkpoint round trips. Alternating the two in short rounds spreads both
over the whole measured time, so a slow spell of a shared machine weighs
on both alike, and every end-to-end metric exists on every workload.
"""

from __future__ import annotations

import contextlib
import math
import resource
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import seqpolicy.trainer as trainer
from seqpolicy import corpora, datastore, envs, policy
from seqpolicy.codec import TensorSchema
from seqpolicy.model import ModelState, RngStreams, load_checkpoint, save_checkpoint, tiny
from seqpolicy.sequencer import ElementSource, Episode, Timestep

import bench_stats
from bench_trace import Tracer

SETUP_REPS = 3
CKPT_ROUNDS = 5
PROBE_STEPS = 2
ROLLOUT_CONTEXT = 64
ROUNDS = 4  # train/rollout rounds that fill --seconds
TRAIN_SHARE = 0.7  # share of each round spent training; the rest rolls out
IMAGE_SIDE = 32
GRID_CELL = 6  # pixels per GridReach cell in the rendered frame


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "mixed" or "line"
    mode: str  # "pretrain" or "finetune"
    batch_size: int
    seq_len: int
    env: str  # rollout environment, also the task of the prompt episode


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pretrain-mixed", "mixed", "pretrain", 16, 256, "gridreach"),
        Workload("finetune-line", "line", "finetune", 16, 24, "linereacher"),
    )
}


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

_FRAME = TensorSchema.image("frame", IMAGE_SIDE, IMAGE_SIDE, 3)


def render_grid(agent: int, goal: int) -> np.ndarray:
    """32x32 RGB frame of a GridReach state: agent red, goal green."""
    img = np.zeros((IMAGE_SIDE, IMAGE_SIDE, 3), np.uint8)
    for cell, channel in ((goal, 1), (agent, 0)):
        r, c = divmod(int(cell), envs.GridReach.SIZE)
        y, x = 1 + r * GRID_CELL, 1 + c * GRID_CELL
        img[y : y + GRID_CELL, x : x + GRID_CELL, channel] = 255
    return img


def _as_image_episode(ep: Episode) -> Episode:
    timesteps = [
        Timestep(
            observations={
                "frame": (_FRAME, render_grid(ts.observations["agent"][1], ts.observations["goal"][1]))
            },
            action=ts.action,
        )
        for ts in ep.timesteps
    ]
    return Episode(task_id="gridreach_image", timesteps=timesteps, rewards=ep.rewards)


def generate_corpus(kind: str, seeds) -> dict[str, list[Episode]]:
    """Raw episodes per dataset name, all drawn from ``seeds``."""
    def expert(env_name, count, seed):
        return corpora.collect_episodes(
            envs.make_env(env_name, seed), envs.make_expert(env_name), count
        )

    if kind == "mixed":
        return {
            "grid": expert("gridreach", 200, seeds[0]),
            "text": corpora.synthetic_text_episodes(200, seed=seeds[1]),
            "grid_image": [_as_image_episode(ep) for ep in expert("gridreach", 100, seeds[2])],
        }
    if kind == "line":
        return {"line": expert("linereacher", 200, seeds[0])}
    raise ValueError(f"unknown corpus {kind!r}")


@dataclass
class Setup:
    datasets: list[datastore.LoadedDataset]
    state: ModelState
    bytes_written: int


def set_up(workload: Workload, seeds, corpus_dir: Path) -> Setup:
    """Generate, filter, write, read and flatten the corpus; init the model."""
    written = 0
    manifests = []
    for name, episodes in generate_corpus(workload.corpus, seeds).items():
        kept, _ = datastore.filter_episodes(episodes)
        manifest = corpora.build_dataset(corpus_dir, name, kept)
        written += sum(Path(p).stat().st_size for p in manifest.paths)
        manifests.append(manifest)
    loaded = [datastore.LoadedDataset(m) for m in manifests]
    for ds in loaded:
        for i in range(len(ds)):
            ds.flattened(i)
    state = ModelState.initialize(tiny(), seed=seeds[3])
    return Setup(loaded, state, written)


def copy_state(state: ModelState, stream_seed: int) -> ModelState:
    return ModelState(
        cfg=state.cfg,
        params={k: v.copy() for k, v in state.params.items()},
        streams=RngStreams(stream_seed),
    )


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class StepProbe:
    """Timestamps each batch the trainer assembles and counts its real elements.

    Installed around trainer's ``assemble_batch`` in untraced runs too: it
    costs one clock read and one comparison over the batch per step.
    """

    def __init__(self):
        self.times: list[float] = []
        self.real: list[int] = []

    @contextlib.contextmanager
    def installed(self):
        original = trainer.assemble_batch

        def probed(items):
            batch = original(items)
            self.real.append(int((batch.sources != ElementSource.PAD).sum()))
            self.times.append(perf_counter())
            return batch

        trainer.assemble_batch = probed
        try:
            yield self
        finally:
            trainer.assemble_batch = original


@dataclass
class TrainRun:
    """One or more ``pretrain``/``finetune`` calls; ``result`` is the last one's."""

    result: trainer.TrainResult
    wall_s: float
    step_ms: list[float]
    real_elements: int
    loss_tokens: int
    losses: list[float]

    def extend(self, other: "TrainRun") -> None:
        self.result = other.result
        self.wall_s += other.wall_s
        self.step_ms += other.step_ms
        self.real_elements += other.real_elements
        self.loss_tokens += other.loss_tokens
        self.losses += other.losses


def make_sampler(workload: Workload, datasets, sampler_seed: int) -> datastore.MixtureSampler:
    return datastore.MixtureSampler(
        datasets, workload.seq_len, np.random.default_rng(sampler_seed)
    )


def train(workload: Workload, state, sampler, steps: int, log_path) -> TrainRun:
    probe = StepProbe()
    with probe.installed():
        start = perf_counter()
        if workload.mode == "pretrain":
            cfg = trainer.TrainConfig(
                steps=steps,
                batch_size=workload.batch_size,
                seq_len=workload.seq_len,
                prompt_probability=0.25,
                checkpoint_every=0,
            )
            result = trainer.pretrain(sampler, state, cfg, log_path=log_path)
        else:
            cfg = trainer.FinetuneConfig(
                steps=steps,
                batch_size=workload.batch_size,
                seq_len=workload.seq_len,
                prompt_probability=0.25,
                eval_every=0,
            )
            result = trainer.finetune(state, sampler, cfg, log_path=log_path)
        end = perf_counter()
    marks = probe.times + [end]
    return TrainRun(
        result=result,
        wall_s=end - start,
        step_ms=[(b - a) * 1e3 for a, b in zip(marks, marks[1:])],
        real_elements=sum(probe.real),
        loss_tokens=int(sum(result.metrics.column("masked"))),
        losses=result.metrics.column("loss"),
    )


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------

class ActionLog:
    """What the timed envs saw: per-step latency, actions, legality."""

    def __init__(self):
        self.action_ms: list[float] = []
        self.actions: list[list] = []
        self.illegal = 0


class TimedEnv:
    """Env wrapper timing observation-to-action latency from outside the policy."""

    def __init__(self, env, log: ActionLog, tracer=None):
        self.env = env
        self.spec = env.spec
        self.task_id = env.task_id
        self.log = log
        self._step = tracer.wrap(env.step, "envs.step") if tracer else env.step
        self._lo, self._hi = policy.legal_token_range(env.spec.action_schema)
        log.actions.append([])

    def reset(self):
        obs = self.env.reset()
        self._ready = perf_counter()
        return obs

    def step(self, action):
        self.log.action_ms.append((perf_counter() - self._ready) * 1e3)
        tokens = policy.encode_action(action, self.spec.action_schema)
        if not all(self._lo <= t < self._hi for t in tokens):
            self.log.illegal += 1
        self.log.actions[-1].append(np.asarray(action).tolist())
        out = self._step(action)
        self._ready = perf_counter()
        return out


@dataclass
class RolloutRun:
    """One or more ``evaluate_policy`` calls; actions and latencies go to ``log``."""

    result: policy.EvalResult
    wall_s: float
    log: ActionLog

    @property
    def env_steps(self) -> int:
        return sum(s.env_steps for s in self.result.stats)

    def extend(self, other: "RolloutRun") -> None:
        self.result.returns += other.result.returns
        self.result.episodes += other.result.episodes
        self.result.stats += other.result.stats
        self.wall_s += other.wall_s


def roll_out(workload: Workload, state, prompt, episodes: int, env_seed: int, tracer=None,
             log=None) -> RolloutRun:
    log = ActionLog() if log is None else log
    cfg = policy.RolloutConfig(prompt=prompt, context=ROLLOUT_CONTEXT)
    start = perf_counter()
    result = policy.evaluate_policy(
        state,
        lambda s: TimedEnv(envs.make_env(workload.env, s), log, tracer),
        cfg,
        episodes,
        seed=env_seed,
    )
    return RolloutRun(result, perf_counter() - start, log)


def prompt_episode(workload: Workload, datasets) -> Episode:
    """The longest stored episode of the rollout env's task (first of ties).

    Taking the longest keeps the prompt's share of the window, and so the
    rollout's context lengths, nearly the same for every seed.
    """
    task = envs.make_env(workload.env, 0).task_id
    episodes = [ep for ds in datasets for ep in ds.episodes if ep.task_id == task]
    if not episodes:
        raise ValueError(f"corpus has no {task} episode to prompt with")
    return max(episodes, key=len)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _same_tensors(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and np.array_equal(a[k].view(np.uint32), b[k].view(np.uint32))
        for k in a
    )


def checkpoint_round_trips(state, opt_state, step: int, work: Path):
    """Save and load ``CKPT_ROUNDS`` times after one untimed round that lets
    the allocator settle; returns save ms, load ms, file size and the number
    of rounds whose load differed from what was saved.

    Each round writes a new file, as the trainer's periodic checkpoints do,
    and deletes it untimed, so no save waits on the writeback of an older one.
    """
    save_ms, load_ms, mismatches = [], [], 0
    rng_states = state.streams.state_dict()
    for i in range(1 + CKPT_ROUNDS):
        path = work / f"round{i}.ckpt"
        t0 = perf_counter()
        save_checkpoint(
            path, state.cfg, state.params,
            optimizer_state=opt_state, rng_states=rng_states, extra={"step": step},
        )
        t1 = perf_counter()
        loaded = load_checkpoint(path)
        t2 = perf_counter()
        save_ms.append((t1 - t0) * 1e3)
        load_ms.append((t2 - t1) * 1e3)
        size = path.stat().st_size
        path.unlink()
        moments = loaded["optimizer_state"]
        same = (
            _same_tensors(loaded["params"], state.params)
            and moments is not None
            and moments["step"] == opt_state["step"]
            and _same_tensors(moments["m"], opt_state["m"])
            and _same_tensors(moments["v"], opt_state["v"])
            and loaded["rng_states"] == rng_states
        )
        mismatches += not same
    return save_ms[1:], load_ms[1:], size, mismatches


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class Checks:
    """Output checks; each is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.detail: dict[str, list[int]] = {}

    def add(self, name: str, attempted: int, failed: int) -> None:
        row = self.detail.setdefault(name, [0, 0])
        row[0] += attempted
        row[1] += failed
        self.attempted += attempted
        self.failed += failed


def _first_lines(path: Path, count: int) -> bytes:
    return b"".join(path.read_bytes().splitlines(keepends=True)[:count])


def run_workload(workload: Workload, seed: int, seconds: float, work: Path, tracer=None) -> dict:
    """Run every phase of ``workload``; returns raw measurements and checks."""
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(6)]
    model_seed, sampler_seed, env_seed = seeds[3], seeds[4], seeds[5]
    checks = Checks()
    phases: dict[str, float] = {}

    @contextlib.contextmanager
    def phase(name):
        index = tracer.begin(f"phase.{name}") if tracer else None
        start = perf_counter()
        try:
            yield
        finally:
            phases[name] = phases.get(name, 0.0) + perf_counter() - start
            if tracer:
                tracer.end(index)

    # Each set-up is followed by a warm-up on a copy of its model: one train
    # step and one rollout episode. They also calibrate the rounds.
    setup_s, step_s, episode_s = [], [], []
    for rep in range(SETUP_REPS):
        corpus_dir = work / f"corpus{rep}"
        start = perf_counter()
        with phase("setup"):
            setup = set_up(workload, seeds, corpus_dir)
        with phase("warmup"):
            prompt = prompt_episode(workload, setup.datasets)
            warm = train(workload, copy_state(setup.state, model_seed),
                         make_sampler(workload, setup.datasets, sampler_seed), 1, None)
            warm_roll = roll_out(workload, setup.state, prompt, 1, env_seed)
        setup_s.append(perf_counter() - start)
        step_s.append(warm.step_ms[0] / 1e3)
        episode_s.append(warm_roll.wall_s)
        if rep + 1 < SETUP_REPS:
            shutil.rmtree(corpus_dir)
    datasets, state = setup.datasets, setup.state
    initial = copy_state(state, model_seed)
    # Rollouts use the model as initialised: it rarely reaches the goal, so
    # episodes run their full horizon and the rollout work stays fixed.
    rollout_state = copy_state(state, model_seed)
    sampler = make_sampler(workload, datasets, sampler_seed)

    # Chunk sizes start from the warm-up's timings and are re-sized after
    # every round from the times measured so far, so that training keeps
    # TRAIN_SHARE of the measured time.
    round_s = seconds / ROUNDS
    per_step_s, per_episode_s = statistics.median(step_s), statistics.median(episode_s)
    tr = ro = None
    log = ActionLog()
    rounds = episodes = 0
    start = perf_counter()
    # Stop when another round would end further past --seconds than this one ends short.
    while rounds == 0 or (perf_counter() - start) * (1 + 0.5 / rounds) < seconds:
        chunk_steps = max(PROBE_STEPS, round(round_s * TRAIN_SHARE / per_step_s))
        chunk_episodes = max(1, round(round_s * (1 - TRAIN_SHARE) / per_episode_s))
        with phase("train"):
            chunk = train(workload, state, sampler, chunk_steps,
                          work / "metrics.log" if rounds == 0 else None)
        bad = sum(not math.isfinite(x) for x in chunk.losses) + chunk_steps - len(chunk.losses)
        checks.add("loss_finite", chunk_steps, bad)
        with phase("rollout"):
            rolled = roll_out(workload, rollout_state, prompt, chunk_episodes,
                              env_seed + episodes, tracer, log)
        if tr is None:
            tr, ro = chunk, rolled
        else:
            tr.extend(chunk)
            ro.extend(rolled)
        rounds += 1
        episodes += chunk_episodes
        per_step_s = tr.wall_s / len(tr.step_ms)
        per_episode_s = ro.wall_s / episodes

    with phase("checks"):
        replay = roll_out(workload, rollout_state, prompt, 1, env_seed)
        same = _log_matches_other_trace_mode(
            workload, initial, model_seed, datasets, sampler_seed, work, tracer
        )
    checks.add("action_legal", len(log.action_ms), log.illegal)
    checks.add("greedy_replay", 1, int(replay.log.actions[0] != log.actions[0]))
    checks.add("metrics_log_trace_identical", 1, int(not same))

    with phase("ckpt"):
        save_ms, load_ms, ckpt_bytes, mismatches = checkpoint_round_trips(
            state, tr.result.optimizer_state, len(tr.step_ms), work
        )
    checks.add("ckpt_bit_identical", 1 + CKPT_ROUNDS, mismatches)

    return {
        "setup_s": setup_s,
        "bytes_written": setup.bytes_written,
        "train": tr,
        "rollout": ro,
        "rounds": rounds,
        "save_ms": save_ms,
        "load_ms": load_ms,
        "ckpt_bytes": ckpt_bytes,
        "checks": checks,
        "phases_s": phases,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _log_matches_other_trace_mode(
    workload, initial, model_seed, datasets, sampler_seed, work: Path, tracer
) -> bool:
    """Rerun the first steps from the same start with tracing switched the
    other way; the metrics.log lines must be byte-identical."""
    probe_tracer = Tracer()
    if tracer:
        tracer.uninstall()
    else:
        probe_tracer.install()
    try:
        train(workload, copy_state(initial, model_seed),
              make_sampler(workload, datasets, sampler_seed), PROBE_STEPS, work / "probe.log")
    finally:
        if tracer:
            tracer.install()
        else:
            probe_tracer.uninstall()
    return _first_lines(work / "metrics.log", PROBE_STEPS) == _first_lines(
        work / "probe.log", PROBE_STEPS
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def measured(raw: dict) -> dict[str, float]:
    """Metrics that need no tracer: the end-to-end ones and the checkpoint's."""
    tr, ro = raw["train"], raw["rollout"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "train.loss_tokens_per_s": tr.loss_tokens / tr.wall_s,
        "train.elements_per_s": tr.real_elements / tr.wall_s,
        "train.step_ms.p50": bench_stats.percentile(tr.step_ms, 50),
        "rollout.env_steps_per_s": ro.env_steps / ro.wall_s,
        "rollout.action_ms.p50": bench_stats.percentile(ro.log.action_ms, 50),
        "rollout.action_ms.p90": bench_stats.percentile(ro.log.action_ms, 90),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ckpt.save_ms": statistics.median(raw["save_ms"]),
        "ckpt.load_ms": statistics.median(raw["load_ms"]),
        "ckpt.bytes": float(raw["ckpt_bytes"]),
    }


def sample_counts(raw: dict) -> dict[str, int]:
    tr, ro = raw["train"], raw["rollout"]
    return {
        "setup_s": len(raw["setup_s"]),
        "train.loss_tokens_per_s": len(tr.step_ms),
        "train.elements_per_s": len(tr.step_ms),
        "train.step_ms.p50": len(tr.step_ms),
        "ckpt.save_ms": len(raw["save_ms"]),
        "ckpt.load_ms": len(raw["load_ms"]),
        "rollout.env_steps_per_s": ro.env_steps,
        "rollout.action_ms.p50": len(ro.log.action_ms),
        "rollout.action_ms.p90": len(ro.log.action_ms),
        "peak_rss_mb": 1,
        "ckpt.bytes": 1,
    }


def timings(raw: dict) -> dict[str, dict]:
    """Median and rule-chosen tail of every sampled timing."""
    return {
        "setup_s": bench_stats.summarize(raw["setup_s"]),
        "train.step_ms": bench_stats.summarize(raw["train"].step_ms),
        "ckpt.save_ms": bench_stats.summarize(raw["save_ms"]),
        "ckpt.load_ms": bench_stats.summarize(raw["load_ms"]),
        "rollout.action_ms": bench_stats.summarize(raw["rollout"].log.action_ms),
    }


# Per-layer metrics read from one kind of span: name -> (phase, span, time).
# Each is milliseconds per operation of its phase: per train step, per env
# step or per set-up; "self" excludes the time of traced children.
SPAN_METRICS = {
    "model.attn_fwd_ms": ("train", "model.attention_fwd", "self"),
    "model.attn_bwd_ms": ("train", "model.attention_bwd", "self"),
    "model.ffn_fwd_ms": ("train", "model.ffn_fwd", "self"),
    "model.ffn_bwd_ms": ("train", "model.ffn_bwd", "self"),
    "model.gelu_fwd_ms": ("train", "model.gelu_fwd", "self"),
    "model.gelu_bwd_ms": ("train", "model.gelu_bwd", "self"),
    "model.embed_fwd_ms": ("train", "model.embed_fwd", "self"),
    "model.embed_bwd_ms": ("train", "model.embed_bwd", "self"),
    "model.patch_embed_fwd_ms": ("train", "model.patch_embed_fwd", "self"),
    "model.patch_embed_bwd_ms": ("train", "model.patch_embed_bwd", "self"),
    "model.head_ms": ("train", "model.loss_and_grads", "self"),
    "trainer.optimizer_ms": ("train", "trainer.optimizer_step", "total"),
    "trainer.draw_batch_ms": ("train", "trainer.draw_batch", "total"),
    "trainer.loss_and_grads_ms": ("train", "model.loss_and_grads", "total"),
    "trainer.self_ms": ("train", "trainer.train", "self"),
    "datastore.draw_ms": ("train", "datastore.draw", "total"),
    "sequencer.prompt_ms": ("train", "sequencer.apply_prompt", "total"),
    "sequencer.assemble_ms": ("train", "sequencer.assemble_batch", "total"),
    "datastore.write_ms": ("setup", "datastore.write_episodes", "total"),
    "datastore.filter_ms": ("setup", "datastore.filter_episodes", "total"),
    "datastore.read_ms": ("setup", "datastore.read_episodes", "total"),
    "sequencer.flatten_ms": ("setup", "sequencer.flatten_episode", "total"),
    "policy.sample_ms": ("rollout", "policy.sample_token", "total"),
    "policy.self_ms": ("rollout", "policy.rollout", "self"),
    "codec.encode_ms": ("rollout", "codec.encode", "total"),
    "codec.decode_ms": ("rollout", "codec.decode", "total"),
    "envs.step_ms": ("rollout", "envs.step", "total"),
}


def per_layer(raw: dict, tracer) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics from the traced run's spans and counts, and how many
    operations each is taken over (the checkpoint's come from :func:`measured`)."""
    agg = bench_stats.aggregate(tracer.spans)
    tr, ro = raw["train"], raw["rollout"]
    ops = {"train": len(tr.step_ms), "rollout": ro.env_steps, "setup": len(raw["setup_s"])}

    def row(phase, span):
        return agg.get(f"phase.{phase}", {}).get(span, (0.0, 0.0, 0))

    values, samples = {}, {}
    for name, (phase, span, kind) in SPAN_METRICS.items():
        values[name] = row(phase, span)[0 if kind == "total" else 1] * 1e3 / ops[phase]
        samples[name] = ops[phase]

    train = tracer.counts["phase.train"]
    forwards = row("rollout", "model.forward_logits")[2]
    measured_spans = sum(
        r[2] for p in ("train", "rollout") for r in agg.get(f"phase.{p}", {}).values()
    )
    for name, value, count in (
        ("sequencer.real_fraction", train["real"] / train["positions"], ops["train"]),
        ("sequencer.loss_fraction", train["loss"] / train["positions"], ops["train"]),
        ("model.positions_per_step", train["positions"] / ops["train"], ops["train"]),
        ("trainer.step_ms.max", max(tr.step_ms), ops["train"]),
        ("datastore.bytes_written", float(raw["bytes_written"]), 1),
        ("model.forward_ms", row("rollout", "model.forward_logits")[0] * 1e3 / forwards, forwards),
        ("model.forward_ctx_len", tracer.counts["phase.rollout"]["forward_ctx_len"] / forwards,
         forwards),
        ("policy.forward_passes_per_step", forwards / ops["rollout"], ops["rollout"]),
        ("policy.truncations_per_episode",
         statistics.mean(s.truncations for s in ro.result.stats), len(ro.result.stats)),
        ("trace.spans_per_op", measured_spans / (ops["train"] + ops["rollout"]),
         ops["train"] + ops["rollout"]),
    ):
        values[name] = value
        samples[name] = count
    return values, samples
