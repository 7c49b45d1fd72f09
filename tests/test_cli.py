import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from seqpolicy import cli
from seqpolicy.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    _state_from_checkpoint,
    _token_range_violations,
    main,
    parse_config_file,
    resolve_config,
)
from seqpolicy.corpora import build_dataset, collect_episodes, run_policy_episode
from seqpolicy.datastore import (
    FORMAT_VERSION,
    MAGIC,
    load_manifest,
    read_episodes,
    write_episodes,
    write_manifest,
)
from seqpolicy import model as M
from seqpolicy.envs import GridReach, GridReachExpert, make_env, make_expert
from seqpolicy.errors import ConfigError
from seqpolicy.policy import RolloutConfig, evaluate_policy
from seqpolicy.sequencer import ElementSource, Episode, Timestep, flatten_episode
from seqpolicy.codec import TensorSchema
from seqpolicy.trainer import FinetuneConfig, TrainConfig

from conftest import (
    frame_body,
    framed,
    golden_checkpoint,
    manual_sequence,
    micro_cfg,
    one_stream_record,
    rewrite_checkpoint_config,
    rich_episode,
)


def _reward_episode(r, task="t"):
    schema = TensorSchema.discrete("o", ())
    act = TensorSchema.discrete("a", (), is_action=True)
    ts = Timestep(observations={"o": (schema, np.int64(0))}, action=(act, np.int64(0)))
    return Episode(task_id=task, timesteps=[ts], rewards=[float(r)])


def _one_observation_episode(schema, value):
    act = TensorSchema.discrete("a", (), is_action=True)
    ts = Timestep(observations={schema.key: (schema, value)}, action=(act, np.int64(0)))
    return Episode(task_id="t", timesteps=[ts], rewards=[0.0])


def _grid_then_unencodable():
    """40 GridReach episodes, then one whose discrete observation 5000 the
    schema cannot encode."""
    bad = _one_observation_episode(TensorSchema.discrete("x", ()), np.int64(5000))
    return collect_episodes(GridReach(seed=0), GridReachExpert(), 40) + [bad]


@pytest.fixture
def reward_manifest(tmp_path):
    episodes = [_reward_episode(r) for r in range(1, 21)]
    manifest = build_dataset(tmp_path / "data", "fixture", episodes, weight=1.0)
    mpath = tmp_path / "manifest.cfg"
    write_manifest([manifest], mpath)
    return mpath


class TestConfigResolution:
    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 12  # comment\nlr_max = 3e-4\n\n# full line comment\n")
        assert parse_config_file(cfg) == {"steps": "12", "lr_max": "3e-4"}

    def test_precedence_flags_over_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 12\nbatch_size = 4\n")
        resolved = resolve_config("pretrain", cfg, ["steps=20"], None)
        assert resolved["steps"] == 20
        assert resolved["batch_size"] == 4
        assert resolved["seq_len"] == 256  # default

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key = 1\n")
        with pytest.raises(ConfigError, match="unknown"):
            resolve_config("pretrain", cfg, [], None)

    def test_seed_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEQPOLICY_SEED", "77")  # ignored
        assert resolve_config("pretrain", None, [], None)["seed"] == 0
        assert resolve_config("pretrain", None, ["seed=9"], None)["seed"] == 9
        assert resolve_config("pretrain", None, ["seed=9"], 5)["seed"] == 5  # flag wins

    def test_nested_keys_reach_train_config(self, tmp_path, monkeypatch):
        class Captured(Exception):
            pass

        def spy(sampler, state, cfg, **kwargs):
            raise Captured(cfg)

        monkeypatch.setattr(cli, "pretrain", spy)
        with pytest.raises(Captured) as exc:
            main(["pretrain", *_sets(f"manifest={_grid_manifest(tmp_path)}", "seq_len=32",
                                     "model.preset=micro", f"out_dir={tmp_path / 'run'}",
                                     "weight_decay=0.05", "warmup_steps=7")])
        [cfg] = exc.value.args
        assert (cfg.weight_decay, cfg.warmup_steps) == (0.05, 7)
        assert (cfg.steps, cfg.batch_size, cfg.seq_len) == (100, 16, 32)

    @pytest.mark.parametrize("command, cls", [
        ("pretrain", TrainConfig),
        ("finetune", FinetuneConfig),
    ])
    def test_every_config_field_is_a_key(self, command, cls):
        # a run checks the model its keys build, so model keys take tiny's values
        values = {f"model.{f.name}": getattr(M.tiny(), f.name) for f in fields(M.ModelConfig)}
        values.update({f.name: 1 for f in fields(cls)})
        for key, value in values.items():
            assert resolve_config(command, None, [f"{key}={value}"], None)[key] == value, key

    @pytest.mark.parametrize("command, count", [("pretrain", 28), ("finetune", 24)])
    def test_every_key_is_int_float_or_str(self, command, count):
        # keys are coerced by calling their type, and bool("false") is True
        kinds = {key: kind for key, (kind, _) in cli._SCHEMA[command].items()}
        assert len(kinds) == count
        assert set(kinds.values()) <= {int, float, str}, kinds

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_model_keys_with_checkpoint_exit_2(self, tmp_path, capsys, command):
        ckpt = tmp_path / "micro.ckpt"
        M.save_checkpoint(ckpt, M.micro(), M.init_params(M.micro(), seed=0))
        sets = [f"checkpoint={ckpt}", "model.width=64", "model.dropout=0.5"]
        out = tmp_path / "run"
        code = main([command, *_sets(f"manifest={_grid_manifest(tmp_path)}", *sets,
                                     f"out_dir={out}")])
        assert code == EXIT_CONFIG
        message = "['model.dropout', 'model.width'] cannot change the checkpoint's model"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        # without a checkpoint the keys build the model
        resolved = resolve_config(command, None, sets[1:], None)
        assert cli.build_model_config(resolved) == M.tiny(width=64, dropout=0.5)


_PRETRAIN_DEFAULTS = [
    "pretrain.batch_size = 16",
    "pretrain.checkpoint = ",
    "pretrain.checkpoint_every = 500",
    "pretrain.decay_factor = 10.0",
    "pretrain.decay_steps = 1000000",
    "pretrain.lr_max = 0.0001",
    "pretrain.model.preset = tiny",
    "pretrain.out_dir = runs/pretrain",
    "pretrain.preset = all",
    "pretrain.prompt_probability = 0.25",
    "pretrain.seed = 0",
    "pretrain.seq_len = 256",
    "pretrain.steps = 100",
    "pretrain.target_domain = ",
    "pretrain.warmup_steps = 15000",
    "pretrain.weight_decay = 0.1",
]

_FINETUNE_DEFAULTS = [
    "finetune.batch_size = 64",
    "finetune.checkpoint = ",
    "finetune.env = ",
    "finetune.eval_every = 100",
    "finetune.eval_rollouts = 10",
    "finetune.lr = 1e-05",
    "finetune.model.preset = tiny",
    "finetune.out_dir = runs/finetune",
    "finetune.prompt_probability = 0.25",
    "finetune.seed = 0",
    "finetune.seq_len = 256",
    "finetune.steps = 10000",
]

_README_PRETRAIN = [
    "pretrain.batch_size = 16",
    "pretrain.checkpoint = ",
    "pretrain.checkpoint_every = 500",
    "pretrain.decay_factor = 10.0",
    "pretrain.decay_steps = 630",
    "pretrain.lr_max = 0.001",
    "pretrain.manifest = corpus/filtered/manifest.cfg",
    "pretrain.model.preset = tiny",
    "pretrain.out_dir = runs/grid",
    "pretrain.preset = all",
    "pretrain.prompt_probability = 0.25",
    "pretrain.seed = 0",
    "pretrain.seq_len = 32",
    "pretrain.steps = 700",
    "pretrain.target_domain = ",
    "pretrain.warmup_steps = 70",
    "pretrain.weight_decay = 0.1",
]

_MICRO_PRETRAIN = [
    "pretrain.batch_size = 2",
    "pretrain.checkpoint = ",
    "pretrain.checkpoint_every = 0",
    "pretrain.decay_factor = 10.0",
    "pretrain.decay_steps = 1000000",
    "pretrain.lr_max = 0.0001",
    "pretrain.manifest = absent.cfg",
    "pretrain.model.dropout = 0.25",
    "pretrain.model.local_pos_table = 16",
    "pretrain.model.preset = micro",
    "pretrain.model.vocab = 2049",
    "pretrain.out_dir = runs/micro",
    "pretrain.preset = all",
    "pretrain.prompt_probability = 0.25",
    "pretrain.seed = 3",
    "pretrain.seq_len = 32",
    "pretrain.steps = 5",
    "pretrain.target_domain = ",
    "pretrain.warmup_steps = 15000",
    "pretrain.weight_decay = 0.1",
]

_FINETUNE_OVERRIDES = [
    "finetune.batch_size = 64",
    "finetune.checkpoint = old.ckpt",
    "finetune.env = gridreach",
    "finetune.eval_every = 100",
    "finetune.eval_rollouts = 3",
    "finetune.lr = 0.0003",
    "finetune.manifest = absent.cfg",
    "finetune.model.preset = tiny",
    "finetune.out_dir = runs/ft",
    "finetune.prompt_probability = 0.25",
    "finetune.seed = 0",
    "finetune.seq_len = 256",
    "finetune.steps = 10000",
]


def _sets(*items):
    return [arg for item in items for arg in ("--set", item)]


# Each run stops before training: at the missing manifest key (exit 2) or the
# absent manifest file (exit 3), after writing its resolved config.
GOLDEN_RESOLVED = {
    "pretrain-defaults": (["pretrain"], "runs/pretrain", EXIT_CONFIG, _PRETRAIN_DEFAULTS),
    "finetune-defaults": (["finetune"], "runs/finetune", EXIT_CONFIG, _FINETUNE_DEFAULTS),
    "readme-walkthrough": (
        ["pretrain", *_sets("manifest=corpus/filtered/manifest.cfg", "steps=700", "seq_len=32",
                            "warmup_steps=70", "lr_max=1e-3", "decay_steps=630",
                            "out_dir=runs/grid"), "--seed", "0"],
        "runs/grid", EXIT_DATA, _README_PRETRAIN,
    ),
    "micro-model-overrides": (
        ["pretrain", *_sets("manifest=absent.cfg", "steps=5", "batch_size=2", "seq_len=32",
                            "checkpoint_every=0", "model.preset=micro", "model.vocab=2049",
                            "model.local_pos_table=16", "model.dropout=0.25",
                            "out_dir=runs/micro"), "--seed", "3"],
        "runs/micro", EXIT_DATA, _MICRO_PRETRAIN,
    ),
    "finetune-overrides": (
        ["finetune", *_sets("manifest=absent.cfg", "checkpoint=old.ckpt", "env=gridreach",
                            "eval_rollouts=3", "lr=3e-4", "out_dir=runs/ft")],
        "runs/ft", EXIT_DATA, _FINETUNE_OVERRIDES,
    ),
}


class TestResolvedConfigGolden:
    """Resolved configs and config errors, pinned byte for byte."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_RESOLVED))
    def test_resolved_config_bytes(self, tmp_path, monkeypatch, capsys, case):
        argv, out_dir, code, lines = GOLDEN_RESOLVED[case]
        monkeypatch.delenv("SEQPOLICY_SEED", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == code
        expected = "".join(f"{line}\n" for line in lines)
        assert (tmp_path / out_dir / "resolved_config.txt").read_bytes() == expected.encode()
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("command, item, message", [
        ("pretrain", "nonsense=1", "unknown config keys for pretrain: ['nonsense']"),
        ("pretrain", "beta1=0.95", "unknown config keys for pretrain: ['beta1']"),
        ("pretrain", "steps=many", "steps: expected int, got 'many'"),
        ("pretrain", "lr_max=fast", "lr_max: expected float, got 'fast'"),
        ("pretrain", "decay_steps=0", "decay_steps must be >= 1"),
        ("pretrain", "decay_factor=0", "decay_factor must be > 0"),
        ("pretrain", "preset=same_domain", "preset=same_domain needs a target_domain"),
        ("pretrain", "model.vocab=128", "model.vocab must be 2049, one row per token id, got 128"),
        ("pretrain", "model.vocab=33025",
         "model.vocab must be 2049, one row per token id, got 33025"),
        ("finetune", "env=linereacherr",
         "unknown env 'linereacherr'; choose from "
         "('gridreach', 'bandit_a', 'bandit_b', 'linereacher')"),
        ("finetune", "warmup_steps=3", "unknown config keys for finetune: ['warmup_steps']"),
        ("finetune", "checkpoint_every=0",
         "unknown config keys for finetune: ['checkpoint_every']"),
        ("pretrain", "preset=scrach",
         "unknown ablation arm 'scrach'; choose from ('all', 'same_domain', 'no_control')"),
        ("pretrain", "preset=scratch",
         "unknown ablation arm 'scratch'; choose from ('all', 'same_domain', 'no_control')"),
        ("pretrain", "target_domain=line",
         "target_domain is read only by preset=same_domain, not preset=all"),
        ("pretrain", "steps=-1", "steps must be >= 0"),
        ("pretrain", "batch_size=0", "batch_size must be >= 1"),
        ("finetune", "steps=-1", "steps must be >= 0"),
        ("finetune", "seq_len=0", "seq_len must be >= 1"),
        ("finetune", "preset=all", "unknown config keys for finetune: ['preset']"),
        ("finetune", "eval_rollouts=0", "eval_rollouts must be >= 1"),
        ("pretrain", "checkpoint_every=-3", "checkpoint_every must be >= 0"),
        ("finetune", "eval_every=-1", "eval_every must be >= 0"),
        ("pretrain", "prompt_probability=2", "prompt_probability must be in [0, 1]"),
        ("finetune", "prompt_probability=-0.5", "prompt_probability must be in [0, 1]"),
        ("pretrain", "prompt_probability=nan", "prompt_probability must be in [0, 1]"),
        ("pretrain", "lr_max=-1", "lr_max must be >= 0"),
        ("pretrain", "lr_max=nan", "lr_max must be >= 0"),
        ("finetune", "lr=-1e-5", "lr must be >= 0"),
        ("pretrain", "weight_decay=-0.1", "weight_decay must be >= 0"),
        ("pretrain", "warmup_steps=-1", "warmup_steps must be >= 0"),
        ("pretrain", "seed=-1", "seed must be >= 0"),
        ("finetune", "seed=-1", "seed must be >= 0"),
    ])
    def test_config_error_messages(self, tmp_path, monkeypatch, capsys, command, item, message):
        with pytest.raises(ConfigError) as exc:
            resolve_config(command, None, [item], None)
        assert str(exc.value) == message
        monkeypatch.chdir(tmp_path)
        assert main([command, "--set", item]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())  # refused before the run directory is made

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_negative_seed_flag_exit_2(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--set", "manifest=absent.cfg", "--seed", "-1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not any(tmp_path.iterdir())  # refused before resolved_config.txt is written


class TestFilterCommand:
    def test_report_values(self, reward_manifest, tmp_path, capsys):
        out = tmp_path / "filtered"
        code = main(["filter", "--manifest", str(reward_manifest), "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "expert_return=19.5" in text
        assert "window=2" in text and "kept=5" in text
        kept = read_episodes(out / "fixture.ep")
        assert len(kept) == 5
        filtered = load_manifest(out / "manifest.cfg")
        assert filtered[0].name == "fixture"

    def test_fraction_zero_keeps_all(self, reward_manifest, tmp_path):
        out = tmp_path / "filtered"
        code = main(["filter", "--manifest", str(reward_manifest), "--out", str(out),
                     "--fraction", "0"])
        assert code == EXIT_OK
        assert len(read_episodes(out / "fixture.ep")) == 20

    @pytest.mark.parametrize("fraction", ["nan", "2"])
    def test_fraction_outside_unit_interval_exit_2(self, tmp_path, capsys, fraction):
        out = tmp_path / "o"
        code = main(["filter", "--manifest", str(tmp_path / "nope.cfg"), "--out", str(out),
                     "--fraction", fraction])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: --fraction must be in [0, 1], got {float(fraction)}\n")
        assert not out.exists()  # refused before the manifest is read or --out is made

    def test_missing_manifest_exit_2(self, tmp_path, capsys):
        code = main(["filter", "--manifest", str(tmp_path / "nope.cfg"), "--out",
                     str(tmp_path / "o")])
        assert code == EXIT_DATA or code == EXIT_CONFIG
        assert "error" in capsys.readouterr().err


class TestPretrainCommand:
    def test_smoke_run_and_determinism(self, tmp_path, capsys):
        episodes = collect_episodes(GridReach(seed=0), GridReachExpert(), 4)
        manifest = build_dataset(tmp_path / "data", "grid", episodes)
        mpath = tmp_path / "manifest.cfg"
        write_manifest([manifest], mpath)
        args = [
            "pretrain",
            "--set", f"manifest={mpath}",
            "--set", "steps=5",
            "--set", "batch_size=2",
            "--set", "seq_len=32",
            "--set", "checkpoint_every=0",
            "--set", "model.preset=micro",
            "--set", "model.local_pos_table=16",
            "--seed", "3",
        ]
        out_a = tmp_path / "run_a"
        code = main(args + ["--set", f"out_dir={out_a}"])
        assert code == EXIT_OK
        out_b = tmp_path / "run_b"
        code = main(args + ["--set", f"out_dir={out_b}"])
        assert code == EXIT_OK
        assert (out_a / "metrics.log").read_bytes() == (out_b / "metrics.log").read_bytes()
        assert (out_a / "final.ckpt").exists()
        assert (out_a / "resolved_config.txt").exists()

    def test_micro_preset_trains_without_overrides(self, tmp_path):
        out = tmp_path / "run"
        code = main(["pretrain", *_sets(f"manifest={_grid_manifest(tmp_path)}", "steps=2",
                                        "batch_size=2", "seq_len=32", "checkpoint_every=0",
                                        "model.preset=micro", f"out_dir={out}")])
        assert code == EXIT_OK
        assert M.load_checkpoint(out / "final.ckpt")["cfg"] == M.micro()

    @pytest.mark.parametrize("schedule, warns", [((), True), (("warmup_steps=1",), False)])
    def test_all_warmup_schedule_warns(self, tmp_path, capsys, schedule, warns):
        """The default schedule is the paper's, so a desk-scale run never leaves warmup."""
        out = tmp_path / "run"
        code = main(["pretrain", *_sets(f"manifest={_grid_manifest(tmp_path)}", "steps=2",
                                        "batch_size=2", "seq_len=32", "checkpoint_every=0",
                                        "model.preset=micro", f"out_dir={out}", *schedule)])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert ("warning:" in captured.err) == warns
        assert ("steps=2 <= warmup_steps=15000" in captured.err) == warns
        log = (out / "metrics.log").read_text().split()
        last_lr = [part for part in log if part.startswith("lr=")][-1]
        final = [line for line in captured.out.splitlines() if line.startswith("final ")]
        assert final[0].endswith(f" {last_lr}")

    def test_unknown_key_exit_2(self, tmp_path):
        assert main(["pretrain", "--set", "nonsense=1"]) == EXIT_CONFIG

    def test_readme_filter_then_pretrain_from_another_cwd(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus"
        assert main(["rollout", "--env", "gridreach", "--expert", "-n", "10",
                     "--out", str(corpus / "grid")]) == EXIT_OK
        (corpus / "manifest.cfg").write_text(
            "[grid_expert]\npaths = grid/transcripts.ep\nweight = 1.0\n"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["filter", "--manifest", "corpus/manifest.cfg",
                     "--out", "corpus/filtered"]) == EXIT_OK
        [filtered] = load_manifest("corpus/filtered/manifest.cfg")
        assert [Path(p).resolve() for p in filtered.paths] == [
            corpus.resolve() / "filtered" / "grid_expert.ep"
        ]
        code = main([
            "pretrain",
            "--set", "manifest=corpus/filtered/manifest.cfg",
            "--set", "steps=2", "--set", "batch_size=2", "--set", "seq_len=32",
            "--set", "checkpoint_every=0", "--set", "model.preset=micro",
            "--set", "model.local_pos_table=16",
            "--set", "out_dir=runs/grid", "--seed", "0",
        ])
        assert code == EXIT_OK
        assert (tmp_path / "runs" / "grid" / "final.ckpt").exists()

    def test_value_the_schema_cannot_encode_exit_3(self, tmp_path, capsys):
        episode = _one_observation_episode(TensorSchema.discrete("x", ()), np.int64(5000))
        manifest = build_dataset(tmp_path / "data", "bad", [episode])
        mpath = tmp_path / "manifest.cfg"
        write_manifest([manifest], mpath)
        code = main(["pretrain", *_sets(f"manifest={mpath}", f"out_dir={tmp_path / 'run'}",
                                        "model.preset=micro", "steps=2", "batch_size=2",
                                        "seq_len=8")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "data error: x: discrete value outside [0, 1024)\n"

    def test_unencodable_record_exit_3_before_the_first_step(self, tmp_path, capsys):
        manifest = build_dataset(tmp_path / "data", "grid", _grid_then_unencodable())
        mpath = tmp_path / "manifest.cfg"
        write_manifest([manifest], mpath)
        out = tmp_path / "run"
        code = main(["pretrain", *_sets(f"manifest={mpath}", f"out_dir={out}",
                                        "model.preset=micro", "steps=200", "batch_size=2",
                                        "seq_len=8", "checkpoint_every=1")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "data error: x: discrete value outside [0, 1024)\n"
        log = out / "metrics.log"
        assert not log.exists() or log.read_text() == ""
        assert not list(out.glob("*.ckpt"))

    def test_empty_mixture_exit_3(self, tmp_path, capsys):
        mpath = tmp_path / "manifest.cfg"
        mpath.write_text("[nothing]\npaths = missing/*.ep\nweight = 1.0\n")
        code = main(["pretrain", "--set", f"manifest={mpath}",
                     "--set", f"out_dir={tmp_path / 'run'}"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "empty" in err
        assert err.count("\n") == 1


def _grid_manifest(tmp_path):
    episodes = collect_episodes(GridReach(seed=0), GridReachExpert(), 4)
    manifest = build_dataset(tmp_path / "data", "grid", episodes)
    mpath = tmp_path / "manifest.cfg"
    write_manifest([manifest], mpath)
    return mpath


class TestVocabLayouts:
    def test_full_layout_checkpoint_finetunes_and_rolls_out(self, tmp_path, capsys):
        # every tiny() checkpoint written before tiny() held 2049 rows has 33025,
        # with the bins and the separator in its last 1025 rows
        cfg = M.tiny(vocab=33025)
        path = tmp_path / "old.ckpt"
        params = M.init_params(cfg, seed=2)
        M.save_checkpoint(path, cfg, params)
        state = _state_from_checkpoint(path)
        assert state.cfg == M.tiny()
        np.testing.assert_array_equal(
            state.params["embed/vocab"], params["embed/vocab"][np.r_[0:1024, 32000:33025]])
        out = tmp_path / "ft"
        code = main([
            "finetune", "--set", f"manifest={_grid_manifest(tmp_path)}",
            "--set", f"checkpoint={path}", "--set", "steps=1", "--set", "batch_size=2",
            "--set", "seq_len=32", "--set", "eval_every=0", "--set", f"out_dir={out}",
        ])
        assert code == EXIT_OK
        tuned = _state_from_checkpoint(out / "final.ckpt")
        assert tuned.cfg == M.tiny() and tuned.params["embed/vocab"].shape == (2049, 128)
        assert not np.array_equal(tuned.params["embed/vocab"], state.params["embed/vocab"])
        capsys.readouterr()
        code = main(["rollout", "--checkpoint", str(out / "final.ckpt"), "--env", "gridreach",
                     "--temperature", "1", "-n", "2", "--seed", "4"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        printed = [float(l.split("return=")[1]) for l in lines if l.startswith("episode=")]
        rollout_cfg = RolloutConfig(temperature=1.0)
        expected = evaluate_policy(tuned, lambda s: make_env("gridreach", s), rollout_cfg, 2,
                                   seed=4)
        assert printed == expected.returns

    @pytest.mark.parametrize("override, rows", [([], 2049), (["model.vocab=2049"], 2049)])
    def test_pretrain_vocab_rows(self, tmp_path, override, rows):
        out = tmp_path / "run"
        args = ["pretrain", "--set", f"manifest={_grid_manifest(tmp_path)}",
                "--set", "steps=1", "--set", "batch_size=2", "--set", "seq_len=32",
                "--set", "checkpoint_every=0", "--set", f"out_dir={out}"]
        for item in override:
            args += ["--set", item]
        assert main(args) == EXIT_OK
        loaded = M.load_checkpoint(out / "final.ckpt")
        assert loaded["cfg"].vocab == rows
        assert loaded["params"]["embed/vocab"].shape == (rows, 128)


def _micro_checkpoint(tmp_path):
    """A fresh micro model's checkpoint with a 64-element context."""
    path = tmp_path / "model.ckpt"
    cfg = micro_cfg(context=64)
    M.save_checkpoint(path, cfg, M.init_params(cfg, seed=2))
    return path


_BAD_ROLLOUT_FLAGS = [("--prompt-budget", "-3"), ("--temperature", "-1"), ("--context", "0"),
                      ("--context", "-3"), ("--seed", "-1")]


class TestRolloutCommand:
    def test_expert_oracle_scores_one(self, tmp_path, capsys):
        out = tmp_path / "rollouts"
        code = main(["rollout", "--env", "gridreach", "--expert", "-n", "10",
                     "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "mean_return=1.0" in text
        assert (out / "transcripts.ep").exists()
        assert len(read_episodes(out / "transcripts.ep")) == 10

    def test_mean_is_arithmetic_mean(self, tmp_path, capsys):
        code = main(["rollout", "--env", "linereacher", "--expert", "-n", "4"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        returns = [float(l.split("return=")[1]) for l in lines if l.startswith("episode=")]
        mean = float(lines[-1].split("mean_return=")[1].split()[0])
        assert mean == pytest.approx(np.mean(returns))

    def test_missing_prompt_warns_and_runs(self, tmp_path, capsys):
        code = main(["rollout", "--checkpoint", str(_micro_checkpoint(tmp_path)), "--env",
                     "gridreach", "-n", "2", "--prompt", str(tmp_path / "absent.ep")])
        assert code == EXIT_OK
        assert capsys.readouterr().err == (
            f"warning: prompt file {tmp_path / 'absent.ep'} absent; rolling out unprompted\n")

    def test_empty_prompt_warns_and_runs(self, tmp_path, capsys):
        prompt, out = tmp_path / "empty.ep", tmp_path / "out"
        write_episodes([], prompt)
        code = main(["rollout", "--checkpoint", str(_micro_checkpoint(tmp_path)), "--env",
                     "gridreach", "-n", "1", "--prompt", str(prompt), "--out", str(out)])
        assert code == EXIT_OK
        warning = f"prompt file {prompt} holds no episodes; rolling out unprompted"
        assert capsys.readouterr().err == f"warning: {warning}\n"
        summary = json.loads((out / "rollout_summary.json").read_text())
        assert summary["warnings"] == [warning]

    @pytest.mark.parametrize("flags", [("--temperature", "5"), ("--context", "1"),
                                       ("--prompt-budget", "3"), ("--prompt", "absent.ep"),
                                       ("--context", "1", "--temperature", "5")])
    def test_expert_refuses_model_flags_before_reading(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        code = main(["rollout", "--env", "gridreach", "--expert", "-n", "1", "--out", str(out),
                     *flags])
        assert code == EXIT_CONFIG
        named = ", ".join(flags[::2])
        assert capsys.readouterr().err == (
            f"error: --expert takes no {named}: only a model rollout reads them\n")
        assert not out.exists()

    def test_summary_counts_truncations_and_rebuilds(self, tmp_path):
        out = tmp_path / "out"
        path = _micro_checkpoint(tmp_path)
        assert main(["rollout", "--checkpoint", str(path), "--env", "gridreach", "-n", "3",
                     "--context", "12", "--seed", "4", "--out", str(out)]) == EXIT_OK
        loaded = M.load_checkpoint(path)
        state = M.ModelState(cfg=loaded["cfg"], params=loaded["params"], streams=M.RngStreams(0))
        stats = evaluate_policy(state, lambda s: make_env("gridreach", s),
                                RolloutConfig(context=12), 3, seed=4).stats
        summary = json.loads((out / "rollout_summary.json").read_text())
        assert summary["truncations"] == sum(s.truncations for s in stats) > 0
        assert summary["rebuilds"] == sum(s.rebuilds for s in stats) > 0
        expert = tmp_path / "expert"
        assert main(["rollout", "--env", "gridreach", "--expert", "-n", "1",
                     "--out", str(expert)]) == EXIT_OK
        assert "rebuilds" not in json.loads((expert / "rollout_summary.json").read_text())

    @pytest.mark.parametrize("change, message", [
        ({"zero_action_inputs": True}, "sets zero_action_inputs=True, not False"),
        ({"patch_channels": 1}, "sets patch_channels=1, not 3"),
        ({"heads_per_block": 2}, "unexpected keyword argument 'heads_per_block'"),
        ({"width": 0}, "width must be >= 1"),
    ])
    def test_checkpoint_config_the_model_lacks_exit_3(self, tmp_path, capsys, change, message):
        path = tmp_path / "model.ckpt"
        golden_checkpoint(path)
        path.write_bytes(rewrite_checkpoint_config(path.read_bytes(), lambda c: {**c, **change}))
        code = main(["rollout", "--checkpoint", str(path), "--env", "gridreach", "-n", "1"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: checkpoint config") and message in err

    def test_bad_json_in_checkpoint_exit_3(self, tmp_path, capsys):
        path = tmp_path / "model.ckpt"
        golden_checkpoint(path)
        magic, version = M.checkpoint.MAGIC, M.checkpoint.CHECKPOINT_VERSION
        body = frame_body(path.read_bytes(), magic, version)
        assert body.endswith(b'{"step": 17}')  # the extra blob
        broken = body[:-12] + b'{"step"  17}'
        path.write_bytes(framed(magic, version, lambda w: w.raw(broken)))
        code = main(["rollout", "--checkpoint", str(path), "--env", "gridreach", "-n", "1"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: checkpoint") and "Expecting ':' delimiter" in err

    def test_needs_checkpoint_or_expert(self, capsys):
        assert main(["rollout", "--env", "gridreach", "-n", "1"]) == EXIT_CONFIG

    def test_expert_with_checkpoint_exit_2_before_reading(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["rollout", "--env", "gridreach", "--expert", "--checkpoint",
                     str(tmp_path / "absent.ckpt"), "-n", "1", "--out", str(out)])
        assert code == EXIT_CONFIG  # an absent checkpoint that was read would exit 3
        assert capsys.readouterr().err == (
            "error: rollout takes exactly one of --checkpoint and --expert\n")
        assert not out.exists()

    def test_bandit_warning_only_for_model_rollouts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["rollout", "--env", "bandit_a", "--expert", "-n", "3",
                     "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "mean_return=1.0" in captured.out
        assert json.loads((out / "rollout_summary.json").read_text())["warnings"] == []
        path = _micro_checkpoint(tmp_path)
        code = main(["rollout", "--checkpoint", str(path), "--env", "bandit_a", "-n", "1"])
        assert code == EXIT_OK
        assert capsys.readouterr().err == (
            "warning: bandit_a is prompt-disambiguated; unprompted rollouts are a coin flip\n")

    def test_expert_rollout_seeds_episode_i_with_seed_plus_i(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["rollout", "--env", "linereacher", "--expert", "--seed", "3", "-n", "2",
                     "--out", str(out)]) == EXIT_OK
        expected = [run_policy_episode(make_env("linereacher", seed=3 + i),
                                       make_expert("linereacher")) for i in range(2)]
        write_episodes(expected, tmp_path / "expected.ep")
        assert read_episodes(out / "transcripts.ep") == read_episodes(tmp_path / "expected.ep")
        summary = json.loads((out / "rollout_summary.json").read_text())
        assert summary["returns"] == [ep.total_return for ep in expected]

    def test_model_rollout_is_evaluate_policy(self, tmp_path, capsys):
        path = _micro_checkpoint(tmp_path)
        code = main(["rollout", "--checkpoint", str(path), "--env", "gridreach",
                     "--temperature", "1", "-n", "3", "--seed", "4"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        printed = [float(l.split("return=")[1]) for l in lines if l.startswith("episode=")]
        loaded = M.load_checkpoint(path)
        state = M.ModelState(cfg=loaded["cfg"], params=loaded["params"], streams=M.RngStreams(0))
        rollout_cfg = RolloutConfig(temperature=1.0)
        expected = evaluate_policy(state, lambda s: make_env("gridreach", s), rollout_cfg, 3, seed=4)
        assert printed == expected.returns

    @pytest.mark.parametrize("flag", _BAD_ROLLOUT_FLAGS)
    def test_bad_context_flags_exit_2(self, tmp_path, capsys, flag):
        path = _micro_checkpoint(tmp_path)
        code = main(["rollout", "--checkpoint", str(path), "--env", "gridreach", "-n", "1",
                     *flag])
        assert code == EXIT_CONFIG
        assert flag[0][2:].replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_episodes_below_one_exit_2_before_reading(self, tmp_path, capsys, episodes):
        out = tmp_path / "out"
        code = main(["rollout", "--checkpoint", str(tmp_path / "absent.ckpt"), "--env",
                     "gridreach", "-n", episodes, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --episodes must be >= 1, got {episodes}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", _BAD_ROLLOUT_FLAGS)
    def test_bad_flags_exit_2_before_reading(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        code = main(["rollout", "--checkpoint", str(tmp_path / "absent.ckpt"), "--env",
                     "gridreach", "-n", "1", "--out", str(out), *flag])
        assert code == EXIT_CONFIG  # an absent checkpoint that was read would exit 3
        assert flag[0][2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    def test_prompt_of_another_task_exit_2(self, tmp_path, capsys):
        prompts, out = tmp_path / "bandit_b", tmp_path / "out"
        assert main(["rollout", "--env", "bandit_b", "--expert", "-n", "1",
                     "--out", str(prompts)]) == EXIT_OK
        path = _micro_checkpoint(tmp_path)
        code = main(["rollout", "--checkpoint", str(path), "--env", "bandit_a", "-n", "1",
                     "--prompt", str(prompts / "transcripts.ep"), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.endswith(
            "error: prompt task 'bandit_b' != env task 'bandit_a'\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", [("--parallel",), ("--context-timesteps", "1")])
    def test_removed_rollout_flags_exit_2(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["rollout", "--expert", "--env", "gridreach", "-n", "1", *flag])
        assert exc.value.code == 2


class TestInspectCommand:
    def test_layout_identity(self, tmp_path, capsys):
        episodes = collect_episodes(GridReach(seed=1), GridReachExpert(), 2)
        path = tmp_path / "grid.ep"
        write_episodes(episodes, path)
        code = main(["inspect", str(path)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "k=0 m=0 n=2 A=1" in text
        assert "violations=0" in text

    def test_corrupted_file_exit_3(self, tmp_path, capsys):
        episodes = collect_episodes(GridReach(seed=1), GridReachExpert(), 1)
        path = tmp_path / "grid.ep"
        write_episodes(episodes, path)
        data = bytearray(path.read_bytes())
        data[-2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert main(["inspect", str(path)]) == EXIT_DATA

    def test_bad_schema_index_or_modality_code_exit_3(self, tmp_path, capsys):
        for bad in (dict(schema_index=99), dict(modality_code=9)):
            path = tmp_path / "bad.ep"
            path.write_bytes(one_stream_record(**bad))
            assert main(["inspect", str(path)]) == EXIT_DATA
            assert "data error" in capsys.readouterr().err

    def test_non_rgb_image_schema_exit_3(self, tmp_path, capsys):
        path = tmp_path / "gray.ep"
        write_episodes([rich_episode()], path)
        body = frame_body(path.read_bytes(), MAGIC, FORMAT_VERSION)
        # the "cam" schema: image code, not an action, not companded, shape (16, 32, 3)
        rgb = b"cam" + bytes([1, 0, 0, 3]) + np.array([16, 32, 3], "<u4").tobytes()
        assert body.count(rgb) == 1
        gray = body.replace(rgb, rgb[:-4] + np.array([1], "<u4").tobytes())
        path.write_bytes(framed(MAGIC, FORMAT_VERSION, lambda w: w.raw(gray)))
        assert main(["inspect", str(path)]) == EXIT_DATA
        assert "cam: image shape must be (H, W, 3), got (16, 32, 1)" in capsys.readouterr().err

    def test_invalid_utf8_task_id_exit_3(self, tmp_path, capsys):
        # a CRC-valid record whose task id byte is 0xFF
        body = bytearray(frame_body(one_stream_record(), MAGIC, FORMAT_VERSION))
        body[4] = 0xFF  # the byte after the task id's u32 length
        path = tmp_path / "bad.ep"
        path.write_bytes(framed(MAGIC, FORMAT_VERSION, lambda w: w.raw(body)))
        assert main(["inspect", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "invalid UTF-8 at frame body byte 4" in err

    @pytest.mark.parametrize("schema, value, message", [
        (TensorSchema.discrete("x", ()), np.int64(5000), "x: discrete value outside [0, 1024)"),
        (TensorSchema.continuous("y", (2,), (-1.0, 1.0)), np.array([0.0, np.nan]),
         "y: non-finite continuous value"),
    ])
    def test_value_the_schema_cannot_encode_exit_3(self, tmp_path, capsys, schema, value,
                                                    message):
        path = tmp_path / "bad.ep"
        write_episodes([_one_observation_episode(schema, value)], path)
        assert main(["inspect", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {message}\n"

    def test_unencodable_record_named_and_counted(self, tmp_path, capsys):
        path = tmp_path / "grid.ep"
        write_episodes(_grid_then_unencodable(), path)
        assert main(["inspect", str(path)]) == EXIT_DATA
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert all(line.startswith(f"episode={n} ") for n, line in enumerate(lines[:40]))
        assert lines[40:] == [
            "episode=40 task=t  VIOLATION: x: discrete value outside [0, 1024)",
            "episodes=41 violations=1",
        ]
        assert captured.err == "data error: x: discrete value outside [0, 1024)\n"

    def test_violations_in_position_order(self):
        seq = manual_sequence([("text", 1_500), ("sep",), ("tensor", 3_000), ("action", 5),
                               ("tensor", 7)])
        seq.tokens[1] = 3
        assert _token_range_violations(seq) == [
            "text token 1500 at 0",
            "separator token 3 at 1",
            "tensor token 3000 at 2",
        ]
        seq.tokens[3] = 2048
        assert _token_range_violations(seq)[-1] == "action token 2048 at 3"

    def test_violations_match_per_element_loop(self):
        def reference(seq):
            problems = []
            legal = lambda tok: 0 <= tok < 1024 or 1024 <= tok < 2048
            for i, src in enumerate(seq.sources):
                src, tok = ElementSource(int(src)), int(seq.tokens[i])
                if src == ElementSource.TEXT and not 0 <= tok < 1024:
                    problems.append(f"text token {tok} at {i}")
                if src == ElementSource.SEPARATOR and tok != 2048:
                    problems.append(f"separator token {tok} at {i}")
                if src == ElementSource.TENSOR and not legal(tok):
                    problems.append(f"tensor token {tok} at {i}")
                if src == ElementSource.ACTION and not legal(tok):
                    problems.append(f"action token {tok} at {i}")
            return problems

        rng = np.random.default_rng(0)
        edge = [-5, 0, 255, 256, 1023, 1024, 2047, 2048, 2049]
        found = 0
        for trial in range(50):
            seq = flatten_episode(rich_episode(seed=trial))
            at = rng.integers(0, len(seq), size=4)
            seq.tokens[at] = rng.choice(edge, size=4)
            assert _token_range_violations(seq) == reference(seq)
            found += len(reference(seq))
        assert found > 50
