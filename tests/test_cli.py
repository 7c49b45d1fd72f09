from pathlib import Path

import numpy as np
import pytest

from seqpolicy.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main, parse_config_file, resolve_config
from seqpolicy.corpora import build_dataset, collect_episodes
from seqpolicy.datastore import load_manifest, read_episodes, write_episodes, write_manifest
from seqpolicy.envs import GridReach, GridReachExpert
from seqpolicy.errors import ConfigError
from seqpolicy.sequencer import Episode, Timestep
from seqpolicy.codec import TensorSchema


def _reward_episode(r, task="t"):
    schema = TensorSchema.discrete("o", ())
    act = TensorSchema.discrete("a", (), is_action=True)
    ts = Timestep(observations={"o": (schema, np.int64(0))}, action=(act, np.int64(0)))
    return Episode(task_id=task, timesteps=[ts], rewards=[float(r)])


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
        monkeypatch.setenv("SEQPOLICY_SEED", "77")
        resolved = resolve_config("pretrain", None, [], None)
        assert resolved["seed"] == 77
        resolved = resolve_config("pretrain", None, [], 5)
        assert resolved["seed"] == 5  # flag wins over the environment

    def test_bool_coercion(self):
        resolved = resolve_config("pretrain", None, ["model.zero_action_inputs=true"], None)
        assert resolved["model.zero_action_inputs"] is True
        with pytest.raises(ConfigError):
            resolve_config("pretrain", None, ["model.zero_action_inputs=maybe"], None)


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
            "--set", "model.vocab=33025",
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
            "--set", "model.vocab=33025", "--set", "model.local_pos_table=16",
            "--set", "out_dir=runs/grid", "--seed", "0",
        ])
        assert code == EXIT_OK
        assert (tmp_path / "runs" / "grid" / "final.ckpt").exists()

    def test_empty_mixture_exit_3(self, tmp_path, capsys):
        mpath = tmp_path / "manifest.cfg"
        mpath.write_text("[nothing]\npaths = missing/*.ep\nweight = 1.0\n")
        code = main(["pretrain", "--set", f"manifest={mpath}",
                     "--set", f"out_dir={tmp_path / 'run'}"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "empty" in err
        assert err.count("\n") == 1


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
        code = main(["rollout", "--env", "bandit_a", "--expert", "-n", "2",
                     "--prompt", str(tmp_path / "absent.ep")])
        assert code == EXIT_OK
        assert "warning" in capsys.readouterr().err

    def test_needs_checkpoint_or_expert(self, capsys):
        assert main(["rollout", "--env", "gridreach", "-n", "1"]) == EXIT_CONFIG


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
