import hashlib
import os

import numpy as np
import pytest

from seqpolicy import model as M
from seqpolicy.cli import _log_resolved, main
from seqpolicy.datastore import (
    DatasetManifest,
    read_episodes,
    write_episodes,
    write_manifest,
)

from seqpolicy.errors import NonFiniteAbort
from seqpolicy.trainer import TrainConfig, pretrain

from conftest import (
    MIXED_LEN,
    golden_checkpoint,
    micro_cfg,
    mixed_sampler,
    rewrite_checkpoint_config,
    rich_episode,
)

# SHA-256 of the golden inputs as written by format v1 of each artefact.
# Any change to these bytes breaks every corpus and checkpoint on disk.
EPISODE_SHA256 = "929a6da7ce54513e2775ba2d1166f89e4115cab40d0894164c49a2b76be23b75"
CHECKPOINT_SHA256 = "cbaeba9a1a7b24707b1c2d90b694fcfb289a585e877f5dfe8779e0cdbaca5a18"
# The golden checkpoint as written while its config still held
# ``patch_channels`` and ``zero_action_inputs``; such files still load.
FORMER_CHECKPOINT_SHA256 = "c1ea4cdbdd84d7cf28628beb46c5b86ac1fa283a472628e54fa6cafc0c02709d"


def _with_former_fields(cfg: dict) -> dict:
    """A config dict with the two former fields, in their old JSON key order."""
    out = {}
    for key, value in cfg.items():
        out[key] = value
        if key == "patch_pos_vocab":
            out["patch_channels"] = 3
    return {**out, "zero_action_inputs": False}


def _assert_same_tensors(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].shape == b[name].shape and a[name].tobytes() == b[name].tobytes(), name


class TestGoldenBytes:
    def test_episode_record_digest(self, tmp_path):
        write_episodes([rich_episode()], tmp_path / "golden.ep")
        data = (tmp_path / "golden.ep").read_bytes()
        assert len(data) == 5026
        assert hashlib.sha256(data).hexdigest() == EPISODE_SHA256

    def test_checkpoint_digest(self, tmp_path):
        path = tmp_path / "golden.ckpt"
        golden_checkpoint(path)
        data = path.read_bytes()
        assert len(data) == 293279
        assert hashlib.sha256(data).hexdigest() == CHECKPOINT_SHA256

    def test_checkpoint_with_former_fields_loads(self, tmp_path):
        path, former = tmp_path / "golden.ckpt", tmp_path / "former.ckpt"
        golden_checkpoint(path)
        former.write_bytes(rewrite_checkpoint_config(path.read_bytes(), _with_former_fields))
        data = former.read_bytes()
        assert len(data) == 293329
        assert hashlib.sha256(data).hexdigest() == FORMER_CHECKPOINT_SHA256
        new, old = M.load_checkpoint(path), M.load_checkpoint(former)
        assert old["cfg"] == new["cfg"]
        assert (old["rng_states"], old["extra"]) == (new["rng_states"], new["extra"])
        assert old["optimizer_state"]["step"] == new["optimizer_state"]["step"] == 17
        for group in ("m", "v"):
            _assert_same_tensors(old["optimizer_state"][group], new["optimizer_state"][group])
        _assert_same_tensors(old["params"], new["params"])


def _failing_replace(src, dst):
    raise OSError("simulated crash before the rename")


def _failing_replace_of(name):
    """``os.replace`` that fails only when it would create ``name``."""
    real = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == name:
            _failing_replace(src, dst)
        real(src, dst)

    return replace


class TestAtomicWrites:
    def test_failed_checkpoint_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "final.ckpt"
        golden_checkpoint(path)
        before = path.read_bytes()
        cfg = micro_cfg(vocab=64)
        monkeypatch.setattr(os, "replace", _failing_replace)
        with pytest.raises(OSError, match="simulated"):
            M.save_checkpoint(path, cfg, M.init_params(cfg, seed=0))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["final.ckpt"]

    def test_failed_episode_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.ep"
        write_episodes([rich_episode(0)], path)
        before = path.read_bytes()
        monkeypatch.setattr(os, "replace", _failing_replace)
        with pytest.raises(OSError, match="simulated"):
            write_episodes([rich_episode(1), rich_episode(2)], path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.ep"]

    def test_failed_manifest_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "manifest.cfg"
        write_manifest([DatasetManifest(name="old", paths=["a.ep"], sample_weight=1.0)], path)
        before = path.read_bytes()
        monkeypatch.setattr(os, "replace", _failing_replace)
        with pytest.raises(OSError, match="simulated"):
            write_manifest([DatasetManifest(name="new", paths=["b.ep"], sample_weight=2.0)], path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.cfg"]

    def test_write_replaces_previous_file(self, tmp_path):
        path = tmp_path / "corpus.ep"
        write_episodes([rich_episode(0)], path)
        write_episodes([rich_episode(1)], path)
        assert read_episodes(path) == [rich_episode(1)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.ep"]

    def test_failed_resolved_config_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "resolved_config.txt"
        _log_resolved("pretrain", {"steps": 1}, tmp_path)
        before = path.read_bytes()
        monkeypatch.setattr(os, "replace", _failing_replace)
        with pytest.raises(OSError, match="simulated"):
            _log_resolved("pretrain", {"steps": 2}, tmp_path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["resolved_config.txt"]

    def test_failed_rollout_summary_write_keeps_previous_file(self, tmp_path, monkeypatch):
        args = ["rollout", "--env", "linereacher", "--expert", "--out", str(tmp_path)]
        assert main(args + ["-n", "1"]) == 0
        path = tmp_path / "rollout_summary.json"
        before = path.read_bytes()
        monkeypatch.setattr(os, "replace", _failing_replace_of("rollout_summary.json"))
        with pytest.raises(OSError, match="simulated"):
            main(args + ["-n", "2"])
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "rollout_summary.json", "transcripts.ep"]

    def test_failed_abort_dump_write_keeps_previous_file(self, tmp_path, monkeypatch):
        def diverging_run():
            state = M.ModelState.initialize(
                micro_cfg(vocab=33025, context=MIXED_LEN, local_pos_table=64), seed=0
            )
            state.params["embed/vocab"][:] = np.nan
            cfg = TrainConfig(steps=1, batch_size=2, seq_len=MIXED_LEN, checkpoint_every=0)
            pretrain(mixed_sampler(seed=1), state, cfg, out_dir=tmp_path)

        with pytest.raises(NonFiniteAbort):
            diverging_run()
        path = tmp_path / "abort_dump.json"
        before = path.read_bytes()
        monkeypatch.setattr(os, "replace", _failing_replace)
        with pytest.raises(OSError, match="simulated"):
            diverging_run()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["abort_dump.json"]
