import hashlib
import os

import pytest

from seqpolicy import model as M
from seqpolicy.datastore import encode_episode, read_episodes, write_episodes

from conftest import golden_checkpoint, micro_cfg, rich_episode

# SHA-256 of the golden inputs as written by format v1 of each artefact.
# Any change to these bytes breaks every corpus and checkpoint on disk.
EPISODE_SHA256 = "929a6da7ce54513e2775ba2d1166f89e4115cab40d0894164c49a2b76be23b75"
CHECKPOINT_SHA256 = "c1ea4cdbdd84d7cf28628beb46c5b86ac1fa283a472628e54fa6cafc0c02709d"


class TestGoldenBytes:
    def test_episode_record_digest(self):
        data = encode_episode(rich_episode())
        assert len(data) == 5026
        assert hashlib.sha256(data).hexdigest() == EPISODE_SHA256

    def test_checkpoint_digest(self, tmp_path):
        path = tmp_path / "golden.ckpt"
        golden_checkpoint(path)
        data = path.read_bytes()
        assert len(data) == 293329
        assert hashlib.sha256(data).hexdigest() == CHECKPOINT_SHA256


def _failing_replace(src, dst):
    raise OSError("simulated crash before the rename")


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

    def test_write_replaces_previous_file(self, tmp_path):
        path = tmp_path / "corpus.ep"
        write_episodes([rich_episode(0)], path)
        write_episodes([rich_episode(1)], path)
        assert read_episodes(path) == [rich_episode(1)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.ep"]
