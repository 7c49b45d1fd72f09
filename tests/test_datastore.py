import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpolicy import datastore
from seqpolicy import model as M
from seqpolicy.codec import TensorSchema
from seqpolicy.datastore import (
    DatasetManifest,
    LoadedDataset,
    MixtureSampler,
    expert_return,
    filter_episodes,
    load_manifest,
    read_episodes,
    write_episodes,
    write_manifest,
)
from seqpolicy.errors import (
    ChecksumError,
    ExhaustedStreamError,
    RecordFormatError,
    TruncatedRecordError,
    VersionMismatchError,
)
from seqpolicy.sequencer import Episode, Timestep

from conftest import (
    build_layout_episode,
    frame_body,
    framed,
    golden_checkpoint,
    one_stream_record,
    rich_episode,
)


def _reward_episode(r, task="t"):
    schema = TensorSchema.discrete("o", ())
    act = TensorSchema.discrete("a", (), is_action=True)
    ts = Timestep(observations={"o": (schema, np.int64(0))}, action=(act, np.int64(0)))
    return Episode(task_id=task, timesteps=[ts], rewards=[float(r)])


class TestEpisodeRecords:
    def test_roundtrip_bit_exact(self, tmp_path):
        ep = rich_episode()
        path = tmp_path / "ep.bin"
        write_episodes([ep], path)
        assert read_episodes(path) == [ep]

    def test_roundtrip_via_buffer(self):
        ep = rich_episode(1)
        f = io.BytesIO()
        datastore._write_episode(f, ep)
        f.seek(0)
        assert datastore._read_episode(f) == ep
        assert f.tell() == len(f.getvalue())

    def test_empty_episode_roundtrips(self, tmp_path):
        ep = Episode(task_id="empty", timesteps=[], rewards=[])
        write_episodes([ep], tmp_path / "ep.bin")
        assert read_episodes(tmp_path / "ep.bin") == [ep]

    def test_empty_observation_timestep_roundtrips(self, tmp_path):
        ep = Episode(task_id="t", timesteps=[Timestep(observations={})], rewards=[0.0])
        write_episodes([ep], tmp_path / "ep.bin")
        assert read_episodes(tmp_path / "ep.bin") == [ep]

    def test_multiple_records_per_file(self, tmp_path):
        eps = [rich_episode(i, task=f"t{i}") for i in range(3)]
        path = tmp_path / "eps.bin"
        write_episodes(eps, path)
        assert read_episodes(path) == eps

    def test_records_larger_than_the_file_buffer(self, tmp_path):
        # the middle body (20 32x32x3 frames) outgrows one buffered read, so
        # its CRC pass reads past the buffer and seeks back
        pixels = build_layout_episode(T=20, patch_grid=(2, 2), seed=3)
        eps = [rich_episode(0), pixels, rich_episode(1)]
        path = tmp_path / "eps.bin"
        write_episodes(eps, path)
        data = bytearray(path.read_bytes())
        assert len(data) > 20 * 32 * 32 * 3 > io.DEFAULT_BUFFER_SIZE
        assert read_episodes(path) == eps
        data[-10] ^= 0xFF  # a body byte of the third record
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError, match="SQEP"):
            read_episodes(path)

    def test_one_write_per_record_and_no_seek(self, tmp_path, monkeypatch):
        """A seek on the destination file would flush it once per record."""
        real = datastore.atomic_writer
        writes = []

        class WriteOnly:
            def __init__(self, f):
                self.f = f

            def write(self, b):
                writes.append(len(b))
                return self.f.write(b)

        @contextlib.contextmanager
        def write_only(path):
            with real(path) as f:
                yield WriteOnly(f)

        monkeypatch.setattr(datastore, "atomic_writer", write_only)
        eps = [rich_episode(i, task=f"t{i}") for i in range(3)]
        path = tmp_path / "eps.bin"
        write_episodes(eps, path)
        assert len(writes) == 3 and sum(writes) == path.stat().st_size
        assert read_episodes(path) == eps

    # The corruption cases run on both framed formats: an episode record and
    # a checkpoint. Each error must name the format it came from.

    def test_corrupted_length_prefix(self, tmp_path):
        for magic, data, load in _framed_artefacts(tmp_path):
            data[6:14] = (2**40).to_bytes(8, "little")  # body_len field
            with pytest.raises(TruncatedRecordError, match=magic):
                load(data)

    def test_truncated_body(self, tmp_path):
        for magic, data, load in _framed_artefacts(tmp_path):
            with pytest.raises(TruncatedRecordError, match=magic):
                load(data[: len(data) // 2])

    def test_bad_magic(self, tmp_path):
        for magic, data, load in _framed_artefacts(tmp_path):
            data[0:4] = b"JUNK"
            with pytest.raises(TruncatedRecordError, match=magic):
                load(data)

    def test_bad_schema_index_or_modality_code(self):
        episode = datastore._read_episode(io.BytesIO(one_stream_record()))
        assert episode.timesteps[0].observations["o"][1] == 5
        with pytest.raises(RecordFormatError, match="schema index 99"):
            datastore._read_episode(io.BytesIO(one_stream_record(schema_index=99)))
        with pytest.raises(RecordFormatError, match="modality code 9"):
            datastore._read_episode(io.BytesIO(one_stream_record(modality_code=9)))

    def test_version_mismatch(self, tmp_path):
        for magic, data, load in _framed_artefacts(tmp_path):
            data[4:6] = (99).to_bytes(2, "little")
            with pytest.raises(VersionMismatchError, match=magic):
                load(data)

    def test_checksum_failure(self, tmp_path):
        for magic, data, load in _framed_artefacts(tmp_path):
            data[-1] ^= 0xFF  # clobber the stored crc
            with pytest.raises(ChecksumError, match=magic):
                load(data)

    def test_trailing_body_bytes(self, tmp_path):
        for magic, data, load in _framed_artefacts(tmp_path):
            # a CRC-valid frame with 7 bytes after the last field; both formats are at version 1
            body = frame_body(bytes(data), magic.encode(), 1) + bytes(7)
            with pytest.raises(TruncatedRecordError, match="record body has trailing bytes"):
                load(framed(magic.encode(), 1, lambda w: w.raw(body)))

    def test_body_corruption_detected(self, tmp_path):
        rng = np.random.default_rng(5)
        for _, data, load in _framed_artefacts(tmp_path):
            for _ in range(200):
                copy = bytearray(data)
                pos = int(rng.integers(14, len(copy) - 4))
                copy[pos] ^= int(rng.integers(1, 256))
                with pytest.raises(RecordFormatError):
                    load(copy)


def _framed_artefacts(tmp_path):
    """(magic, mutable bytes, loader) for an episode record and a checkpoint."""
    ckpt = tmp_path / "golden.ckpt"
    golden_checkpoint(ckpt)

    def load_episodes(data):
        path = tmp_path / "corrupt.ep"
        path.write_bytes(bytes(data))
        return read_episodes(path)

    def load_checkpoint(data):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(bytes(data))
        return M.load_checkpoint(path)

    episode = tmp_path / "golden.ep"
    write_episodes([rich_episode()], episode)
    return [
        ("SQEP", bytearray(episode.read_bytes()), load_episodes),
        ("SQCK", bytearray(ckpt.read_bytes()), load_checkpoint),
    ]


class TestExpertReturn:
    @staticmethod
    def _brute(returns):
        n = len(returns)
        w = max(1, min(1000, n // 10))
        best = max(sum(returns[j : j + w]) / w for j in range(n - w + 1))
        return best, w

    def test_one_to_twenty(self):
        returns = list(range(1, 21))
        value, w = expert_return(returns)
        assert (value, w) == (19.5, 2)
        assert self._brute(returns) == (19.5, 2)

    def test_constant(self):
        for n in (1, 7, 50):
            value, _ = expert_return([3.25] * n)
            assert value == 3.25

    def test_small_n_uses_max(self):
        returns = [5.0, 1.0, 9.0, 2.0, 4.0]
        value, w = expert_return(returns)
        assert w == 1 and value == 9.0

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce(self, returns):
        value, w = expert_return(returns)
        b_value, b_w = self._brute(returns)
        assert w == b_w
        assert value == pytest.approx(b_value, rel=1e-12, abs=1e-12)

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_between_mean_and_max(self, returns):
        value, _ = expert_return(returns)
        assert value >= np.mean(returns) - 1e-9
        assert value <= max(returns) + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            expert_return([])


class TestFiltering:
    def test_one_to_twenty_keeps_five(self):
        eps = [_reward_episode(r) for r in range(1, 21)]
        kept, report = filter_episodes(eps)
        assert report.expert_return == 19.5
        assert report.window == 2
        assert report.threshold == pytest.approx(15.6)
        assert report.kept == 5 and report.dropped == 15
        assert sorted(ep.total_return for ep in kept) == [16.0, 17.0, 18.0, 19.0, 20.0]

    def test_negative_returns_threshold_below_expert(self):
        eps = [_reward_episode(-r) for r in range(1, 21)]
        kept, report = filter_episodes(eps)
        assert report.expert_return == -1.5
        assert report.threshold == pytest.approx(-1.8)
        assert [ep.total_return for ep in kept] == [-1.0]

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("shift", [-30.0, -10.5, 0.0, 4.0])
    def test_threshold_never_above_expert_return(self, fraction, shift):
        eps = [_reward_episode(r + shift) for r in range(1, 21)]
        _, report = filter_episodes(eps, fraction=fraction)
        assert report.threshold <= report.expert_return

    def test_all_equal_keeps_all(self):
        eps = [_reward_episode(2.0) for _ in range(10)]
        kept, report = filter_episodes(eps)
        assert report.kept == 10 and report.dropped == 0

    def test_fraction_zero_keeps_all(self):
        eps = [_reward_episode(r) for r in range(1, 21)]
        kept, _ = filter_episodes(eps, fraction=0.0)
        assert len(kept) == 20

    def test_idempotent(self):
        eps = [_reward_episode(r) for r in range(1, 21)]
        kept, _ = filter_episodes(eps)
        again, report = filter_episodes(kept)
        assert len(again) == len(kept)
        assert report.dropped == 0


class TestManifest:
    def test_roundtrip(self, tmp_path):
        eps_path = tmp_path / "a.ep"
        write_episodes([_reward_episode(1.0)], eps_path)
        manifest = [DatasetManifest(name="alpha", paths=[str(eps_path)], sample_weight=0.75)]
        mpath = tmp_path / "mix.cfg"
        write_manifest(manifest, mpath)
        loaded = load_manifest(mpath)
        assert loaded[0].name == "alpha"
        assert loaded[0].paths == [str(eps_path)]
        assert loaded[0].sample_weight == 0.75

    def test_glob_expansion(self, tmp_path):
        for i in range(3):
            write_episodes([_reward_episode(i)], tmp_path / f"shard{i}.ep")
        mpath = tmp_path / "mix.cfg"
        mpath.write_text("[d]\npaths = shard*.ep\nweight = 1.0\n")
        loaded = load_manifest(mpath)
        assert len(loaded[0].paths) == 3
        assert loaded[0].paths == sorted(loaded[0].paths)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            DatasetManifest(name="x", paths=[], sample_weight=0.0)

    def test_unknown_keys_rejected(self, tmp_path):
        mpath = tmp_path / "mix.cfg"
        mpath.write_text("[d]\npaths = x.ep\nweight = 1.0\nbogus = 2\n")
        with pytest.raises(ValueError, match="unknown"):
            load_manifest(mpath)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "nope.cfg")


def _loaded(name, episodes, weight=1.0):
    manifest = DatasetManifest(name=name, paths=[], sample_weight=weight)
    return LoadedDataset(manifest, episodes=episodes)


class TestMixture:
    def test_single_dataset(self):
        ds = _loaded("only", [_reward_episode(1.0, task="a") for _ in range(4)])
        sampler = MixtureSampler([ds], seq_len=8, rng=np.random.default_rng(0))
        for _ in range(20):
            item, _ = sampler.draw()
            assert item.dataset == "only"
            assert len(item) == 3  # the whole 3-element episode, unpadded

    def test_weighted_fractions(self):
        a = _loaded("a", [_reward_episode(1.0, task="a")], weight=0.75)
        b = _loaded("b", [_reward_episode(1.0, task="b")], weight=0.25)
        sampler = MixtureSampler([a, b], seq_len=4, rng=np.random.default_rng(1))
        n = 10_000
        hits = sum(sampler.draw()[0].dataset == "a" for _ in range(n))
        assert abs(hits / n - 0.75) < 0.02

    def test_seeded_reproducibility(self):
        def run():
            ds = _loaded("d", [build_layout_episode(T=4, tensor_shape=(2,), seed=s) for s in range(5)])
            sampler = MixtureSampler([ds], seq_len=10, rng=np.random.default_rng(42))
            return [sampler.draw()[0].tokens.tolist() for _ in range(50)]

        assert run() == run()

    def test_all_empty_rejected(self):
        ds = _loaded("empty", [])
        with pytest.raises(ExhaustedStreamError):
            MixtureSampler([ds], seq_len=4, rng=np.random.default_rng(0))

    def test_empty_dataset_dropped(self):
        a = _loaded("a", [_reward_episode(1.0, task="a")])
        b = _loaded("b", [])
        sampler = MixtureSampler([a, b], seq_len=4, rng=np.random.default_rng(0))
        assert [ds.name for ds in sampler.datasets] == ["a"]

    def test_prompt_source_same_task(self):
        eps = [_reward_episode(1.0, task="x"), _reward_episode(2.0, task="y")]
        ds = _loaded("d", eps)
        sampler = MixtureSampler([ds], seq_len=4, rng=np.random.default_rng(0))
        tasks = set()
        for _ in range(20):
            window, source = sampler.draw()
            assert source.task_id == window.task_id
            assert source is ds.flattened(ds.by_task[window.task_id][0])
            tasks.add(window.task_id)
        assert tasks == {"x", "y"}
