import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpolicy import sequencer
from seqpolicy.codec import SEPARATOR_TOKEN, TensorSchema
from seqpolicy.corpora import collect_episodes, synthetic_text_episodes
from seqpolicy.envs import ENV_NAMES, make_env, make_expert
from seqpolicy.errors import SchemaError
from seqpolicy.trainer import _draw_batch
from seqpolicy.sequencer import (
    ElementSequence,
    ElementSource,
    Episode,
    Timestep,
    apply_prompt,
    assemble_batch,
    episode_layout,
    flatten_episode,
    mask_of,
    order_observation,
    sample_subsequence,
    targets_of,
)

from conftest import (
    build_layout_episode,
    manual_sequence,
    mixed_items,
    mixed_sampler,
    rich_episode,
)

SEQUENCE_ARRAYS = ("sources", "tokens", "local_pos", "timestep", "patch_pixels", "patch_intervals")


def _discrete_obs(key, values):
    arr = np.asarray(values, dtype=np.int64)
    return key, (TensorSchema.discrete(key, arr.shape), arr)


class TestOrderObservation:
    def test_lexicographic_keys(self):
        obs = dict([_discrete_obs("b", [2, 3]), _discrete_obs("a", [1])])
        assert [schema.key for schema, _ in order_observation(obs)] == ["a", "b"]

    def test_modality_groups(self):
        obs = {
            "vec": (
                TensorSchema.continuous("vec", (2,), (-1.0, 1.0)),
                np.zeros(2),
            ),
            "img": (
                TensorSchema.image("img", 16, 16, 3),
                np.zeros((16, 16, 3), dtype=np.uint8),
            ),
            "txt": (TensorSchema.text("txt"), "A"),
        }
        streams = order_observation(obs)
        assert [schema.key for schema, _ in streams] == ["txt", "img", "vec"]
        assert streams[0] == obs["txt"]

    def test_empty(self):
        assert order_observation({}) == []

    def test_insertion_order_irrelevant(self):
        pairs = [_discrete_obs("x", [5]), _discrete_obs("m", [6]), _discrete_obs("a", [7])]
        forward = order_observation(dict(pairs))
        backward = order_observation(dict(reversed(pairs)))
        keys = [schema.key for schema, _ in forward]
        assert keys == [schema.key for schema, _ in backward] == ["a", "m", "x"]


class TestFlattenTimestep:
    """A one-timestep episode flattens to its observations, separator and action."""

    def _flat(self, terminal=False):
        obs = dict([_discrete_obs("obs", [1, 2, 3])])
        action = None
        if not terminal:
            schema = TensorSchema.discrete("act", (2,), is_action=True)
            action = (schema, np.array([9, 8]))
        return flatten_episode(Episode("t", [Timestep(observations=obs, action=action)], [0.0]))

    def test_separator_position(self):
        seq = self._flat()
        assert len(seq) == 6
        assert seq.sources[3] == ElementSource.SEPARATOR
        assert seq.tokens[3] == SEPARATOR_TOKEN

    def test_terminal(self):
        seq = self._flat(terminal=True)
        assert len(seq) == 4
        assert seq.sources[-1] == ElementSource.SEPARATOR

    def test_mask_bits(self):
        assert mask_of(self._flat().sources).tolist() == [0, 0, 0, 0, 1, 1]


class TestFlattenEpisode:
    def test_layout_formula(self):
        # T=3, k=2, m=4, n=3, A=2 -> 3 * (2 + 4 + 3 + 1 + 2) = 36
        ep = build_layout_episode(
            T=3, text_len=2, patch_grid=(2, 2), tensor_shape=(3,), action_shape=(2,)
        )
        seq = flatten_episode(ep)
        layout = episode_layout(ep)
        assert (layout.k, layout.m, layout.n, layout.A, layout.T) == (2, 4, 3, 2, 3)
        assert len(seq) == layout.total == 36

    def test_mask_count(self):
        ep = build_layout_episode(T=4, text_len=3, tensor_shape=(2,), action_shape=(2,))
        seq = flatten_episode(ep)
        assert int(mask_of(seq.sources).sum()) == 4 * (3 + 2)

    def test_deterministic(self):
        ep = build_layout_episode(T=3, text_len=1, patch_grid=(1, 1), tensor_shape=(2,))
        a, b = flatten_episode(ep), flatten_episode(ep)
        for name in SEQUENCE_ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_local_positions(self):
        ep = build_layout_episode(T=2, tensor_shape=(3,), action_shape=(2,))
        seq = flatten_episode(ep)
        per_step = len(seq) // 2
        expected = [0, 1, 2, sequencer.LOCAL_NONE, sequencer.LOCAL_NONE, sequencer.LOCAL_NONE]
        assert seq.local_pos[:per_step].tolist() == expected
        assert seq.local_pos[per_step:].tolist() == expected

    def test_targets_follow_sources(self):
        ep = build_layout_episode(T=2, text_len=2, tensor_shape=(2,), action_shape=(1,))
        seq = flatten_episode(ep)
        targets, mask = targets_of(seq.sources, seq.tokens), mask_of(seq.sources)
        for i, src in enumerate(seq.sources):
            src = ElementSource(int(src))
            if src in (ElementSource.TEXT, ElementSource.ACTION, ElementSource.SEPARATOR):
                assert targets[i] == seq.tokens[i]
            else:
                assert targets[i] == sequencer.TARGET_NONE
        # mask=1 implies a concrete target
        assert np.all(targets[mask == 1] >= 0)
        # separators never masked
        sep = seq.sources == ElementSource.SEPARATOR
        assert not np.any(mask[sep])

    def test_inconsistent_schema_rejected(self):
        s1 = TensorSchema.discrete("o", (1,))
        s2 = TensorSchema.discrete("o", (2,))
        ep = Episode(
            task_id="t",
            timesteps=[
                Timestep({"o": (s1, np.array([1]))}),
                Timestep({"o": (s2, np.array([1, 2]))}),
            ],
            rewards=[0.0, 0.0],
        )
        with pytest.raises(SchemaError):
            flatten_episode(ep)

    @given(
        T=st.integers(1, 4),
        text_len=st.integers(0, 3),
        grid=st.tuples(st.integers(0, 2), st.integers(1, 2)),
        n_len=st.integers(0, 4),
        a_len=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_layout_identity_property(self, T, text_len, grid, n_len, a_len):
        patch_grid = None if grid[0] == 0 else grid
        tensor_shape = None if n_len == 0 else (n_len,)
        ep = build_layout_episode(
            T=T,
            text_len=text_len,
            patch_grid=patch_grid,
            tensor_shape=tensor_shape,
            action_shape=(a_len,),
        )
        seq = flatten_episode(ep)
        layout = episode_layout(ep)
        assert len(seq) == layout.T * (layout.k + layout.m + layout.n + 1 + layout.A)
        assert int(mask_of(seq.sources).sum()) == layout.T * (layout.k + layout.A)


# SHA-256 of the flattened arrays of the episodes below, pinned before the
# flattening loop was rewritten and re-pinned when the bins moved from
# [32000, 33024) to [1024, 2048): the former arrays with every id from 32000 up
# lowered by 30976 give this value. Any other change to flattening moves it.
FLATTEN_DIGEST = "9afba1317f635784268a73fd39954fd3d28adf0bb2495ddadd051850a56fc64c"


def _golden_episodes():
    episodes = []
    for name, seed in (("gridreach", 3), ("linereacher", 4), ("bandit_a", 5), ("bandit_b", 6)):
        episodes += collect_episodes(make_env(name, seed), make_expert(name), 3)
    episodes += synthetic_text_episodes(3, seed=7)
    episodes.append(build_layout_episode(
        T=3, text_len=2, patch_grid=(2, 1), tensor_shape=(3,), action_shape=(2,), seed=8
    ))
    episodes.append(rich_episode(seed=9))
    return episodes


def test_flatten_golden_digest():
    h = hashlib.sha256()
    patch_count = 0
    for ep in _golden_episodes():
        seq = flatten_episode(ep)
        mask, targets = mask_of(seq.sources), targets_of(seq.sources, seq.tokens)
        for arr in (seq.sources, seq.tokens, seq.local_pos, mask, targets, seq.timestep):
            h.update(arr.dtype.str.encode())
            h.update(arr.tobytes())
        for k, pos in enumerate(np.flatnonzero(seq.sources == ElementSource.PATCH)):
            h.update(np.int64(pos).tobytes())
            h.update(seq.patch_pixels.dtype.str.encode())
            h.update(seq.patch_pixels[k].tobytes())
            h.update(seq.patch_intervals[k].tobytes())
            patch_count += 1
    assert patch_count == 12
    assert h.hexdigest() == FLATTEN_DIGEST


# SHA-256 of 20 training batches drawn from ``mixed_sampler(9)``, pinned
# while windows were still padded to the training length and unpadded again
# by a separate packing pass, and re-pinned for the id renumbering like
# FLATTEN_DIGEST; any other change to what training sees moves it.
DRAWN_BATCHES_DIGEST = "bb7be1f141a93317f5076faf706c45c78cb2762c649c08eb2b70a4aea43a668b"


def test_drawn_batches_golden_digest():
    sampler = mixed_sampler(seed=9)
    h = hashlib.sha256()
    for _ in range(20):
        batch, prompted = _draw_batch(sampler, 8, 0.5)
        h.update(np.int64(prompted).tobytes())
        derived = {"mask": mask_of(batch.sources),
                   "targets": targets_of(batch.sources, batch.tokens)}
        for name in ("tokens", "sources", "local_pos", "mask", "targets", "segments",
                     "patch_pixels", "patch_slots", "patch_intervals"):
            arr = derived[name] if name in derived else getattr(batch, name)
            h.update(name.encode())
            if arr is not None:
                h.update(arr.dtype.str.encode() + repr(arr.shape).encode() + arr.tobytes())
        h.update(repr(batch.provenance).encode())
    # the digest was pinned with the trainer's skipped-prompt counter, always 0
    h.update(repr({"prompt_skipped": 0}).encode())
    h.update(repr(sampler.rng.bit_generator.state).encode())
    assert h.hexdigest() == DRAWN_BATCHES_DIGEST


class TestSampleSubsequence:
    def _seq(self, n=10):
        ep = build_layout_episode(T=n, tensor_shape=(), action_shape=())
        return flatten_episode(ep)

    def test_identity_window(self):
        seq = self._seq(5)  # 3 elements per step, 15 total
        rng = np.random.default_rng(0)
        out = sample_subsequence(seq, len(seq), rng)
        assert np.array_equal(out.tokens, seq.tokens)

    def test_padding(self):
        # a sequence shorter than the window comes back whole, unpadded
        seq = self._seq(2)  # 6 elements
        out = sample_subsequence(seq, 11, np.random.default_rng(0))
        assert len(out) == 6
        for name in SEQUENCE_ARRAYS:
            assert np.array_equal(getattr(out, name), getattr(seq, name))

    def test_uniform_starts(self):
        seq = self._seq(10)  # 30 elements
        L = 21  # 10 valid starts
        rng = np.random.default_rng(7)
        counts = np.zeros(10, dtype=np.int64)
        draws = 10_000
        for _ in range(draws):
            out = sample_subsequence(seq, L, rng)
            start = int(np.nonzero(seq.tokens == out.tokens[0])[0][0])
            # tokens may repeat; identify the start via full-window match
            for s in range(10):
                if np.array_equal(seq.tokens[s : s + L], out.tokens):
                    start = s
                    break
            counts[start] += 1
        expected = draws / 10
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 27.9  # chi-square 9 dof, p = 0.001

    def test_empty_rejected(self):
        seq = self._seq(1).slice(0, 0)
        with pytest.raises(ValueError):
            sample_subsequence(seq, 4, np.random.default_rng(0))


class TestApplyPrompt:
    def _item_and_source(self, L=8, T_item=1, T_src=3):
        item_ep = build_layout_episode(T=T_item, tensor_shape=(), action_shape=(), seed=1)
        src_ep = build_layout_episode(T=T_src, tensor_shape=(), action_shape=(), seed=2)
        return flatten_episode(item_ep), flatten_episode(src_ep)

    def test_forced_no_prompt(self, scripted_rng):
        item, src = self._item_and_source()
        out, prompted = apply_prompt(item, src, scripted_rng(randoms=[0.9]), 8)
        assert not prompted
        assert np.array_equal(out.tokens, item.tokens)

    def test_forced_end_prompt(self, scripted_rng):
        item, src_seq = self._item_and_source(L=8, T_item=1, T_src=3)
        # prompt budget = L // 2 = 4 -> last 4 tokens of the source
        out, prompted = apply_prompt(item, src_seq, scripted_rng(randoms=[0.0, 0.0]), 8)
        assert prompted
        assert np.array_equal(out.tokens[:4], src_seq.tokens[-4:])
        assert np.array_equal(out.tokens[4:], item.tokens)
        assert len(out) == 7

    def test_prompt_keeps_modality_mask(self, scripted_rng):
        item, src_seq = self._item_and_source()
        out, _ = apply_prompt(item, src_seq, scripted_rng(randoms=[0.0, 0.0]), 8)
        assert np.array_equal(mask_of(out.sources[:4]), mask_of(src_seq.sources[-4:]))

    def test_prompt_timesteps_negative(self, scripted_rng):
        item, src = self._item_and_source()
        out, _ = apply_prompt(item, src, scripted_rng(randoms=[0.0, 0.0]), 8)
        assert np.all(out.timestep[:4] < 0)
        assert out.timestep[4] == 0

    def test_task_mismatch_rejected(self):
        item, _ = self._item_and_source()
        other = flatten_episode(
            build_layout_episode(T=1, tensor_shape=(), action_shape=(), task_id="other")
        )
        with pytest.raises(ValueError):
            apply_prompt(item, other, np.random.default_rng(0), 8)

    def test_prompted_fraction(self):
        item, src = self._item_and_source(L=8)
        rng = np.random.default_rng(11)
        hits = sum(apply_prompt(item, src, rng, 8)[1] for _ in range(10_000))
        assert abs(hits / 10_000 - 0.25) < 0.02

    def test_full_item_tail_displaced(self, scripted_rng):
        item_ep = build_layout_episode(T=2, tensor_shape=(), action_shape=(), seed=1)
        item = flatten_episode(item_ep)  # 6 elements, no padding
        src_seq = flatten_episode(item_ep)
        out, prompted = apply_prompt(item, src_seq, scripted_rng(randoms=[0.0, 0.0]), 6)
        assert prompted
        # budget = 6 // 2 = 3 prompt elements, then the first 3 item elements
        assert np.array_equal(out.tokens[:3], src_seq.tokens[-3:])
        assert np.array_equal(out.tokens[3:], item.tokens[:3])


class TestAssembleBatch:
    def _items(self, n=2, L=12):
        ep = build_layout_episode(T=2, text_len=1, patch_grid=(1, 1), tensor_shape=(1,))
        return [flatten_episode(ep).slice(0, L) for _ in range(n)]

    def test_identical_rows(self):
        batch = assemble_batch(self._items(2))
        assert np.array_equal(batch.tokens[0], batch.tokens[1])
        assert batch.batch_size == 2

    def test_mask_sum_additive(self):
        items = self._items(3)
        batch = assemble_batch(items)
        expected = sum(int(mask_of(it.sources).sum()) for it in items)
        assert int(mask_of(batch.sources).sum()) == expected

    def test_unbatch_roundtrip(self):
        # every window's elements and patches can be read back from its segment
        ep = build_layout_episode(T=3, text_len=1, patch_grid=(1, 1), tensor_shape=(1,))
        seq = flatten_episode(ep)
        items = [seq.slice(0, 5), seq.slice(2, 14), seq.slice(0, 7)]
        batch = assemble_batch(items)
        assert batch.batch_size == 2
        for w, item in enumerate(items):
            rows, cols = np.nonzero(batch.segments == w)
            rows, cols = rows[: len(item)], cols[: len(item)]
            for name in ("sources", "tokens", "local_pos"):
                assert np.array_equal(getattr(batch, name)[rows, cols], getattr(item, name))
            mine = [k for k, (r, c) in enumerate(batch.patch_slots) if batch.segments[r, c] == w]
            positions = np.flatnonzero(item.sources == ElementSource.PATCH)
            assert (batch.patch_slots[mine, 1] - cols[0]).tolist() == positions.tolist()
            assert np.array_equal(batch.patch_pixels[mine], item.patch_pixels)
            assert np.array_equal(batch.patch_intervals[mine], item.patch_intervals)
        assert batch.provenance == [(it.task_id, it.dataset) for it in items]

    def test_shifted_views(self):
        batch = assemble_batch(self._items(1))
        [item] = self._items(1)
        targets = targets_of(item.sources, item.tokens)
        assert np.array_equal(batch.shifted_targets()[0, :-1], targets[1:])
        assert batch.shifted_targets()[0, -1] == sequencer.TARGET_NONE
        assert np.array_equal(batch.shifted_mask()[0, :-1], mask_of(item.sources)[1:])
        assert batch.shifted_mask()[0, -1] == 0

    def test_mixed_patch_channels_rejected(self):
        # mixed channel counts never reach a batch: every image schema is RGB
        for channels in (1, 4):
            with pytest.raises(SchemaError, match=r"\(H, W, 3\)"):
                TensorSchema.image("img", 16, 16, channels)


class TestPatchRows:
    def _seq(self):
        return manual_sequence([
            ("text", 1), ("patch", (0.0, 0.5), (0.0, 1.0)), ("patch", (0.5, 1.0), (0.0, 1.0)),
        ])

    def test_row_count_must_match_patch_elements(self):
        seq = self._seq()
        arrays = dict(
            sources=seq.sources, tokens=seq.tokens, local_pos=seq.local_pos, timestep=seq.timestep
        )
        for pixels, intervals in (
            (seq.patch_pixels[:1], seq.patch_intervals[:1]),
            (seq.patch_pixels, seq.patch_intervals[:1]),
            (None, None),
        ):
            with pytest.raises(SchemaError):
                ElementSequence(**arrays, patch_pixels=pixels, patch_intervals=intervals)
        text_only = {name: arr[:1] for name, arr in arrays.items()}
        with pytest.raises(SchemaError):
            ElementSequence(
                **text_only,
                patch_pixels=seq.patch_pixels[:1],
                patch_intervals=seq.patch_intervals[:1],
            )

    def test_slice_keeps_rows_aligned(self):
        seq = self._seq()
        assert seq.slice(0, 1).patch_pixels is None
        tail = seq.slice(2, 3)
        assert np.array_equal(tail.patch_pixels, seq.patch_pixels[1:])
        assert np.array_equal(tail.patch_intervals, seq.patch_intervals[1:])
        again = sequencer.concat_sequences([seq.slice(0, 2), tail])
        for name in SEQUENCE_ARRAYS:
            assert np.array_equal(getattr(again, name), getattr(seq, name))


def _table_cases():
    """Name -> (sources, tokens, local_pos) of flattened, prompted and packed data."""
    cases = {}
    for name in ENV_NAMES:
        cases[name] = flatten_episode(collect_episodes(make_env(name, 1), make_expert(name), 1)[0])
    cases["text"] = flatten_episode(synthetic_text_episodes(1, seed=2, words_per_doc=4)[0])
    cases["rich"] = flatten_episode(rich_episode(seed=1))
    cases["prompted"] = mixed_items()[-1]
    packed = assemble_batch(mixed_items())
    assert (packed.sources == ElementSource.PAD).any()
    cases["packed"] = packed
    return {name: (c.sources, c.tokens, c.local_pos) for name, c in cases.items()}


class TestSourceTables:
    """The per-source tables agree with what flattening and packing emit."""

    TABLES = ("HAS_TOKEN", "OBSERVATION", "RESERVED_SLOT", "TOKEN_RANGE",
              "_LOSS_TABLE", "_TARGET_TABLE")

    @pytest.fixture(scope="class")
    def cases(self):
        return _table_cases()

    @pytest.mark.parametrize("table", TABLES)
    def test_one_entry_per_source(self, table):
        assert len(getattr(sequencer, table)) == len(ElementSource)

    @pytest.mark.parametrize("case", [*ENV_NAMES, "text", "rich", "prompted", "packed"])
    def test_tables_match_emitted_elements(self, cases, case):
        sources, tokens, local_pos = cases[case]
        has = sequencer.HAS_TOKEN[sources]
        np.testing.assert_array_equal(has, tokens >= 0)
        np.testing.assert_array_equal(sequencer.OBSERVATION[sources], local_pos >= 0)
        lo, hi = np.moveaxis(sequencer.TOKEN_RANGE[sources], -1, 0)
        assert has.any() and ((lo <= tokens) & (tokens < hi))[has].all()
