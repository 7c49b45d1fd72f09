import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpolicy import codec
from seqpolicy.codec import (
    CONTINUOUS_BASE,
    CONTINUOUS_BINS,
    CONTINUOUS_END,
    SEPARATOR_TOKEN,
    TEXT_VOCAB,
    VOCAB_SIZE,
    Modality,
    TensorSchema,
)
from seqpolicy.errors import SchemaError


def test_vocab_layout():
    assert TEXT_VOCAB == 1024
    assert CONTINUOUS_BASE == 1024 and CONTINUOUS_END == 2048
    assert SEPARATOR_TOKEN == 2048
    assert VOCAB_SIZE == 2049


class TestMuLaw:
    def test_zero_maps_to_zero(self):
        assert codec.mu_law_compand(0.0) == 0.0
        assert codec.mu_law_expand(0.0) == 0.0

    def test_known_values(self):
        # oracle: direct high-precision evaluation of the companding formula
        assert codec.mu_law_compand(1.0) == pytest.approx(
            math.log(101.0) / math.log(25601.0), rel=1e-14
        )
        assert codec.mu_law_compand(-0.5) == pytest.approx(
            -(math.log(51.0) / math.log(25601.0)), rel=1e-14
        )

    def test_odd_symmetry_exact(self):
        for x in [1e-6, 0.25, 0.7, 3.0, 100.0, 256.0]:
            assert codec.mu_law_compand(-x) == -codec.mu_law_compand(x)

    def test_expand_known_values(self):
        # ((M*mu + 1)^1 - 1) / mu = 25600 / 100 = 256
        assert codec.mu_law_expand(1.0) == pytest.approx(256.0, rel=1e-12)
        assert codec.mu_law_expand(codec.mu_law_compand(0.7)) == pytest.approx(0.7, abs=1e-12)

    def test_compand_of_M_is_one(self):
        assert codec.mu_law_compand(256.0) == 1.0

    def test_strictly_monotonic(self):
        xs = np.linspace(-256.0, 256.0, 4001)
        ys = codec.mu_law_compand(xs)
        assert np.all(np.diff(ys) > 0)

    def test_inverse_identity_over_range(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-256.0, 256.0, size=100_000)
        back = codec.mu_law_expand(codec.mu_law_compand(xs))
        rel = np.abs(back - xs) / np.maximum(np.abs(xs), 1e-12)
        assert rel.max() < 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            codec.mu_law_compand(float("nan"))
        with pytest.raises(ValueError):
            codec.mu_law_compand(float("inf"))
        with pytest.raises(ValueError):
            codec.mu_law_expand(1.5)


UNIT = TensorSchema.continuous("v", (), (-1.0, 1.0))  # bins without companding


def _bin(v: float) -> int:
    [token] = codec.encode_continuous(v, UNIT)
    return token


def _unbin(token: int) -> float:
    return float(codec.decode_continuous([token], UNIT))


class TestBinning:
    def test_edge_values(self):
        # oracle: brute-force scan over the uniform bin edges
        edges = -1.0 + np.arange(CONTINUOUS_BINS + 1) * (2.0 / CONTINUOUS_BINS)
        assert _bin(-1.0) == 1024
        assert _bin(0.0) == 1536
        assert _bin(1.0) == 2047
        for k in [0, 1, 511, 512, 1022]:
            inside = (edges[k] + edges[k + 1]) / 2.0
            assert _bin(inside) == 1024 + k

    def test_bin_centers(self):
        assert _unbin(1024) == pytest.approx(-0.9990234375)
        assert _unbin(1536) == pytest.approx(0.0009765625)
        assert _unbin(2047) == pytest.approx(0.9990234375)

    def test_roundtrip_exhaustive(self):
        for t in range(CONTINUOUS_BASE, CONTINUOUS_END):
            assert _bin(_unbin(t)) == t

    def test_roundtrip_error_bound(self):
        rng = np.random.default_rng(1)
        vs = rng.uniform(-1.0, 1.0, size=100_000)
        schema = TensorSchema.continuous("v", vs.shape, (-1.0, 1.0))
        err = np.abs(codec.decode_continuous(codec.encode_continuous(vs, schema), schema) - vs)
        assert err.max() <= 1.0 / CONTINUOUS_BINS

    def test_out_of_range_rejected(self):
        for token in (1023, 2048):
            with pytest.raises(ValueError, match="outside continuous range"):
                codec.decode_continuous([token], UNIT)


class TestContinuousStreams:
    def test_zeros_encode_to_center_bin(self):
        s = TensorSchema.continuous("v", (2, 2), (-1.0, 1.0))
        assert not s.compand
        assert codec.encode_continuous(np.zeros((2, 2)), s) == [1536] * 4

    def test_companded_extreme(self):
        s = TensorSchema.continuous("v", (), (-256.0, 256.0))
        assert s.compand
        assert codec.encode_continuous(256.0, s) == [2047]

    def test_roundtrip_within_bin_width(self):
        # property oracle: decode(encode(x)) stays within one companded bin of compand(x)
        s = TensorSchema.continuous("v", (100_000,), (-256.0, 256.0))
        rng = np.random.default_rng(2)
        xs = rng.uniform(-256.0, 256.0, size=100_000)
        toks = codec.encode_continuous(xs, s)
        back = codec.decode_continuous(toks, s)
        companded_err = np.abs(codec.mu_law_compand(back) - codec.mu_law_compand(xs))
        assert companded_err.max() <= 2.0 / CONTINUOUS_BINS + 1e-12

    def test_shape_mismatch(self):
        s = TensorSchema.continuous("v", (3,), (-1.0, 1.0))
        with pytest.raises(SchemaError):
            codec.encode_continuous(np.zeros((2,)), s)

    def test_row_major_flatten(self):
        s = TensorSchema.continuous("v", (2, 2), (-1.0, 1.0))
        toks = codec.encode_continuous(np.array([[-1.0, -0.5], [0.5, 1.0]]), s)
        assert toks[0] == 1024 and toks[-1] == 2047
        assert toks == sorted(toks)

    @pytest.mark.parametrize("value_range", [(-1.0, 1.0), (-256.0, 256.0)])
    def test_matches_clipping_reference(self, value_range):
        """The bins saturate out-of-range values as clipping first did."""

        def reference(values, schema):
            if schema.modality is not Modality.CONTINUOUS:
                raise SchemaError(f"{schema.key}: encode_continuous needs a continuous schema")
            arr = np.asarray(values, dtype=np.float64)
            if arr.shape != schema.shape:
                raise SchemaError(f"{schema.key}: shape {arr.shape} != schema {schema.shape}")
            flat = arr.ravel(order="C")
            if not np.all(np.isfinite(flat)):
                raise ValueError(f"{schema.key}: non-finite continuous value")
            if schema.compand:
                flat = codec.mu_law_compand(flat)
            flat = np.clip(flat, -1.0, 1.0)
            return (CONTINUOUS_BASE + codec._bin_array(flat)).tolist()

        edges = np.linspace(-1.0, 1.0, CONTINUOUS_BINS + 1)
        if value_range[1] > 1.0:
            edges = codec.mu_law_expand(edges)
        near = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
        beyond = [1.0, 1.0 + 1e-12, 2.0, 256.0, 257.0, 1e6, 1e300, 1e308, np.finfo(float).max]
        values = np.concatenate([near, beyond, np.negative(beyond), [0.0, -0.0]])
        schema = TensorSchema.continuous("v", values.shape, value_range)
        assert schema.compand == (value_range[1] > 1.0)
        with np.errstate(over="ignore"):
            assert codec.encode_continuous(values, schema) == reference(values, schema)
            for v in values:
                one = TensorSchema.continuous("v", (), value_range)
                assert codec.encode_continuous(v, one) == reference(v, one)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                codec.encode_continuous(np.array([0.0, bad]), TensorSchema.continuous(
                    "v", (2,), value_range))


class TestDiscreteStreams:
    def test_identity_scalar(self):
        s = TensorSchema.discrete("d", (1,))
        assert codec.encode_discrete(np.array([7]), s) == [7]

    def test_row_major(self):
        s = TensorSchema.discrete("d", (2, 2))
        assert codec.encode_discrete(np.array([[0, 1], [2, 3]]), s) == [0, 1, 2, 3]

    def test_exhaustive_inverse(self):
        s = TensorSchema.discrete("d", ())
        for v in range(0, 1024, 1):
            assert codec.decode_discrete(codec.encode_discrete(np.int64(v), s), s) == v

    @given(st.lists(st.integers(0, 1023), min_size=1, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_inverse_property(self, values):
        s = TensorSchema.discrete("d", (len(values),))
        arr = np.array(values)
        assert np.array_equal(codec.decode_discrete(codec.encode_discrete(arr, s), s), arr)

    def test_range_rejected(self):
        s = TensorSchema.discrete("d", (1,))
        with pytest.raises(ValueError):
            codec.encode_discrete(np.array([1024]), s)
        with pytest.raises(ValueError):
            codec.encode_discrete(np.array([-1]), s)

    @pytest.mark.parametrize("encode, schema, value", [
        (codec.encode_discrete, TensorSchema.discrete("d", ()), np.int64(5000)),
        (codec.encode_continuous, TensorSchema.continuous("c", (2,), (-1.0, 1.0)),
         np.array([0.0, np.nan])),
    ])
    def test_unencodable_value_is_a_schema_error(self, encode, schema, value):
        # a data error, not a configuration error
        with pytest.raises(SchemaError):
            encode(value, schema)


class TestText:
    def test_byte_values(self):
        assert codec.encode_text("A") == [65]
        assert codec.encode_text("") == []

    def test_roundtrip_ascii(self):
        assert bytes(codec.encode_text("hello world")).decode() == "hello world"

    @given(st.text(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_utf8(self, text):
        assert bytes(codec.encode_text(text)).decode() == text


class TestPatches:
    def test_normalize_extremes(self):
        raw = np.zeros((16, 16, 1), dtype=np.uint8)
        assert codec.normalize_patch(raw).min() == pytest.approx(-0.25)
        raw[:] = 255
        assert codec.normalize_patch(raw).max() == pytest.approx(0.25)

    def test_normalize_symmetry(self):
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        norm = codec.normalize_patch(raw)
        assert abs(norm.mean()) < 0.02  # uniform noise centers near 0

    def test_patch_count_80x64(self):
        pixels, intervals = codec.image_to_patches(np.zeros((80, 64, 3), dtype=np.uint8))
        assert pixels.shape == (20, 16, 16, 3) and pixels.dtype == np.float64
        assert intervals.shape == (20, 4) and intervals.dtype == np.float64

    def test_intervals(self):
        img = np.zeros((80, 64, 1), dtype=np.uint8)
        _, intervals = codec.image_to_patches(img)
        # patch row index 1 covers pixel rows [16, 32) of 80
        second_row_patch = intervals[4]  # raster order: 4 patches per row
        assert tuple(second_row_patch[:2]) == (16 / 80, 32 / 80)
        assert tuple(second_row_patch[:2]) == (0.2, 0.4)
        _, single = codec.image_to_patches(np.zeros((16, 16, 1), dtype=np.uint8))
        assert single.tolist() == [[0.0, 1.0, 0.0, 1.0]]

    def test_matches_per_patch_slicing(self):
        """The reshape equals cutting each 16x16 block out in raster order."""
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(48, 32, 3), dtype=np.uint8)
        pixels, intervals = codec.image_to_patches(img)
        norm = codec.normalize_patch(img)
        k = 0
        for r0 in range(0, 48, 16):
            for c0 in range(0, 32, 16):
                assert np.array_equal(pixels[k], norm[r0:r0 + 16, c0:c0 + 16])
                assert tuple(intervals[k]) == (r0 / 48, (r0 + 16) / 48, c0 / 32, (c0 + 16) / 32)
                k += 1
        assert k == len(pixels)

    def test_non_divisible_rejected(self):
        with pytest.raises(SchemaError):
            codec.image_to_patches(np.zeros((17, 16, 1), dtype=np.uint8))

    def test_float_image_rejected(self):
        with pytest.raises(SchemaError, match="uint8"):
            codec.image_to_patches(np.zeros((16, 16, 3)))


class TestSchema:
    def test_compand_trigger(self):
        assert not TensorSchema.continuous("a", (), (-1.0, 1.0)).compand
        assert TensorSchema.continuous("b", (), (-2.0, 2.0)).compand
        assert TensorSchema.continuous("c", (), (0.0, 1.5)).compand

    def test_non_companded_range_enforced(self):
        with pytest.raises(SchemaError):
            TensorSchema(
                key="x",
                shape=(),
                modality=Modality.CONTINUOUS,
                value_range=(-2.0, 2.0),
                compand=False,
            )

    def test_action_modality_restricted(self):
        with pytest.raises(SchemaError):
            TensorSchema(key="t", shape=(), modality=Modality.TEXT, is_action=True)

    def test_num_elements(self):
        assert TensorSchema.discrete("d", (2, 3)).num_elements == 6
        assert TensorSchema.discrete("d", ()).num_elements == 1
        assert TensorSchema.image("i", 80, 64, 3).num_elements == 20
