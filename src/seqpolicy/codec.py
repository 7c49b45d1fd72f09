"""Bit-exact encoders and decoders between raw modality values and tokens.

The unified vocabulary packs four modalities into integer ids, in the paper's
layout but not its numbering; token id ``i`` is row ``i`` of the embedding:

* text is its UTF-8 bytes, so its ids stay in ``[0, 256)`` of the text
  range ``[0, 1024)``,
* discrete values map identically into ``[0, 1024)``,
* continuous values are mu-law companded (mu = 100, M = 256), clipped to
  ``[-1, 1]``, quantized into 1024 uniform bins and shifted to ``[1024, 2048)``,
* ``2048`` is the observation/action separator.

Images are RGB and never become token ids; they are cut into non-overlapping
16x16 patches in raster order and embedded downstream. :func:`encode` and
:func:`decode` pick the codec from a stream's schema.

Every operation here is a deterministic pure function.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError

TEXT_VOCAB = 1024
DISCRETE_VOCAB = 1024
CONTINUOUS_BINS = 1024
CONTINUOUS_BASE = TEXT_VOCAB
CONTINUOUS_END = CONTINUOUS_BASE + CONTINUOUS_BINS
SEPARATOR_TOKEN = CONTINUOUS_END
VOCAB_SIZE = SEPARATOR_TOKEN + 1

PATCH_SIZE = 16
PATCH_CHANNELS = 3  # every image is RGB
PATCH_SCALE = math.sqrt(PATCH_SIZE)  # pixel values divided by sqrt(16) = 4

# mu-law companding constants; they compress ``[-256, 256]`` onto ``[-1, 1]``
MU_LAW_MU = 100.0
MU_LAW_M = 256.0
_MU_LAW_LOG_TOP = np.log1p(MU_LAW_M * MU_LAW_MU)


class Modality(enum.Enum):
    TEXT = "text"
    IMAGE = "image"
    DISCRETE = "discrete"
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class TensorSchema:
    """Per-stream metadata driving encode/decode.

    ``value_range`` and ``compand`` are meaningful for continuous streams
    only. A stream that is not companded must already live in ``[-1, 1]``.
    """

    key: str
    shape: tuple[int, ...]
    modality: Modality
    value_range: tuple[float, float] | None = None
    compand: bool = False
    is_action: bool = False

    def __post_init__(self):
        if not self.key:
            raise SchemaError("schema key must be a non-empty string")
        if any(d < 1 for d in self.shape):
            raise SchemaError(f"{self.key}: shape dims must be >= 1, got {self.shape}")
        if self.modality is Modality.CONTINUOUS:
            if self.value_range is None:
                raise SchemaError(f"{self.key}: continuous stream needs a value_range")
            lo, hi = self.value_range
            if not (lo < hi):
                raise SchemaError(f"{self.key}: value_range must satisfy low < high")
            if not self.compand and (lo < -1.0 or hi > 1.0):
                raise SchemaError(
                    f"{self.key}: non-companded range {self.value_range} exceeds [-1, 1]"
                )
        else:
            if self.value_range is not None:
                raise SchemaError(f"{self.key}: value_range is continuous-only")
            if self.compand:
                raise SchemaError(f"{self.key}: compand is continuous-only")
        if self.modality is Modality.IMAGE:
            if len(self.shape) != 3 or self.shape[2] != PATCH_CHANNELS:
                raise SchemaError(f"{self.key}: image shape must be (H, W, 3), got {self.shape}")
            h, w, _ = self.shape
            if h % PATCH_SIZE or w % PATCH_SIZE:
                raise SchemaError(
                    f"{self.key}: image dims {h}x{w} not divisible by {PATCH_SIZE}"
                )
        if self.is_action and self.modality in (Modality.TEXT, Modality.IMAGE):
            raise SchemaError(f"{self.key}: actions must be discrete or continuous")

    @property
    def num_elements(self) -> int:
        """Sequence elements this stream contributes per timestep."""
        if self.modality is Modality.IMAGE:
            h, w, _ = self.shape
            return (h // PATCH_SIZE) * (w // PATCH_SIZE)
        if self.modality is Modality.TEXT:
            raise SchemaError(f"{self.key}: text length is value-dependent")
        return int(np.prod(self.shape)) if self.shape else 1

    @staticmethod
    def text(key: str) -> "TensorSchema":
        return TensorSchema(key=key, shape=(), modality=Modality.TEXT)

    @staticmethod
    def image(key: str, height: int, width: int, channels: int) -> "TensorSchema":
        return TensorSchema(key=key, shape=(height, width, channels), modality=Modality.IMAGE)

    @staticmethod
    def discrete(key: str, shape: tuple[int, ...] = (), is_action: bool = False) -> "TensorSchema":
        return TensorSchema(key=key, shape=shape, modality=Modality.DISCRETE, is_action=is_action)

    @staticmethod
    def continuous(
        key: str,
        shape: tuple[int, ...],
        value_range: tuple[float, float],
        is_action: bool = False,
    ) -> "TensorSchema":
        """Companding switches on exactly when the declared range leaves [-1, 1]."""
        lo, hi = value_range
        compand = lo < -1.0 or hi > 1.0
        return TensorSchema(
            key=key,
            shape=shape,
            modality=Modality.CONTINUOUS,
            value_range=(float(lo), float(hi)),
            compand=compand,
            is_action=is_action,
        )


# ---------------------------------------------------------------------------
# mu-law companding
# ---------------------------------------------------------------------------

def mu_law_compand(x):
    """sgn(x) * log(|x| * mu + 1) / log(M * mu + 1). Accepts scalars or arrays."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("mu_law_compand: input must be finite")
    out = _compand(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _compand(arr: np.ndarray) -> np.ndarray:
    return np.sign(arr) * np.log1p(MU_LAW_MU * np.abs(arr)) / _MU_LAW_LOG_TOP


def mu_law_expand(y):
    """Exact analytic inverse of :func:`mu_law_compand` on ``[-1, 1]``."""
    arr = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("mu_law_expand: input must be finite")
    if np.any(np.abs(arr) > 1.0):
        raise ValueError("mu_law_expand: input outside [-1, 1]")
    out = np.sign(arr) * np.expm1(np.abs(arr) * _MU_LAW_LOG_TOP) / MU_LAW_MU
    return float(out) if np.isscalar(y) or arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# uniform binning on [-1, 1]
# ---------------------------------------------------------------------------

def _bin_array(values: np.ndarray) -> np.ndarray:
    """Bin indices in ``[0, 1024)`` of values on ``[-1, 1]``; the bins are
    half-open, the top bin closed, and values beyond the range saturate."""
    bins = np.floor((values + 1.0) * (CONTINUOUS_BINS / 2.0))
    return np.clip(bins, 0, CONTINUOUS_BINS - 1).astype(np.int64)


def _unbin_array(bins: np.ndarray) -> np.ndarray:
    return (bins.astype(np.float64) + 0.5) / CONTINUOUS_BINS * 2.0 - 1.0


# ---------------------------------------------------------------------------
# continuous streams
# ---------------------------------------------------------------------------

def encode_continuous(values, schema: TensorSchema) -> list[int]:
    """Flatten row-major, compand when the schema says so, bin; values
    beyond ``[-1, 1]`` saturate to the end bins."""
    if schema.modality is not Modality.CONTINUOUS:
        raise SchemaError(f"{schema.key}: encode_continuous needs a continuous schema")
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != schema.shape:
        raise SchemaError(f"{schema.key}: shape {arr.shape} != schema {schema.shape}")
    flat = arr.ravel(order="C")
    if not np.all(np.isfinite(flat)):
        raise SchemaError(f"{schema.key}: non-finite continuous value")
    if schema.compand:
        flat = _compand(flat)
    return (CONTINUOUS_BASE + _bin_array(flat)).tolist()


def decode_continuous(tokens, schema: TensorSchema) -> np.ndarray:
    """Inverse of :func:`encode_continuous` up to bin quantization."""
    if schema.modality is not Modality.CONTINUOUS:
        raise SchemaError(f"{schema.key}: decode_continuous needs a continuous schema")
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.size != schema.num_elements:
        raise SchemaError(
            f"{schema.key}: got {ids.size} tokens, schema holds {schema.num_elements}"
        )
    if np.any(ids < CONTINUOUS_BASE) or np.any(ids >= CONTINUOUS_END):
        raise ValueError(f"{schema.key}: token outside continuous range")
    values = _unbin_array(ids - CONTINUOUS_BASE)
    if schema.compand:
        values = mu_law_expand(values)
    return values.reshape(schema.shape)


# ---------------------------------------------------------------------------
# discrete streams
# ---------------------------------------------------------------------------

def encode_discrete(values, schema: TensorSchema) -> list[int]:
    if schema.modality is not Modality.DISCRETE:
        raise SchemaError(f"{schema.key}: encode_discrete needs a discrete schema")
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.integer):
        raise SchemaError(f"{schema.key}: discrete values must be integers")
    if arr.shape != schema.shape:
        raise SchemaError(f"{schema.key}: shape {arr.shape} != schema {schema.shape}")
    flat = arr.ravel(order="C")
    if flat.size and (flat.min() < 0 or flat.max() >= DISCRETE_VOCAB):
        raise SchemaError(f"{schema.key}: discrete value outside [0, {DISCRETE_VOCAB})")
    return flat.astype(np.int64).tolist()


def decode_discrete(tokens, schema: TensorSchema) -> np.ndarray:
    if schema.modality is not Modality.DISCRETE:
        raise SchemaError(f"{schema.key}: decode_discrete needs a discrete schema")
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.size != schema.num_elements:
        raise SchemaError(
            f"{schema.key}: got {ids.size} tokens, schema holds {schema.num_elements}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= DISCRETE_VOCAB):
        raise ValueError(f"{schema.key}: token outside [0, {DISCRETE_VOCAB})")
    return ids.reshape(schema.shape)


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------

def encode_text(text: str) -> list[int]:
    """One token per UTF-8 byte."""
    return list(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# one dispatch for token streams
# ---------------------------------------------------------------------------

def encode(value, schema: TensorSchema) -> list[int]:
    """Token ids of one text, discrete or continuous stream value."""
    if schema.modality is Modality.TEXT:
        if not isinstance(value, str):
            raise SchemaError(f"{schema.key}: text stream needs a str value")
        return encode_text(value)
    if schema.modality is Modality.DISCRETE:
        return encode_discrete(value, schema)
    if schema.modality is Modality.CONTINUOUS:
        return encode_continuous(value, schema)
    raise SchemaError(f"{schema.key}: {schema.modality.value} streams have no token ids")


def decode(tokens, schema: TensorSchema) -> np.ndarray:
    """Inverse of :func:`encode` for discrete and continuous streams."""
    if schema.modality is Modality.DISCRETE:
        return decode_discrete(tokens, schema)
    if schema.modality is Modality.CONTINUOUS:
        return decode_continuous(tokens, schema)
    raise SchemaError(f"{schema.key}: cannot decode {schema.modality.value} tokens")


# ---------------------------------------------------------------------------
# image patches
# ---------------------------------------------------------------------------

def normalize_patch(raw: np.ndarray) -> np.ndarray:
    """Bytes to floats: (p / 127.5 - 1) / 4, so {0, 255} map to -/+0.25."""
    arr = np.asarray(raw)
    if arr.dtype != np.uint8:
        raise SchemaError("normalize_patch expects uint8 pixels")
    return (arr.astype(np.float64) / 127.5 - 1.0) / PATCH_SCALE


def image_to_patches(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut an HxWxC uint8 image into normalized 16x16 patches in raster order.

    Returns ``(pixels, intervals)``: pixels (P, 16, 16, C) float64 in
    ``[-0.25, 0.25]``, and intervals (P, 4) float64 rows of (row_lo, row_hi,
    col_lo, col_hi), a patch's pixel extents divided by image height resp.
    width. Dimensions not divisible by 16 are rejected, never padded.
    """
    arr = np.asarray(image)
    if arr.ndim != 3:
        raise SchemaError(f"image must be HxWxC, got shape {arr.shape}")
    h, w, c = arr.shape
    if h % PATCH_SIZE or w % PATCH_SIZE:
        raise SchemaError(f"image dims {h}x{w} not divisible by {PATCH_SIZE}")
    arr = normalize_patch(arr)
    rows, cols = h // PATCH_SIZE, w // PATCH_SIZE
    pixels = arr.reshape(rows, PATCH_SIZE, cols, PATCH_SIZE, c).transpose(0, 2, 1, 3, 4)
    r0 = np.repeat(np.arange(rows), cols) * PATCH_SIZE
    c0 = np.tile(np.arange(cols), rows) * PATCH_SIZE
    intervals = np.stack([r0 / h, (r0 + PATCH_SIZE) / h, c0 / w, (c0 + PATCH_SIZE) / w], axis=1)
    return pixels.reshape(rows * cols, PATCH_SIZE, PATCH_SIZE, c), intervals
