"""Training-time augmentation over (image, boxes) samples.

Fixed stage order: photometric distortion, random square crop (one of five
candidates), bilinear resize to the training size, horizontal flip, then the
small-box filter.  All randomness flows through an explicit numpy Generator,
so a seed pins the whole pipeline bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .network import check_input_pixels

_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float64).reshape(1, 3, 1, 1)
_COLOR_OPS = ("brightness", "contrast", "saturation")

BRIGHTNESS_DELTA = 0.125
CONTRAST_RANGE = (0.5, 1.5)
SATURATION_RANGE = (0.5, 1.5)
CROP_SCALE_RANGE = (0.3, 1.0)
FLIP_PROB = 0.5
MIN_BOX_PX = 20.0
# Bytes per row band of the float64 color and resize chains, so each band's
# temporaries stay in L2.  On a 2-core Xeon with 2 MiB of L2 per core, 256 KiB
# beat 64 KiB and 1 MiB on both: apply_color at 1024x768 took 26 ms against
# 40 and 31 ms, resize_bilinear from 300-768 squares to 1024x1024 20 ms
# against 25 and 23 ms.
BAND_BYTES = 1 << 18


@dataclass
class Sample:
    """One training sample: (1, 3, h, w) float32 image in [0, 1] plus corner
    boxes inside the image."""

    image: np.ndarray
    boxes: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        self.image = ops.as_tensor(self.image)
        self.boxes = np.asarray(self.boxes, dtype=np.float32).reshape(-1, 4)

    @property
    def height(self) -> int:
        return self.image.shape[2]

    @property
    def width(self) -> int:
        return self.image.shape[3]


@dataclass(frozen=True)
class AugmentConfig:
    target_size: int = 1024

    def __post_init__(self):
        if self.target_size < 1:
            raise ValueError(f"target_size must be positive, got {self.target_size}")
        check_input_pixels(self.target_size, self.target_size)


def _luma(image: np.ndarray) -> np.ndarray:
    return (image * _LUMA).sum(axis=1, keepdims=True)


def _bands(h: int, row_bytes: int) -> list[slice]:
    """Slices over rows 0..h of about BAND_BYTES each, at least one row."""
    step = max(1, BAND_BYTES // row_bytes)
    return [slice(y, min(y + step, h)) for y in range(0, h, step)]


def _luma_mean(image: np.ndarray, bands) -> np.float64:
    """`_luma(image).mean()`, with the luma built band by band into one
    (n, 1, h, w) array, so the mean is the same reduction."""
    n, _, h, w = image.shape
    luma = np.empty((n, 1, h, w))
    for s in bands:
        luma[:, :, s] = _luma(image[:, :, s])
    return luma.mean()


def apply_color(image, brightness: float, contrast: float, saturation: float, order=_COLOR_OPS):
    """Deterministic photometric transform; clamps to [0, 1] after each op.
    Identity parameters (0, 1, 1) leave the image untouched.

    Contrast and saturation work in float64 on one working image, a band of
    rows at a time; a brightness shift before either of them stays float32."""
    img = ops.as_tensor(image)
    n, c, h, w = img.shape
    bands = _bands(h, n * c * w * 8)
    identity = {"brightness": brightness == 0, "contrast": contrast == 1, "saturation": saturation == 1}
    for op in order:
        if op not in identity:
            raise ValueError(f"unknown color op {op!r}")
        if identity[op]:
            continue  # before any buffer is made: an unwritten one must not come back
        if op == "brightness" and img.dtype == ops.DTYPE:
            img = img + np.float32(brightness)
            np.clip(img, 0.0, 1.0, out=img)
            continue
        work = img if img.dtype == np.float64 else np.empty(img.shape, np.float64)
        if op == "brightness":
            for s in bands:
                np.clip(img[:, :, s] + np.float32(brightness), 0.0, 1.0, out=work[:, :, s])
        elif op == "contrast":
            mean = _luma_mean(img, bands)
            for s in bands:
                np.clip((img[:, :, s] - mean) * contrast + mean, 0.0, 1.0, out=work[:, :, s])
        else:
            for s in bands:
                gray = _luma(img[:, :, s])
                np.clip(gray + (img[:, :, s] - gray) * saturation, 0.0, 1.0, out=work[:, :, s])
        img = work
    return img.astype(ops.DTYPE)


def color_distort(image, rng: np.random.Generator):
    """Random brightness shift, contrast and saturation scaling, applied in a
    random order."""
    brightness = rng.uniform(-BRIGHTNESS_DELTA, BRIGHTNESS_DELTA)
    contrast = rng.uniform(*CONTRAST_RANGE)
    saturation = rng.uniform(*SATURATION_RANGE)
    order = tuple(_COLOR_OPS[i] for i in rng.permutation(3))
    return apply_color(image, brightness, contrast, saturation, order)


def crop_candidates(height, width, rng):
    """Five square patches (x0, y0, side): the biggest centered square first,
    then four with side drawn from CROP_SCALE_RANGE times the short side and
    uniform placement."""
    short = min(height, width)
    candidates = [((width - short) // 2, (height - short) // 2, short)]
    lo, hi = CROP_SCALE_RANGE
    for _ in range(4):
        side = int(round(rng.uniform(lo, hi) * short))
        side = max(1, min(side, short))
        x0 = int(rng.integers(0, width - side + 1))
        y0 = int(rng.integers(0, height - side + 1))
        candidates.append((x0, y0, side))
    return candidates


def crop_sample(sample: Sample, x0: int, y0: int, side: int) -> Sample:
    """Cut the square patch.  Boxes whose center falls inside it survive,
    clipped to the patch and re-based to patch coordinates."""
    img = sample.image[:, :, y0 : y0 + side, x0 : x0 + side].copy()
    boxes = sample.boxes
    if len(boxes):
        cx = (boxes[:, 0] + boxes[:, 2]) / 2
        cy = (boxes[:, 1] + boxes[:, 3]) / 2
        inside = (cx >= x0) & (cx <= x0 + side) & (cy >= y0) & (cy <= y0 + side)
        kept = boxes[inside].astype(np.float64)
        kept[:, 0] = np.clip(kept[:, 0], x0, x0 + side) - x0
        kept[:, 2] = np.clip(kept[:, 2], x0, x0 + side) - x0
        kept[:, 1] = np.clip(kept[:, 1], y0, y0 + side) - y0
        kept[:, 3] = np.clip(kept[:, 3], y0, y0 + side) - y0
    else:
        kept = np.zeros((0, 4))
    return Sample(img, kept.astype(np.float32), sample.source_id)


def random_crop(sample: Sample, rng) -> Sample:
    candidates = crop_candidates(sample.height, sample.width, rng)
    x0, y0, side = candidates[int(rng.integers(len(candidates)))]
    return crop_sample(sample, x0, y0, side)


def resize_bilinear(image, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with pixel-center alignment; exact copy when the size
    is unchanged."""
    img = ops.as_tensor(image)
    n, c, h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    y0f = np.floor(ys)
    x0f = np.floor(xs)
    fy = ys - y0f
    fx = xs - x0f
    y0 = np.clip(y0f.astype(np.int64), 0, h - 1)
    y1 = np.clip(y0f.astype(np.int64) + 1, 0, h - 1)
    x0 = np.clip(x0f.astype(np.int64), 0, w - 1)
    x1 = np.clip(x0f.astype(np.int64) + 1, 0, w - 1)
    wy0, wy1, wx0 = (1 - fy)[:, None], fy[:, None], 1 - fx
    out = np.empty((n, c, out_h, out_w), ops.DTYPE)
    for s in _bands(out_h, n * c * max(w, out_w) * 8):
        # np.take keeps C order, where fancy indexing would hand back a transposed layout
        rows = np.take(img, y0[s], axis=2) * wy0[s] + np.take(img, y1[s], axis=2) * wy1[s]
        out[:, :, s] = np.take(rows, x0, axis=3) * wx0 + np.take(rows, x1, axis=3) * fx
    return out


def resize_square(sample: Sample, target: int) -> Sample:
    """Resize a square patch to target x target; boxes scale along."""
    if sample.height != sample.width:
        raise ValueError(f"resize_square needs a square patch, got {sample.width}x{sample.height}")
    img = resize_bilinear(sample.image, target, target)
    boxes = sample.boxes.astype(np.float64) * (target / sample.height)
    return Sample(img, boxes.astype(np.float32), sample.source_id)


def hflip(sample: Sample, rng, p: float = FLIP_PROB) -> Sample:
    """Mirror the image columns with probability p; box x-ranges map to
    (w - x_max, w - x_min).  Without a flip the sample itself comes back."""
    if rng.random() >= p:
        return sample
    img = np.ascontiguousarray(sample.image[:, :, :, ::-1])
    boxes = sample.boxes.copy()
    if len(boxes):
        boxes[:, [0, 2]] = sample.width - sample.boxes[:, [2, 0]]
    return Sample(img, boxes, sample.source_id)


def filter_boxes(sample: Sample) -> Sample:
    """Drop boxes narrower or shorter than MIN_BOX_PX (strictly less than);
    the image is shared, not copied."""
    boxes = sample.boxes
    if len(boxes):
        keep = (boxes[:, 2:] - boxes[:, :2] >= MIN_BOX_PX).all(axis=1)
        boxes = boxes[keep]
    return Sample(sample.image, boxes, sample.source_id)


def augment_pipeline(sample: Sample, rng, cfg: AugmentConfig = AugmentConfig()) -> Sample:
    """color_distort -> random_crop -> resize_square -> hflip -> filter_boxes."""
    out = Sample(color_distort(sample.image, rng), sample.boxes.copy(), sample.source_id)
    out = random_crop(out, rng)
    out = resize_square(out, cfg.target_size)
    out = hflip(out, rng)
    return filter_boxes(out)
