"""Training-time augmentation over (image, boxes) samples.

Fixed stage order: photometric distortion, random square crop (one of five
candidates), bilinear resize to the training size, horizontal flip, then the
small-box filter.  All randomness flows through an explicit numpy Generator,
so a seed pins the whole pipeline bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ops
from .network import check_input_pixels

_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float32).reshape(1, 3, 1, 1)
_COLOR_OPS = ("brightness", "contrast", "saturation")

BRIGHTNESS_DELTA = 0.125
CONTRAST_RANGE = (0.5, 1.5)
SATURATION_RANGE = (0.5, 1.5)
CROP_SCALE_RANGE = (0.3, 1.0)
FLIP_PROB = 0.5
MIN_BOX_PX = 20.0


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


class ColorDraw(NamedTuple):
    """The parameters of one random photometric distortion."""

    brightness: float
    contrast: float
    saturation: float
    order: tuple[str, ...]


def draw_color(rng: np.random.Generator) -> ColorDraw:
    """A brightness shift, contrast and saturation scales, and a random order
    of the three."""
    brightness = rng.uniform(-BRIGHTNESS_DELTA, BRIGHTNESS_DELTA)
    contrast = rng.uniform(*CONTRAST_RANGE)
    saturation = rng.uniform(*SATURATION_RANGE)
    order = tuple(_COLOR_OPS[i] for i in rng.permutation(3))
    return ColorDraw(brightness, contrast, saturation, order)


def _color_chain(x, steps, brightness, contrast, saturation, means) -> np.ndarray:
    """Run the color ops `steps` on the float32 pixels x, clamping to [0, 1]
    after each; the i-th contrast scales about the float32 means[i].  Every
    op computes in float32."""
    means = iter(means)
    for op in steps:  # the first step of each op makes x a new array, the rest work in place
        if op == "brightness":
            x = x + brightness
        elif op == "contrast":
            mean = next(means)
            x = x - mean
            x *= contrast
            x += mean
        else:
            gray = _luma(x)
            x = x - gray
            x *= saturation
            x += gray
        np.clip(x, 0.0, 1.0, out=x)
    return x


def apply_color(image, brightness: float, contrast: float, saturation: float,
                order=_COLOR_OPS, crop=None):
    """Deterministic photometric transform; clamps to [0, 1] after each op and
    skips identity parameters (0, 1, 1).  With `crop` = (x0, y0, side) only
    that square is colored, read as a view of `image`.

    Every op works per pixel but contrast, which scales about the luma mean
    of the whole image as it stands when contrast runs.  So each mean comes
    from one pass of the ops before it over the whole image, which keeps only
    the (n, 1, h, w) luma plane, and then the whole chain runs on the output
    pixels.  Both passes go one band of rows at a time, in float32; each
    mean is accumulated in float64 and rounded to float32 once."""
    for op in order:
        if op not in _COLOR_OPS:
            raise ValueError(f"unknown color op {op!r}")
    img = ops.as_tensor(image)
    n, c, h, w = img.shape
    skip = {"brightness": brightness == 0, "contrast": contrast == 1, "saturation": saturation == 1}
    steps = [op for op in order if not skip[op]]
    params = (np.float32(brightness), np.float32(contrast), np.float32(saturation))
    means = []
    for i, op in enumerate(steps):
        if op == "contrast":
            luma = np.empty((n, 1, h, w), ops.DTYPE)
            for s in ops.bands(h, n * c * w * 4):
                luma[:, :, s] = _luma(_color_chain(img[:, :, s], steps[:i], *params, means))
            # the one reduction over the whole luma plane; a float64 scalar
            # would promote every band after it back to float64
            means.append(np.float32(luma.mean(dtype=np.float64)))
    if crop is not None:
        x0, y0, side = crop
        img = img[:, :, y0 : y0 + side, x0 : x0 + side]
    out = np.empty(img.shape, ops.DTYPE)
    for s in ops.bands(out.shape[2], n * c * out.shape[3] * 4):
        out[:, :, s] = _color_chain(img[:, :, s], steps, *params, means)
    return out


def color_distort(image, color: ColorDraw, crop=None):
    """The drawn distortion `color` (see draw_color), over the whole image or
    only its `crop` square; apply_color does the work."""
    return apply_color(image, *color, crop=crop)


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


def crop_boxes(boxes, x0: int, y0: int, side: int) -> np.ndarray:
    """The boxes whose center falls inside the square patch, clipped to it
    and re-based to patch coordinates."""
    if not len(boxes):
        return np.zeros((0, 4), np.float32)
    cx = (boxes[:, 0] + boxes[:, 2]) / 2
    cy = (boxes[:, 1] + boxes[:, 3]) / 2
    inside = (cx >= x0) & (cx <= x0 + side) & (cy >= y0) & (cy <= y0 + side)
    kept = boxes[inside].astype(np.float64)
    kept[:, 0] = np.clip(kept[:, 0], x0, x0 + side) - x0
    kept[:, 2] = np.clip(kept[:, 2], x0, x0 + side) - x0
    kept[:, 1] = np.clip(kept[:, 1], y0, y0 + side) - y0
    kept[:, 3] = np.clip(kept[:, 3], y0, y0 + side) - y0
    return kept.astype(np.float32)


def crop_sample(sample: Sample, x0: int, y0: int, side: int) -> Sample:
    """Cut the square patch; its boxes are crop_boxes'."""
    img = sample.image[:, :, y0 : y0 + side, x0 : x0 + side].copy()
    return Sample(img, crop_boxes(sample.boxes, x0, y0, side), sample.source_id)


def draw_crop(height: int, width: int, rng) -> tuple[int, int, int]:
    """One of the five crop_candidates (x0, y0, side), picked uniformly."""
    candidates = crop_candidates(height, width, rng)
    return candidates[int(rng.integers(len(candidates)))]


def random_crop(sample: Sample, rng) -> Sample:
    return crop_sample(sample, *draw_crop(sample.height, sample.width, rng))


def resize_bilinear(image, out_h: int, out_w: int, flip: bool = False) -> np.ndarray:
    """Bilinear resample with pixel-center alignment; exact copy when the size
    is unchanged.  `flip` mirrors the columns, by reading the column taps in
    reverse: the result equals `out[..., ::-1]` element for element."""
    img = ops.as_tensor(image)
    n, c, h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img[..., ::-1].copy() if flip else img.copy()
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
    # float32 blend weights keep both passes in float32
    wy0, wy1 = (1 - fy).astype(ops.DTYPE)[:, None], fy.astype(ops.DTYPE)[:, None]
    wx0, fx = (1 - fx).astype(ops.DTYPE), fx.astype(ops.DTYPE)
    if flip:
        x0, x1, wx0, fx = x0[::-1], x1[::-1], wx0[::-1], fx[::-1]
    out = np.empty((n, c, out_h, out_w), ops.DTYPE)
    for s in ops.bands(out_h, n * c * max(w, out_w) * 4):
        # np.take keeps C order, where fancy indexing would hand back a transposed layout
        rows = np.take(img, y0[s], axis=2) * wy0[s]
        rows += np.take(img, y1[s], axis=2) * wy1[s]
        left = np.take(rows, x0, axis=3)
        left *= wx0
        right = np.take(rows, x1, axis=3)
        right *= fx
        left += right
        out[:, :, s] = left
    return out


def _mirror_boxes(boxes: np.ndarray, width: int) -> np.ndarray:
    """Box x-ranges mapped to (width - x_max, width - x_min)."""
    out = boxes.copy()
    if len(boxes):
        out[:, [0, 2]] = width - boxes[:, [2, 0]]
    return out


def resize_square(sample: Sample, target: int, flip: bool = False) -> Sample:
    """Resize a square patch to target x target; boxes scale along.  `flip`
    then mirrors it, as hflip would, without a second pass over the image."""
    if sample.height != sample.width:
        raise ValueError(f"resize_square needs a square patch, got {sample.width}x{sample.height}")
    img = resize_bilinear(sample.image, target, target, flip)
    boxes = (sample.boxes.astype(np.float64) * (target / sample.height)).astype(np.float32)
    return Sample(img, _mirror_boxes(boxes, target) if flip else boxes, sample.source_id)


def hflip(sample: Sample, rng, p: float = FLIP_PROB) -> Sample:
    """Mirror the image columns with probability p; box x-ranges map to
    (w - x_max, w - x_min).  Without a flip the sample itself comes back."""
    if rng.random() >= p:
        return sample
    img = np.ascontiguousarray(sample.image[:, :, :, ::-1])
    return Sample(img, _mirror_boxes(sample.boxes, sample.width), sample.source_id)


def filter_boxes(sample: Sample) -> Sample:
    """Drop boxes narrower or shorter than MIN_BOX_PX (strictly less than);
    the image is shared, not copied."""
    boxes = sample.boxes
    if len(boxes):
        keep = (boxes[:, 2:] - boxes[:, :2] >= MIN_BOX_PX).all(axis=1)
        boxes = boxes[keep]
    return Sample(sample.image, boxes, sample.source_id)


def augment_pipeline(sample: Sample, rng, cfg: AugmentConfig = AugmentConfig()) -> Sample:
    """color_distort -> random_crop -> resize_square -> hflip -> filter_boxes,
    bit for bit, with the pixel work done only where the output needs it.

    Every random parameter is drawn first, in that stage order: the color,
    the crop, the flip.  Then only the crop is colored (its contrast still
    scales about the whole image's luma mean), and the resize mirrors it
    when the draw says flip."""
    color = draw_color(rng)
    crop = draw_crop(sample.height, sample.width, rng)
    flip = rng.random() < FLIP_PROB
    patch = color_distort(sample.image, color, crop)
    out = Sample(patch, crop_boxes(sample.boxes, *crop), sample.source_id)
    return filter_boxes(resize_square(out, cfg.target_size, flip))
