"""Slow loop-based twins of `ops.conv2d` and `ops.maxpool2d`, the pairwise
channel softmax the decoded face scores are checked against, the
fancy-indexing bilinear resize and whole-image color transform that
`augment.resize_bilinear` and `augment.apply_color` must match bit for bit,
and the stacked anchor construction `anchors.generate_anchors` must match
bit for bit.

They share no code with the fast operators beyond input coercion and the
output-size formula, so the tests can use them as independent oracles.
"""

import numpy as np

from facedet.anchors import AnchorSet
from facedet.network import ANCHOR_SCALES, default_descriptor
from facedet.ops import DTYPE, as_tensor, conv_output_size


def _pair(v) -> tuple[int, int]:
    """An int or an (h, w) pair as an (h, w) pair; the oracles accept both."""
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def conv2d_naive(x, weight, bias, stride=1, padding=0) -> np.ndarray:
    """Reference conv: explicit loops, float64 accumulation.  Test oracle only."""
    x = as_tensor(x)
    weight = np.asarray(weight, dtype=DTYPE)
    bias = np.asarray(bias, dtype=DTYPE)
    n, ci, h, w = x.shape
    co, wci, kh, kw = weight.shape
    if wci != ci:
        raise ValueError(f"weight expects {wci} input channels, tensor has {ci}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    out = np.zeros((n, co, oh, ow), dtype=np.float64)
    for b in range(n):
        for o in range(co):
            for oy in range(oh):
                for ox in range(ow):
                    acc = float(bias[o])
                    for c in range(ci):
                        for i in range(kh):
                            iy = oy * sh + i - ph
                            if iy < 0 or iy >= h:
                                continue
                            for j in range(kw):
                                ix = ox * sw + j - pw
                                if 0 <= ix < w:
                                    acc += float(x[b, c, iy, ix]) * float(weight[o, c, i, j])
                    out[b, o, oy, ox] = acc
    return out.astype(DTYPE)


def maxpool2d_naive(x, kernel, stride=1, padding=0) -> np.ndarray:
    """Reference max pool with explicit loops.  Test oracle only."""
    x = as_tensor(x)
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if ph >= kh or pw >= kw:
        raise ValueError("padding >= kernel would create windows entirely outside the input")
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    out = np.full((n, c, oh, ow), -np.inf, dtype=np.float64)
    for b in range(n):
        for ch in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    best = -np.inf
                    for i in range(kh):
                        iy = oy * sh + i - ph
                        if iy < 0 or iy >= h:
                            continue
                        for j in range(kw):
                            ix = ox * sw + j - pw
                            if 0 <= ix < w:
                                best = max(best, float(x[b, ch, iy, ix]))
                    out[b, ch, oy, ox] = best
    return out.astype(DTYPE)


def softmax_pairs(logits) -> np.ndarray:
    """Softmax over adjacent channel pairs (2i, 2i+1), max-subtracted so large
    logits cannot overflow.  Each pair sums to 1."""
    x = as_tensor(logits)
    n, c, h, w = x.shape
    if c % 2:
        raise ValueError(f"softmax_pairs needs an even channel count, got {c}")
    pairs = x.reshape(n, c // 2, 2, h, w)
    shifted = pairs - pairs.max(axis=2, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=2, keepdims=True)
    return np.ascontiguousarray(out.reshape(n, c, h, w))


def resize_bilinear_fancy(image, out_h: int, out_w: int) -> np.ndarray:
    """`augment.resize_bilinear` as first written, gathering with fancy
    indexing (which returns a transposed layout).  Same float64 arithmetic in
    the same order, so the two agree bit for bit.  Test oracle only."""
    img = as_tensor(image)
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
    rows = img[:, :, y0, :] * (1 - fy)[None, None, :, None] + img[:, :, y1, :] * fy[None, None, :, None]
    out = rows[:, :, :, x0] * (1 - fx) + rows[:, :, :, x1] * fx
    return out.astype(DTYPE)


_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float64).reshape(1, 3, 1, 1)


def _luma(image: np.ndarray) -> np.ndarray:
    return (image * _LUMA).sum(axis=1, keepdims=True)


def apply_color_unbanded(image, brightness: float, contrast: float, saturation: float,
                         order=("brightness", "contrast", "saturation")):
    """`augment.apply_color` as first written: each op runs on the whole image
    through image-sized float64 temporaries.  The banded version applies the
    same ufuncs in the same order to each element, so the two agree bit for
    bit.  Test oracle only."""
    img = as_tensor(image)
    for op in order:
        if op == "brightness":
            if brightness == 0:
                continue
            img = img + np.float32(brightness)
        elif op == "contrast":
            if contrast == 1:
                continue
            mean = _luma(img).mean()
            img = (img - mean) * contrast + mean
        elif op == "saturation":
            if saturation == 1:
                continue
            gray = _luma(img)
            img = gray + (img - gray) * saturation
        else:
            raise ValueError(f"unknown color op {op!r}")
        img = np.clip(img, 0.0, 1.0)
    return img.astype(DTYPE)


def generate_anchors_stacked(image_w: int, image_h: int) -> AnchorSet:
    """`anchors.generate_anchors` as first written: each layer's float and int
    columns are stacked into two (N, 3) and (N, 4) arrays, which are
    concatenated and split back into columns.  The broadcast version computes
    every value with the same operations, so the two agree bit for bit.  Test
    oracle only."""
    descriptor = default_descriptor()
    sizes = descriptor.spatial_sizes(image_h, image_w)
    strides = descriptor.cumulative_strides()
    parts_f: list[np.ndarray] = []  # cx, cy, side columns
    parts_i: list[np.ndarray] = []  # layer, row, col, sub columns
    for li, (layer, scales) in enumerate(ANCHOR_SCALES.items()):
        rows, cols = sizes[layer]
        stride = strides[layer]
        template = []  # (off_x, off_y, side, sub) per anchor of one cell
        for scale, n in scales:
            step = stride / n
            for j in range(n):
                for i in range(n):
                    template.append(((i + 0.5) * step, (j + 0.5) * step, scale, j * n + i))
        tmpl = np.array(template, dtype=np.float64)
        a = len(template)

        col_idx = np.arange(cols, dtype=np.float64)
        row_idx = np.arange(rows, dtype=np.float64)
        cx = np.broadcast_to(
            col_idx[None, :, None] * stride + tmpl[None, None, :, 0], (rows, cols, a)
        )
        cy = np.broadcast_to(
            row_idx[:, None, None] * stride + tmpl[None, None, :, 1], (rows, cols, a)
        )
        side = np.broadcast_to(tmpl[None, None, :, 2], (rows, cols, a))
        sub = np.broadcast_to(tmpl[None, None, :, 3], (rows, cols, a))
        rr = np.broadcast_to(np.arange(rows)[:, None, None], (rows, cols, a))
        cc = np.broadcast_to(np.arange(cols)[None, :, None], (rows, cols, a))

        parts_f.append(
            np.stack([cx.ravel(), cy.ravel(), side.ravel()], axis=1).astype(np.float32)
        )
        parts_i.append(
            np.stack(
                [np.full(rows * cols * a, li), rr.ravel(), cc.ravel(), sub.ravel()],
                axis=1,
            ).astype(np.int32)
        )

    f = np.concatenate(parts_f)
    i = np.concatenate(parts_i)
    return AnchorSet(
        image_w=int(image_w),
        image_h=int(image_h),
        cx=f[:, 0],
        cy=f[:, 1],
        side=f[:, 2],
        layer_index=i[:, 0],
        row=i[:, 1],
        col=i[:, 2],
        sub_index=i[:, 3],
    )
