"""Slow loop-based twins of `ops.conv2d` and `ops.maxpool2d`, the pairwise
channel softmax the decoded face scores are checked against, and the
fancy-indexing bilinear resize and whole-image color transform that
`augment.resize_bilinear` and `augment.apply_color` must match bit for bit.

They share no code with the fast operators beyond input coercion, argument
parsing and the output-size formula, so the tests can use them as independent oracles.
"""

import numpy as np

from facedet.ops import DTYPE, _pair, as_tensor, conv_output_size


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
