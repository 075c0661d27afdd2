"""Slow loop-based twins of `ops.conv2d` and `ops.maxpool2d`.

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
