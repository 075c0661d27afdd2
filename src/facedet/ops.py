"""NCHW float32 tensors and the handful of neural operators the detector needs.

A tensor here is a plain numpy array of shape (batch, channels, height, width),
float32 and C-contiguous.  Every operator is pure: inputs are never mutated and
identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

DTYPE = np.float32
_NEG_INF = np.float32(-np.inf)


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def same_padding(kernel) -> tuple[int, int]:
    """floor(kernel / 2) per axis: keeps spatial size for stride 1."""
    kh, kw = _pair(kernel)
    return kh // 2, kw // 2


@dataclass(frozen=True)
class ConvParams:
    """Geometry of one conv/pool layer; padding defaults to floor(kernel/2)."""

    kernel: tuple[int, int]
    stride: int
    out_channels: int
    padding: tuple[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "kernel", _pair(self.kernel))
        if self.padding is None:
            object.__setattr__(self, "padding", same_padding(self.kernel))
        else:
            object.__setattr__(self, "padding", _pair(self.padding))
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.out_channels < 1:
            raise ValueError(f"out_channels must be >= 1, got {self.out_channels}")
        if min(self.padding) < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")


def as_tensor(data) -> np.ndarray:
    """Coerce to a contiguous float32 NCHW tensor; all four dims must be >= 1."""
    x = np.ascontiguousarray(data, dtype=DTYPE)
    if x.ndim != 4:
        raise ValueError(f"tensor must be 4-d (n, c, h, w), got shape {x.shape}")
    if min(x.shape) < 1:
        raise ValueError(f"tensor dims must all be >= 1, got shape {x.shape}")
    return x


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """floor((size + 2*padding - kernel) / stride) + 1, rejecting degenerate fits."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"kernel {kernel} (stride {stride}, padding {padding}) does not fit "
            f"input size {size}"
        )
    return out


# im2col bytes built per band of output rows; a band this size stays in cache
# while its GEMM reads it, instead of streaming one image-sized matrix
IM2COL_BAND_BYTES = 1 << 20


def conv2d(x, weight, bias, stride=1, padding=0) -> np.ndarray:
    """Cross-correlate x (n,ci,h,w) with weight (co,ci,kh,kw), add bias (co,).

    GEMM unrolling in bands of output rows: each band's im2col matrix is
    copied into one buffer of at most IM2COL_BAND_BYTES, reused for every
    band, and reduced by one BLAS matmul (float32 accumulation) written
    straight into the NCHW output.  Only the input rows of one band are
    zero-padded at a time.  A 1x1 stride-1 unpadded conv is one matmul on
    the input itself.  No kernel flip.
    """
    x = as_tensor(x)
    weight = np.ascontiguousarray(weight, dtype=DTYPE)
    bias = np.ascontiguousarray(bias, dtype=DTYPE)
    if weight.ndim != 4:
        raise ValueError(f"conv weight must be 4-d (co, ci, kh, kw), got {weight.shape}")
    n, ci, h, w = x.shape
    co, wci, kh, kw = weight.shape
    if wci != ci:
        raise ValueError(f"weight expects {wci} input channels, tensor has {ci}")
    if bias.shape != (co,):
        raise ValueError(f"bias must have shape ({co},), got {bias.shape}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    wmat = weight.reshape(co, ci * kh * kw)
    out = np.empty((n, co, oh, ow), dtype=DTYPE)
    out_rows = out.reshape(n, co, oh * ow)
    if (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0):
        np.matmul(wmat, x.reshape(n, ci, h * w), out=out_rows)
    else:
        _banded_matmul(x, wmat, (kh, kw), (sh, sw), (ph, pw), out_rows, ow)
    out_rows += bias[:, None]  # one pass: adding it per band measured ~5x slower
    return out


def _banded_matmul(x, wmat, kernel, stride, padding, out_rows, ow) -> None:
    """out_rows[b] = wmat @ im2col(x[b]), built one band of output rows at a time."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    n, ci, h, w = x.shape
    k = wmat.shape[1]
    oh = out_rows.shape[2] // ow
    band = max(1, min(oh, IM2COL_BAND_BYTES // (k * ow * x.itemsize)))
    # the zero-padded input rows one band reads; its column borders are zeroed
    # here and never written, rows beyond the input are zeroed per band
    span = (band - 1) * sh + kh
    rows_in = np.zeros((ci, span, w + 2 * pw), dtype=DTYPE)
    # windows[c, i, j, oy, ox] = rows_in[c, oy*sh + i, ox*sw + j], a view;
    # as_strided costs a quarter of sliding_window_view's Python time
    sc, srow, scol = rows_in.strides
    windows = as_strided(
        rows_in,
        shape=(ci, kh, kw, band, ow),
        strides=(sc, srow, scol, srow * sh, scol * sw),
        writeable=False,
    )
    buf = np.empty(k * band * ow, dtype=DTYPE)
    for b in range(n):
        for r0 in range(0, oh, band):
            r = min(band, oh - r0)
            top = r0 * sh - ph  # input row held in rows_in[:, 0]
            lo = max(top, 0)
            hi = max(lo, min(top + (r - 1) * sh + kh, h))
            rows_in[:, : lo - top] = 0
            rows_in[:, hi - top :] = 0
            rows_in[:, lo - top : hi - top, pw : pw + w] = x[b, :, lo:hi]
            cols = buf[: k * r * ow].reshape(ci, kh, kw, r, ow)
            np.copyto(cols, windows[:, :, :, :r])
            dst = out_rows[b, :, r0 * ow : (r0 + r) * ow]
            np.matmul(wmat, cols.reshape(k, r * ow), out=dst)


def _pool_geometry(x, kernel, stride, padding):
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if ph >= kh or pw >= kw:
        raise ValueError(
            f"padding {ph, pw} >= kernel {kh, kw} would create windows entirely "
            "outside the input"
        )
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    return (kh, kw), (sh, sw), (ph, pw), (n, c, oh, ow)


def _taps(kernel: int, stride: int, pad: int, size: int, out_size: int):
    """(output slice, input slice) of each kernel tap along one axis, covering
    only the outputs whose tap cell lies inside the input, not the padding."""
    for t in range(kernel):
        first = max(0, -((t - pad) // stride))
        stop = min(out_size, (size - 1 + pad - t) // stride + 1)
        if first < stop:
            start = first * stride + t - pad
            yield slice(first, stop), slice(start, start + (stop - first - 1) * stride + 1, stride)


def _pool(x, kernel, stride, padding, reduce, start, out) -> None:
    """Reduce every pooling window of x into out with `reduce`, beginning at
    `start`, which stands in for the padding cells.  Separable: windows are
    reduced along the height into a temporary, then along the width, which
    takes kh + kw passes instead of kh * kw.  Height goes first because its
    taps read whole rows, and a stride skips rows instead of columns."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    n, c, h, w = x.shape
    oh, ow = out.shape[2:]
    down = np.full((n, c, oh, w), start, dtype=DTYPE)
    for dst, src in _taps(kh, sh, ph, h, oh):
        reduce(x[:, :, src], down[:, :, dst], out=down[:, :, dst])
    out[...] = start
    for dst, src in _taps(kw, sw, pw, w, ow):
        reduce(down[..., src], out[..., dst], out=out[..., dst])


def maxpool2d(x, kernel, stride=1, padding=0) -> np.ndarray:
    """Max over sliding windows; padded cells act as -inf and are never chosen
    while any real cell is in the window."""
    x = as_tensor(x)
    kernel, stride, padding, shape = _pool_geometry(x, kernel, stride, padding)
    out = np.empty(shape, dtype=DTYPE)
    _pool(x, kernel, stride, padding, np.maximum, _NEG_INF, out)
    return out


def crelu_maxpool2d(x, kernel, stride=1, padding=0) -> np.ndarray:
    """maxpool2d(crelu(x)) without building crelu(x).

    relu commutes with max, so the two halves are max(0, window max of x)
    and -min(0, window min of x), both pooled straight from x starting at 0.
    Padding < kernel puts a real cell in every window, so the result equals
    the unfused one.
    """
    x = as_tensor(x)
    kernel, stride, padding, (n, c, oh, ow) = _pool_geometry(x, kernel, stride, padding)
    out = np.empty((n, 2 * c, oh, ow), dtype=DTYPE)
    pos, neg = out[:, :c], out[:, c:]
    _pool(x, kernel, stride, padding, np.maximum, 0, pos)
    _pool(x, kernel, stride, padding, np.minimum, 0, neg)
    np.subtract(0, neg, out=neg)  # 0 - (-0.0) is +0.0, as crelu gives
    return out


def relu(x) -> np.ndarray:
    return np.maximum(as_tensor(x), 0)


def crelu(x) -> np.ndarray:
    """Concatenate relu(x) with relu(-x) along channels, doubling them.

    For every position exactly one of (channel j, channel j + c) is zero
    unless the input there is zero.
    """
    x = as_tensor(x)
    return np.concatenate([np.maximum(x, 0), np.maximum(-x, 0)], axis=1)


def concat_channels(inputs) -> np.ndarray:
    """Stack tensors along the channel axis; batch and spatial dims must agree."""
    tensors = [as_tensor(t) for t in inputs]
    if not tensors:
        raise ValueError("concat_channels needs at least one input")
    first = tensors[0]
    for t in tensors[1:]:
        if t.shape[0] != first.shape[0] or t.shape[2:] != first.shape[2:]:
            raise ValueError(
                f"cannot concat shapes {first.shape} and {t.shape}: "
                "batch or spatial dims differ"
            )
    return np.concatenate(tensors, axis=1)
