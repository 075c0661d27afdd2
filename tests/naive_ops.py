"""Slow loop-based twins of `ops.conv2d` and `ops.maxpool2d`, the pairwise
channel softmax the decoded face scores are checked against, the
fancy-indexing bilinear resize and whole-image color transform that
`augment.resize_bilinear` and `augment.apply_color` must match bit for bit,
the stage-by-stage augmentation `augment.augment_pipeline` must match bit
for bit, the row-wise cross entropy and full-sort mining that
`targets.softmax_cross_entropy` and `targets.hard_negative_mine` must match,
the stacked anchor construction `anchors.generate_anchors` must match
bit for bit, and the per-image head-map flattening whose anchor rows
`network.forward` must return bit for bit.

They share no code with the fast operators beyond input coercion and the
output-size formula, so the tests can use them as independent oracles.
"""

import numpy as np

from facedet import augment as ag
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


def resize_bilinear_fancy(image, out_h: int, out_w: int, work=np.float64) -> np.ndarray:
    """`augment.resize_bilinear` as first written, gathering with fancy
    indexing (which returns a transposed layout), with the blend weights cast
    to `work`.  With `work` float32 it is the library's arithmetic in the
    library's order, so the two agree bit for bit; float64 is the reference
    the float32 chain is bounded against.  Test oracle only."""
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
    wy0, wy1 = (1 - fy).astype(work)[None, None, :, None], fy.astype(work)[None, None, :, None]
    wx0, wx1 = (1 - fx).astype(work), fx.astype(work)
    rows = img[:, :, y0, :] * wy0 + img[:, :, y1, :] * wy1
    out = rows[:, :, :, x0] * wx0 + rows[:, :, :, x1] * wx1
    return out.astype(DTYPE)


_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float64).reshape(1, 3, 1, 1)


def apply_color_unbanded(image, brightness: float, contrast: float, saturation: float,
                         order=("brightness", "contrast", "saturation"), work=np.float64):
    """`augment.apply_color` as first written: each op runs on the whole image
    through image-sized temporaries, with the luma weights, the contrast mean
    and the contrast and saturation scales cast to `work` (the brightness
    shift is float32 either way).  With `work` float32 the banded library
    applies the same ufuncs in the same order to each element, so the two
    agree bit for bit; float64 is the reference the float32 chain is bounded
    against.  Test oracle only."""
    luma = _LUMA.astype(work)
    img = as_tensor(image)
    for op in order:
        if op == "brightness":
            if brightness == 0:
                continue
            img = img + np.float32(brightness)
        elif op == "contrast":
            if contrast == 1:
                continue
            mean = work((img * luma).sum(axis=1, keepdims=True).mean(dtype=np.float64))
            img = (img - mean) * work(contrast) + mean
        elif op == "saturation":
            if saturation == 1:
                continue
            gray = (img * luma).sum(axis=1, keepdims=True)
            img = gray + (img - gray) * work(saturation)
        else:
            raise ValueError(f"unknown color op {op!r}")
        img = np.clip(img, 0.0, 1.0)
    return img.astype(DTYPE)


def augment_pipeline_staged(sample, rng, cfg, work=np.float64):
    """`augment.augment_pipeline` as first written: each stage runs on the
    whole output of the one before, drawing from `rng` as it goes.  The
    whole source is colored (apply_color_unbanded, with the draw color_distort
    always made), then random_crop copies the crop, resize_bilinear_fancy
    resizes it (its boxes scaled as resize_square scales them), hflip copies
    it mirrored, and filter_boxes drops small boxes.  Both pixel stages
    compute in `work`.  Test oracle only."""
    brightness = rng.uniform(-ag.BRIGHTNESS_DELTA, ag.BRIGHTNESS_DELTA)
    contrast = rng.uniform(*ag.CONTRAST_RANGE)
    saturation = rng.uniform(*ag.SATURATION_RANGE)
    order = tuple(ag._COLOR_OPS[i] for i in rng.permutation(3))
    image = apply_color_unbanded(sample.image, brightness, contrast, saturation, order, work)
    out = ag.Sample(image, sample.boxes.copy(), sample.source_id)
    out = ag.random_crop(out, rng)
    side, target = out.height, cfg.target_size
    boxes = (out.boxes.astype(np.float64) * (target / side)).astype(np.float32)
    out = ag.Sample(resize_bilinear_fancy(out.image, target, target, work), boxes, out.source_id)
    out = ag.hflip(out, rng)
    return ag.filter_boxes(out)


def softmax_cross_entropy_rows(logits, labels) -> np.ndarray:
    """`targets.softmax_cross_entropy` as first written, reducing each (N, 2)
    row along its length-2 axis.  Test oracle only."""
    z = np.asarray(logits, dtype=np.float64).reshape(-1, 2)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    m = z.max(axis=1)
    lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
    return lse - z[np.arange(z.shape[0]), y]


def hard_negative_mine_sorted(loss, labels) -> np.ndarray:
    """`targets.hard_negative_mine` as first written: one stable sort of every
    negative by descending loss, then the first 3 per positive (1 when there
    is none).  Test oracle only."""
    loss = np.asarray(loss, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=bool)
    negatives = np.flatnonzero(~labels)
    p = int(labels.sum())
    quota = min(3 * p, negatives.size) if p else min(1, negatives.size)
    mask = np.zeros(labels.shape[0], dtype=bool)
    order = negatives[np.argsort(-loss[negatives], kind="stable")]
    mask[order[:quota]] = True
    return mask


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


def flatten_head_maps(loc_maps, conf_maps) -> tuple[np.ndarray, np.ndarray]:
    """Per-source head maps, loc (n, 4A, h, w) and conf (n, 2A, h, w) in
    source order, as anchor rows (n, N, 4) and (n, N, 2): per image, each
    map's (channel, row, col) axes go to (row, col, channel) and are cut into
    rows of 4 or 2, and the sources are concatenated.  Raises ValueError when
    a loc and conf pair disagree.  Test oracle only."""
    images = []
    for i in range(len(loc_maps[0])):
        locs, confs = [], []
        for loc, conf in zip(loc_maps, conf_maps):
            loc, conf = loc[i], conf[i]
            c4, h, w = loc.shape
            a = c4 // 4
            if c4 != 4 * a or conf.shape != (2 * a, h, w):
                raise ValueError(f"loc {loc.shape} and conf {conf.shape} disagree")
            locs.append(loc.transpose(1, 2, 0).reshape(h * w * a, 4))
            confs.append(conf.transpose(1, 2, 0).reshape(h * w * a, 2))
        images.append((np.concatenate(locs), np.concatenate(confs)))
    return np.stack([l for l, _ in images]), np.stack([c for _, c in images])
