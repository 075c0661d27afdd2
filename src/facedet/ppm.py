"""Binary PPM (P6, 8-bit) image IO; pixels become a C-contiguous float32
(1, 3, h, w) array in [0, 1], so no later pass walks the file's HWC strides.

PPM was chosen for its bit-exact, dependency-free parsing; `pnmtopng` and
friends convert freely.
"""

from __future__ import annotations

import numpy as np

from . import fileio, network, ops


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("truncated PPM header")
    return data[start:pos], pos


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    magic, pos = _next_token(data, 0)
    if magic != b"P6":
        raise ValueError(f"not a binary PPM (P6) file: magic {magic!r}")
    width_tok, pos = _next_token(data, pos)
    height_tok, pos = _next_token(data, pos)
    maxval_tok, pos = _next_token(data, pos)
    width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    if width < 1 or height < 1:
        raise ValueError(f"bad PPM dimensions {width}x{height}")
    network.check_input_pixels(height, width)  # before the raster is converted
    if maxval != 255:
        raise ValueError(f"only 8-bit PPM supported, maxval {maxval}")
    pos += 1  # single whitespace after maxval
    if len(data) - pos < 3 * width * height:
        raise ValueError("truncated PPM raster")
    hwc = np.frombuffer(data, np.uint8, 3 * width * height, offset=pos).reshape(height, width, 3)
    image = np.empty((1, 3, height, width), ops.DTYPE)
    np.divide(hwc.transpose(2, 0, 1), np.float32(255.0), out=image[0], dtype=ops.DTYPE)
    return image


def write_ppm(path, image) -> None:
    img = ops.as_tensor(image)
    if img.shape[0] != 1 or img.shape[1] != 3:
        raise ValueError(f"write_ppm expects a (1, 3, h, w) tensor, got {img.shape}")
    h, w = img.shape[2], img.shape[3]
    raster = np.rint(np.clip(img[0], 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    fileio.write_file(path, header + raster.transpose(1, 2, 0).tobytes())
