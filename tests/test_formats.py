import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facedet import formats, ppm


class TestAnnotations:
    def test_round_trip(self):
        items = [
            formats.AnnotatedImage("a.ppm", 640, 480, np.array([[1, 2, 30, 40.5]])),
            formats.AnnotatedImage("b.ppm", 100, 100, np.zeros((0, 4))),
        ]
        text = formats.format_annotations(items)
        back = formats.parse_annotations(text)
        assert [b.path for b in back] == ["a.ppm", "b.ppm"]
        assert back[0].width == 640 and back[0].height == 480
        np.testing.assert_allclose(back[0].boxes, [[1, 2, 30, 40.5]])
        assert back[1].boxes.shape == (0, 4)

    @pytest.mark.parametrize("path", ["a b.ppm", "a\nb.ppm", "a\tb.ppm", ""])
    def test_path_with_whitespace_not_written(self, path):
        item = formats.AnnotatedImage(path, 10, 10, np.zeros((0, 4)))
        with pytest.raises(ValueError, match="whitespace-free"):
            formats.format_annotations([item])

    def test_blank_line_separation(self):
        text = "image a 10 10\nface 1 1 5 5\n\n\nimage b 20 20\n"
        items = formats.parse_annotations(text)
        assert len(items) == 2
        assert len(items[0].boxes) == 1 and len(items[1].boxes) == 0

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            formats.parse_annotations("picture a 10 10\n")

    def test_bad_face_line(self):
        with pytest.raises(ValueError, match="face"):
            formats.parse_annotations("image a 10 10\nface 1 2 3\n")

    @pytest.mark.parametrize("face", ["nan 1 5 5", "1 1 inf 5", "1 -inf 5 5"])
    def test_non_finite_face_rejected(self, face):
        with pytest.raises(ValueError, match=f"non-finite face: 'face {face}'"):
            formats.parse_annotations(f"image a 10 10\nface 1 1 5 5\nface {face}\n")

    @pytest.mark.parametrize("face", ["5 1 5 5", "1 5 5 5", "5 1 1 5", "1 5 5 1"])
    def test_empty_or_inverted_face_rejected(self, face):
        with pytest.raises(ValueError, match=f"empty or inverted face: 'face {face}'"):
            formats.parse_annotations(f"image a 10 10\nface {face}\n")

    @pytest.mark.parametrize("face", ["10 1 15 5", "1 10 5 15", "-5 1 0 5", "1 -5 5 0"])
    def test_face_outside_image_rejected(self, face):
        with pytest.raises(ValueError, match=f"outside its 10x10 image: 'face {face}'"):
            formats.parse_annotations(f"image a 10 10\nface {face}\n")

    def test_partly_outside_face_kept(self):
        items = formats.parse_annotations("image a 256 256\nface -32 -32 224 224\n")
        np.testing.assert_array_equal(items[0].boxes, [[-32, -32, 224, 224]])

    @pytest.mark.parametrize("size", ["0 10", "10 -1", f"{4096 * 4096 + 1} 1", f"{10**400} 10"])
    def test_bad_image_size_rejected(self, size):
        with pytest.raises(ValueError, match="image size"):
            formats.parse_annotations(f"image a {size}\n")


class TestDetections:
    def test_round_trip(self):
        rows = np.array([[1.5, 2.5, 30.0, 40.0, 0.875], [0, 0, 5, 5, 0.25]])
        text = formats.format_detections("x.ppm", 64, 48, rows)
        assert text.splitlines()[0] == "image x.ppm w 64 h 48 count 2"
        blocks = formats.parse_detections(text)
        assert blocks[0].path == "x.ppm"
        assert blocks[0].rows.dtype == np.float64
        np.testing.assert_array_equal(blocks[0].rows, rows)
        assert formats.format_detections("x.ppm", 64, 48, blocks[0].rows) == text

    def test_six_decimal_places(self):
        text = formats.format_detections("x", 10, 10, np.array([[1, 2, 3, 4, 1 / 3]]))
        assert text.splitlines()[1] == "1.000000 2.000000 3.000000 4.000000 0.333333"

    def test_multiple_blocks(self):
        text = formats.format_detections("a", 10, 10, np.zeros((0, 5))) + "\n" + (
            formats.format_detections("b", 10, 10, np.array([[0, 0, 1, 1, 0.5]]))
        )
        blocks = formats.parse_detections(text)
        assert [b.path for b in blocks] == ["a", "b"]

    @pytest.mark.parametrize("path", ["a b.ppm", "a\nb.ppm", "a\tb.ppm", ""])
    def test_path_with_whitespace_not_written(self, path):
        with pytest.raises(ValueError, match="whitespace-free"):
            formats.format_detections(path, 10, 10, np.zeros((0, 5)))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="declares"):
            formats.parse_detections("image a w 10 h 10 count 2\n0 0 1 1 0.5\n")

    @pytest.mark.parametrize("row", ["0 0 1 1 nan", "0 inf 1 1 0.5", "-inf 0 1 1 0.5"])
    def test_non_finite_row_rejected(self, row):
        text = f"image a w 10 h 10 count 2\n0 0 1 1 0.5\n{row}\n"
        with pytest.raises(ValueError, match=f"non-finite detection line: '{row}'"):
            formats.parse_detections(text)


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = (rng.integers(0, 256, (1, 3, 7, 9)) / 255.0).astype(np.float32)
        path = tmp_path / "x.ppm"
        ppm.write_ppm(path, img)
        back = ppm.read_ppm(path)
        np.testing.assert_allclose(back, img, atol=1 / 510)

    def test_failed_write_keeps_old_file(self, tmp_path, full_disk):
        # the write dies halfway: the image already there stays whole and the
        # temp file beside it is removed
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\x01\x02\x03")
        with pytest.raises(OSError, match="No space left"):
            ppm.write_ppm(path, np.full((1, 3, 64, 64), 0.5, np.float32))
        assert path.read_bytes() == b"P6\n1 1\n255\n\x01\x02\x03"
        assert [p.name for p in tmp_path.iterdir()] == ["x.ppm"]

    def test_header_comments_ok(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6))
        img = ppm.read_ppm(path)
        assert img.shape == (1, 3, 1, 2)

    def test_rejects_ascii_ppm(self, tmp_path):
        path = tmp_path / "p3.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ValueError, match="P6"):
            ppm.read_ppm(path)

    def test_rejects_16bit(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(ValueError, match="8-bit"):
            ppm.read_ppm(path)

    def test_rejects_truncated_raster(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(ValueError, match="truncated"):
            ppm.read_ppm(path)

    def test_rejects_file_ending_at_maxval(self, tmp_path):
        path = tmp_path / "bare.ppm"
        path.write_bytes(b"P6\n1 1\n255")
        with pytest.raises(ValueError, match="truncated"):
            ppm.read_ppm(path)

    @pytest.mark.parametrize("height,width", [(1, 1), (7, 9), (517, 999), (640, 640)])
    def test_reads_c_contiguous_nchw_bit_for_bit(self, tmp_path, height, width):
        # the same values as the HWC raster transposed, cast and divided
        # elementwise, laid out in C order for the first conv
        rng = np.random.default_rng(height)
        hwc = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        hwc.flat[: min(256, hwc.size)] = np.arange(256, dtype=np.uint8)[: hwc.size]
        path = tmp_path / "x.ppm"
        path.write_bytes(f"P6\n{width} {height}\n255\n".encode() + hwc.tobytes())
        img = ppm.read_ppm(path)
        expected = hwc.transpose(2, 0, 1)[None].astype(np.float32) / np.float32(255)
        assert img.dtype == np.float32 and img.flags.c_contiguous
        np.testing.assert_array_equal(img.view(np.uint32), expected.view(np.uint32))

    def test_write_clamps(self, tmp_path):
        img = np.full((1, 3, 2, 2), 1.7, np.float32)
        path = tmp_path / "hot.ppm"
        ppm.write_ppm(path, img)
        np.testing.assert_array_equal(ppm.read_ppm(path), 1.0)


_FINITE = st.one_of(st.integers(-300, 300).map(str), st.floats(-300, 300).map(repr))
# well-ordered `x0 y0 x1 y1 score` rows, some of them outside a 100-300 px
# image, and the same rows made inverted or empty
_BOX = st.tuples(
    st.integers(-40, 110), st.integers(-40, 110), st.integers(1, 60), st.integers(1, 60),
    st.floats(0, 1),
).map(lambda b: [str(b[0]), str(b[1]), str(b[0] + b[2]), str(b[1] + b[3]), repr(b[4])])
_INVERTED = _BOX.map(lambda r: [r[2], r[1], r[0], r[3], r[4]])
_EMPTY = _BOX.map(lambda r: [r[0], r[1], r[0], r[3], r[4]])
_BOXES = st.lists(st.one_of(_BOX, _BOX, _INVERTED, _EMPTY), min_size=1, max_size=4)
_ROWS = st.lists(st.one_of(_BOX, st.lists(_FINITE, min_size=5, max_size=5)), max_size=6)
# one token of the rows swapped for a non-finite or a malformed spelling; ""
# drops a field and "1 2" adds one
_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "1e400", "-1e400"])
_MALFORMED = st.sampled_from(["0x10", "x", "1,5", "", "1 2"])
_EDIT = st.one_of(st.none(), st.tuples(st.integers(0, 40), st.one_of(_NON_FINITE, _MALFORMED)))
_SIZE = st.one_of(st.integers(100, 300), st.sampled_from([1, 0, -1, 4096 * 4096 + 1, 10**400]))
_COUNT = st.one_of(st.none(), st.sampled_from([-1, 0, 1, 7, 10**400]))
_STRAY = st.sampled_from(["", " x", " 7", " face"])
_TEXT = st.text(alphabet=st.characters(codec="utf-8"), max_size=60)


def _body(rows, prefix, edit):
    """Row lines under `prefix`, after `edit` = (token index, new token)."""
    if not rows:
        return ""
    tokens = [t for r in rows for t in r]
    if edit:
        tokens[edit[0] % len(tokens)] = edit[1]
    width = len(rows[0])
    return "".join(f"\n{prefix}" + " ".join(tokens[i : i + width]) for i in range(0, len(tokens), width))


def _check_detections(text):
    try:
        blocks = formats.parse_detections(text)
    except ValueError:
        return
    for block in blocks:
        assert block.rows.dtype == np.float64 and block.rows.shape[1:] == (5,)
        assert np.isfinite(block.rows).all()


def _check_annotations(text):
    try:
        items = formats.parse_annotations(text)
    except ValueError:
        return
    for item in items:
        x0, y0, x1, y1 = item.boxes.T
        assert item.boxes.dtype == np.float64 and item.boxes.shape[1:] == (4,)
        assert np.isfinite(item.boxes).all()
        assert (x1 > x0).all() and (y1 > y0).all()
        assert (x1 > 0).all() and (y1 > 0).all()
        assert (x0 < item.width).all() and (y0 < item.height).all()


class TestParserFuzz:
    """Any text either parses into float64 arrays that pass the parsers' own
    checks, or raises ValueError; no other exception escapes."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(100, 300), st.integers(100, 300), _BOXES,
        st.one_of(st.none(), st.tuples(st.integers(0, 40), _NON_FINITE)),
    )
    def test_well_formed_files(self, width, height, rows, edit):
        """Well-formed text whose faces may be non-finite, empty, inverted or
        outside the image."""
        dets = f"image a.ppm w {width} h {height} count {len(rows)}" + _body(rows, "", edit)
        faces = _body([r[:4] for r in rows], "face ", edit)
        _check_detections(dets + "\n")
        _check_annotations(f"image a.ppm {width} {height}{faces}\n")

    @settings(max_examples=300, deadline=None)
    @given(_SIZE, _SIZE, _COUNT, _STRAY, _ROWS, _EDIT, st.one_of(st.none(), st.integers(0, 200)))
    def test_near_valid_files(self, width, height, count, stray, rows, edit, cut):
        """Huge or wrong sizes and counts, stray tokens, rows with missing or
        extra fields or non-finite values, and truncation at any character."""
        declared = len(rows) if count is None else count
        dets = f"image a.ppm w {width} h {height} count {declared}{stray}" + _body(rows, "", edit)
        faces = _body([r[:4] for r in rows], "face ", edit)
        for text in (dets + "\n", f"image a.ppm {width} {height}{stray}{faces}\n"):
            text = text if cut is None else text[:cut]
            _check_detections(text)
            _check_annotations(text)

    @settings(max_examples=300, deadline=None)
    @given(_TEXT)
    def test_arbitrary_text(self, text):
        _check_detections(text)
        _check_annotations(text)


@pytest.fixture(scope="module")
def ppm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ppm") / "fuzz.ppm"


def _check_ppm(path, data):
    path.write_bytes(data)
    try:
        img = ppm.read_ppm(path)
    except ValueError:
        return
    assert img.dtype == np.float32 and img.ndim == 4 and img.shape[:2] == (1, 3)
    assert img.flags.c_contiguous
    assert img.min() >= 0.0 and img.max() <= 1.0


# a valid header is magic, width, height and maxval, each followed by a
# separator (whitespace, or a comment holding digits); an edit swaps one of
# these eight parts for a bad token (sizes past the pixel cap, a 401-digit
# and a 5000-digit number, past int()'s digit limit, malformed spellings) or
# a bad separator (none, a comment glued to the token before it, or one the
# file ends in)
_PPM_SEP = st.sampled_from([" ", "\n", "\t", "\n# 9 9\n"])
_PPM_BAD = st.sampled_from(
    ["P3", "P6P6", "0", "-1", "65535", str(4096 * 4096 + 1), "1" + "0" * 400, "9" * 5000,
     "x", "1.5", "+3", "", "#c\n", "# unterminated"]
)


class TestPpmFuzz:
    """Any bytes either read as a (1, 3, h, w) float32 image in [0, 1] or
    raise ValueError; no other exception escapes."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.lists(_PPM_SEP, min_size=4, max_size=4),
        st.one_of(st.none(), st.tuples(st.integers(0, 7), _PPM_BAD)),
        st.one_of(st.just(bytes(range(108))), st.binary(max_size=120)),
        st.one_of(st.none(), st.integers(0, 150)),
    )
    def test_near_valid_files(self, ppm_path, width, height, seps, edit, raster, cut):
        """Header tokens, comments, huge declared sizes and truncation at any byte."""
        parts = ["P6", seps[0], str(width), seps[1], str(height), seps[2], "255", seps[3]]
        if edit:
            parts[edit[0]] = edit[1]
        data = "".join(parts).encode() + raster
        _check_ppm(ppm_path, data if cut is None else data[:cut])

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=80))
    def test_arbitrary_bytes(self, ppm_path, tail):
        _check_ppm(ppm_path, tail)
        _check_ppm(ppm_path, b"P6 " + tail)
