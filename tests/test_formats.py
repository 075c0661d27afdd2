import numpy as np
import pytest

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


class TestDetections:
    def test_round_trip(self):
        rows = np.array([[1.5, 2.5, 30.0, 40.0, 0.875], [0, 0, 5, 5, 0.25]])
        text = formats.format_detections("x.ppm", 64, 48, rows)
        assert text.splitlines()[0] == "image x.ppm w 64 h 48 count 2"
        blocks = formats.parse_detections(text)
        assert blocks[0].path == "x.ppm"
        assert blocks[0].detections[0].score == pytest.approx(0.875)
        assert blocks[0].detections[0].box == pytest.approx((1.5, 2.5, 30.0, 40.0))

    def test_six_decimal_places(self):
        text = formats.format_detections("x", 10, 10, np.array([[1, 2, 3, 4, 1 / 3]]))
        assert text.splitlines()[1] == "1.000000 2.000000 3.000000 4.000000 0.333333"

    def test_multiple_blocks(self):
        text = formats.format_detections("a", 10, 10, np.zeros((0, 5))) + "\n" + (
            formats.format_detections("b", 10, 10, np.array([[0, 0, 1, 1, 0.5]]))
        )
        blocks = formats.parse_detections(text)
        assert [b.path for b in blocks] == ["a", "b"]

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="declares"):
            formats.parse_detections("image a w 10 h 10 count 2\n0 0 1 1 0.5\n")


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = (rng.integers(0, 256, (1, 3, 7, 9)) / 255.0).astype(np.float32)
        path = tmp_path / "x.ppm"
        ppm.write_ppm(path, img)
        back = ppm.read_ppm(path)
        np.testing.assert_allclose(back, img, atol=1 / 510)

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

    def test_write_clamps(self, tmp_path):
        img = np.full((1, 3, 2, 2), 1.7, np.float32)
        path = tmp_path / "hot.ppm"
        ppm.write_ppm(path, img)
        np.testing.assert_array_equal(ppm.read_ppm(path), 1.0)
