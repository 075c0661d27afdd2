import hashlib
import io
import itertools
import math
import os
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from facedet import augment, cli, fileio, formats, network, ops, ppm
from facedet.cli import main
from facedet.evaluate import EVAL_IOU_THRESHOLD
from facedet.network import ModelWeights, save_weights
from facedet.postprocess import PostprocessConfig
from facedet.targets import MATCH_THRESHOLD

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, random_weights):
    path = tmp_path_factory.mktemp("model") / "m.fbxw"
    save_weights(random_weights, path)
    return str(path)


def write_test_ppm(path, size=128, seed=0):
    rng = np.random.default_rng(seed)
    ppm.write_ppm(path, rng.random((1, 3, size, size), dtype=np.float32))


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["detect"]) == 1  # missing required arguments
        assert main(["no-such-command"]) == 1

    def test_missing_input_is_2(self, tmp_path, model_path):
        assert main(["detect", "--model", model_path, str(tmp_path / "nope.ppm")]) == 2

    def test_bad_model_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.fbxw"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        img = tmp_path / "img.ppm"
        write_test_ppm(img)
        assert main(["detect", "--model", str(bad), str(img)]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_finite_model_is_2(self, tmp_path, random_weights, capsys):
        entries = dict(random_weights.entries)
        w, b = entries["Conv1"]
        b = b.copy()
        b[0] = np.nan
        entries["Conv1"] = (w, b)
        model = tmp_path / "nan.fbxw"
        save_weights(ModelWeights(entries, random_weights.descriptor_fingerprint), model)
        img = tmp_path / "img.ppm"
        write_test_ppm(img)
        assert main(["detect", "--model", str(model), "--out-dir", str(tmp_path), str(img)]) == 2
        assert "Conv1" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_heads_are_2(self, tmp_path, random_weights, capsys):
        # every weight is finite, so the file loads, but a 3e38 bias overflows
        # the trunk and the heads come out NaN or infinite
        entries = dict(random_weights.entries)
        w, b = entries["Conv1"]
        entries["Conv1"] = (w, np.full_like(b, 3e38))
        model = tmp_path / "huge.fbxw"
        save_weights(ModelWeights(entries, random_weights.descriptor_fingerprint), model)
        img = tmp_path / "img.ppm"
        write_test_ppm(img)
        out_dir = tmp_path / "out"
        assert main(["detect", "--model", str(model), "--out-dir", str(out_dir), str(img)]) == 2
        assert "head Inception3.loc holds NaN or infinite values" in capsys.readouterr().err
        assert not (out_dir / "img.det.txt").exists()

    def test_oversized_ppm_header_is_2(self, tmp_path, model_path, capsys):
        # the header alone declares too many pixels; with no raster behind it,
        # only the cap check can name the cap, and nothing of that size is read
        cap = network.MAX_INPUT_PIXELS
        side = math.isqrt(cap) + 1
        img = tmp_path / "huge.ppm"
        img.write_bytes(f"P6\n{side} {side}\n255\n".encode("ascii"))
        with pytest.raises(ValueError, match=f"cap of {cap} pixels"):
            ppm.read_ppm(img)
        for resize in ([], ["--resize", "640x480"]):
            args = ["detect", "--model", model_path, "--out-dir", str(tmp_path), *resize, str(img)]
            assert main(args) == 2
            assert f"cap of {cap} pixels" in capsys.readouterr().err
        assert not (tmp_path / "huge.det.txt").exists()

    @pytest.mark.parametrize("command", ["eval", "targets", "augment"])
    def test_unmatchable_face_is_2(self, tmp_path, command, capsys):
        img = tmp_path / "in.ppm"
        write_test_ppm(img)
        ann = tmp_path / "ann.txt"
        ann.write_text("image in.ppm 128 128\nface 10 10 40 40\nface 60 60 50 90\n")
        argv = {
            "eval": ["eval", "--gt", str(ann), "--dets", str(DATA / "eval_dets.txt")],
            "targets": ["targets", "--ann", str(ann)],
            "augment": ["augment", "--image", str(img), "--ann", str(ann),
                        "--out-image", str(tmp_path / "out.ppm")],
        }[command]
        assert main(argv) == 2
        assert "empty or inverted face: 'face 60 60 50 90'" in capsys.readouterr().err

    def test_malformed_flag_values_are_usage_errors(self, capsys):
        assert main(["detect", "--model", "m", "--resize", "bogus", "img.ppm"]) == 1
        assert main(["detect", "--model", "m", "--mean", "1,2", "img.ppm"]) == 1
        # NaN, inf and a value that overflows float32 would reach the network as
        # non-finite pixels and be blamed on its heads
        for mean in ("nan,0,0", "0,inf,0", "1e39,0,0"):
            assert main(["detect", "--model", "m", "--mean", mean, "img.ppm"]) == 1
        capsys.readouterr()
        for threads in ("0", "-3", "two"):
            assert main(["detect", "--model", "m", "--threads", threads, "img.ppm"]) == 1
            assert main(["bench", "--threads", threads]) == 1
            err = capsys.readouterr().err
            assert err.count("argument --threads: needs a whole number of at least 1") == 2

    @pytest.mark.parametrize("flag,value,expected", [
        ("--mean", "a,0,0", "needs three finite comma-separated values, got 'a,0,0'"),
        ("--resize", "3x", "needs WxH, two whole numbers, got '3x'"),
    ])
    def test_unreadable_flag_values_say_what_is_expected(self, flag, value, expected, capsys):
        # a value float() or int() cannot read gets the flag's own message,
        # not argparse's "invalid <function> value" naming a private parser
        assert main(["detect", "--model", "m", flag, value, "img.ppm"]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: {expected}" in err
        assert "_parse_" not in err

    def test_help_is_0(self):
        assert main(["--help"]) == 0

    def test_defaults_come_from_the_library(self):
        parse = cli.build_parser().parse_args
        detect = parse(["detect", "img.ppm", "--model", "m"])
        assert cli._postprocess_config(detect) == PostprocessConfig()
        assert parse(["targets", "--ann", "a"]).match_threshold == MATCH_THRESHOLD
        assert parse(["eval", "--gt", "g", "--dets", "d"]).iou == EVAL_IOU_THRESHOLD
        augmented = parse(["augment", "--image", "i", "--out-image", "o"])
        assert augmented.target_size == augment.AugmentConfig().target_size

    def test_zero_resize_side_is_usage_error(self, capsys):
        assert main(["detect", "--model", "m", "--resize", "0x480", "img.ppm"]) == 1
        assert "--resize" in capsys.readouterr().err

    def test_over_cap_resize_rejected_before_resizing(
        self, tmp_path, model_path, monkeypatch, capsys
    ):
        resized = []
        monkeypatch.setattr(cli, "resize_bilinear", lambda *args: resized.append(args))
        img = tmp_path / "img.ppm"
        write_test_ppm(img)
        out_dir = tmp_path / "out"
        code = main(
            ["detect", "--model", model_path, "--out-dir", str(out_dir),
             "--resize", "4097x4096", str(img)]
        )
        assert code == 2
        assert resized == []
        assert "4097x4096" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_undersized_resize_rejected_before_reading(
        self, tmp_path, model_path, monkeypatch, capsys
    ):
        # the size floor is checked once, before any image is read
        read = []
        monkeypatch.setattr(ppm, "read_ppm", lambda path: read.append(path))
        images = [tmp_path / "a.ppm", tmp_path / "b.ppm"]
        for img in images:
            write_test_ppm(img)
        out_dir = tmp_path / "out"
        code = main(
            ["detect", "--model", model_path, "--out-dir", str(out_dir),
             "--resize", "100x100", *map(str, images)]
        )
        assert code == 2
        assert read == []
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "input 100x100 is below the minimum supported size 128x128" in err
        assert list(tmp_path.rglob("*.det.txt")) == []


class TestAnchorsCommand:
    def test_vga_header_count(self, tmp_path):
        out = tmp_path / "a.txt"
        assert main(["anchors", "640", "640", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "anchors w 640 h 640 count 8525"
        assert len(lines) == 8526
        assert lines[1].split()[0] == "Inception3"

    def test_over_cap_is_2(self, capsys):
        # 4097x4096 is one column over MAX_INPUT_PIXELS, which every image
        # reader rejects; its 351,968 anchors are never built
        assert main(["anchors", "4097", "4096"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "4097x4096" in captured.err and "cap of 16777216 pixels" in captured.err

    def test_failed_write_keeps_old_file(self, tmp_path, full_disk, capsys):
        # the write dies halfway; the file already at --out stays as it was
        # and the temp file beside it is removed
        out = tmp_path / "a.txt"
        out.write_text("old\n")
        assert main(["anchors", "640", "640", "--out", str(out)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_out_devnull_writes_through(self, monkeypatch):
        # a device is written through, never replaced by a renamed temp file;
        # the atomic writer is stubbed out so a regression cannot replace the
        # real device node
        def refuse(path, text):
            raise AssertionError(f"atomic write to {path}")

        monkeypatch.setattr(fileio, "write_atomic", refuse)
        assert main(["anchors", "640", "640", "--out", os.devnull]) == 0

    def test_symlinked_out_keeps_link(self, tmp_path):
        target = tmp_path / "real.txt"
        target.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target.name)
        assert main(["anchors", "640", "640", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text().splitlines()[0] == "anchors w 640 h 640 count 8525"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]

    def test_idempotent(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["anchors", "640", "480", "--out", str(a)])
        main(["anchors", "640", "480", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestInitWeightsCommand:
    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.fbxw", tmp_path / "b.fbxw"
        assert main(["init-weights", "--seed", "7", "--out", str(a)]) == 0
        assert main(["init-weights", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.fbxw", tmp_path / "b.fbxw"
        main(["init-weights", "--seed", "1", "--out", str(a)])
        main(["init-weights", "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


GOLDEN_ANNOTATIONS = """image a.ppm 640 480
face 100 120 180 200
face 300 50 560 310

image b.ppm 1024 1024
face 10 10 40 40
face 500 500 900 950
face 700 100 760 170
"""


class TestGoldenText:
    """Pinned sha256 of whole CLI outputs: anchor tiling, matching, box
    coding and the weight format must keep every byte through any refactor."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["anchors", "640", "480"],
             "7bdb39528d142c2cc8e9bf90da25a2fb3db5037c0413630e213aca1bfacc0e2d"),
            (["anchors", "999", "517"],
             "d209632b8be891a7cd55828e87b0b4b540cf6fa23e28828c70e576b9f9b78199"),
            (["targets", "--index", "0"],
             "c870cebfb60330048a324b1435ccba9ee552e0aa4f723c5e8c4abb4868fdd3ac"),
            (["targets", "--index", "1"],
             "42caf58aadda14d2bc97cd777497b738cbe09d7b18c70f719ed603aaa86b30bc"),
            # the FBXW bytes: header, descriptor fingerprint and xavier draws
            (["init-weights", "--seed", "0"],
             "c91bc2609e6557cc70f8da3e257d24eeb0bdcf177d53bfec7b58136f380994e4"),
        ],
    )
    def test_output_digest(self, tmp_path, argv, digest):
        if argv[0] == "targets":
            ann = tmp_path / "ann.txt"
            ann.write_text(GOLDEN_ANNOTATIONS)
            argv = [*argv, "--ann", str(ann)]
        out = tmp_path / "out.txt"
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestDetectCommand:
    def test_writes_valid_detections(self, tmp_path, model_path, capsys):
        img = tmp_path / "img.ppm"
        write_test_ppm(img)
        out_dir = tmp_path / "out"
        code = main(["detect", "--model", model_path, "--out-dir", str(out_dir), str(img)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "timing forward mean_ms" in captured
        blocks = formats.parse_detections((out_dir / "img.det.txt").read_text())
        assert blocks[0].width == 128 and blocks[0].height == 128
        assert len(blocks[0].rows) <= 200
        for x0, _, x1, _, score in blocks[0].rows:
            assert 0 <= x0 <= x1 <= 128
            assert 0 <= score <= 1

    def test_batch_and_idempotence(self, tmp_path, model_path):
        images = []
        for i in range(3):
            img = tmp_path / f"img{i}.ppm"
            write_test_ppm(img, seed=i)
            images.append(str(img))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["detect", "--model", model_path, "--out-dir", str(out1), *images]) == 0
        assert main(
            ["detect", "--model", model_path, "--out-dir", str(out2), "--threads", "2", *images]
        ) == 0
        for i in range(3):
            a = (out1 / f"img{i}.det.txt").read_bytes()
            b = (out2 / f"img{i}.det.txt").read_bytes()
            assert a == b

    def test_partial_failure_exit_2(self, tmp_path, model_path):
        img = tmp_path / "ok.ppm"
        write_test_ppm(img)
        out_dir = tmp_path / "out"
        code = main(
            ["detect", "--model", model_path, "--out-dir", str(out_dir),
             str(img), str(tmp_path / "missing.ppm")]
        )
        assert code == 2
        assert (out_dir / "ok.det.txt").exists()  # good file still processed

    def test_colliding_output_names_rejected(self, tmp_path, model_path, capsys):
        images = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            images.append(str(tmp_path / sub / "x.ppm"))
            write_test_ppm(images[-1])
        out_dir = tmp_path / "out"
        code = main(["detect", "--model", model_path, "--out-dir", str(out_dir), *images])
        assert code == 2
        err = capsys.readouterr().err
        assert images[0] in err and images[1] in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_resize_maps_back(self, tmp_path, model_path):
        img = tmp_path / "big.ppm"
        write_test_ppm(img, size=256)
        out_dir = tmp_path / "out"
        code = main(
            ["detect", "--model", model_path, "--out-dir", str(out_dir),
             "--resize", "128x128", str(img)]
        )
        assert code == 0
        blocks = formats.parse_detections((out_dir / "big.det.txt").read_text())
        assert blocks[0].width == 256
        for x0, _, x1, _, _ in blocks[0].rows:
            assert 0 <= x0 <= x1 <= 256

    @pytest.mark.parametrize("folder,name", [("sp ace", "a b.ppm"), ("new\nline", "x.ppm")])
    def test_whitespace_path_rejected(self, tmp_path, model_path, capsys, folder, name):
        # a header with such a path could not be parsed back, so none is written
        (tmp_path / folder).mkdir()
        img = tmp_path / folder / name
        write_test_ppm(img)
        out_dir = tmp_path / "out"
        assert main(["detect", "--model", model_path, "--out-dir", str(out_dir), str(img)]) == 2
        assert repr(str(img)) in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_forward_holds_one_image_copy(self, tmp_path, model_path, monkeypatch):
        # the mean is subtracted in place, so forward's input is the only
        # image-sized array alive; weights add about a third of an image
        img = tmp_path / "big.ppm"
        write_test_ppm(img, size=1024)
        held = []

        def stop(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            raise ValueError("stopped at forward")

        monkeypatch.setattr(cli, "forward", stop)
        tracemalloc.start()
        try:
            code = main(["detect", "--model", model_path, "--out-dir", str(tmp_path), str(img)])
        finally:
            tracemalloc.stop()
        assert code == 2 and len(held) == 1
        image_bytes = 3 * 1024 * 1024 * 4
        assert held[0] < 1.6 * image_bytes, f"{held[0] / image_bytes:.2f} images held"

    def test_forward_holds_one_image(self, tmp_path, model_path, monkeypatch):
        # read_ppm hands out C-ordered NCHW, so Conv1 reads the very array
        # detect passed to forward: no layout copy is made on the way
        img = tmp_path / "big.ppm"
        write_test_ppm(img, size=1024)
        passed, at_conv1 = [], []
        forward = cli.forward

        def record_input(weights, descriptor, image):
            passed.append(image)
            return forward(weights, descriptor, image)

        def stop_at_conv1(x, *args, **kwargs):
            at_conv1.append((np.shares_memory(x, passed[0]), tracemalloc.get_traced_memory()[0]))
            raise ValueError("stopped at Conv1")

        monkeypatch.setattr(cli, "forward", record_input)
        monkeypatch.setattr(ops, "conv2d", stop_at_conv1)
        tracemalloc.start()
        try:
            code = main(["detect", "--model", model_path, "--out-dir", str(tmp_path), str(img)])
        finally:
            tracemalloc.stop()
        assert code == 2 and len(at_conv1) == 1
        shared, held = at_conv1[0]
        assert shared, "Conv1 reads a copy of the image detect passed to forward"
        image_bytes = 3 * 1024 * 1024 * 4
        assert held < 1.6 * image_bytes, f"{held / image_bytes:.2f} images held"

    def test_resize_holds_output_and_bands(self):
        # detect --resize and augment's resize run the float32 chain one band
        # of rows at a time: past the float32 output only band temporaries live
        img = np.random.default_rng(0).random((1, 3, 300, 300), dtype=np.float32)
        tracemalloc.start()
        try:
            out = augment.resize_bilinear(img, 1024, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_color_holds_under_five_images(self):
        # at most a brightened float32 copy, one float32 working image, the
        # float32 luma for the contrast mean (a third of one) and the float32
        # result; the chains themselves run in row bands
        img = np.random.default_rng(0).random((1, 3, 768, 1024), dtype=np.float32)
        peaks = []
        tracemalloc.start()
        try:
            for order in itertools.permutations(("brightness", "contrast", "saturation")):
                tracemalloc.reset_peak()
                augment.apply_color(img, 0.07, 1.3, 0.6, order)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 5 * img.nbytes, f"{max(peaks) / img.nbytes:.2f} images at peak"

    def test_failed_write_leaves_no_file(self, tmp_path, model_path, monkeypatch, capsys):
        # the first image's write dies halfway; neither a truncated .det.txt
        # nor the temp file may stay behind, and the second image is unharmed
        images = []
        for i in range(2):
            images.append(str(tmp_path / f"img{i}.ppm"))
            write_test_ppm(images[-1], seed=i)
        out_dir = tmp_path / "out"
        fdopen = os.fdopen
        opened = []

        def failing_once(fd, *args, **kwargs):
            f = fdopen(fd, *args, **kwargs)
            opened.append(f)
            if len(opened) == 1:
                write = f.write

                def dies_halfway(text):
                    write(text[: len(text) // 2])
                    f.flush()
                    raise OSError(28, "No space left on device")

                f.write = dies_halfway
            return f

        monkeypatch.setattr(os, "fdopen", failing_once)
        args = ["detect", "--model", model_path, "--out-dir", str(out_dir), *images]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"error: {images[0]}: [Errno 28] No space left on device" in err
        assert sorted(p.name for p in out_dir.iterdir()) == ["img1.det.txt"]
        blocks = formats.parse_detections((out_dir / "img1.det.txt").read_text())
        assert [b.path for b in blocks] == [images[1]]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_file_mode_follows_umask(self, tmp_path, model_path, umask):
        img = tmp_path / "img.ppm"
        write_test_ppm(img)
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            assert main(["detect", "--model", model_path, "--out-dir", str(tmp_path), str(img)]) == 0
        finally:
            os.umask(old)
        plain_mode = (tmp_path / "plain.txt").stat().st_mode
        assert (tmp_path / "img.det.txt").stat().st_mode == plain_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["img.det.txt", "img.ppm", "plain.txt"]

    def test_closed_stdout_fails_no_image(self, tmp_path, model_path, monkeypatch):
        images = []
        for i in range(3):
            images.append(str(tmp_path / f"img{i}.ppm"))
            write_test_ppm(images[-1], seed=i)
        out_dir = tmp_path / "out"

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        stderr = io.StringIO()
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        monkeypatch.setattr(sys, "stderr", stderr)
        code = main(["detect", "--model", model_path, "--out-dir", str(out_dir), *images])
        assert code == 2
        errors = stderr.getvalue().splitlines()
        assert len(errors) == 1 and errors[0].startswith("error:"), errors
        assert not any(path in errors[0] for path in images)
        for i in range(3):
            formats.parse_detections((out_dir / f"img{i}.det.txt").read_text())

    def test_verbose_reports_counters(self, tmp_path, model_path, capsys):
        img = tmp_path / "img.ppm"
        write_test_ppm(img)
        main(["detect", "--model", model_path, "--out-dir", str(tmp_path), "--verbose", str(img)])
        out = capsys.readouterr().out
        assert "decoded 8400" not in out  # 128px image has 341 anchors
        assert re.search(r"decoded 341 degenerate \d+", out)


class TestTargetsCommand:
    def test_emits_per_anchor_rows(self, tmp_path):
        ann = tmp_path / "ann.txt"
        # 256 px face centered on the stride-64 anchor at cell (1, 1)
        ann.write_text("image img 256 256\nface -32 -32 224 224\n")
        out = tmp_path / "targets.txt"
        assert main(["targets", "--ann", str(ann), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        head = lines[0].split()
        assert head[0] == "targets"
        n_anchors = int(head[head.index("anchors") + 1])
        positives = int(head[head.index("positives") + 1])
        assert n_anchors == 8 * 8 * 21 + 4 * 4 + 2 * 2
        assert len(lines) == 1 + n_anchors
        assert positives >= 1
        pos_rows = [l for l in lines[1:] if " pos " in l]
        assert len(pos_rows) == positives

    def test_index_out_of_range(self, tmp_path):
        ann = tmp_path / "ann.txt"
        ann.write_text("image img 256 256\n")
        assert main(["targets", "--ann", str(ann), "--index", "3"]) == 2


class TestAugmentCommand:
    def test_round_trip(self, tmp_path):
        img = tmp_path / "in.ppm"
        write_test_ppm(img, size=200)
        ann = tmp_path / "ann.txt"
        ann.write_text("image in.ppm 200 200\nface 20 20 150 150\n")
        out_img = tmp_path / "out.ppm"
        out_ann = tmp_path / "out.txt"
        code = main(
            ["augment", "--image", str(img), "--ann", str(ann), "--seed", "3",
             "--target-size", "256", "--out-image", str(out_img), "--out-ann", str(out_ann)]
        )
        assert code == 0
        augmented = ppm.read_ppm(out_img)
        assert augmented.shape == (1, 3, 256, 256)
        blocks = formats.parse_annotations(out_ann.read_text())
        assert blocks[0].width == 256
        for box in blocks[0].boxes:
            assert 0 <= box[0] <= box[2] <= 256

    def test_seed_determinism(self, tmp_path):
        img = tmp_path / "in.ppm"
        write_test_ppm(img, size=180)
        outs = []
        for name in ("a", "b"):
            out_img = tmp_path / f"{name}.ppm"
            main(["augment", "--image", str(img), "--seed", "9", "--target-size", "128",
                  "--out-image", str(out_img), "--out-ann", str(tmp_path / f"{name}.txt")])
            outs.append(out_img.read_bytes())
        assert outs[0] == outs[1]

    def test_whitespace_out_image_rejected(self, tmp_path, capsys):
        img = tmp_path / "in.ppm"
        write_test_ppm(img, size=128)
        out_img = tmp_path / "o ut.ppm"
        assert main(["augment", "--image", str(img), "--target-size", "128",
                     "--out-image", str(out_img)]) == 2
        assert repr(str(out_img)) in capsys.readouterr().err
        assert not out_img.exists()

    def test_target_size_above_cap_rejected_before_reading(self, tmp_path, capsys):
        # the image does not exist: the cap must be named before any read
        cap = network.MAX_INPUT_PIXELS
        argv = ["augment", "--image", str(tmp_path / "missing.ppm"), "--target-size", "4097",
                "--out-image", str(tmp_path / "o.ppm")]
        assert main(argv) == 2
        assert f"cap of {cap} pixels" in capsys.readouterr().err
        assert not (tmp_path / "o.ppm").exists()

    def test_size_mismatch_rejected(self, tmp_path):
        img = tmp_path / "in.ppm"
        write_test_ppm(img, size=128)
        ann = tmp_path / "ann.txt"
        ann.write_text("image in.ppm 200 200\n")
        assert main(["augment", "--image", str(img), "--ann", str(ann),
                      "--out-image", str(tmp_path / "o.ppm")]) == 2


class TestEvalCommand:
    def test_bundled_fixture_ap_half(self, tmp_path, capsys):
        out = tmp_path / "curve.txt"
        code = main(
            ["eval", "--gt", str(DATA / "eval_gt.txt"), "--dets", str(DATA / "eval_dets.txt"),
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        summary = [l for l in lines if l.startswith("summary")][0]
        fields = summary.split("\t")
        assert fields[fields.index("ap") + 1] == "0.500000"
        assert fields[fields.index("faces") + 1] == "2"
        assert any(l.startswith("pr\t") for l in lines)
        assert any(l.startswith("roc\t") for l in lines)

    def test_stdout_default(self, capsys):
        code = main(["eval", "--gt", str(DATA / "eval_gt.txt"),
                     "--dets", str(DATA / "eval_dets.txt")])
        assert code == 0
        assert "summary" in capsys.readouterr().out

    @pytest.mark.parametrize("iou", ["0", "1.5"])
    def test_iou_outside_unit_interval_is_2(self, iou, capsys):
        code = main(["eval", "--gt", str(DATA / "eval_gt.txt"),
                     "--dets", str(DATA / "eval_dets.txt"), "--iou", iou])
        assert code == 2
        captured = capsys.readouterr()
        assert "iou_threshold must be in (0, 1]" in captured.err
        assert "summary" not in captured.out

    def test_image_listed_twice_in_gt_is_2(self, tmp_path, capsys):
        # keyed by path, the second block would silently replace the first
        gt = tmp_path / "gt.txt"
        gt.write_text("image a 100 100\nface 0 0 50 50\n\nimage a 100 100\nface 60 60 90 90\n")
        dets = tmp_path / "dets.txt"
        dets.write_text(formats.format_detections("a", 100, 100, [[0, 0, 50, 50, 0.9]]))
        assert main(["eval", "--gt", str(gt), "--dets", str(dets)]) == 2
        captured = capsys.readouterr()
        assert "ground truth lists image 'a' twice" in captured.err
        assert "summary" not in captured.out

    def test_detections_on_other_image_size_is_2(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("image a 100 100\nface 0 0 50 50\n")
        dets = tmp_path / "dets.txt"
        dets.write_text(formats.format_detections("a", 200, 300, [[0, 0, 50, 50, 0.9]]))
        assert main(["eval", "--gt", str(gt), "--dets", str(dets)]) == 2
        captured = capsys.readouterr()
        assert "detections for 'a' are on a 200x300 image, its ground truth on 100x100" in captured.err
        assert "summary" not in captured.out


class TestBenchCommand:
    def test_report_structure(self, capsys):
        code = main(["bench", "--width", "128", "--height", "128", "--reps", "3", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        match = re.search(
            r"BENCH w=128 h=128 reps=3 threads=1 forward_median_ms=([\d.]+) "
            r"forward_stddev_ms=([\d.]+) pipeline_median_ms=([\d.]+) "
            r"pipeline_stddev_ms=([\d.]+) wall_s=([\d.]+) fps=([\d.]+)",
            out,
        )
        assert match, out
        assert float(match.group(1)) > 0
        assert float(match.group(6)) > 0

    def test_too_few_reps_rejected(self):
        assert main(["bench", "--reps", "2"]) == 2

    def test_oversized_input_rejected(self, capsys):
        # 1e14 pixels: more than any address space, so an allocation made
        # before the cap check fails at once instead of using memory
        side = "10000000"
        assert main(["bench", "--width", side, "--height", side, "--reps", "3"]) == 2
        assert f"cap of {network.MAX_INPUT_PIXELS} pixels" in capsys.readouterr().err

    def test_multithreaded_not_slower(self, capsys):
        # wall time with 2 workers should not exceed the single-thread wall
        # time by more than scheduler noise (images are processed in parallel)
        def wall(threads):
            main(["bench", "--width", "160", "--height", "160", "--reps", "6",
                  "--threads", str(threads), "--seed", "0"])
            text = capsys.readouterr().out
            return float(re.search(r"wall_s=([\d.]+)", text).group(1))

        single = wall(1)
        multi = wall(2)
        assert multi <= single * 1.15
