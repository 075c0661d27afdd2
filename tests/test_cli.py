import math
import re
from pathlib import Path

import numpy as np
import pytest

from facedet import formats, network, ppm
from facedet.cli import main
from facedet.network import ModelWeights, save_weights

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

    def test_help_is_0(self):
        assert main(["--help"]) == 0


class TestAnchorsCommand:
    def test_vga_header_count(self, tmp_path):
        out = tmp_path / "a.txt"
        assert main(["anchors", "640", "640", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "anchors w 640 h 640 count 8525"
        assert len(lines) == 8526
        assert lines[1].split()[0] == "Inception3"

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
