"""The benchmark's workloads: input generation, warm-up, the measured loop and
the output checks.

Inference goes through the public command line entry point in-process
(`facedet.cli.main(["detect", ...])` and `["eval", ...]`); training prep goes
through the public library functions, looked up on their modules at call
time so the traced run sees them.  Every check runs outside the timed calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import inputs
import oracles

MEAN_FLAG = "0.4078,0.4588,0.4824"
MEAN = np.array([float(v) for v in MEAN_FLAG.split(",")], dtype=np.float32).reshape(1, 3, 1, 1)
CONF_THRESHOLD, PRE_TOP_K, NMS_OVERLAP, POST_TOP_K = 0.05, 400, 0.3, 200
POSTPROCESS_FLAGS = [
    "--conf-threshold", str(CONF_THRESHOLD), "--pre-topk", str(PRE_TOP_K),
    "--nms-overlap", str(NMS_OVERLAP), "--post-topk", str(POST_TOP_K),
]
DETECT_THREADS = 1  # see README.md, "Host noise"
MATCH_THRESHOLD = 0.35
EVAL_IOU = 0.5
MIN_ROUNDS = 3  # a median needs a few measured rounds even in a short run
EVAL_ROUND_S = 0.5  # eval calls repeat within a round until they took this long


class Tally:
    """Operations attempted/failed and outputs checked/passed in one process."""

    def __init__(self):
        self.attempted = self.failed = self.checked = self.ok = 0
        self.problems: list[str] = []

    def op(self, failed: bool, what: str = "") -> None:
        self.attempted += 1
        if failed:
            self.failed += 1
            self._note(f"failed: {what}")

    def output(self, ok: bool, what: str = "") -> None:
        self.checked += 1
        if ok:
            self.ok += 1
        else:
            self._note(f"wrong output: {what}")

    def _note(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def run_cli(cli, argv) -> tuple[int, float, str, str]:
    """One in-process `cli.main` call: (exit code, wall seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    return code, wall, out.getvalue(), err.getvalue()


def parse_eval_summary(text: str) -> dict[str, str]:
    lines = text.splitlines()
    fields = lines[-1].split("\t") if lines else []
    if not fields or fields[0] != "summary":
        raise ValueError("eval output has no summary line")
    for line in lines[:-1]:
        kind, a, b = line.split("\t")
        if kind not in ("pr", "roc"):
            raise ValueError(f"unexpected eval line {line!r}")
        float(a), float(b)
    return dict(zip(fields[1::2], fields[2::2]))


def detection_rows(text: str):
    try:
        return oracles.parse_detection_file(text)[3]
    except ValueError:
        return []


def timed_evals(cli, argv, out_path: Path, images: int, tally, tracer) -> tuple[list, list]:
    """Repeat one `eval` call until EVAL_ROUND_S has passed; returns the
    images-per-second of each call and the text each call wrote."""
    rates, texts, spent = [], [], 0.0
    while spent < EVAL_ROUND_S:
        out_path.unlink(missing_ok=True)
        with tracer.call_span("eval") if tracer else contextlib.nullcontext():
            code, wall, _, err = run_cli(cli, argv)
        spent += wall
        rates.append(images / wall)
        tally.op(code != 0 or "error:" in err, f"eval exit {code} {err.strip()[:200]}")
        texts.append(out_path.read_text() if out_path.exists() else "")
    return rates, texts


def eval_output_ok(text: str, faces: int, detections: int) -> bool:
    try:
        summary = parse_eval_summary(text)
        return (int(summary["faces"]) == faces and int(summary["detections"]) == detections
                and math.isfinite(float(summary["ap"])))
    except (ValueError, KeyError):
        return False


class DetectWorkload:
    """Repeated `detect` calls over a pool of generated images, each followed
    by an `eval` call over its outputs."""

    def __init__(self, name, size, pool):
        self.name, self.size, self.pool = name, size, pool

    # -- inputs -----------------------------------------------------------
    def prepare(self, facedet, work: Path, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        directory = work / "inputs"
        directory.mkdir(parents=True)
        # face counts are spread evenly over the range and shuffled, so every
        # seed asks for the same amount of work; the warm-up image has the
        # median count, so set-up does too
        counts = rng.permutation(self.face_counts())
        scenes = [self.scene(rng, int(c)) for c in [np.median(counts), *counts]]
        paths, items = inputs.write_scene_set(directory, "img", scenes)
        inputs.write_annotations(directory / "gt.txt", items[1:])
        facedet.save_weights(self.weights(facedet, seed), directory / "model.fbxw")
        manifest = {"warm_image": paths[0], "images": paths[1:],
                    "gt": [b.tolist() for _, _, _, b in items[1:]]}
        (directory / "manifest.json").write_text(json.dumps(manifest))

    def load(self, work: Path) -> dict:
        m = json.loads((work / "inputs" / "manifest.json").read_text())
        m["model"] = str(work / "inputs" / "model.fbxw")
        m["gt_file"] = str(work / "inputs" / "gt.txt")
        return m

    def detect_argv(self, m, out_dir, images):
        return ["detect", "--model", m["model"], "--out-dir", str(out_dir),
                "--threads", str(DETECT_THREADS), "--mean", MEAN_FLAG,
                *POSTPROCESS_FLAGS, *images]

    # -- set-up -----------------------------------------------------------
    def warm_up(self, facedet, work: Path, tag: str, seed: int) -> dict:
        m = self.load(work)
        code, _, _, err = run_cli(facedet.cli, self.detect_argv(m, work / tag, [m["warm_image"]]))
        if code != 0:
            raise RuntimeError(f"warm-up detect exited {code}: {err.strip()}")
        return m

    # -- measured loop ------------------------------------------------------
    def measure(self, facedet, work, m, seconds, tally, reference, tracer=None):
        """detect + eval rounds for `seconds`; returns the detect rate of each
        round and the rate of each eval call."""
        images = m["images"]
        out_dir = work / "out"
        det_files = [out_dir / (Path(p).stem + ".det.txt") for p in images]
        faces = sum(len(g) for g in m["gt"])
        eval_out = work / "eval.txt"
        eval_argv = ["eval", "--gt", m["gt_file"], "--dets", *map(str, det_files),
                     "--iou", str(EVAL_IOU), "--out", str(eval_out)]
        rates, eval_rates = [], []
        # the first untraced round is a warm round: its outputs become the
        # reference every later round must reproduce, its times are dropped
        warm = "eval" not in reference
        start = time.perf_counter()
        while warm or len(rates) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            for f in det_files:
                f.unlink(missing_ok=True)
            with tracer.call_span("detect") if tracer else contextlib.nullcontext():
                code, wall, out, err = run_cli(facedet.cli, self.detect_argv(m, out_dir, images))
            texts = self.check_detect_round(code, out, err, images, det_files, tally, reference)
            detections = sum(len(detection_rows(t)) for t in texts)
            call_rates, outputs = timed_evals(facedet.cli, eval_argv, eval_out, len(images),
                                              tally, tracer)
            for text in outputs:
                reference.setdefault("eval", text)
                tally.output(text == reference["eval"]
                             and eval_output_ok(text, faces, detections), "eval")
            if not warm:
                rates.append(len(images) / wall)
                eval_rates += call_rates
            warm = False
        return {"rates": rates, "eval_rates": eval_rates}

    def check_detect_round(self, code, out, err, images, det_files, tally, reference):
        """Each image is one operation and one checked output: its file must
        exist, parse, name its image and size, and equal the first round's."""
        wrote = out.count("wrote ")
        texts = []
        for path, det in zip(images, det_files):
            text = det.read_text() if det.exists() else ""
            failed = code != 0 or "error:" in err or wrote != len(images)
            try:
                header = oracles.parse_detection_file(text)[:3]
            except ValueError:
                failed, header = True, None
            tally.op(failed, f"detect {path} exit {code} {err.strip()[:200]}")
            expected_header = (path, self.size, self.size)
            ref = reference.setdefault(path, text)
            tally.output(header == expected_header and text == ref, f"detect {path}")
            texts.append(text)
        return texts

    # -- oracle checks on the reference outputs ---------------------------
    def check_reference(self, facedet, m, reference, tally) -> None:
        raise NotImplementedError


class DenseVGA(DetectWorkload):
    """640x640, dim noise with 0-20 flat rectangles, xavier weights: every
    anchor passes the threshold, so NMS always sees 400 candidates."""

    oracle_images = 2

    def __init__(self):
        super().__init__("detect_vga_dense", inputs.VGA, pool=16)

    def face_counts(self):
        return np.linspace(0, 20, self.pool).round()

    def scene(self, rng, faces):
        return inputs.flat_rect_scene(rng, inputs.VGA, inputs.VGA, faces, (16, 200), 48)

    def weights(self, facedet, seed):
        return facedet.xavier_init(facedet.default_descriptor(), seed)

    def check_reference(self, facedet, m, reference, tally):
        """Brute-force funnel over decode_all of a fresh forward must equal
        the written detections, same order, within 1e-4."""
        descriptor = facedet.default_descriptor()
        weights = facedet.load_weights(m["model"], descriptor)
        anchor_set = facedet.generate_anchors(self.size, self.size)
        for path in m["images"][: self.oracle_images]:
            rgb = np.fromfile(path, dtype=np.uint8)[-3 * self.size * self.size:]
            image = rgb.reshape(self.size, self.size, 3).transpose(2, 0, 1)[None]
            x = image.astype(np.float32) / np.float32(255.0) - MEAN
            heads = facedet.forward(weights, descriptor, x)
            boxes, scores = facedet.decode_all(heads, anchor_set)
            expected = oracles.greedy_postprocess(
                boxes, scores, float(self.size), float(self.size),
                CONF_THRESHOLD, PRE_TOP_K, NMS_OVERLAP, POST_TOP_K)
            rows = detection_rows(reference[path])
            tally.output(oracles.rows_match(expected, rows), f"NMS oracle {path}")


class SparseHD(DetectWorkload):
    """1024x1024 tent blobs on black, hand-built blob weights: forward is the
    work, a few dozen candidates reach NMS."""

    def __init__(self):
        super().__init__("detect_hd_sparse", inputs.HD, pool=12)

    def face_counts(self):
        return np.resize([1, 2, 3], self.pool)

    def scene(self, rng, faces):
        return inputs.tent_blob_scene(rng, faces)

    def weights(self, facedet, seed):
        return inputs.blob_weights(facedet)

    def check_reference(self, facedet, m, reference, tally):
        """Every planted face has a detection at IoU >= 0.5."""
        for path, gt in zip(m["images"], m["gt"]):
            rows = detection_rows(reference[path])
            found = all(any(oracles.iou(face, r[:4]) >= EVAL_IOU for r in rows) for face in gt)
            tally.output(found, f"planted faces found {path}")


class TrainPrep:
    """Training-sample preparation: read -> augment -> match -> mine -> loss,
    with seeded stand-in network outputs, over a pool of annotated sources.
    Each epoch is followed by `eval` over generated detections for the same
    sources (a face-dense scoring case: 1-60 faces, 200 boxes per image)."""

    name = "train_prep"
    pool = 12
    oracle_samples = 3
    standins = 4
    eval_boxes = 200

    def prepare(self, facedet, work: Path, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        directory = work / "inputs"
        directory.mkdir(parents=True)
        counts = rng.permutation(np.linspace(1, 60, self.pool).round())
        scenes = [
            inputs.flat_rect_scene(rng, inputs.TRAIN_W, inputs.TRAIN_H, int(faces), (16, 300), 256)
            for faces in [np.median(counts), *counts]
        ]
        _, items = inputs.write_scene_set(directory, "src", scenes)
        inputs.write_annotations(directory / "warm.txt", items[:1])
        inputs.write_annotations(directory / "train.txt", items[1:])
        for i, (path, w, h, boxes) in enumerate(items[1:]):
            rows = inputs.scored_guesses(rng, boxes, w, h, self.eval_boxes)
            inputs.write_detections(directory / f"eval{i:03d}.det.txt", path, w, h, rows)

    def load(self, facedet, work: Path, seed: int) -> dict:
        anchor_set = facedet.anchors.generate_anchors(inputs.HD, inputs.HD)
        n = len(anchor_set)
        rng = np.random.default_rng([seed, 4])
        standins = [
            (rng.normal(0, 2, (n, 2)).astype(np.float32), rng.normal(0, 1, (n, 4)).astype(np.float32))
            for _ in range(self.standins)
        ]
        directory = work / "inputs"
        return {"anchors": anchor_set, "standins": standins, "seed": seed,
                "warm": str(directory / "warm.txt"), "train": str(directory / "train.txt"),
                "dets": [str(directory / f"eval{i:03d}.det.txt") for i in range(self.pool)]}

    def sample(self, facedet, m, block, rng, standin: int):
        """One training sample; returns (augmented sample, targets, loss)."""
        image = facedet.ppm.read_ppm(block.path)
        src = facedet.augment.Sample(image, block.boxes, source_id=block.path)
        out = facedet.augment.augment_pipeline(src, rng, facedet.augment.AugmentConfig())
        t = facedet.targets.match_anchors(m["anchors"], out.boxes, threshold=MATCH_THRESHOLD)
        conf, loc = m["standins"][standin % len(m["standins"])]
        cls_loss = facedet.targets.softmax_cross_entropy(conf, t.labels)
        t.selected_negatives = facedet.targets.hard_negative_mine(cls_loss, t)
        loss = facedet.targets.detection_loss(conf, loc, t)
        return out, t, loss

    def warm_up(self, facedet, work: Path, tag: str, seed: int) -> dict:
        m = self.load(facedet, work, seed)
        block = facedet.formats.parse_annotations(Path(m["warm"]).read_text())[0]
        # a fixed augmentation draw, so every seed sets up the same work
        self.sample(facedet, m, block, np.random.default_rng(0), 0)
        return m

    def measure(self, facedet, work, m, seconds, tally, reference, tracer=None):
        """Epochs over the source pool for `seconds`; returns the sample rate
        of each epoch and the rate of each eval call.  The first untraced
        epoch is a warm round whose times are dropped."""
        rates, eval_rates = [], []
        warm = "epoch" not in reference
        epoch = reference.setdefault("epoch", 0)
        start = time.perf_counter()
        while warm or len(rates) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            kept = []
            t0 = time.perf_counter()
            blocks = facedet.formats.parse_annotations(Path(m["train"]).read_text())
            for i, block in enumerate(blocks):
                try:
                    rng = np.random.default_rng([m["seed"], 5, epoch, i])
                    kept.append(self.sample(facedet, m, block, rng, epoch + i))
                    tally.op(False)
                except Exception as e:  # counted as a failed operation
                    tally.op(True, f"sample {epoch}/{i}: {type(e).__name__}: {e}")
            wall = time.perf_counter() - t0
            if warm:
                self.check_matches(m, kept[: self.oracle_samples], tally)
            for out, t, loss in kept:
                tally.output(len(t) == len(m["anchors"]) and math.isfinite(loss.combined)
                             and bool(t.labels.any()) == bool(len(out.boxes)), "loss")
            call_rates = self.eval_round(facedet, work, m, blocks, tally, reference, tracer)
            if not warm:
                rates.append(len(kept) / wall)
                eval_rates += call_rates
            warm = False
            epoch += 1
        reference["epoch"] = epoch
        return {"rates": rates, "eval_rates": eval_rates}

    def check_matches(self, m, kept, tally):
        a = m["anchors"]
        cs = np.stack([a.cx, a.cy, a.side], axis=1).astype(np.float64)
        half = cs[:, 2] / 2
        corners = np.stack([cs[:, 0] - half, cs[:, 1] - half, cs[:, 0] + half, cs[:, 1] + half], 1)
        for out, t, _ in kept:
            faces = np.asarray(out.boxes, dtype=np.float64)
            labels, gt_index = oracles.two_stage_match(corners, faces, MATCH_THRESHOLD)
            tally.output(np.array_equal(labels, t.labels) and np.array_equal(gt_index, t.gt_index),
                         "two-stage matcher oracle")

    def eval_round(self, facedet, work, m, blocks, tally, reference, tracer):
        """`eval` calls over the generated detections; returns their rates."""
        out_path = work / "eval.txt"
        argv = ["eval", "--gt", m["train"], "--dets", *m["dets"],
                "--iou", str(EVAL_IOU), "--out", str(out_path)]
        rates, texts = timed_evals(facedet.cli, argv, out_path, len(m["dets"]), tally, tracer)
        faces = sum(len(b.boxes) for b in blocks)
        for text in texts:
            reference.setdefault("eval", text)
            tally.output(text == reference["eval"]
                         and eval_output_ok(text, faces, self.eval_boxes * len(m["dets"])), "eval")
        return rates

    def check_reference(self, facedet, m, reference, tally):
        pass


WORKLOADS = {w.name: w for w in (DenseVGA(), SparseHD(), TrainPrep())}
