"""Command line surface: detect, init-weights, anchors, targets, augment,
eval, bench.

Exit codes: 0 success, 1 usage error, 2 input/data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import fileio, formats, ppm
from .anchors import generate_anchors
from .augment import AugmentConfig, Sample, augment_pipeline, resize_bilinear
from .evaluate import EVAL_IOU_THRESHOLD, evaluate_detections
from .network import (
    WeightFormatError,
    check_input_pixels,
    default_descriptor,
    forward,
    load_weights,
    save_weights,
    xavier_init,
)
from .postprocess import PostprocessConfig, run_postprocess
from .targets import MATCH_THRESHOLD, match_anchors

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# conventional detection preprocessing (~104/117/123 over 255); configurable
DEFAULT_MEAN = "0.4078,0.4588,0.4824"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_mean(text: str) -> np.ndarray:
    error = argparse.ArgumentTypeError(f"needs three finite comma-separated values, got {text!r}")
    try:
        with np.errstate(over="ignore"):  # a float32 overflow is rejected below as inf
            mean = np.array([float(v) for v in text.split(",")], dtype=np.float32)
    except ValueError:
        raise error from None
    if mean.shape != (3,) or not np.isfinite(mean).all():
        raise error
    return mean.reshape(1, 3, 1, 1)


def _parse_size(text: str) -> tuple[int, int]:
    w, _, h = text.partition("x")
    try:
        size = int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs WxH, two whole numbers, got {text!r}") from None
    if min(size) < 1:
        raise argparse.ArgumentTypeError(f"sides must be at least 1, got {text!r}")
    return size


def _parse_threads(text: str) -> int:
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise argparse.ArgumentTypeError(f"needs a whole number of at least 1, got {text!r}")
    return threads


def _parse_budgets(text: str) -> list[float]:
    """Comma-separated FP budgets, at least one; empty fields are skipped.
    A NaN parses here and is rejected by `evaluate` as a data error."""
    try:
        budgets = [float(v) for v in text.split(",") if v]
    except ValueError:
        budgets = []
    if not budgets:
        raise argparse.ArgumentTypeError(f"needs comma-separated numbers, got {text!r}")
    return budgets


def _postprocess_config(args) -> PostprocessConfig:
    return PostprocessConfig(
        conf_threshold=args.conf_threshold,
        pre_nms_top_k=args.pre_topk,
        nms_overlap=args.nms_overlap,
        post_nms_top_k=args.post_topk,
    )


def _add_postprocess_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--conf-threshold", type=float, default=PostprocessConfig.conf_threshold)
    p.add_argument("--pre-topk", type=int, default=PostprocessConfig.pre_nms_top_k)
    p.add_argument("--nms-overlap", type=float, default=PostprocessConfig.nms_overlap)
    p.add_argument("--post-topk", type=int, default=PostprocessConfig.post_nms_top_k)


def _write_text(path: str | None, text: str) -> None:
    if not path or path == "-":
        sys.stdout.write(text)
    else:
        fileio.write_file(path, text)


def cmd_init_weights(args) -> int:
    descriptor = default_descriptor()
    weights = xavier_init(descriptor, args.seed)
    save_weights(weights, args.out)
    size = Path(args.out).stat().st_size
    print(f"wrote {args.out}: {len(weights.entries)} entries, {size} bytes")
    return EXIT_OK


def cmd_anchors(args) -> int:
    anchor_set = generate_anchors(args.width, args.height)
    _write_text(args.out, "\n".join(anchor_set.to_lines()) + "\n")
    return EXIT_OK


def cmd_targets(args) -> int:
    blocks = formats.parse_annotations(Path(args.ann).read_text())
    if not 0 <= args.index < len(blocks):
        raise ValueError(f"--index {args.index} out of range ({len(blocks)} annotation blocks)")
    block = blocks[args.index]
    anchor_set = generate_anchors(block.width, block.height)
    targets = match_anchors(anchor_set, block.boxes, threshold=args.match_threshold)
    lines = [
        f"targets image {block.path} w {block.width} h {block.height} "
        f"anchors {len(targets)} positives {targets.positive_count}"
    ]
    for i in range(len(targets)):
        tag = "pos" if targets.labels[i] else "neg"
        t = targets.offsets[i]
        lines.append(
            f"{i} {tag} {targets.gt_index[i]} {t[0]:.6f} {t[1]:.6f} {t[2]:.6f} {t[3]:.6f}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_augment(args) -> int:
    cfg = AugmentConfig(target_size=args.target_size)  # before the image is read
    image = ppm.read_ppm(args.image)
    boxes = np.zeros((0, 4))
    if args.ann:
        blocks = formats.parse_annotations(Path(args.ann).read_text())
        if not 0 <= args.index < len(blocks):
            raise ValueError(f"--index {args.index} out of range ({len(blocks)} annotation blocks)")
        block = blocks[args.index]
        if (block.width, block.height) != (image.shape[3], image.shape[2]):
            raise ValueError(
                f"annotation says {block.width}x{block.height} but image is "
                f"{image.shape[3]}x{image.shape[2]}"
            )
        boxes = block.boxes
    rng = np.random.default_rng(args.seed)
    out = augment_pipeline(Sample(image, boxes, source_id=str(args.image)), rng, cfg)
    ann = formats.format_annotations(
        [formats.AnnotatedImage(str(args.out_image), out.width, out.height, out.boxes)]
    )
    ppm.write_ppm(args.out_image, out.image)
    _write_text(args.out_ann, ann)
    return EXIT_OK


def cmd_eval(args) -> int:
    truth: dict[str, formats.AnnotatedImage] = {}
    for block in formats.parse_annotations(Path(args.gt).read_text()):
        if block.path in truth:
            raise ValueError(f"ground truth lists image {block.path!r} twice")
        truth[block.path] = block
    gt = {path: block.boxes for path, block in truth.items()}
    blocks_by_image: dict[str, list[np.ndarray]] = {}
    for path in args.dets:
        for block in formats.parse_detections(Path(path).read_text()):
            known = truth.get(block.path)
            if known is not None and (known.width, known.height) != (block.width, block.height):
                raise ValueError(
                    f"detections for {block.path!r} are on a {block.width}x{block.height} image, "
                    f"its ground truth on {known.width}x{known.height}"
                )
            blocks_by_image.setdefault(block.path, []).append(block.rows)
    detections = {image: np.concatenate(rows) for image, rows in blocks_by_image.items()}
    result = evaluate_detections(detections, gt, args.iou, args.fp_budgets)
    lines = [f"pr\t{r:.6f}\t{p:.6f}" for r, p in result.pr_points]
    lines += [f"roc\t{fp}\t{tpr:.6f}" for fp, tpr in result.roc_points]
    summary = [
        "summary",
        f"ap\t{result.average_precision:.6f}",
        f"faces\t{sum(len(b) for b in gt.values())}",
        f"detections\t{sum(len(d) for d in detections.values())}",
    ]
    summary += [f"tpr@{budget:g}\t{tpr:.6f}" for budget, tpr in result.tpr_at_fp.items()]
    lines.append("\t".join(summary))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _detect_image(weights, descriptor, x, anchors_for, cfg):
    """forward -> anchors -> postprocess on one mean-subtracted (1, 3, h, w)
    image; `anchors_for` is a cached `generate_anchors`.  Returns (rows, stats,
    forward ms, postprocess ms)."""
    t0 = time.perf_counter()
    heads = forward(weights, descriptor, x)
    t1 = time.perf_counter()
    rows, stats = run_postprocess(heads, anchors_for(x.shape[3], x.shape[2]), cfg)
    t2 = time.perf_counter()
    return rows, stats, (t1 - t0) * 1e3, (t2 - t1) * 1e3


def cmd_detect(args) -> int:
    descriptor = default_descriptor()
    if args.resize:  # the pixel cap and the size floor, before any image is read
        check_input_pixels(args.resize[1], args.resize[0])
        descriptor.spatial_sizes(args.resize[1], args.resize[0])
    out_dir = Path(args.out_dir)
    inputs: dict[Path, str] = {}
    for path in args.images:
        out_path = out_dir / (Path(path).stem + ".det.txt")
        if out_path in inputs:
            raise ValueError(f"{inputs[out_path]} and {path} would both write {out_path}")
        inputs[out_path] = path

    weights = load_weights(args.model, descriptor)
    cfg = _postprocess_config(args)
    mean = args.mean
    resize = args.resize
    out_dir.mkdir(parents=True, exist_ok=True)
    anchors_for = functools.cache(generate_anchors)

    def process(path: str, out_path: Path):
        t0 = time.perf_counter()
        image = ppm.read_ppm(path)
        orig_h, orig_w = image.shape[2], image.shape[3]
        if resize:
            image = resize_bilinear(image, resize[1], resize[0])
        used_h, used_w = image.shape[2], image.shape[3]
        image -= mean  # in place: no second image-sized array lives through forward
        load_ms = (time.perf_counter() - t0) * 1e3
        rows, stats, forward_ms, postprocess_ms = _detect_image(
            weights, descriptor, image, anchors_for, cfg
        )
        t1 = time.perf_counter()
        if resize:
            sx, sy = orig_w / used_w, orig_h / used_h
            rows[:, :4] *= [sx, sy, sx, sy]
        fileio.write_atomic(out_path, formats.format_detections(path, orig_w, orig_h, rows))
        write_ms = (time.perf_counter() - t1) * 1e3
        return out_path, stats, (load_ms, forward_ms, postprocess_ms, write_ms)

    stage_times: dict[str, list[float]] = {"load": [], "forward": [], "postprocess": [], "write": []}
    failures = []
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        futures = {pool.submit(process, p, o): p for o, p in inputs.items()}
        # a failing stdout raises out of this loop, naming no image; leaving the
        # pool still waits for every image to be written
        for future, path in futures.items():
            try:
                out_path, stats, times = future.result()
            except (OSError, ValueError, WeightFormatError) as e:
                failures.append(path)
                print(f"error: {path}: {e}", file=sys.stderr)
                continue
            for values, ms in zip(stage_times.values(), times):
                values.append(ms)
            line = f"wrote {out_path} count {stats['kept']}"
            if args.verbose:
                line += (
                    f" decoded {stats['decoded']}"
                    f" degenerate {stats['degenerate_dropped']}"
                    f" above_threshold {stats['above_threshold']}"
                )
            print(line)

    for stage, values in stage_times.items():
        if values:
            mean_ms = statistics.fmean(values)
            std_ms = statistics.pstdev(values) if len(values) > 1 else 0.0
            print(f"timing {stage} mean_ms {mean_ms:.3f} std_ms {std_ms:.3f} n {len(values)}")
    return EXIT_DATA if failures else EXIT_OK


def cmd_bench(args) -> int:
    if args.reps < 3:
        raise ValueError(f"--reps must be at least 3, got {args.reps}")
    check_input_pixels(args.height, args.width)  # before the image is allocated
    descriptor = default_descriptor()
    if args.model:
        weights = load_weights(args.model, descriptor)
    else:
        weights = xavier_init(descriptor, args.seed)
    rng = np.random.default_rng(args.seed)
    image = rng.random((1, 3, args.height, args.width), dtype=np.float32)
    image -= _parse_mean(DEFAULT_MEAN)
    anchors_for = functools.cache(generate_anchors)
    cfg = PostprocessConfig()

    one_pass = functools.partial(_detect_image, weights, descriptor, image, anchors_for, cfg)
    one_pass()  # warm-up, which also builds the anchors
    wall0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        futures = [pool.submit(one_pass) for _ in range(args.reps)]
    wall_s = time.perf_counter() - wall0
    passes = [future.result() for future in futures]
    forward_ms = [f_ms for _, _, f_ms, _ in passes]
    pipeline_ms = [f_ms + p_ms for _, _, f_ms, p_ms in passes]

    f_med = statistics.median(forward_ms)
    f_std = statistics.pstdev(forward_ms)
    p_med = statistics.median(pipeline_ms)
    p_std = statistics.pstdev(pipeline_ms)
    fps = args.reps / wall_s
    print(f"image {args.width}x{args.height}, {args.reps} reps, {args.threads} thread(s)")
    print(f"forward  median {f_med:.2f} ms  stddev {f_std:.2f} ms")
    print(f"pipeline median {p_med:.2f} ms  stddev {p_std:.2f} ms")
    print(f"throughput {fps:.2f} images/s")
    print(
        f"BENCH w={args.width} h={args.height} reps={args.reps} threads={args.threads} "
        f"forward_median_ms={f_med:.3f} forward_stddev_ms={f_std:.3f} "
        f"pipeline_median_ms={p_med:.3f} pipeline_stddev_ms={p_std:.3f} "
        f"wall_s={wall_s:.3f} fps={fps:.3f}"
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="facedet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run the detector on PPM images")
    p.add_argument("images", nargs="+")
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--mean", type=_parse_mean, default=DEFAULT_MEAN)
    p.add_argument(
        "--resize", type=_parse_size, default=None, help="WxH forward size; detections map back"
    )
    p.add_argument("--threads", type=_parse_threads, default=1)
    p.add_argument("--verbose", action="store_true")
    _add_postprocess_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("init-weights", help="write xavier-initialized weights")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init_weights)

    p = sub.add_parser("anchors", help="dump the anchor set for an image size")
    p.add_argument("width", type=int)
    p.add_argument("height", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("targets", help="dump per-anchor training targets")
    p.add_argument("--ann", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--match-threshold", type=float, default=MATCH_THRESHOLD)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_targets)

    p = sub.add_parser("augment", help="augment one image + annotation")
    p.add_argument("--image", required=True)
    p.add_argument("--ann", default=None)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-size", type=int, default=AugmentConfig.target_size)
    p.add_argument("--out-image", required=True)
    p.add_argument("--out-ann", default=None)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("eval", help="score detection files against annotations")
    p.add_argument("--gt", required=True)
    p.add_argument("--dets", nargs="+", required=True)
    p.add_argument("--iou", type=float, default=EVAL_IOU_THRESHOLD)
    p.add_argument("--fp-budgets", type=_parse_budgets, default="1000")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time forward and full pipeline")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=640)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--model", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_parse_threads, default=1)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (WeightFormatError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # pragma: no cover - internal invariant violations
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
