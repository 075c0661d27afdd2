"""Span tracing around facedet's module-level functions, for the traced run.

`Tracer.install` replaces the module attributes that callers look up at call
time (for example `ops.conv2d`, which `network.forward` reaches through the
`ops` module, or `cli.forward`, which `cmd_detect` reaches through its own
globals) with wrappers that record a span per call; `uninstall` puts the
originals back.  Nothing in the program changes.

Spans live in memory as tuples and are written out once, at the end.  Spans
of one image (or one training sample) share an image id: the id starts at a
`ppm.read_ppm` call made with no span open on its thread and covers every
later top-level span of that thread until the next such call or the next
benchmark call span.  Each image gets a synthetic root span (`image`) from its
first span's start to its last span's end, so the self times of an image's
spans add up to the root's duration exactly.
"""

from __future__ import annotations

import gzip
import itertools
import json
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (span id, parent id, name, thread, image id, start ns, end ns, probe result)
SID, PARENT, NAME, THREAD, IMAGE, START, END, INFO = range(8)
IMAGE_ROOT = "image"
IMAGE_OPENER = "ppm.read_ppm"


def _conv_shapes(args, kwargs, result):
    return result.shape, args[1].shape


def _first_len(args, kwargs, result):
    return len(args[0])


def _result_len(args, kwargs, result):
    return len(result)


def _postprocess_stats(args, kwargs, result):
    if isinstance(result, tuple):
        stats = result[1]
        return stats["above_threshold"], stats["kept"]
    return None, len(result)


def _augment_boxes(args, kwargs, result):
    return len(args[0].boxes), len(result.boxes)


def _positives(args, kwargs, result):
    return result.positive_count


# (module, attribute, probe) for every wrapped name, grouped by layer
TRACE_POINTS = (
    ("ops", "conv2d", _conv_shapes),
    ("ops", "maxpool2d", None),
    ("ops", "crelu", None),
    ("ops", "relu", None),
    ("ops", "concat_channels", None),
    ("network", "inception_forward", None),
    ("cli", "load_weights", None),
    ("cli", "forward", None),
    ("cli", "generate_anchors", None),
    ("cli", "run_postprocess", _postprocess_stats),
    ("postprocess", "decode_all", None),
    ("postprocess", "nms", _first_len),
    ("postprocess", "pairwise_jaccard", None),
    ("ppm", "read_ppm", None),
    ("formats", "parse_annotations", _result_len),
    ("formats", "parse_detections", None),
    ("formats", "format_detections", None),
    ("cli", "evaluate_detections", _first_len),
    ("evaluate", "match_detections", _first_len),
    ("evaluate", "pairwise_jaccard", None),
    ("targets", "match_anchors", _positives),
    ("targets", "pairwise_jaccard", None),
    ("targets", "hard_negative_mine", None),
    ("targets", "detection_loss", None),
    ("augment", "augment_pipeline", _augment_boxes),
    ("augment", "color_distort", None),
    ("augment", "random_crop", None),
    ("augment", "resize_square", None),
    ("augment", "hflip", None),
    ("augment", "filter_boxes", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.call = 0  # id of the open benchmark call span, 0 when none
        self._ids = itertools.count(1)
        self._images = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def install(self, facedet_modules: dict) -> None:
        for module_name, attr, probe in TRACE_POINTS:
            module = facedet_modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original, probe))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.image = 0
        return local

    def _wrap(self, name, fn, probe):
        tracer = self
        opens_image = name == IMAGE_OPENER

        def traced(*args, **kwargs):
            local = tracer._thread_state()
            stack = local.stack
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1]
            else:
                if opens_image:
                    local.image = next(tracer._images)
                parent = -local.image if local.image else tracer.call
            image = local.image
            stack.append(sid)
            info = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
            if probe is not None:
                info = probe(args, kwargs, result)
            tracer.spans.append(
                (sid, parent, name, threading.get_ident(), image, start, end, info)
            )
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def call_span(self, name: str):
        """A span around one benchmark call into the program (a `cli.main`
        invocation); it ends the current image on this thread."""
        local = self._thread_state()
        local.image = 0
        sid = next(self._ids)
        self.call = sid
        local.stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            local.stack.pop()
            self.call = 0
            self.spans.append((sid, 0, name, threading.get_ident(), 0, start, end, None))

    def write(self, path) -> None:
        with gzip.open(path, "wt") as f:
            for s in self.spans:
                f.write(json.dumps(
                    {"id": s[SID], "parent": s[PARENT], "name": s[NAME], "thread": s[THREAD],
                     "image": s[IMAGE], "start_ns": s[START], "end_ns": s[END],
                     "info": s[INFO]}) + "\n")


def with_image_roots(spans: list[tuple]) -> list[tuple]:
    """Add one synthetic root span per image id (id -image, no parent)."""
    first: dict[int, tuple] = {}
    last_end: dict[int, int] = {}
    for s in spans:
        img = s[IMAGE]
        if img and s[PARENT] == -img:
            if img not in first or s[START] < first[img][START]:
                first[img] = s
            last_end[img] = max(last_end.get(img, 0), s[END])
    roots = [
        (-img, 0, IMAGE_ROOT, s[THREAD], img, s[START], last_end[img], None)
        for img, s in first.items()
    ]
    return spans + roots


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the durations of its children on the same
    thread (children on other threads run in parallel and are not subtracted)."""
    own = {s[SID]: s[END] - s[START] for s in spans}
    thread = {s[SID]: s[THREAD] for s in spans}
    for s in spans:
        p = s[PARENT]
        if p in own and thread[p] == s[THREAD]:
            own[p] -= s[END] - s[START]
    return own


def children_by_parent(spans):
    kids = defaultdict(list)
    for s in spans:
        kids[s[PARENT]].append(s)
    for v in kids.values():
        v.sort(key=lambda s: s[START])
    return kids


def check_images(spans, own) -> tuple[int, int]:
    """(images checked, images whose spans all have self time >= 0 and whose
    self times sum to the root duration)."""
    by_image = defaultdict(list)
    for s in spans:
        if s[IMAGE]:
            by_image[s[IMAGE]].append(s)
    ok = 0
    for img, members in by_image.items():
        root = next((s for s in members if s[SID] == -img), None)
        if root is None:
            continue
        total = sum(own[s[SID]] for s in members)
        if total == root[END] - root[START] and min(own[s[SID]] for s in members) >= 0:
            ok += 1
    return len(by_image), ok


def conv_cost(info) -> tuple[int, int]:
    """Computed FLOPs (2*co*ci*kh*kw*oh*ow per sample) and im2col window bytes
    (ci*kh*kw*oh*ow*4 per sample) of one conv2d call, from its shapes."""
    (n, co, oh, ow), (_, ci, kh, kw) = info
    return 2 * n * co * ci * kh * kw * oh * ow, 4 * n * ci * kh * kw * oh * ow


# op names each descriptor layer kind is expected to call, in order
KIND_OPS = {
    "conv": ("ops.conv2d",),
    "head": ("ops.conv2d",),
    "pool": ("ops.maxpool2d",),
    "crelu": ("ops.crelu",),
    "inception": ("network.inception_forward",),
    "concat": ("ops.concat_channels",),
}


def expected_ops(descriptor) -> list[tuple[str, str]]:
    """(node, op) in the order `forward` calls them."""
    out = []
    for layer in descriptor.layers:
        ops = KIND_OPS.get(layer.kind, ())
        if layer.kind == "conv" and layer.relu:
            ops = ops + ("ops.relu",)
        out += [(layer.name, op) for op in ops]
    return out


def attribute_nodes(children, expected) -> tuple[dict[str, list], list]:
    """Assign the direct children of one forward span to descriptor nodes by
    order: each child takes the next expected (node, op) slot with its name.
    Children with no such slot are unattributed."""
    nodes: dict[str, list] = defaultdict(list)
    unattributed = []
    pos = 0
    for child in children:
        slot = next(
            (q for q in range(pos, len(expected)) if expected[q][1] == child[NAME]), None
        )
        if slot is None:
            unattributed.append(child)
        else:
            nodes[expected[slot][0]].append(child)
            pos = slot + 1
    return nodes, unattributed


def p50(values):
    return statistics.median(values) if values else 0.0


def p95(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def layer_metrics(spans: list[tuple], descriptor) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from one traced run: ms are p50 over images (or
    samples); per-call and per-scored-image figures are run totals divided by
    their count.  Returns (metrics, consistency record)."""
    spans = with_image_roots(spans)
    own = self_times(spans)
    kids = children_by_parent(spans)
    expected = expected_ops(descriptor)
    conv_nodes = [l.name for l in descriptor.layers if l.kind in ("conv", "head", "inception")]
    ms = 1e-6

    def descendants(span):
        stack, out = list(kids.get(span[SID], ())), []
        while stack:
            s = stack.pop()
            out.append(s)
            stack.extend(kids.get(s[SID], ()))
        return out

    per_image = defaultdict(lambda: defaultdict(float))
    node_ms = defaultdict(list)
    node_rate = defaultdict(list)
    counts = defaultdict(list)
    for s in spans:
        img = s[IMAGE]
        if not img:
            continue
        row = per_image[img]
        dur = (s[END] - s[START]) * ms
        row[s[NAME]] += dur
        row[s[NAME] + "#calls"] += 1
        if s[NAME] == "ops.conv2d":
            flops, window = conv_cost(s[INFO])
            row["conv_flops"] += flops
            row["conv_window"] += window
        if s[NAME] == IMAGE_ROOT:
            row["image_self"] += own[s[SID]] * ms
        if s[NAME] == "cli.forward":
            row["forward_self"] += own[s[SID]] * ms
            nodes, stray = attribute_nodes(kids.get(s[SID], []), expected)
            row["unattributed"] += sum((c[END] - c[START]) * ms for c in stray)
            for node, members in nodes.items():
                t = sum((c[END] - c[START]) * ms for c in members)
                node_ms[node].append(t)
                if node in conv_nodes and t > 0:
                    flops = sum(
                        conv_cost(d[INFO])[0]
                        for c in members
                        for d in [c] + descendants(c)
                        if d[NAME] == "ops.conv2d"
                    )
                    node_rate[node].append(flops / (t * 1e-3) / 1e9)
        if s[NAME] == "cli.run_postprocess":
            row["postprocess_self"] += own[s[SID]] * ms
            above, kept = s[INFO]
            counts["above_threshold"].append(above)
            counts["kept"].append(kept)
        if s[NAME] == "postprocess.nms":
            counts["nms_in"].append(s[INFO])
        if s[NAME] == "targets.match_anchors":
            counts["positives"].append(s[INFO])
        if s[NAME] == "augment.augment_pipeline":
            counts["boxes_in"].append(s[INFO][0])
            counts["boxes_out"].append(s[INFO][1])

    rows = list(per_image.values())
    detect_rows = [r for r in rows if r["cli.forward"] > 0]
    sample_rows = [r for r in rows if r["augment.augment_pipeline"] > 0]

    def med(key, which=None):
        which = detect_rows if which is None else which
        return p50([r[key] for r in which])

    def run_level(name):
        return [s for s in spans if s[NAME] == name and not s[IMAGE]]

    def total_ms(name):
        return sum((s[END] - s[START]) * ms for s in spans if s[NAME] == name)

    eval_calls = run_level("cli.evaluate_detections")
    scored = sum(s[INFO] for s in eval_calls)
    parse_ann_images = sum(
        s[INFO] for s in spans if s[NAME] == "formats.parse_annotations"
    )
    detect_images = len(detect_rows)
    anchor_calls = sum(1 for s in spans if s[NAME] == "cli.generate_anchors")
    load_calls = run_level("cli.load_weights")
    conv_ms_total = sum(r["ops.conv2d"] for r in detect_rows)
    conv_flops_total = sum(r["conv_flops"] for r in detect_rows)
    image_ms = [r[IMAGE_ROOT] for r in detect_rows]
    nms_in = sum(counts["nms_in"])

    def per(total, n):
        return total / n if n else 0.0

    m: dict[str, float] = {}
    for layer in descriptor.layers:
        m[f"network.{layer.name}.ms"] = p50(node_ms[layer.name])
        if layer.name in conv_nodes:
            m[f"network.{layer.name}.gflops"] = p50(node_rate[layer.name])
    m["network.forward_ms"] = med("cli.forward")
    m["network.forward_self_ms"] = med("forward_self")
    m["network.unattributed.ms"] = med("unattributed")
    m["network.load_weights_ms"] = p50([(s[END] - s[START]) * ms for s in load_calls])
    m["ops.conv2d.ms"] = med("ops.conv2d")
    m["ops.conv2d.calls"] = med("ops.conv2d#calls")
    m["ops.conv2d.gflops"] = per(conv_flops_total / 1e9, conv_ms_total * 1e-3)
    m["ops.conv2d.window_mb"] = med("conv_window") / 1e6
    for op in ("maxpool2d", "crelu", "relu", "concat_channels"):
        m[f"ops.{op}.ms"] = med(f"ops.{op}")
    m["postprocess.total_ms"] = med("cli.run_postprocess")
    m["postprocess.decode_ms"] = med("postprocess.decode_all")
    m["postprocess.nms_ms"] = med("postprocess.nms")
    m["postprocess.self_ms"] = med("postprocess_self")
    m["postprocess.above_threshold"] = p50(counts["above_threshold"])
    m["postprocess.nms_in"] = p50(counts["nms_in"])
    m["postprocess.kept"] = p50(counts["kept"])
    m["postprocess.kept_ratio"] = per(sum(counts["kept"]), nms_in)
    m["postprocess.iou_calls"] = med("postprocess.pairwise_jaccard#calls")
    m["evaluate.match_ms"] = per(total_ms("evaluate.match_detections"), scored)
    m["evaluate.total_ms"] = per(sum((s[END] - s[START]) * ms for s in eval_calls), scored)
    m["evaluate.iou_calls"] = per(
        sum(1 for s in spans if s[NAME] == "evaluate.pairwise_jaccard"), scored
    )
    m["targets.match_ms"] = med("targets.match_anchors", sample_rows)
    m["targets.jaccard_ms"] = med("targets.pairwise_jaccard", sample_rows)
    m["targets.mine_ms"] = med("targets.hard_negative_mine", sample_rows)
    m["targets.loss_ms"] = med("targets.detection_loss", sample_rows)
    m["targets.positives"] = p50(counts["positives"])
    m["augment.pipeline_ms"] = med("augment.augment_pipeline", sample_rows)
    for stage, name in (("color", "color_distort"), ("crop", "random_crop"),
                        ("resize", "resize_square"), ("flip", "hflip"),
                        ("filter", "filter_boxes")):
        m[f"augment.{stage}_ms"] = med(f"augment.{name}", sample_rows)
    m["augment.boxes_kept_ratio"] = per(sum(counts["boxes_out"]), sum(counts["boxes_in"]))
    m["anchors.generate_ms"] = per(total_ms("cli.generate_anchors"), anchor_calls)
    m["anchors.reuse_ratio"] = per(detect_images, anchor_calls)
    m["ppm.read_ms"] = med(IMAGE_OPENER, rows)
    m["formats.format_detections_ms"] = med("formats.format_detections")
    m["formats.parse_detections_ms"] = per(total_ms("formats.parse_detections"), scored)
    m["formats.parse_annotations_ms"] = per(
        total_ms("formats.parse_annotations"), parse_ann_images
    )
    m["cli.image_ms.p50"] = p50(image_ms)
    m["cli.image_ms.p95"] = p95(image_ms)
    m["cli.image_self_ms"] = med("image_self")

    checked, ok = check_images(spans, own)
    consistency = {
        "images": checked,
        "images_consistent": ok,
        "detect_images": detect_images,
        "samples": len(sample_rows),
        "scored_images": scored,
        "spans": len(spans),
    }
    return m, consistency
