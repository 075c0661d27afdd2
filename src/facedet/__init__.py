"""CPU-friendly single-shot face detection toolkit.

Square anchors tiled at strides 32/64/128 with a densification scheme that
replicates small anchors onto sub-grids until every scale covers the image at
the same density; a lightweight stride-32 convolutional network with per-layer
detection heads; target assignment, NMS post-processing, augmentation, and
PR/ROC evaluation.
"""

from .anchors import AnchorSet, generate_anchors
from .augment import AugmentConfig, Sample, augment_pipeline
from .evaluate import (
    EvalResult,
    evaluate_detections,
    match_detections,
    precision_recall,
    tpr_at_fp,
)
from .network import (
    HeadOutputs,
    ModelWeights,
    NetworkDescriptor,
    WeightFormatError,
    build_network,
    default_descriptor,
    forward,
    inception_forward,
    load_weights,
    save_weights,
    xavier_init,
)
from .postprocess import PostprocessConfig, decode_all, nms, run_postprocess
from .targets import (
    TrainingTargets,
    decode_boxes,
    detection_loss,
    encode_boxes,
    hard_negative_mine,
    match_anchors,
    pairwise_jaccard,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorSet",
    "AugmentConfig",
    "EvalResult",
    "HeadOutputs",
    "ModelWeights",
    "NetworkDescriptor",
    "PostprocessConfig",
    "Sample",
    "TrainingTargets",
    "WeightFormatError",
    "augment_pipeline",
    "build_network",
    "decode_all",
    "decode_boxes",
    "default_descriptor",
    "detection_loss",
    "encode_boxes",
    "evaluate_detections",
    "forward",
    "generate_anchors",
    "hard_negative_mine",
    "inception_forward",
    "load_weights",
    "match_anchors",
    "match_detections",
    "nms",
    "pairwise_jaccard",
    "precision_recall",
    "run_postprocess",
    "save_weights",
    "tpr_at_fp",
    "xavier_init",
]
