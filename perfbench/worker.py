"""One workload process of the benchmark.

    python3 perfbench/worker.py --role prepare|setup|measure --workload NAME
        --seed N --work DIR --result FILE [--seconds S] [--trace 0|1]

BLAS and OpenMP are pinned to one thread before numpy is imported.  `setup_s`
runs from before `import facedet` (which imports numpy) to the end of the
warm-up call.  The process writes one JSON object to --result.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_facedet():
    """The package from this checkout's `src/`, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import facedet
    import facedet.cli  # noqa: F401  (submodules the benchmark drives or traces)

    if Path(facedet.__file__).resolve().parent != ROOT / "src" / "facedet":
        raise ImportError(f"facedet imported from {facedet.__file__}, not from {ROOT / 'src'}")
    return facedet


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(facedet, workload, work: Path, seed: int) -> dict:
    import numpy as np
    import workloads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    model = work / "inputs" / "model.fbxw"
    weights = None
    if model.exists():
        weights = {"sha256": hashlib.sha256(model.read_bytes()).hexdigest()[:16],
                   "descriptor_fingerprint": f"{facedet.default_descriptor().fingerprint():016x}"}
    return {
        "workload": workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "weights": weights,
        "postprocess": {"conf_threshold": workloads.CONF_THRESHOLD,
                        "pre_nms_top_k": workloads.PRE_TOP_K,
                        "nms_overlap": workloads.NMS_OVERLAP,
                        "post_nms_top_k": workloads.POST_TOP_K},
        "detect_threads": workloads.DETECT_THREADS,
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("prepare", "setup", "measure"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tag", default="warm")
    args = p.parse_args()
    work = Path(args.work)

    t0 = time.perf_counter()
    facedet = import_facedet()
    import workloads
    from tracing import Tracer, layer_metrics

    workload = workloads.WORKLOADS[args.workload]
    # every workload runs one thread; keeping it on one core avoids
    # migrations between the host's cores, which are loaded unevenly
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result: dict = {"role": args.role}
    if args.role == "prepare":
        workload.prepare(facedet, work, args.seed)
    else:
        m = workload.warm_up(facedet, work, args.tag, args.seed)
        result["setup_s"] = time.perf_counter() - t0
        result["setup_peak_rss_mb"] = peak_rss_mb()
    if args.role == "measure":
        result["env"] = environment(facedet, workload, work, args.seed)
        tally, reference = workloads.Tally(), {}
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = workload.measure(facedet, work, m, seconds, tally, reference)
        result["peak_rss_mb"] = peak_rss_mb()
        result.update(untraced)
        if args.trace:
            tracer = Tracer()
            tracer.install(vars(facedet))
            try:
                traced = workload.measure(facedet, work, m, seconds, tally, reference, tracer)
            finally:
                tracer.uninstall()
            metrics, consistency = layer_metrics(tracer.spans, facedet.default_descriptor())
            untraced_rate = statistics.median(untraced["rates"])
            traced_rate = statistics.median(traced["rates"])
            metrics["trace.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
            result["layers"] = metrics
            result["trace_consistency"] = consistency
            tally.output(consistency["images"] > 0
                         and consistency["images_consistent"] == consistency["images"],
                         "span self times")
            spans_path = work.parent / "results" / f"spans-{workload.name}.jsonl.gz"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(spans_path)
            result["spans_file"] = str(spans_path)
        workload.check_reference(facedet, m, reference, tally)
        result.update(attempted=tally.attempted, failed=tally.failed, checked=tally.checked,
                      ok=tally.ok, problems=tally.problems)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
