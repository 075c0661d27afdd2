"""facedet benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload detect_vga_dense --seed 1 --seconds 20 --trace 0

Workloads: detect_vga_dense, detect_hd_sparse, train_prep (see README.md).
Each run generates its inputs from --seed into `.perfbench/work-*`, then starts
fresh worker processes with BLAS pinned to one thread: one writes the inputs,
several only set up (their `setup_s` samples give a median), and one sets up,
measures for --seconds and checks the outputs.  With --trace 1 the measuring
process runs half the time untraced and half traced, and reports the
per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> value and unit).  Raw numbers, the environment record and
the spans of a traced run are kept under `.perfbench/results/`.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("detect_vga_dense", "detect_hd_sparse", "train_prep")
SETUP_PROCESSES = 4  # set-up-only processes; the measuring process adds a fifth sample
WORKER_TIMEOUT_S = 150
END_TO_END_UNITS = {
    "setup_s": "s",
    "images_per_s": "1/s",
    "eval_images_per_s": "1/s",
    "peak_rss_mb": "MB",
    "outputs_ok_share": "share",
}
# printed and recorded, not gated
REPORTED_UNITS = {
    "samples_per_s": "1/s",
    "measure_peak_rss_mb": "MB",
    "failed_share": "share",
}


class WorkerError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith(".gflops"):
        return "GFLOP/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("ms") or "ms." in name:
        return "ms"
    return "count"


def run_worker(role: str, args, work: Path, **extra) -> dict:
    result = work / f"result-{role}-{extra.get('tag', '')}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), "--result", str(result)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise WorkerError(f"{role} worker timed out after {WORKER_TIMEOUT_S} s") from e
    if proc.returncode != 0 or not result.exists():
        raise WorkerError(f"{role} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="facedet benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "facedet" / "__init__.py").is_file():
        print(f"error: no facedet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_at_start = os.getloadavg()
    base = ROOT / ".perfbench"
    work = base / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run_worker("prepare", args, work)
        setups = [run_worker("setup", args, work, tag=f"warm{k}")
                  for k in range(SETUP_PROCESSES)]
        meas = run_worker("measure", args, work, tag="measure",
                          seconds=args.seconds, trace=args.trace)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups.append(meas)
    end_to_end = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "images_per_s": statistics.median(meas["rates"]),
        "eval_images_per_s": statistics.median(meas["eval_rates"]),
        "peak_rss_mb": statistics.median(s["setup_peak_rss_mb"] for s in setups),
        "outputs_ok_share": meas["ok"] / meas["checked"] if meas["checked"] else 0.0,
    }
    reported = {
        "measure_peak_rss_mb": meas["peak_rss_mb"],
        "failed_share": meas["failed"] / meas["attempted"] if meas["attempted"] else 1.0,
    }
    if args.workload == "train_prep":
        reported["samples_per_s"] = end_to_end["images_per_s"]
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in meas["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    record = {
        "args": vars(args),
        "load_average_at_start": load_at_start,
        "env": meas["env"],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "setup_peak_rss_mb_samples": [s["setup_peak_rss_mb"] for s in setups],
        "rates": meas["rates"],
        "eval_rates": meas["eval_rates"],
        "end_to_end": end_to_end,
        "reported": reported,
        "checks": {k: meas[k] for k in ("attempted", "failed", "checked", "ok", "problems")},
        "layers": meas.get("layers"),
        "trace_consistency": meas.get("trace_consistency"),
        "spans_file": meas.get("spans_file"),
    }
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("env " + json.dumps({**meas["env"], "load_average_at_start": load_at_start}))
    for problem in meas["problems"]:
        print(f"problem {problem}")
    print(f"rounds {len(meas['rates'])} setup_samples {len(setups)}")
    for name, value in end_to_end.items():
        print(f"metric {name} {value:.6g} {END_TO_END_UNITS[name]}")
    for name, value in reported.items():
        print(f"reported {name} {value:.6g} {REPORTED_UNITS[name]}")
    if args.trace:
        for name, m in metrics.items():
            print(f"layer {name} {m['value']:.6g} {m['unit']}")
    correct = meas["checked"] > 0 and meas["ok"] == meas["checked"]
    print(json.dumps({"correct": correct, "attempted": meas["attempted"],
                      "failed": meas["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
