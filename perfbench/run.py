"""Benchmark for the dypo lab: routed training, the variance bench and the FD certifier.

Usage (from the repository root):

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Each repetition runs in a fresh interpreter (``worker.py``), one at a time,
with the BLAS thread counts pinned to 1. Repetitions are launched until the
next one would end after ``--seconds``, with a minimum of three untraced
repetitions (``--trace 0``) or one untraced and one traced (``--trace 1``).
Every repetition's outputs are checked; a failed check is counted, never
skipped. Durations (``setup_s`` and the time behind ``work_per_s``) are
scaled by the host speed the worker sampled in the same phase, to a host on
which ``worker.reference_loop`` takes ``REFERENCE_LOOP_S``; the unscaled
values are printed and kept in the result file beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The full result,
with the environment block and every repetition, is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json`` (``-toy`` appended at toy
sizes); traced spans go beside it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Work per repetition. "toy" is for the smoke test only.
SIZES = {
    "full": {
        "train": {"steps": 500, "batch_size": 8},
        "train-wide": {"steps": 500, "batch_size": 8, "history": 2, "pool_size": 32},
        "variance": {"train_steps": 500, "eta_groups": 200, "groups": 5000},
        "gradcheck": {"instances": 20},
    },
    "toy": {
        "train": {"steps": 4, "batch_size": 8},
        "train-wide": {"steps": 4, "batch_size": 8, "history": 2, "pool_size": 32},
        "variance": {"train_steps": 20, "eta_groups": 30, "groups": 30},
        "gradcheck": {"instances": 1},
    },
}
WORK_UNIT = {"train": "rollout groups", "train-wide": "rollout groups",
             "variance": "Mid rollout groups", "gradcheck": "certified loss instances"}

END_TO_END = (
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# Durations are scaled to a host on which worker.reference_loop takes this long
# (its mean while interleaved with the workloads on a 2-vCPU Intel Xeon VM);
# see worker.py.
REFERENCE_LOOP_S = 0.0008
TIMED = ("s", "1/s")  # per-layer units that vary run to run; the rest are counts
MIN_UNTRACED = 3
HARD_CAP_S = 150.0  # never start a repetition that could end after this


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_repetition(spec: dict, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its report."""
    spec = dict(spec, launched_at=time.monotonic())
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"run_id": spec["run_id"], "traced": spec["trace"], "items": None,
                "failures": [f"repetition timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"run_id": spec["run_id"], "traced": spec["trace"], "items": None,
                "failures": [f"repetition exited with {proc.returncode}: {tail[0]}"]}
    report = json.loads(lines[-1])
    report["wall_s"] = time.monotonic() - spec["launched_at"]
    setup, measured = report["setup_loop"], report["measured_loop"]
    report["raw_setup_s"] = report["ready_at"] - spec["launched_at"] - setup["loop_s"]
    report["raw_work_s"] = report["measured_s"] - measured["loop_s"]
    report["setup_s"] = report["raw_setup_s"] * REFERENCE_LOOP_S / setup["mean_loop_s"]
    report["work_s"] = report["raw_work_s"] * REFERENCE_LOOP_S / measured["mean_loop_s"]
    return report


def run_repetitions(base: dict, seconds: float, trace: bool) -> list[dict]:
    """Launch repetitions one at a time until the next would overrun ``seconds``."""
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        same = [r["wall_s"] for r in reps if r["traced"] == traced and "wall_s" in r]
        estimate = statistics.mean(same) if same else 0.0
        elapsed = time.monotonic() - start
        enough = sum(not r["traced"] for r in reps) >= (1 if trace else MIN_UNTRACED) and (
            not trace or any(r["traced"] for r in reps))
        if (enough and elapsed + estimate > seconds) or (reps and elapsed + estimate > HARD_CAP_S):
            return reps
        spec = dict(base, trace=traced, run_id=len(reps))
        if traced and not any(r["traced"] for r in reps):
            spec["spans_file"] = f"{base['label']}.spans.csv.gz"
        reps.append(run_repetition(spec, timeout=max(HARD_CAP_S + 20.0 - elapsed, 10.0)))


def _trace_counts(trace: dict) -> dict:
    return {m.name: trace["metrics"][m.name] for m in tracer.LAYER_METRICS if m.unit not in TIMED}


def check_determinism(reps: list[dict]) -> None:
    """Later repetitions must reproduce the first one's metrics.csv and trace counts."""
    first_csv = next((r["metrics_sha256"] for r in reps if "metrics_sha256" in r), None)
    first_trace = next((r["trace"] for r in reps if "trace" in r), None)
    for r in reps:
        if r.get("metrics_sha256", first_csv) != first_csv:
            r["failures"].append("metrics.csv differs from the first repetition at this seed")
        if "trace" in r and _trace_counts(r["trace"]) != _trace_counts(first_trace):
            r["failures"].append("per-layer counts differ from the first traced repetition")


def end_to_end_metrics(reps: list[dict]) -> tuple[dict, dict]:
    """Medians over the untraced repetitions: scaled metrics, and the raw ones beside them."""
    done = [r for r in reps if r.get("items") is not None and not r["traced"]]
    metrics = {
        "work_per_s": statistics.median(r["items"] / r["work_s"] for r in done),
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    raw = {
        "raw_work_per_s": statistics.median(r["items"] / r["raw_work_s"] for r in done),
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in done),
    }
    return metrics, raw


def layer_metrics(reps: list[dict]) -> tuple[dict, list[str], dict]:
    """Per-layer metrics: counts from the first traced run, times as medians."""
    traced = [r for r in reps if r.get("items") is not None and "trace" in r]
    untraced = [r for r in reps if r.get("items") is not None and not r["traced"]]
    first = traced[0]["trace"]
    values = {}
    for m in tracer.LAYER_METRICS:
        if m.unit in TIMED:
            values[m.name] = statistics.median(r["trace"]["metrics"][m.name] for r in traced)
        else:
            values[m.name] = first["metrics"][m.name]
    base = statistics.median(r["work_s"] for r in untraced)
    overhead = statistics.median(r["work_s"] for r in traced) - base
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / base
    shares = {mod: s / first["root_s"] for mod, s in sorted(first["module_self_s"].items(),
                                                    key=lambda kv: -kv[1])}
    return values, first["absent"], shares


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    status = _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dypo" / "__init__.py").is_file():
        print(f"benchmark: no dypo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size != "full":
        label += f"-{args.size}"
    env = environment()
    base = {"workload": args.workload, "seed": args.seed, "label": label,
            "sizes": SIZES[args.size][args.workload], "out_dir": str(OUT)}
    reps = run_repetitions(base, args.seconds, bool(args.trace))
    check_determinism(reps)
    env["loadavg_end"] = os.getloadavg()

    failed = sum(bool(r["failures"]) for r in reps)
    done = [r for r in reps if r.get("items") is not None]
    kinds = {r["traced"] for r in done}
    if False not in kinds or (args.trace and True not in kinds):
        for r in reps:
            for failure in r["failures"]:
                print(f"repetition {r['run_id']}: {failure}", file=sys.stderr)
        print("benchmark: no repetition completed its measured phase", file=sys.stderr)
        return 1
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "work_unit": WORK_UNIT[args.workload],
              "sizes": base["sizes"], "environment": env,
              "attempted": len(reps), "failed": failed, "failed_frac": failed / len(reps),
              "repetitions": reps}
    if args.trace:
        metrics, absent, shares = layer_metrics(reps)
        units = {m.name: m.unit for m in tracer.LAYER_METRICS}
        units.update((name, unit) for name, unit, _ in tracer.OVERHEAD_METRICS)
        result.update(absent=absent, module_share=shares, spans=f"{label}.spans.csv.gz")
    else:
        metrics, result["raw"] = end_to_end_metrics(reps)
        units = dict(END_TO_END)
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in metrics}
    (OUT / f"{label}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"environment: {json.dumps(env)}")
    for r in reps:
        status = "FAILED " + "; ".join(r["failures"]) if r["failures"] else "ok"
        print(f"repetition {r['run_id']} traced={int(r['traced'])} "
              f"raw_work_s={r.get('raw_work_s', math.nan):.3f} "
              f"work_s={r.get('work_s', math.nan):.3f} {status}")
    print(f"work unit: {WORK_UNIT[args.workload]}; repetitions: {len(reps)}; "
          f"failed_frac {failed / len(reps):.4g}")
    for name, value in result.get("raw", {}).items():
        print(f"{name} {value:.6g} (unscaled)")
    if args.trace:
        print("absent: " + (", ".join(result["absent"]) or "none"))
        print("self-time share: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
