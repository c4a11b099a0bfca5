"""The four workloads and one repetition of them; imported by ``worker.py``.

Each workload sets itself up in its constructor (counted in ``setup_s``),
does its measured work in ``run()`` and returns the number of work items
done, then checks the program's outputs in ``check()``.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import resource
import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from dypo import gradcheck, instrumentation, seeding, trainer
from dypo.errors import BenchError, TrainingAborted
from dypo.tasks import TaskConfig

import tracer as tracing

ETA_LIMIT = 0.2
GRAD_TOLERANCE = 1e-6


def _train_config(seed: int, sizes: dict) -> trainer.TrainConfig:
    cfg = trainer.TrainConfig(seed=seed, steps=sizes["steps"], batch_size=sizes["batch_size"])
    if "history" in sizes:
        cfg = replace(cfg, history=sizes["history"],
                      task=TaskConfig(pool_size=sizes["pool_size"]))
    return cfg


def _metrics_csv_failures(path: Path, steps: int) -> list[str]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != steps:
        return [f"metrics.csv has {len(rows)} rows, expected {steps}"]
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row):
            return [f"metrics.csv row for step {row[0]} has a non-finite value"]
    return []


def _same_params(a, b, pool_size: int) -> bool:
    """Equal logits on every context a rollout can reach, read through the public API."""
    if (a.vocab_size, a.history) != (b.vocab_size, b.history):
        return False
    return all(np.array_equal(a.logits((qid, hist)), b.logits((qid, hist)))
               for qid in range(pool_size)
               for n in range(a.history + 1)
               for hist in itertools.product(range(a.vocab_size), repeat=n))


class Train:
    """``train(cfg, out_dir)``: routed training with metrics.csv and checkpoint.json."""

    def __init__(self, seed: int, sizes: dict, out_root: Path):
        self.cfg = _train_config(seed, sizes)
        self.out = Path(tempfile.mkdtemp(prefix="train-", dir=out_root))
        self.result = None

    def run(self) -> int:
        self.result = trainer.train(self.cfg, out_dir=self.out)
        return self.cfg.steps * self.cfg.batch_size

    def check(self, report: dict) -> list[str]:
        csv_path = self.out / "metrics.csv"
        failures = _metrics_csv_failures(csv_path, self.cfg.steps)
        report["metrics_sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        ckpt = trainer.load_checkpoint(self.out / "checkpoint.json")
        if not _same_params(ckpt.params, self.result.checkpoint.params, self.cfg.task.pool_size):
            failures.append("checkpoint.json does not reload to the returned params")
        return failures

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class Variance:
    """Set-up trains the default policy; the measured phase only reads its snapshot."""

    def __init__(self, seed: int, sizes: dict, out_root: Path):
        self.seed = seed
        self.sizes = sizes
        self.cfg = trainer.TrainConfig(seed=seed, steps=sizes["train_steps"])
        result = trainer.train(self.cfg)
        self.params = result.checkpoint.params.snapshot()
        self.ref = result.checkpoint.ref
        self.pool = trainer.QueryPool(self.cfg.task, self.cfg.seed)

    def run(self) -> int:
        cfg, sz = self.cfg, self.sizes
        common = dict(k=cfg.k, stop_token=cfg.task.stop, t_max=cfg.t_max)
        self.eta = instrumentation.measure_eta(
            self.params, self.ref, self.pool.draw, cfg.mix, sz["eta_groups"],
            seeding.substream(self.seed, "bench-eta"), **common)
        self.report = instrumentation.variance_ordering_bench(
            self.params, self.ref, self.pool.draw, cfg.mix, sz["groups"],
            seeding.substream(self.seed, "bench-var"), **common)
        return sz["eta_groups"] + sz["groups"]

    def check(self, report: dict) -> list[str]:
        failures = []
        if self.eta > ETA_LIMIT:
            failures.append(f"eta {self.eta:.4f} above {ETA_LIMIT}")
        if not self.report.verdict:
            failures.append("variance ordering verdict failed: "
                            f"gap={self.report.diagnostics['gap']:.4g} "
                            f"3se={3 * self.report.diagnostics['combined_se']:.4g}")
        return failures

    def close(self) -> None:
        pass


class GradCheck:
    """``grad_check_suite(seed, n_instances)``: finite-difference certification."""

    def __init__(self, seed: int, sizes: dict, out_root: Path):
        self.seed = seed
        self.n = sizes["instances"]

    def run(self) -> int:
        self.errors = gradcheck.grad_check_suite(seed=self.seed, n_instances=self.n)
        return len(self.errors) * self.n

    def check(self, report: dict) -> list[str]:
        return [f"{name} error {err:.3e} above {GRAD_TOLERANCE}"
                for name, err in self.errors.items() if not err <= GRAD_TOLERANCE]

    def close(self) -> None:
        pass


WORKLOADS = {"train": Train, "train-wide": Train, "variance": Variance, "gradcheck": GradCheck}


def run_repetition(spec: dict, speed) -> dict:
    """Set up, run and check one repetition; ``speed`` is the running HostSpeed sampler."""
    out_root = Path(spec["out_dir"])
    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["sizes"], out_root)
    report: dict = {"run_id": spec["run_id"], "traced": spec["trace"], "failures": []}
    tr = tracing.Tracer(spec["run_id"]) if spec["trace"] else None
    try:
        report["ready_at"] = ready = time.monotonic()
        if tr is not None:
            tr.install()
        t0 = time.monotonic()
        try:
            items = workload.run()
        except (TrainingAborted, BenchError) as exc:
            items = None
            report["failures"].append(f"{type(exc).__name__}: {exc}")
        t1 = time.monotonic()
        report["measured_s"] = t1 - t0
        if tr is not None:
            tr.restore()
        speed.stop()
        report["setup_loop"] = speed.window(0.0, ready)
        report["measured_loop"] = speed.window(t0, t1)
        report["items"] = items
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if items is not None:
            report["failures"] += workload.check(report)
    finally:
        workload.close()
    if tr is not None:
        values, absent = tracing.layer_values(tr)
        report["trace"] = {"metrics": values, "absent": absent,
                           "absent_targets": tr.absent, "broken_hooks": sorted(tr.broken),
                           "module_self_s": tr.module_self_s(),
                           "root_s": tr.total_s[tracing.ROOT], "span_count": len(tr.span_start)}
        if spec.get("spans_file"):
            tr.write_spans(out_root / spec["spans_file"])
    return report
