"""Span tracer for the benchmark's traced runs, and the per-layer metrics it yields.

The tracer wraps public functions of the ``dypo`` modules for the length of
one measured phase and restores them afterwards. A function is wrapped in the
module that defines it and in every ``dypo`` module that imported it by name;
a method is wrapped on its class. Per-token helpers (``log_probs``, ``probs``,
``_dist``) are never wrapped: their call counts would swamp the overhead.

A target that no longer exists (a later refactor deleted or renamed it) is
reported as absent, and every metric that reads only absent targets is listed
as absent with the value 0, so the traced run never crashes on a rename.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# Every wrapped target, as "module:attribute"; the attribute path is the key.
TARGETS = (
    "dypo.policy:sample_group",
    "dypo.policy:sample_trajectory",
    "dypo.policy:score",
    "dypo.policy:log_prob",
    "dypo.policy:grad_accumulate",
    "dypo.policy:grad_scaled",
    "dypo.policy:grad_dot",
    "dypo.policy:grad_sq_norm",
    "dypo.policy:grad_norm",
    "dypo.policy:grad_is_finite",
    "dypo.policy:kl_to_reference",
    "dypo.policy:kl_gradient",
    "dypo.policy:mean_step_entropy",
    "dypo.policy:PolicyParams.apply_update",
    "dypo.policy:PolicyParams.copy",
    "dypo.policy:PolicyParams.snapshot",
    "dypo.tasks:reward",
    "dypo.tasks:teacher_sample",
    "dypo.grading:grade",
    "dypo.objectives:rollout_group",
    "dypo.objectives:sft_loss_grad",
    "dypo.objectives:grpo_loss_grad",
    "dypo.objectives:grpo_policy_gradient",
    "dypo.objectives:gal_loss_grad",
    "dypo.objectives:build_pairs",
    "dypo.objectives:dypo_step_loss",
    "dypo.instrumentation:collect_mid_groups",
    "dypo.instrumentation:measure_eta",
    "dypo.instrumentation:variance_ordering_bench",
    "dypo.instrumentation:variance_from_samples",
    "dypo.instrumentation:write_metrics",
    "dypo.trainer:train",
    "dypo.trainer:save_checkpoint",
    "dypo.gradcheck:grad_check_suite",
    "dypo.gradcheck:make_instance",
    "dypo.gradcheck:numerical_gradient",
    "dypo.seeding:substream",
)

GRAD_HELPERS = ("grad_accumulate", "grad_scaled", "grad_dot", "grad_sq_norm",
                "grad_norm", "grad_is_finite")

ROOT = "workload"


# --- counters read from wrapped calls ---------------------------------------
# Each hook sees one finished call and adds to the tracer's named counts.

def _count_tokens(tr, args, kwargs, result):
    tr.counts["sample.tokens"] += len(result.tokens)


def _count_table_rows(tr, args, kwargs, result):
    rows = len(args[0].table)
    if rows > tr.counts["policy.table_rows"]:
        tr.counts["policy.table_rows"] = rows


def _count_route(tr, args, kwargs, result):
    tr.counts["route." + result.aux["grade"]] += 1


def _count_pairs(tr, args, kwargs, result):
    tr.counts["gal.pairs"] += int(result.aux["pair_count"])


def _count_collect_sampled(tr, args, kwargs, result):
    if tr.current() == "collect_mid_groups":
        tr.counts["collect.sampled"] += 1


def _count_collect_kept(tr, args, kwargs, result):
    tr.counts["collect.kept"] += len(result)


def _count_variance_samples(tr, args, kwargs, result):
    tr.counts["variance.samples"] += result.sample_count


def _count_checkpoint_bytes(tr, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    with open(path, "rb") as fh:
        tr.counts["checkpoint.bytes"] += fh.seek(0, 2)


def _count_probes(tr, args, kwargs, result):
    tr.counts["fd.probes"] += 2 * sum(len(row) for row in result.values())


HOOKS = {
    "sample_trajectory": _count_tokens,
    "score": _count_table_rows,
    "dypo_step_loss": _count_route,
    "gal_loss_grad": _count_pairs,
    "rollout_group": _count_collect_sampled,
    "collect_mid_groups": _count_collect_kept,
    "variance_from_samples": _count_variance_samples,
    "save_checkpoint": _count_checkpoint_bytes,
    "numerical_gradient": _count_probes,
}
# What a hook may raise when the value it reads changed shape in a refactor.
HOOK_ERRORS = (AttributeError, TypeError, KeyError, IndexError, OSError)


class Tracer:
    """Records spans and per-target aggregates for one traced measured phase."""

    def __init__(self, run_id: int, targets=TARGETS):
        self.run_id = run_id
        self.targets = tuple(targets)
        self.names: list[str] = [ROOT]
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- span bookkeeping ----------------------------------------------------

    def current(self) -> str:
        """Name of the innermost open span."""
        return self.names[self.span_name[self._stack[-1][0]]]

    def _open(self, name_idx: int) -> list:
        span = len(self.span_start)
        self.span_name.append(name_idx)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [span, 0.0]
        self._stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        span = frame[0]
        self._stack.pop()
        self.span_end[span] = end
        duration = end - self.span_start[span]
        if self._stack:
            self._stack[-1][1] += duration
        name = self.names[self.span_name[span]]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[1]

    def _wrap(self, key: str, fn: Callable) -> Callable:
        name_idx = len(self.names)
        self.names.append(key)
        hook = HOOKS.get(key)

        def traced(*args, **kwargs):
            frame = self._open(name_idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if hook is not None and key not in self.broken:
                try:
                    hook(self, args, kwargs, result)
                except HOOK_ERRORS:
                    self.broken.add(key)
            return result

        return functools.wraps(fn)(traced)

    # --- install / restore -----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target that exists and open the root span."""
        for target in self.targets:
            module_name, path = target.split(":")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(path)
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(path)
                continue
            wrapped = self._wrap(path, original)
            if parents:  # a method: patch it on its class
                self._patch(owner, attr, wrapped)
            else:
                for mod in _dypo_modules():
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapped)
            self.installed.add(path)
        self._root = self._open(0)

    def restore(self) -> None:
        """Close the root span and put every original function back."""
        self._close(self._root)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results ---------------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        """Self time summed per dypo module; the root's self time is the benchmark's."""
        out: dict[str, float] = defaultdict(float)
        out["benchmark"] = self.self_s[ROOT]
        for target in self.targets:
            module_name, path = target.split(":")
            out[module_name.split(".")[-1]] += self.self_s.get(path, 0.0)
        return dict(out)

    def write_spans(self, path) -> None:
        """Write every span as CSV (times in seconds from the root's start), gzipped."""
        t0 = self.span_start[0]
        names, parents = self.names, self.span_parent
        starts, ends = self.span_start, self.span_end
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,parent,start_s,end_s,run\n")
            for i, name_idx in enumerate(self.span_name):
                fh.write(f"{i},{names[name_idx]},{parents[i]},"
                         f"{starts[i] - t0:.9f},{ends[i] - t0:.9f},{self.run_id}\n")


def _dypo_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "dypo" or name.startswith("dypo."))]


# --- per-layer metrics ---------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: absent when none of its targets exists, or when it
    reads a hook count and a target's hook could no longer read its value."""

    name: str
    unit: str
    better: str
    targets: tuple[str, ...]
    value: Callable[[Tracer], float]
    hooked: bool = False


def _calls(*keys):
    return lambda tr: float(sum(tr.calls.get(k, 0) for k in keys))


def _self(*keys):
    return lambda tr: sum(tr.self_s.get(k, 0.0) for k in keys)


def _count(name):
    return lambda tr: tr.counts.get(name, 0.0)


def _per_traj(key):
    """Calls of ``key`` per sampled trajectory or teacher demonstration."""
    return lambda tr: _ratio(tr.calls.get(key, 0), tr.calls.get("sample_trajectory", 0)
                             + tr.calls.get("teacher_sample", 0))


def _timed(prefix: str, key: str) -> list[LayerMetric]:
    return [LayerMetric(f"{prefix}.calls", "count", "lower", (key,), _calls(key)),
            LayerMetric(f"{prefix}.self_s", "s", "lower", (key,), _self(key))]


SAMPLE = ("sample_group", "sample_trajectory")
COPY = ("PolicyParams.copy", "PolicyParams.snapshot")
KL = ("kl_to_reference", "kl_gradient")

LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("policy.sample.calls", "count", "lower", ("sample_trajectory",),
                _calls("sample_trajectory")),
    LayerMetric("policy.sample.tokens", "count", "lower", ("sample_trajectory",),
                _count("sample.tokens"), hooked=True),
    LayerMetric("policy.sample.self_s", "s", "lower", SAMPLE, _self(*SAMPLE)),
    LayerMetric("policy.score.calls", "count", "lower", ("score",), _calls("score")),
    LayerMetric("policy.score.per_traj", "ratio", "lower", ("score",), _per_traj("score")),
    LayerMetric("policy.score.self_s", "s", "lower", ("score",), _self("score")),
    *_timed("policy.log_prob", "log_prob"),
    LayerMetric("policy.grad_algebra.calls", "count", "lower", GRAD_HELPERS,
                _calls(*GRAD_HELPERS)),
    LayerMetric("policy.grad_algebra.self_s", "s", "lower", GRAD_HELPERS, _self(*GRAD_HELPERS)),
    LayerMetric("policy.kl.self_s", "s", "lower", KL, _self(*KL)),
    LayerMetric("policy.entropy.self_s", "s", "lower", ("mean_step_entropy",),
                _self("mean_step_entropy")),
    LayerMetric("policy.update.self_s", "s", "lower", ("PolicyParams.apply_update",),
                _self("PolicyParams.apply_update")),
    LayerMetric("policy.table_rows", "count", "lower", ("score",),
                _count("policy.table_rows"), hooked=True),
    # snapshot() copies through copy(), so the copy count is the table copies made
    LayerMetric("policy.copy.calls", "count", "lower", COPY, _calls("PolicyParams.copy")),
    LayerMetric("policy.copy.self_s", "s", "lower", COPY, _self(*COPY)),
    LayerMetric("tasks.reward.calls", "count", "lower", ("reward",), _calls("reward")),
    LayerMetric("tasks.reward.per_traj", "ratio", "lower", ("reward",), _per_traj("reward")),
    LayerMetric("tasks.reward.self_s", "s", "lower", ("reward",), _self("reward")),
    *_timed("tasks.teacher_sample", "teacher_sample"),
    LayerMetric("grading.grade.calls", "count", "lower", ("grade",), _calls("grade")),
    LayerMetric("grading.grade.per_group", "ratio", "lower", ("grade",),
                lambda tr: _ratio(tr.calls.get("grade", 0), tr.calls.get("rollout_group", 0))),
    *_timed("objectives.rollout_group", "rollout_group"),
    *_timed("objectives.sft", "sft_loss_grad"),
    *_timed("objectives.grpo", "grpo_loss_grad"),
    *_timed("objectives.grpo_pg", "grpo_policy_gradient"),
    *_timed("objectives.gal", "gal_loss_grad"),
    *_timed("objectives.pairs", "build_pairs"),
    *_timed("objectives.dypo_step", "dypo_step_loss"),
    LayerMetric("objectives.route.easy", "count", "lower", ("dypo_step_loss",),
                _count("route.easy"), hooked=True),
    LayerMetric("objectives.route.hard", "count", "lower", ("dypo_step_loss",),
                _count("route.hard"), hooked=True),
    LayerMetric("objectives.route.mid", "count", "lower", ("dypo_step_loss",),
                _count("route.mid"), hooked=True),
    LayerMetric("objectives.gal.pairs", "count", "lower", ("gal_loss_grad",),
                _count("gal.pairs"), hooked=True),
    LayerMetric("instrumentation.collect.sampled", "count", "lower", ("rollout_group",),
                _count("collect.sampled"), hooked=True),
    LayerMetric("instrumentation.collect.kept", "count", "lower", ("collect_mid_groups",),
                _count("collect.kept"), hooked=True),
    LayerMetric("instrumentation.collect.keep_ratio", "ratio", "higher",
                ("rollout_group", "collect_mid_groups"),
                lambda tr: _ratio(tr.counts.get("collect.kept", 0.0),
                                  tr.counts.get("collect.sampled", 0.0)), hooked=True),
    LayerMetric("instrumentation.variance.calls", "count", "lower", ("variance_from_samples",),
                _calls("variance_from_samples")),
    LayerMetric("instrumentation.variance.samples", "count", "lower", ("variance_from_samples",),
                _count("variance.samples"), hooked=True),
    LayerMetric("instrumentation.variance.self_s", "s", "lower", ("variance_from_samples",),
                _self("variance_from_samples")),
    LayerMetric("instrumentation.write_metrics.self_s", "s", "lower", ("write_metrics",),
                _self("write_metrics")),
    LayerMetric("trainer.loop.self_s", "s", "lower", ("train",), _self("train")),
    LayerMetric("trainer.checkpoint.self_s", "s", "lower", ("save_checkpoint",),
                _self("save_checkpoint")),
    LayerMetric("trainer.checkpoint.bytes", "B", "lower", ("save_checkpoint",),
                _count("checkpoint.bytes"), hooked=True),
    LayerMetric("gradcheck.fd.probes", "count", "lower", ("numerical_gradient",),
                _count("fd.probes"), hooked=True),
    LayerMetric("gradcheck.fd.probes_per_s", "1/s", "higher", ("numerical_gradient",),
                lambda tr: _ratio(tr.counts.get("fd.probes", 0.0),
                                  tr.total_s.get("numerical_gradient", 0.0)), hooked=True),
    LayerMetric("gradcheck.fd.self_s", "s", "lower", ("numerical_gradient",),
                _self("numerical_gradient")),
    LayerMetric("gradcheck.instance.self_s", "s", "lower", ("make_instance",),
                _self("make_instance")),
    *_timed("seeding.substream", "substream"),
)

# Metrics derived from the untraced and traced walls of one invocation.
OVERHEAD_METRICS = (
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def layer_values(tr: Tracer) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric's value, plus the names of the absent ones (valued 0)."""
    values: dict[str, float] = {}
    absent: list[str] = []
    for m in LAYER_METRICS:
        gone = all(t not in tr.installed for t in m.targets) or (
            m.hooked and any(t in tr.broken for t in m.targets))
        if gone:
            absent.append(m.name)
            values[m.name] = 0.0
        else:
            values[m.name] = float(m.value(tr))
    return values, absent
