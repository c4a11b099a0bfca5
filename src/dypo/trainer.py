"""End-to-end training loop: rollout, grade, dispatch, update, record.

One step samples a batch of queries from a fixed pool, rolls out k
trajectories per query, grades each group, dispatches per-query losses by
variant, averages gradients over dispatched queries, and applies a single
plain gradient-descent update. All randomness is derived from named
substreams of (seed, step, query-index), so a run is replayable from any
checkpoint.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from .artifacts import atomic_write
from .errors import ConfigError, DataError, TrainingAborted
from .grading import DifficultyGrade
from .instrumentation import StepMetrics, write_metrics
from .objectives import (
    GroupRollout,
    LossReport,
    MixConfig,
    dypo_step_loss,
    grpo_loss_grad,
    rollout_group,
    sft_loss_grad,
)
from .policy import ContextInterner, PolicyParams, mean_step_entropy, sum_blocks
from .seeding import substream
from .tasks import (
    BiasTestbedConfig,
    Query,
    TaskConfig,
    generate_query,
    make_teacher_ensemble,
    max_demo_len,
)

VARIANTS = ("dypo", "sft_only", "grpo_only")


def default_testbed() -> BiasTestbedConfig:
    return BiasTestbedConfig(dim=8, b_sys=(0.5,) + (0.0,) * 7, sigma_bias=1.0)


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    steps: int = 500
    batch_size: int = 2
    k: int = 8
    learning_rate: float = 0.5
    m_teachers: int = 2
    ref_refresh_period: int = 0
    t_max: int = 16
    history: int = 1
    init_syntax_logit: float = 2.0
    variant: str = "dypo"
    mix: MixConfig = field(default_factory=MixConfig)
    task: TaskConfig = field(default_factory=TaskConfig)
    testbed: BiasTestbedConfig = field(default_factory=default_testbed)

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.k < 2:
            raise ConfigError("k must be >= 2")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.m_teachers < 1:
            raise ConfigError("m_teachers must be >= 1")
        if self.ref_refresh_period < 0:
            raise ConfigError("ref_refresh_period must be >= 0")
        if self.history < 0:
            raise ConfigError("history must be >= 0")
        if self.init_syntax_logit < 0:
            raise ConfigError("init_syntax_logit must be >= 0")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.t_max < self.task.max_chain_len + 2:
            raise ConfigError("t_max too small for the longest ground truth")
        if self.t_max < max_demo_len(self.task, self.m_teachers):
            raise ConfigError("t_max too small for the longest teacher demonstration")


# --- the dataclasses are the JSON schema ----------------------------------

def _is_real(value) -> bool:
    return type(value) is int or type(value) is float and math.isfinite(value)  # no bools


# per field type: the JSON values it takes, and their description
_JSON_TYPES = {
    int: (lambda value: type(value) is int, "an integer"),
    float: (_is_real, "a finite number"),
    str: (lambda value: type(value) is str, "a string"),
    tuple[float, ...]: (lambda value: type(value) in (list, tuple) and all(map(_is_real, value)),
                        "a list of finite numbers"),
}
_type_hints = cache(get_type_hints)  # cached: it re-resolves every annotation on each call


def _from_json(kind, value, name: str, error: type[Exception]):
    """``value``, read from JSON as ``name``, checked against its field type ``kind``.

    A dataclass is an object of its fields, each checked by its type hint;
    ``int`` takes integers, ``float`` finite integers or reals (JSON has no
    NaN), ``str`` strings and ``tuple[float, ...]`` a list (or, as
    ``asdict`` leaves it, a tuple) of finite numbers, stored as a tuple.
    Anything else raises ``error`` naming the dotted field.
    """
    if is_dataclass(kind):
        if type(value) is not dict:
            raise error(f"{name} must be a JSON object, got {value!r}")
        hints = _type_hints(kind)
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise error(f"unknown field {name}.{unknown[0]}")
        checked = {key: _from_json(hints[key], item, f"{name}.{key}", error)
                   for key, item in value.items()}
        missing = [f.name for f in fields(kind) if f.name not in value
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise error(f"missing field {name}.{missing[0]}")
        return kind(**checked)
    accepts, expected = _JSON_TYPES[kind]
    if not accepts(value):
        raise error(f"{name} must be {expected}, got {value!r}")
    return tuple(value) if type(value) is list else value


def train_config_from_dict(data: dict) -> TrainConfig:
    """Build a TrainConfig from a JSON document, rejecting unknown keys and wrong types."""
    return _from_json(TrainConfig, data, "config", ConfigError)


def train_config_to_dict(cfg: TrainConfig) -> dict:
    return asdict(cfg)


def load_train_config(path: str | Path) -> TrainConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return train_config_from_dict(data)


class QueryPool:
    """Fixed pool of queries with chain lengths cycling over the configured range.

    Recurring queries are what let the tabular policy learn across steps; the
    length mix keeps all three difficulty regimes reachable.
    """

    def __init__(self, task: TaskConfig, seed: int):
        self.task = task
        lengths = list(range(task.min_chain_len, task.max_chain_len + 1))
        self.queries = [
            generate_query(task, lengths[i % len(lengths)], substream(seed, "pool", i),
                           query_id=i)
            for i in range(task.pool_size)
        ]

    def __len__(self) -> int:
        return len(self.queries)

    def draw(self, rng: np.random.Generator) -> Query:
        return self.queries[int(rng.integers(len(self.queries)))]


def init_policy(config: TrainConfig, pool: QueryPool) -> PolicyParams:
    """Starting policy: uniform logits plus a syntax prior of configurable strength.

    The prior plays the role of a pretrained base model: it favors emitting a
    separator, an answer-position residue after it, and a stop after a
    residue, without encoding any answer. Strength 0 gives the uniform
    policy. With history order 1 the prior is written per last-token context;
    higher orders only receive the shared separator bias.
    """
    task = config.task
    b = config.init_syntax_logit
    base = np.zeros(task.vocab_size)
    base[task.separator] += 0.5 * b
    params = PolicyParams(task.vocab_size, config.history, default_logits=base)
    if b > 0 and config.history == 1:
        after_sep = base.copy()
        after_sep[:task.modulus] += b
        after_residue = base.copy()
        after_residue[task.stop] += b
        for query in pool.queries:
            params.set_logits((query.query_id, (task.separator,)), after_sep)
            for r in range(task.modulus):
                params.set_logits((query.query_id, (r,)), after_residue)
    return params


@dataclass
class Checkpoint:
    step: int
    params: PolicyParams
    ref: PolicyParams
    rng_state: dict
    metrics: list[StepMetrics]
    config: TrainConfig


@dataclass
class RunStats:
    """Run-level aggregates that do not fit the per-step CSV schema."""

    gal_weight_min: float = math.inf
    gal_weight_max: float = -math.inf
    dispatched_queries: int = 0


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    metrics: list[StepMetrics]
    snapshots: dict[int, tuple[PolicyParams, PolicyParams]]
    stats: RunStats


def _params_to_dict(params: PolicyParams) -> dict:
    return {
        "vocab_size": params.vocab_size,
        "history": params.history,
        "default_logits": [float(x) for x in params.default_logits],
        "table": [[ctx[0], list(ctx[1]), [float(x) for x in params.logits(ctx)]]
                  for ctx in params.written_contexts()],
    }


def _params_from_dict(data: dict, config: TrainConfig, frozen: bool = False,
                      interner: ContextInterner | None = None) -> PolicyParams:
    vocab, history = config.task.vocab_size, config.history
    if (data["vocab_size"], data["history"]) != (vocab, history):
        raise ConfigError(f"checkpoint policy has vocab_size={data['vocab_size']!r}, "
                          f"history={data['history']!r}; its config needs {vocab}, {history}")
    params = PolicyParams(vocab, history, interner=interner,
                          default_logits=data["default_logits"])
    for qid, hist, row in data["table"]:
        if len(hist) > history:
            raise ValueError(f"context {hist} is longer than history={history}")
        params.set_logits((int(qid), tuple(int(t) for t in hist)), row)
    params.frozen = frozen
    return params


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    doc = {
        "step": ckpt.step,
        "params": _params_to_dict(ckpt.params),
        "ref": _params_to_dict(ckpt.ref),
        "rng_state": ckpt.rng_state,
        "metrics": [vars(m) for m in ckpt.metrics],
        "config": train_config_to_dict(ckpt.config),
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc) + "\n")


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and validate a checkpoint.

    A missing, truncated or malformed file raises DataError, and so do a
    malformed policy, a step that is not a non-negative integer and metrics
    that are not exactly the well-typed rows of steps 0 .. step-1; a config
    that is invalid or disagrees with the stored policies raises ConfigError.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path} is not valid JSON (truncated?): {exc}") from exc
    try:
        config = train_config_from_dict(doc["config"])
        step = doc["step"]
        if type(step) is not int or step < 0:
            raise DataError(f"checkpoint {path} has step {step!r}, not a non-negative integer")
        metrics = [_from_json(StepMetrics, row, f"metrics[{i}]", ValueError)
                   for i, row in enumerate(doc["metrics"])]
        if [m.step for m in metrics] != list(range(step)):
            raise DataError(f"checkpoint {path} is at step {step}, but its metrics are not "
                            f"exactly the rows of steps 0 to {step - 1}")
        params = _params_from_dict(doc["params"], config)
        return Checkpoint(
            step=step,
            params=params,
            ref=_params_from_dict(doc["ref"], config, frozen=True, interner=params.interner),
            rng_state=doc["rng_state"],
            metrics=metrics,
            config=config,
        )
    except ConfigError:
        raise
    except KeyError as exc:
        raise DataError(f"checkpoint {path} is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # metrics rows, InputError from the policies
        raise DataError(f"checkpoint {path} is malformed: {exc}") from exc


def _query_report(config: TrainConfig, params: PolicyParams, ref: PolicyParams,
                  pool: QueryPool, teachers, step: int, j: int,
                  query_index: int) -> tuple[GroupRollout, LossReport]:
    query = pool.queries[query_index]
    roll_rng = substream(config.seed, "rollout", step, j)
    obj_rng = substream(config.seed, "objective", step, j)
    group = rollout_group(params, query, config.k, roll_rng, xi=config.mix.xi,
                          stop_token=config.task.stop, t_max=config.t_max)
    if config.variant == "dypo":
        report = dypo_step_loss(params, ref, group, teachers, config.mix, obj_rng)
    elif config.variant == "sft_only":
        sft = sft_loss_grad(params, query, teachers, obj_rng)
        report = LossReport(loss=config.mix.gamma * sft.loss,
                            gradient=sft.gradient.scaled(config.mix.gamma),
                            aux=dict(sft.aux, grade=group.grade.value))
    else:  # grpo_only
        report = grpo_loss_grad(params, ref, group, config.mix)
        report.aux["grade"] = group.grade.value
    return group, report


def _visited_rows(params: PolicyParams, groups: Sequence[GroupRollout]) -> np.ndarray:
    return np.concatenate([g.step_rows(params)[0] for g in groups])


def _check_resume(config: TrainConfig, ckpt: Checkpoint) -> None:
    """A run may resume only its own checkpoint: the configs may differ in
    ``steps`` alone, and the checkpoint may not be past the run's end."""
    theirs = train_config_to_dict(ckpt.config)
    differ = []
    for key, value in train_config_to_dict(config).items():
        if isinstance(value, dict):
            differ += [f"{key}.{sub}" for sub in value if value[sub] != theirs[key][sub]]
        elif key != "steps" and value != theirs[key]:
            differ.append(key)
    if differ:
        raise ConfigError(f"cannot resume: the checkpoint's config differs in {', '.join(differ)}")
    if ckpt.step > config.steps:
        raise ConfigError(f"cannot resume: the checkpoint is at step {ckpt.step}, "
                          f"past the configured {config.steps} steps")


def train(config: TrainConfig, out_dir: str | Path | None = None,
          snapshot_steps: Sequence[int] = (),
          resume_from: Checkpoint | None = None) -> TrainResult:
    """Run the configured number of steps and return the final checkpoint.

    Deterministic under config; resuming from a checkpoint continues the
    identical trajectory because every step draws from substreams named by
    the step index alone. A checkpoint whose config differs in anything but
    ``steps``, or whose step is past ``config.steps``, is a ConfigError.
    """
    pool = QueryPool(config.task, config.seed)
    teachers = make_teacher_ensemble(config.task, config.m_teachers, config.seed)
    if resume_from is not None:
        _check_resume(config, resume_from)
        params = resume_from.params.copy()
        ref = resume_from.ref.snapshot()
        metrics = list(resume_from.metrics)
        start = resume_from.step
    else:
        params = init_policy(config, pool)
        ref = params.snapshot()
        metrics = []
        start = 0
    snapshots: dict[int, tuple[PolicyParams, PolicyParams]] = {}
    stats = RunStats()
    wanted = set(snapshot_steps)
    if start in wanted:
        snapshots[start] = (params.snapshot(), ref.snapshot())

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    for step in range(start, config.steps):
        index_rng = substream(config.seed, "stream", step)
        indices = [int(i) for i in index_rng.integers(len(pool), size=config.batch_size)]
        results = [_query_report(config, params, ref, pool, teachers, step, j, qi)
                   for j, qi in enumerate(indices)]

        groups = [group for group, _ in results]
        counts = Counter(group.grade for group in groups)
        dispatched = [report for group, report in results
                      if config.variant != "dypo" or group.grade is not DifficultyGrade.EASY]
        gal_aux = [report.aux for _, report in results if "eta" in report.aux]
        kls = [report.aux["kl_value"] for _, report in results if "kl_value" in report.aux]
        stats.dispatched_queries += len(dispatched)
        for aux in gal_aux:
            stats.gal_weight_min = min(stats.gal_weight_min, aux["weight_min"])
            stats.gal_weight_max = max(stats.gal_weight_max, aux["weight_max"])

        loss_sum = sum(report.loss for report in dispatched)
        terms = [(1.0, report.gradient) for report in dispatched]
        mean_grad = sum_blocks(terms).scaled(1.0 / len(terms)) if terms else None
        if not (math.isfinite(loss_sum)
                and (mean_grad is None or np.isfinite(mean_grad.values).all())):
            ckpt = _make_checkpoint(step, params, ref, metrics, config)
            if out_path is not None:
                save_checkpoint(out_path / "abort_checkpoint.json", ckpt)
            raise TrainingAborted(f"non-finite loss or gradient at step {step}")

        row = StepMetrics(
            step=step,
            mean_reward=sum(sum(g.rewards) for g in groups) / sum(g.k for g in groups),
            offline_ratio=counts[DifficultyGrade.HARD] / config.batch_size,
            mean_entropy=mean_step_entropy(params, _visited_rows(params, groups)),
            grad_norm=math.sqrt(mean_grad.sq_norm()) if mean_grad is not None else 0.0,
            easy=counts[DifficultyGrade.EASY],
            hard=counts[DifficultyGrade.HARD],
            mid=counts[DifficultyGrade.MID],
            eta=float(np.mean([aux["eta"] for aux in gal_aux])) if gal_aux else 0.0,
            kl=float(np.mean(kls)) if kls else 0.0,
        )
        metrics.append(row)

        if mean_grad is not None:
            params.apply_update(mean_grad, -config.learning_rate)
        if config.ref_refresh_period and (step + 1) % config.ref_refresh_period == 0:
            ref = params.snapshot()
        if (step + 1) in wanted:
            snapshots[step + 1] = (params.snapshot(), ref.snapshot())

    ckpt = _make_checkpoint(config.steps, params, ref, metrics, config)
    if out_path is not None:
        write_metrics(out_path / "metrics.csv", metrics)
        save_checkpoint(out_path / "checkpoint.json", ckpt)
    return TrainResult(checkpoint=ckpt, metrics=metrics, snapshots=snapshots, stats=stats)


def _make_checkpoint(step: int, params: PolicyParams, ref: PolicyParams,
                     metrics: list[StepMetrics], config: TrainConfig) -> Checkpoint:
    # called only once training has stopped, so the live policies are not copied
    return Checkpoint(
        step=step,
        params=params,
        ref=ref,
        rng_state={"scheme": "named-substreams-v1", "seed": config.seed, "next_step": step},
        metrics=list(metrics),
        config=config,
    )


@dataclass
class EvalReport:
    pass_rate: float
    grade_counts: dict
    mean_entropy: float
    offline_ratio: float  # share of Hard groups, the ones routed to distillation
    groups: int


def evaluate(params: PolicyParams, pool: QueryPool, n_queries: int, k: int,
             rng: np.random.Generator, *, xi: float = 1e-4,
             t_max: int = 16) -> EvalReport:
    """Roll out without updating; pass rate counts queries with any success."""
    if n_queries < 1:
        raise ConfigError("evaluate needs n_queries >= 1")
    counts = {g.value: 0 for g in DifficultyGrade}
    groups = [rollout_group(params, pool.draw(rng), k, rng, xi=xi,
                            stop_token=pool.task.stop, t_max=t_max)
              for _ in range(n_queries)]
    for group in groups:
        counts[group.grade.value] += 1
    return EvalReport(
        pass_rate=sum(any(g.rewards) for g in groups) / n_queries,
        grade_counts=counts,
        mean_entropy=mean_step_entropy(params, _visited_rows(params, groups)),
        offline_ratio=counts[DifficultyGrade.HARD.value] / n_queries,
        groups=n_queries,
    )


def run_comparison(config: TrainConfig, out_dir: str | Path | None = None,
                   variants: Sequence[str] = VARIANTS) -> dict[str, TrainResult]:
    """Train each variant on the identical seeded query stream.

    The query pool, per-step query indices, and all substream seeds are
    shared, so per-step metrics align across variants.
    """
    results: dict[str, TrainResult] = {}
    out_path = Path(out_dir) if out_dir is not None else None
    for variant in variants:
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        result = train(replace(config, variant=variant))
        results[variant] = result
        if out_path is not None:
            out_path.mkdir(parents=True, exist_ok=True)
            write_metrics(out_path / f"{variant}_metrics.csv", result.metrics)
    return results
