"""End-to-end training loop: rollout, grade, dispatch, update, record.

One step samples and grades the groups of k trajectories of a batch of
queries from a fixed pool as one ``GroupBatch`` (``rollout_groups``), and
applies the mean gradient the gate (``route_groups``) returns for it as one
plain gradient-descent update. The step's metrics read the batch's rows,
rewards and grades, and the gate's RL pass report (``kl``, ``eta``, the GAL
weight range). All randomness is derived from named substreams of (seed,
role, step), so a run is replayable from any checkpoint.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .artifacts import atomic_write, read_text
from .errors import ConfigError, DataError, InputError, TrainingAborted
from .grading import DifficultyGrade
from .instrumentation import CHUNK_GROUPS, StepMetrics, write_metrics
from .objectives import (
    VARIANTS,
    GroupBatch,
    MixConfig,
    gal_etas,
    rollout_groups,
    route_groups,
)
from .policy import ContextInterner, PolicyParams, mean_step_entropy
from .seeding import step_substreams, substream
from .tasks import (
    MAX_TABLE_BYTES,
    BiasTestbedConfig,
    Query,
    TaskConfig,
    generate_query,
    make_teacher_ensemble,
    max_demo_len,
)


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
        # checked here too, as substream checks it: a seed outside would alias another's run
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.k < 2:
            raise ConfigError("k must be >= 2")
        # the sampler's first position gathers a float64 cdf row and its bool
        # flags, 9 bytes a token, for every trajectory of a step or of an
        # evaluation or bench chunk; past the table's bound it cannot be sampled
        groups = max(self.batch_size, CHUNK_GROUPS)
        first = groups * self.k * self.task.vocab_size * 9
        if first > MAX_TABLE_BYTES:
            raise ConfigError(f"batch_size {self.batch_size} and k {self.k}: {groups} groups "
                              f"need a {-(-first >> 20)} MiB first sampler position, over the "
                              f"{MAX_TABLE_BYTES >> 20} MiB bound")
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
        data = json.loads(read_text(path, ConfigError, "config"))
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
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

    def draw(self, rng: np.random.Generator, size: int) -> list[Query]:
        """``size`` queries, uniform over the pool, from one ``rng.integers``
        call: the same queries, and the same stream after them, as ``size``
        one-index draws."""
        return [self.queries[i] for i in rng.integers(len(self.queries), size=size).tolist()]


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
    metrics: list[StepMetrics]
    config: TrainConfig


@dataclass
class RunStats:
    """Run-level aggregates that do not fit the per-step CSV schema."""

    gal_weight_min: float = math.inf
    gal_weight_max: float = -math.inf


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    stats: RunStats


def _params_to_dict(params: PolicyParams) -> dict:
    return {
        "vocab_size": params.vocab_size,
        "history": params.history,
        "default_logits": params.default_logits.tolist(),
        "table": [[qid, list(hist), row] for (qid, hist), row in
                  zip(params.written_contexts(), params.written_logits())],
    }


def _params_from_dict(data: dict, config: TrainConfig, frozen: bool = False,
                      interner: ContextInterner | None = None) -> PolicyParams:
    vocab, history = config.task.vocab_size, config.history
    if (data["vocab_size"], data["history"]) != (vocab, history):
        raise ConfigError(f"checkpoint policy has vocab_size={data['vocab_size']!r}, "
                          f"history={data['history']!r}; its config needs {vocab}, {history}")
    params = PolicyParams(vocab, history, interner=interner,
                          default_logits=data["default_logits"])
    seen = set()
    for qid, hist, row in data["table"]:
        if len(hist) > history:
            raise ValueError(f"context {hist} is longer than history={history}")
        if type(qid) is not int or qid < 0:
            raise ValueError(f"query id {qid!r} is not a non-negative integer")
        bad = [t for t in hist if type(t) is not int or not 0 <= t < vocab]
        if bad:
            raise ValueError(f"token {bad[0]!r} is not an integer in [0, {vocab})")
        ctx = (qid, tuple(hist))
        if ctx in seen:
            raise ValueError(f"context {[qid, hist]} appears twice")
        seen.add(ctx)
        params.set_logits(ctx, row)
    params.frozen = frozen
    return params


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    doc = {
        "step": ckpt.step,
        "params": _params_to_dict(ckpt.params),
        "ref": _params_to_dict(ckpt.ref),
        "rng_state": _rng_state(ckpt.config, ckpt.step),
        "metrics": [vars(m) for m in ckpt.metrics],
        "config": train_config_to_dict(ckpt.config),
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc) + "\n")


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and validate a checkpoint.

    A missing, truncated, too deeply nested or malformed file raises
    DataError, and so do a malformed policy (a context is a query id >= 0
    and tokens in [0, V), all JSON integers, and appears once), a step that
    is not a non-negative integer, metrics that are not exactly the
    well-typed rows of steps 0 .. step-1 and an rng_state other than the one
    a run of this config writes at this step; a config that is invalid or
    disagrees with the stored policies raises ConfigError.
    """
    try:
        doc = json.loads(read_text(path, DataError, "checkpoint"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"checkpoint {path} is not valid JSON (truncated?): {exc}") from exc
    try:
        config = train_config_from_dict(doc["config"])
        step = doc["step"]
        if type(step) is not int or step < 0:
            raise DataError(f"checkpoint {path} has step {step!r}, not a non-negative integer")
        metrics = [_from_json(StepMetrics, row, f"metrics[{i}]", ValueError)
                   for i, row in enumerate(doc["metrics"])]
        if len(metrics) != step or [m.step for m in metrics] != list(range(step)):
            raise DataError(f"checkpoint {path} is at step {step}, but its metrics are not "
                            f"exactly the rows of steps 0 to {step - 1}")
        rng_state, want = doc["rng_state"], _rng_state(config, step)
        # == alone would take True for 1 and 3.0 for 3
        if rng_state != want or any(type(rng_state[k]) is not type(v) for k, v in want.items()):
            raise DataError(f"checkpoint {path} has rng_state {rng_state!r}, not {want!r}")
        params = _params_from_dict(doc["params"], config)
        ref = _params_from_dict(doc["ref"], config, frozen=True, interner=params.interner)
        return Checkpoint(step, params, ref, metrics, config)
    except ConfigError:
        raise
    except KeyError as exc:
        raise DataError(f"checkpoint {path} is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # metrics rows, InputError from the policies
        raise DataError(f"checkpoint {path} is malformed: {exc}") from exc


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


# extreme settings overflow; what a run writes is checked finite, not warned about
@np.errstate(over="ignore", invalid="ignore")
def train(config: TrainConfig, out_dir: str | Path | None = None,
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
    stats = RunStats()

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    streams = step_substreams(config.seed, ("stream", "rollout", "objective"), start, config.steps)
    for step, (stream, rollout, objective) in zip(range(start, config.steps), streams):
        queries = pool.draw(stream, config.batch_size)
        batch = rollout_groups(params, queries, config.k, rollout, xi=config.mix.xi,
                               stop_token=config.task.stop, t_max=config.t_max)
        mean, passed = route_groups(params, ref, batch, teachers, config.mix, objective,
                                    config.variant)
        counts = np.bincount(batch.grade, minlength=len(DifficultyGrade)).tolist()
        eta = kl = 0.0
        if passed is not None:  # ndarray's mean, min and max, undispatched
            kl = float(np.add.reduce(passed.aux["kl_value"]) / passed.loss.size)
            if (weights := passed.weights) is not None:
                eta = float(np.add.reduce(gal_etas(passed)) / passed.loss.size)
                stats.gal_weight_min = min(stats.gal_weight_min, float(np.minimum.reduce(weights)))
                stats.gal_weight_max = max(stats.gal_weight_max, float(np.maximum.reduce(weights)))

        row = StepMetrics(
            step=step,
            mean_reward=int(np.add.reduce(batch.rewards)) / batch.rewards.size,
            offline_ratio=counts[DifficultyGrade.HARD] / config.batch_size,
            mean_entropy=mean_step_entropy(params, batch.steps[0]),
            grad_norm=math.sqrt(mean.gradient.sq_norm()),
            easy=counts[DifficultyGrade.EASY],
            hard=counts[DifficultyGrade.HARD],
            mid=counts[DifficultyGrade.MID],
            eta=eta,
            kl=kl,
        )
        # a nan or inf gradient entry makes the norm non-finite
        try:
            if not all(map(math.isfinite, (mean.loss, row.mean_entropy, row.grad_norm, eta, kl))):
                raise InputError("non-finite loss or metric")
            params.apply_update(mean.gradient, -config.learning_rate)
        except InputError as exc:
            if out_path is not None:
                save_checkpoint(out_path / "abort_checkpoint.json",
                                Checkpoint(step, params, ref, metrics, config))
            raise TrainingAborted(f"{exc} at step {step}") from None
        metrics.append(row)
        if config.ref_refresh_period and (step + 1) % config.ref_refresh_period == 0:
            ref = params.snapshot()

    # training has stopped, so the live policies are not copied
    ckpt = Checkpoint(config.steps, params, ref, metrics, config)
    if out_path is not None:
        write_metrics(out_path / "metrics.csv", metrics)
        save_checkpoint(out_path / "checkpoint.json", ckpt)
    return TrainResult(checkpoint=ckpt, stats=stats)


def _rng_state(config: TrainConfig, step: int) -> dict:
    # each step's streams are substream(seed, name, step), so the seed and the
    # next step are the whole RNG state
    return {"scheme": "named-substreams-v1", "seed": config.seed, "next_step": step}


@dataclass
class EvalReport:
    pass_rate: float
    grade_counts: dict
    mean_entropy: float
    offline_ratio: float  # share of Hard groups, the ones routed to distillation
    groups: int


def evaluate(params: PolicyParams, pool: QueryPool, n_queries: int, k: int,
             rng: np.random.Generator, *, t_max: int) -> EvalReport:
    """Roll out without updating; pass rate counts queries with any success,
    the groups that are not Hard.

    All queries are drawn first; their groups are then sampled in chunks of
    ``CHUNK_GROUPS``, from the same generator, and read as one batch.
    """
    if n_queries < 1:
        raise ConfigError("evaluate needs n_queries >= 1")
    queries = pool.draw(rng, n_queries)
    # the report reads no advantage, so any xi gives its bits
    batch = GroupBatch.concat([rollout_groups(params, queries[lo:lo + CHUNK_GROUPS], k, rng,
                                              xi=MixConfig.xi, stop_token=pool.task.stop,
                                              t_max=t_max)
                               for lo in range(0, n_queries, CHUNK_GROUPS)])
    counts = np.bincount(batch.grade, minlength=len(DifficultyGrade)).tolist()
    hard = counts[DifficultyGrade.HARD]
    return EvalReport(
        pass_rate=(n_queries - hard) / n_queries,
        grade_counts={grade.name.lower(): counts[grade] for grade in DifficultyGrade},
        mean_entropy=mean_step_entropy(params, batch.steps[0]),
        offline_ratio=hard / n_queries,
        groups=n_queries,
    )


def run_comparison(config: TrainConfig,
                   out_dir: str | Path | None = None) -> dict[str, TrainResult]:
    """Train every variant on the identical seeded query stream.

    The query pool, per-step query indices, and all substream seeds are
    shared, so per-step metrics align across variants.
    """
    results: dict[str, TrainResult] = {}
    out_path = Path(out_dir) if out_dir is not None else None
    for variant in VARIANTS:
        result = train(replace(config, variant=variant))
        results[variant] = result
        if out_path is not None:
            out_path.mkdir(parents=True, exist_ok=True)
            write_metrics(out_path / f"{variant}_metrics.csv", result.checkpoint.metrics)
    return results
