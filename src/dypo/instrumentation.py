"""Monte Carlo estimators, bias/variance benches, and metrics serialization.

Variance here always means the scalar total variance E||g - E[g]||^2 of a
gradient estimator at a fixed parameter point; benches resample rollouts
while holding the policy frozen, never interleaving updates.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from itertools import accumulate
from pathlib import Path
from typing import Callable, Sequence, get_type_hints

import numpy as np

from .artifacts import atomic_write, read_text
from .errors import BenchError, DataError, InputError
from .grading import DifficultyGrade
from .objectives import (
    GroupBatch,
    MixConfig,
    gal_etas,
    gal_pass,
    grpo_estimator,
    mixed_keyed,
    pair_arrays,
    rollout_groups,
)
from .policy import KeyedBlocks, PolicyParams, RowBlock, score_sq_norms, sum_rows
from .tasks import BiasTestbedConfig, Query, bias_sq_norms

# the fewest samples a variance estimate takes, so the fewest groups of a variance bench
MIN_VARIANCE_SAMPLES = 30
# groups per lockstep sampling call and per loss pass of the benches: the
# perfbench `variance` work (5000 groups, seed 1) peaks at 100 MiB RSS with one
# call and one pass over all groups, and at 58 MiB in chunks of this size
CHUNK_GROUPS = 256
BIAS_CHUNK = 20000  # ensemble draws per bias_sq_norms call of the bias bench
# draw_query(rng, size): ``size`` queries drawn from ``rng``, as ``QueryPool.draw``
QueryDraw = Callable[[np.random.Generator, int], Sequence[Query]]


@dataclass
class VarianceEstimate:
    """Scalar total variance of a gradient estimator with a jackknife SE."""

    mean_gradient: RowBlock
    scalar_variance: float
    sample_count: int
    standard_error: float


@dataclass
class StepMetrics:
    """One training step's dynamics row (fixed CSV schema)."""

    step: int
    mean_reward: float
    offline_ratio: float
    mean_entropy: float
    grad_norm: float
    easy: int
    hard: int
    mid: int
    eta: float
    kl: float


METRICS_HEADER = tuple(f.name for f in fields(StepMetrics))
_INT_FIELDS = {name for name, kind in get_type_hints(StepMetrics).items() if kind is int}


def variance_from_samples(chunks: Sequence[KeyedBlocks]) -> VarianceEstimate:
    """Mean gradient, unbiased scalar variance, and jackknife standard error.

    Each owner of each chunk is one sample, the owners of ``chunks[i]``
    numbered after those of ``chunks[:i]``; the chunks' arrays are reduced
    with a few vectorized calls, the mean's row sums by ``sum_rows``.
    """
    n = sum(chunk.count for chunk in chunks)
    if n < MIN_VARIANCE_SAMPLES:
        raise InputError(f"variance estimation needs >= {MIN_VARIANCE_SAMPLES} samples, got {n}")
    firsts = accumulate((chunk.count for chunk in chunks), initial=0)
    owners, rows = zip(*(chunk.owner_rows() for chunk in chunks))
    owner = np.concatenate([o + first for o, first in zip(owners, firsts)])
    rows = np.concatenate(rows)
    values = np.concatenate([chunk.values for chunk in chunks])
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        bad = int(owner[np.argmin(finite)])
        raise DataError(f"sample {bad} contains non-finite gradient entries")
    total = sum_rows(rows, values)
    mean = total.values / n
    col = np.searchsorted(total.rows, rows)
    sq_norms = np.bincount(owner, weights=(values * values).sum(axis=1), minlength=n)
    dots = np.bincount(owner, weights=(values * mean[col]).sum(axis=1), minlength=n)
    # ||g_i - gbar||^2 expanded around the stored sparse samples
    deviations = np.maximum(sq_norms - 2.0 * dots + float((mean * mean).sum()), 0.0)
    ss = float(deviations.sum())
    variance = ss / (n - 1)
    loo = (ss - deviations * n / (n - 1)) / (n - 2)
    se = float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))
    return VarianceEstimate(mean_gradient=RowBlock(total.rows, mean), scalar_variance=variance,
                            sample_count=n, standard_error=se)


def collect_mid_groups(params: PolicyParams, draw_query: QueryDraw, n_groups: int,
                       rng: np.random.Generator, *, k: int, xi: float, stop_token: int,
                       t_max: int) -> GroupBatch:
    """The first ``n_groups`` Mid-graded groups of the query stream, in order, as one batch.

    Queries are drawn, and their groups sampled together, in chunks of at
    most ``CHUNK_GROUPS``, twice the groups still missing, and the attempts
    left; a chunk's Mid groups up to the ``n_groups``-th are kept, by one
    ``select``.
    Every sampled group is an attempt, and the budget is
    ``max(100 * n_groups, 1000)`` of them, so a failed collection has made
    exactly its budget of attempts.
    """
    budget = max(100 * n_groups, 1000)
    parts: list[GroupBatch] = []
    found = attempts = 0
    while found < n_groups:
        if attempts >= budget:
            raise BenchError(
                f"found only {found}/{n_groups} Mid groups in {attempts} attempts",
                diagnostics={"attempts": attempts, "found": found, "budget": budget},
            )
        size = min(CHUNK_GROUPS, 2 * (n_groups - found), budget - attempts)
        attempts += size
        queries = draw_query(rng, size)
        batch = rollout_groups(params, queries, k, rng, xi=xi, stop_token=stop_token,
                               t_max=t_max)
        mid = (batch.grade == DifficultyGrade.MID).nonzero()[0]
        parts.append(batch.select(mid[:n_groups - found]))
        found += len(parts[-1])
    return GroupBatch.concat(parts)


def measure_eta(params: PolicyParams, ref: PolicyParams, draw_query: QueryDraw, cfg: MixConfig,
                n_groups: int, rng: np.random.Generator, *, k: int, stop_token: int,
                t_max: int) -> float:
    """Mean discrimination difficulty over freshly sampled Mid groups."""
    mid = collect_mid_groups(params, draw_query, n_groups, rng, k=k, xi=cfg.xi,
                             stop_token=stop_token, t_max=t_max)
    etas = []
    for lo in range(0, n_groups, CHUNK_GROUPS):
        batch = mid.select(slice(lo, lo + CHUNK_GROUPS))
        pairs = pair_arrays(batch, cfg.pair_cap, rng)
        etas.append(gal_etas(gal_pass(params, ref, batch, pairs, cfg)))
    return float(np.mean(np.concatenate(etas)))


@dataclass
class BenchReport:
    """Outcome of one bench: estimates, their errors, and a pass verdict."""

    name: str
    estimates: dict
    stderrs: dict
    verdict: bool
    config_echo: dict
    diagnostics: dict


def variance_ordering_bench(params: PolicyParams, ref: PolicyParams, draw_query: QueryDraw,
                            cfg: MixConfig, n_groups: int, rng: np.random.Generator,
                            *, k: int, stop_token: int, t_max: int) -> BenchReport:
    """Compare Var(g_mix) against Var(g_grpo) and Var(g_gal) at fixed params.

    Over n_groups Mid-graded groups the bench evaluates the unclipped
    advantage-weighted estimator, the pairwise alignment gradient, and their
    alpha-mixture on the same group, then reports the three scalar variances.
    Verdict: var_mix < var_grpo with the gap exceeding 3 combined SEs.
    """
    mid = collect_mid_groups(params, draw_query, n_groups, rng, k=k, xi=cfg.xi,
                             stop_token=stop_token, t_max=t_max)
    samples: dict[str, list[KeyedBlocks]] = {"grpo": [], "gal": [], "mix": []}
    etas, pair_counts = [], []
    score_sq_sum = 0.0
    for lo in range(0, n_groups, CHUNK_GROUPS):
        batch = mid.select(slice(lo, lo + CHUNK_GROUPS))
        grpo = grpo_estimator(params, batch)
        gal = gal_pass(params, ref, batch, pair_arrays(batch, cfg.pair_cap, rng), cfg)
        samples["grpo"].append(grpo)
        samples["gal"].append(gal.gradient)
        samples["mix"].append(mixed_keyed(grpo, gal.gradient, cfg.alpha))
        etas.append(gal_etas(gal))
        pair_counts.append(gal.aux["pair_count"])
        score_sq = score_sq_norms(params, batch.rows, batch.tokens, batch.lengths)
        score_sq_sum += float(score_sq.sum())
    # each estimator's chunks are freed once it is reduced
    est = {name: variance_from_samples(samples.pop(name))
           for name in ("grpo", "gal", "mix")}
    gap = est["grpo"].scalar_variance - est["mix"].scalar_variance
    combined_se = float(np.hypot(est["grpo"].standard_error, est["mix"].standard_error))
    verdict = gap > 3.0 * combined_se
    eta_mean = float(np.concatenate(etas).mean())
    pair_count_mean = float(np.concatenate(pair_counts).mean())
    sigma_s = score_sq_sum / len(mid.rewards)
    # independent-pair approximation of the alignment-gradient variance;
    # pairs within one group share trajectories, so this routinely
    # underestimates the measured value (reported, never enforced)
    predicted_var_gal = 2.0 * cfg.beta_gal**2 * eta_mean * sigma_s / pair_count_mean
    return BenchReport(
        name="variance_ordering",
        estimates={f"var_{n}": e.scalar_variance for n, e in est.items()},
        stderrs={f"var_{n}": e.standard_error for n, e in est.items()},
        verdict=verdict,
        config_echo={"alpha": cfg.alpha, "beta_gal": cfg.beta_gal, "k": k,
                     "pair_cap": cfg.pair_cap, "n_groups": n_groups},
        diagnostics={"gap": gap, "combined_se": combined_se, "eta_mean": eta_mean,
                     "score_sq_mean": sigma_s,
                     "pair_count_mean": pair_count_mean,
                     "predicted_var_gal": predicted_var_gal},
    )


def bias_law_bench(cfg: BiasTestbedConfig, m_values: Sequence[int], n_draws: int,
                   rng: np.random.Generator) -> BenchReport:
    """Monte Carlo check of the ensemble-bias law against its analytic value.

    Per ensemble size m the expected squared bias is ||b_sys||^2 plus an
    idiosyncratic term sigma^2 / m; the bench estimates it, fits the log-log
    slope of the idiosyncratic term, and verifies strict monotone decrease.
    It takes at least two distinct sizes, checked before the first draw.
    """
    if len(set(m_values)) < len(m_values):
        raise InputError(f"ensemble sizes must be distinct, got {list(m_values)}")
    if len(m_values) < 2:  # the slope needs two points
        raise InputError("bias_law_bench needs at least two ensemble sizes")
    if n_draws < 10_000:
        raise InputError(f"bias_law_bench needs >= 1e4 draws per point, got {n_draws}")
    for m in m_values:
        if m < 1:
            raise InputError(f"ensemble size must be >= 1, got {m}")
    means: dict[int, float] = {}
    stderrs: dict[int, float] = {}
    for m in m_values:
        total = 0.0
        total_sq = 0.0
        done = 0
        while done < n_draws:
            size = min(BIAS_CHUNK, n_draws - done)
            vals = bias_sq_norms(cfg, m, size, rng)
            total += float(vals.sum())
            total_sq += float((vals**2).sum())
            done += size
        mean = total / n_draws
        var = max(total_sq / n_draws - mean**2, 0.0)
        means[m] = mean
        stderrs[m] = float(np.sqrt(var / n_draws))
    ms = sorted(m_values)
    idio = np.array([means[m] - cfg.b_sys_sq for m in ms])
    if cfg.sigma_bias > 0 and np.all(idio > 0):
        slope, intercept = np.polyfit(np.log(ms), np.log(idio), 1)
    else:
        slope, intercept = float("nan"), float("nan")
    monotone = all(means[a] > means[b] for a, b in zip(ms, ms[1:]))
    analytic = {m: cfg.b_sys_sq + cfg.sigma_bias**2 / m for m in ms}
    rel_errors = {m: abs(means[m] - analytic[m]) / analytic[m] for m in ms}
    verdict = (cfg.sigma_bias == 0) or bool(
        monotone and abs(slope + 1.0) <= 0.1 and max(rel_errors.values()) <= 0.05)
    return BenchReport(
        name="bias_law",
        estimates={str(m): means[m] for m in ms},
        stderrs={str(m): stderrs[m] for m in ms},
        verdict=verdict,
        config_echo={"dim": cfg.dim, "b_sys_sq": cfg.b_sys_sq,
                     "sigma_bias": cfg.sigma_bias, "n_draws": n_draws},
        diagnostics={"slope": float(slope), "intercept": float(intercept),
                     "monotone": monotone,
                     "max_rel_error": max(rel_errors.values())},
    )


def write_bench_report(path: str | Path, report: BenchReport) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")


def _format_value(name: str, value) -> str:
    if name in _INT_FIELDS:
        return str(int(value))
    return format(float(value), ".17g")


def write_metrics(path: str | Path, rows: Sequence[StepMetrics]) -> None:
    """Write the metrics CSV with a fixed header and exact float formatting."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_HEADER)
        for row in rows:
            writer.writerow([_format_value(name, getattr(row, name)) for name in METRICS_HEADER])


def read_metrics(path: str | Path) -> list[StepMetrics]:
    """Parse a metrics CSV back into StepMetrics rows; exact round trip. A file
    that cannot be read or is not UTF-8 is a ``DataError`` naming the path,
    and a header, row or field that does not parse one naming the line too."""
    reader = csv.reader(io.StringIO(read_text(path, DataError, "metrics"), newline=""))
    rows: list[StepMetrics] = []
    try:
        header = tuple(next(reader, ()))
        if header != METRICS_HEADER:
            raise DataError(f"metrics {path}, line 1: unexpected header {header}")
        for record in reader:
            where = f"metrics {path}, line {reader.line_num}"
            if len(record) != len(METRICS_HEADER):
                raise DataError(f"{where}: {len(record)} fields, not {len(METRICS_HEADER)}")
            rows.append(StepMetrics(*(int(value) if name in _INT_FIELDS else float(value)
                                      for name, value in zip(METRICS_HEADER, record))))
    except (csv.Error, ValueError) as exc:  # a field too long for the reader, or not a number
        raise DataError(f"metrics {path}, line {reader.line_num}: {exc}") from exc
    return rows
