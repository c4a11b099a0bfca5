"""Monte Carlo estimators, bias/variance benches, and metrics serialization.

Variance here always means the scalar total variance E||g - E[g]||^2 of a
gradient estimator at a fixed parameter point; benches resample rollouts
while holding the policy frozen, never interleaving updates.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence, get_type_hints

import numpy as np

from .artifacts import atomic_write
from .errors import BenchError, DataError, InputError
from .grading import DifficultyGrade
from .objectives import (
    GroupRollout,
    MixConfig,
    build_pairs,
    gal_loss_grad,
    grpo_policy_gradient,
    mixed_gradient,
    rollout_group,
)
from .policy import PolicyParams, RowBlock, sample_group_rows, score_sq_norms
from .tasks import BiasTestbedConfig, Query, bias_sq_norms


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


def variance_from_samples(samples: Iterable[RowBlock]) -> VarianceEstimate:
    """Mean gradient, unbiased scalar variance, and jackknife standard error.

    The row blocks are stacked once and reduced with a few vectorized calls.
    """
    samples = list(samples)
    n = len(samples)
    if n < 30:
        raise InputError(f"variance estimation needs >= 30 samples, got {n}")
    rows = np.concatenate([g.rows for g in samples])
    values = np.concatenate([g.values for g in samples])
    owner = np.repeat(np.arange(n), [len(g.rows) for g in samples])
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        bad = int(owner[np.argmin(finite)])
        raise DataError(f"sample {bad} contains non-finite gradient entries")
    uniq, col = np.unique(rows, return_inverse=True)
    total = np.zeros((len(uniq), values.shape[1]))
    np.add.at(total, col, values)
    mean = total / n
    sq_norms = np.bincount(owner, weights=(values * values).sum(axis=1), minlength=n)
    dots = np.bincount(owner, weights=(values * mean[col]).sum(axis=1), minlength=n)
    # ||g_i - gbar||^2 expanded around the stored sparse samples
    deviations = np.maximum(sq_norms - 2.0 * dots + float((mean * mean).sum()), 0.0)
    ss = float(deviations.sum())
    variance = ss / (n - 1)
    loo = (ss - deviations * n / (n - 1)) / (n - 2)
    se = float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))
    return VarianceEstimate(mean_gradient=RowBlock(uniq, mean), scalar_variance=variance,
                            sample_count=n, standard_error=se)


def estimate_variance(gradient_sampler: Callable[[np.random.Generator], RowBlock],
                      n_samples: int, rng: np.random.Generator) -> VarianceEstimate:
    """Draw n independent gradient samples at fixed parameters and estimate Var."""
    if n_samples < 30:
        raise InputError(f"variance estimation needs >= 30 samples, got {n_samples}")
    return variance_from_samples([gradient_sampler(rng) for _ in range(n_samples)])


def estimate_score_variance(params: PolicyParams, query: Query, n_samples: int,
                            rng: np.random.Generator, *, stop_token: int,
                            t_max: int) -> float:
    """Monte Carlo estimate of the expected squared score norm."""
    if n_samples < 30:
        raise InputError(f"score-variance estimation needs >= 30 samples, got {n_samples}")
    trajs, sampled = sample_group_rows(params, query, n_samples, rng, stop_token=stop_token,
                                       t_max=t_max)
    rows, tokens = sampled.steps
    sq_norms = score_sq_norms(params, rows, tokens, np.array([len(t) for t in trajs]))
    return float(sq_norms.sum()) / n_samples


def collect_mid_groups(params: PolicyParams, draw_query: Callable[[np.random.Generator], Query],
                       n_groups: int, rng: np.random.Generator, *, k: int, xi: float,
                       stop_token: int, t_max: int,
                       max_attempts: int | None = None) -> list[GroupRollout]:
    """Sample rollout groups from the query stream, keeping the Mid-graded ones."""
    budget = max_attempts if max_attempts is not None else max(100 * n_groups, 1000)
    groups: list[GroupRollout] = []
    attempts = 0
    while len(groups) < n_groups:
        if attempts >= budget:
            raise BenchError(
                f"found only {len(groups)}/{n_groups} Mid groups in {attempts} attempts",
                diagnostics={"attempts": attempts, "found": len(groups), "budget": budget},
            )
        attempts += 1
        g = rollout_group(params, draw_query(rng), k, rng, xi=xi,
                          stop_token=stop_token, t_max=t_max)
        if g.grade is DifficultyGrade.MID:
            groups.append(g)
    return groups


def measure_eta(params: PolicyParams, ref: PolicyParams,
                draw_query: Callable[[np.random.Generator], Query], cfg: MixConfig,
                n_groups: int, rng: np.random.Generator, *, k: int, stop_token: int,
                t_max: int, max_attempts: int | None = None) -> float:
    """Mean discrimination difficulty over freshly sampled Mid groups."""
    groups = collect_mid_groups(params, draw_query, n_groups, rng, k=k, xi=cfg.xi,
                                stop_token=stop_token, t_max=t_max,
                                max_attempts=max_attempts)
    etas = []
    for g in groups:
        pairs = build_pairs(g, cfg.pair_cap, rng)
        etas.append(gal_loss_grad(params, ref, g, pairs, cfg).aux["eta"])
    return float(np.mean(etas))


@dataclass
class BenchReport:
    """Outcome of one bench: estimates, their errors, and a pass verdict."""

    name: str
    estimates: dict
    stderrs: dict
    verdict: bool
    config_echo: dict
    diagnostics: dict


def variance_ordering_bench(params: PolicyParams, ref: PolicyParams,
                            draw_query: Callable[[np.random.Generator], Query],
                            cfg: MixConfig, n_groups: int, rng: np.random.Generator,
                            *, k: int, stop_token: int, t_max: int,
                            max_attempts: int | None = None) -> BenchReport:
    """Compare Var(g_mix) against Var(g_grpo) and Var(g_gal) at fixed params.

    Over n_groups Mid-graded groups the bench evaluates the unclipped
    advantage-weighted estimator, the pairwise alignment gradient, and their
    alpha-mixture on the same group, then reports the three scalar variances.
    Verdict: var_mix < var_grpo with the gap exceeding 3 combined SEs.
    """
    groups = collect_mid_groups(params, draw_query, n_groups, rng, k=k, xi=cfg.xi,
                                stop_token=stop_token, t_max=t_max,
                                max_attempts=max_attempts)
    g_grpo: list[RowBlock] = []
    g_gal: list[RowBlock] = []
    etas = np.empty(len(groups))
    pair_counts = np.empty(len(groups))
    score_sq_sum = 0.0
    score_sq_n = 0
    for i, group in enumerate(groups):
        pairs = build_pairs(group, cfg.pair_cap, rng)
        grpo = grpo_policy_gradient(params, group)
        gal = gal_loss_grad(params, ref, group, pairs, cfg)
        g_grpo.append(grpo)
        g_gal.append(gal.gradient)
        etas[i] = gal.aux["eta"]
        pair_counts[i] = gal.aux["pair_count"]
        score_sq_sum += float(score_sq_norms(params, *group.step_rows(params)).sum())
        score_sq_n += group.k
    # the mixture exists only while it is reduced, not for the whole bench
    g_mix = (mixed_gradient(a, b, cfg.alpha) for a, b in zip(g_grpo, g_gal))
    est = {name: variance_from_samples(samples)
           for name, samples in (("grpo", g_grpo), ("gal", g_gal), ("mix", g_mix))}
    gap = est["grpo"].scalar_variance - est["mix"].scalar_variance
    combined_se = float(np.hypot(est["grpo"].standard_error, est["mix"].standard_error))
    verdict = gap > 3.0 * combined_se
    eta_mean = float(etas.mean())
    sigma_s = score_sq_sum / score_sq_n
    # independent-pair approximation of the alignment-gradient variance;
    # pairs within one group share trajectories, so this routinely
    # underestimates the measured value (reported, never enforced)
    predicted_var_gal = 2.0 * cfg.beta_gal**2 * eta_mean * sigma_s / float(pair_counts.mean())
    return BenchReport(
        name="variance_ordering",
        estimates={f"var_{n}": e.scalar_variance for n, e in est.items()},
        stderrs={f"var_{n}": e.standard_error for n, e in est.items()},
        verdict=verdict,
        config_echo={"alpha": cfg.alpha, "beta_gal": cfg.beta_gal, "k": k,
                     "pair_cap": cfg.pair_cap, "n_groups": n_groups},
        diagnostics={"gap": gap, "combined_se": combined_se, "eta_mean": eta_mean,
                     "score_sq_mean": sigma_s,
                     "pair_count_mean": float(pair_counts.mean()),
                     "predicted_var_gal": predicted_var_gal},
    )


def bias_law_bench(cfg: BiasTestbedConfig, m_values: Sequence[int], n_draws: int,
                   rng: np.random.Generator, chunk: int = 20000) -> BenchReport:
    """Monte Carlo check of the ensemble-bias law against its analytic value.

    Per ensemble size m the expected squared bias is ||b_sys||^2 plus an
    idiosyncratic term sigma^2 / m; the bench estimates it, fits the log-log
    slope of the idiosyncratic term, and verifies strict monotone decrease.
    """
    if len(m_values) == 0:
        raise InputError("bias_law_bench needs at least one ensemble size")
    if n_draws < 10_000:
        raise InputError(f"bias_law_bench needs >= 1e4 draws per point, got {n_draws}")
    means: dict[int, float] = {}
    stderrs: dict[int, float] = {}
    for m in m_values:
        total = 0.0
        total_sq = 0.0
        done = 0
        while done < n_draws:
            size = min(chunk, n_draws - done)
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
    verdict = (cfg.sigma_bias == 0) or (
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
            values = asdict(row)
            writer.writerow([_format_value(name, values[name]) for name in METRICS_HEADER])


def read_metrics(path: str | Path) -> list[StepMetrics]:
    """Parse a metrics CSV back into StepMetrics rows; exact round trip."""
    rows: list[StepMetrics] = []
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != METRICS_HEADER:
            raise DataError(f"unexpected metrics header: {header}")
        for record in reader:
            kwargs = {
                name: int(value) if name in _INT_FIELDS else float(value)
                for name, value in zip(METRICS_HEADER, record)
            }
            rows.append(StepMetrics(**kwargs))
    return rows
