"""Loss values and exact gradients for every optimization pathway.

Each objective returns a LossReport: scalar loss, exact gradient as a row
block over the logit table, and named aux scalars. Gradients are exact for
the reported loss expression, which is what lets finite differences certify
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.special import expit

from . import grading
from .errors import ConfigError, InputError, StateError
from .grading import DifficultyGrade
from .policy import (
    PolicyParams,
    RowBlock,
    StepRows,
    Trajectory,
    check_shared_interner,
    kl_gradient,
    sample_group_rows,
    sum_blocks,
    weighted_score,
)
from .tasks import Query, TeacherOracle, reward, teacher_sample


@dataclass(frozen=True)
class MixConfig:
    """Coefficients of the unified objective and its RL constituents."""

    alpha: float = 0.5
    gamma: float = 1.0
    beta_gal: float = 1.0
    beta_kl: float = 0.01
    epsilon_clip: float = 0.2
    xi: float = 1e-4
    pair_cap: int = 64

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if self.beta_gal <= 0:
            raise ConfigError(f"beta_gal must be > 0, got {self.beta_gal}")
        if self.beta_kl < 0:
            raise ConfigError(f"beta_kl must be >= 0, got {self.beta_kl}")
        if not 0.0 < self.epsilon_clip < 1.0:
            raise ConfigError(f"epsilon_clip must lie in (0,1), got {self.epsilon_clip}")
        if self.xi <= 0:
            raise ConfigError(f"xi must be > 0, got {self.xi}")
        if self.pair_cap < 1:
            raise ConfigError(f"pair_cap must be >= 1, got {self.pair_cap}")


@dataclass
class GroupRollout:
    """k rollouts for one query, with rewards and standardized advantages.

    The group owns the rows of its trajectories' steps, read through
    ``step_rows``: a group from ``rollout_group`` keeps the rows it was
    sampled with, and a group built from given trajectories resolves them
    once, on first use, and keeps them. ``sample_logp`` is the sampling
    policy's log-prob of every step, recorded at sampling.
    """

    query: Query
    trajectories: tuple[Trajectory, ...]
    rewards: tuple[int, ...]
    advantages: np.ndarray | None = None
    rows: StepRows | None = field(default=None, repr=False, compare=False)
    sample_logp: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.trajectories) != len(self.rewards):
            raise InputError("trajectories and rewards must have equal length")
        if self.advantages is not None and len(self.advantages) != len(self.rewards):
            raise InputError("advantages length must match rewards")

    @property
    def k(self) -> int:
        return len(self.trajectories)

    @cached_property
    def grade(self) -> DifficultyGrade:
        """Difficulty grade of the reward pattern, computed once per group."""
        return grading.grade(self.rewards)

    @cached_property
    def lengths(self) -> np.ndarray:
        return np.array([len(t) for t in self.trajectories])

    def step_rows(self, params: PolicyParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, tokens, lengths) of the group's steps in ``params``' interner.

        Rows kept for another interner are an ``InputError``.
        """
        if self.rows is None:
            parts = [params.trajectory_rows(self.query.query_id, t.tokens)
                     for t in self.trajectories]
            self.rows = StepRows(params.interner,
                                 np.concatenate(parts, axis=1).astype(np.int32))
        elif self.rows.interner is not params.interner:
            raise InputError("the group's rows belong to another policy's interner")
        else:
            params._fit()
        rows, tokens = self.rows.steps
        return rows, tokens, self.lengths

    def log_ratios(self, params: PolicyParams) -> np.ndarray:
        """log(pi_params / pi_sampling) of every trajectory, against ``sample_logp``."""
        if self.sample_logp is None:
            raise StateError("group sampling log-probs are not recorded")
        rows, tokens, lengths = self.step_rows(params)
        return np.bincount(np.repeat(np.arange(self.k), lengths),
                           weights=params.logp_at(rows, tokens) - self.sample_logp,
                           minlength=self.k)


@dataclass
class LossReport:
    """Scalar loss plus exact gradient; the unit of all oracle comparisons."""

    loss: float
    gradient: RowBlock
    aux: dict = field(default_factory=dict)


def standardize_advantages(rewards: Sequence[float], xi: float) -> np.ndarray:
    """Group-standardized advantages (R - mean) / (population std + xi)."""
    if len(rewards) < 2:
        raise InputError("advantage standardization needs a group of >= 2")
    if xi <= 0:
        raise InputError(f"xi must be > 0, got {xi}")
    r = np.asarray(rewards, dtype=np.float64)
    return (r - r.mean()) / (r.std() + xi)


def rollout_group(params: PolicyParams, query: Query, k: int, rng: np.random.Generator,
                  *, xi: float, stop_token: int, t_max: int) -> GroupRollout:
    """Sample k rollouts with rewards, standardized advantages and sampling log-probs."""
    trajs, sampled = sample_group_rows(params, query, k, rng, stop_token=stop_token, t_max=t_max)
    rewards = tuple(reward(query, traj) for traj in trajs)
    return GroupRollout(
        query=query,
        trajectories=tuple(trajs),
        rewards=rewards,
        advantages=standardize_advantages(rewards, xi),
        rows=sampled,
        sample_logp=params.logp_at(*sampled.steps),
    )


def sft_loss_grad(params: PolicyParams, query: Query, teachers: Sequence[TeacherOracle],
                  rng: np.random.Generator) -> LossReport:
    """Negative log-likelihood of a demonstration drawn uniformly over teachers."""
    if len(teachers) == 0:
        raise ConfigError("sft_loss_grad needs at least one teacher")
    idx = int(rng.integers(len(teachers)))
    demo = teacher_sample(teachers[idx], query, rng)
    rows, tokens = params.trajectory_rows(query.query_id, demo.tokens)
    return LossReport(loss=-float(params.logp_at(rows, tokens).sum()),
                      gradient=weighted_score(params, rows, tokens, np.full(len(rows), -1.0)),
                      aux={"teacher_index": float(idx), "demo_len": float(len(demo))})


def grpo_loss_grad(params: PolicyParams, ref: PolicyParams, group: GroupRollout,
                   cfg: MixConfig) -> LossReport:
    """Clipped surrogate loss with KL penalty, group-standardized advantages.

    Each trajectory has one ratio, taken against the group's recorded
    ``sample_logp``: data, not parameters, so in training (sampler = current
    policy) every ratio is exactly 1, and finite differences certify the
    surrogate that training differentiates. The KL penalty anchors to the
    frozen reference. At clip kinks the unclipped branch wins, so the
    gradient is the exact one-sided derivative of the reported expression.
    """
    if group.advantages is None:
        raise StateError("group advantages are not populated")
    k = group.k
    if k < 2:
        raise InputError("grpo_loss_grad needs a group of >= 2")
    check_shared_interner(params, ref)
    lo, hi = 1.0 - cfg.epsilon_clip, 1.0 + cfg.epsilon_clip
    ratios = np.exp(group.log_ratios(params))
    rows, tokens, lengths = group.step_rows(params)
    adv = np.asarray(group.advantages, dtype=np.float64)
    unclipped = ratios * adv
    clipped = np.clip(ratios, lo, hi) * adv
    surrogate = float(np.minimum(unclipped, clipped).sum())
    coef = np.where(unclipped <= clipped, adv * ratios, 0.0)
    pg = weighted_score(params, rows, tokens, np.repeat(coef, lengths))
    # both blocks cover exactly the unique visited rows, in the same order
    kl_value, kl = kl_gradient(params, ref, pg.rows)
    gradient = RowBlock(pg.rows, (-1.0 / k) * pg.values + cfg.beta_kl * kl.values)
    return LossReport(loss=-surrogate / k + cfg.beta_kl * kl_value, gradient=gradient,
                      aux={"kl_value": kl_value, "mean_ratio": float(ratios.mean())})


def grpo_policy_gradient(params: PolicyParams, group: GroupRollout) -> RowBlock:
    """Unclipped advantage-weighted score estimator (1/k) sum A_i * score_i.

    This is the quantity whose variance the benches measure; it is returned
    separately from grpo_loss_grad so clipping and the KL term never leak
    into variance measurements. Trajectories with zero advantage are skipped,
    so all-zero advantages give an empty block.
    """
    if group.advantages is None:
        raise StateError("group advantages are not populated")
    rows, tokens, lengths = group.step_rows(params)
    weights = np.repeat((1.0 / group.k) * np.asarray(group.advantages, dtype=np.float64),
                        lengths)
    keep = weights != 0.0
    return weighted_score(params, rows[keep], tokens[keep], weights[keep])


def build_pairs(group: GroupRollout, pair_cap: int, rng: np.random.Generator) -> np.ndarray:
    """(success, failure) pairs from one Mid group, as an ``(n, 2)`` array of
    indices into ``group.trajectories``.

    Full Cartesian product when it fits under pair_cap, otherwise a uniform
    random subset of exactly pair_cap distinct pairs.
    """
    if group.grade is not DifficultyGrade.MID:
        raise StateError("pair construction requires a Mid-graded group")
    if pair_cap < 1:
        raise InputError(f"pair_cap must be >= 1, got {pair_cap}")
    rewards = np.asarray(group.rewards)
    successes = np.flatnonzero(rewards == 1)
    failures = np.flatnonzero(rewards == 0)
    n_f = len(failures)
    n_pairs = len(successes) * n_f
    if n_pairs <= pair_cap:
        chosen = np.arange(n_pairs)
    else:
        chosen = rng.choice(n_pairs, size=pair_cap, replace=False)
    return np.stack([successes[chosen // n_f], failures[chosen % n_f]], axis=1)


def gal_loss_grad(params: PolicyParams, ref: PolicyParams, group: GroupRollout,
                  pairs: np.ndarray, cfg: MixConfig) -> LossReport:
    """Pairwise contrastive alignment loss over (success, failure) rollouts.

    ``pairs`` holds (success, failure) indices into ``group.trajectories``,
    as ``build_pairs`` returns them. Per pair, d is the policy-vs-reference
    log-ratio margin between the successful and the failed trajectory and
    the loss is -log sigmoid(beta*d). The gradient weight 1 - sigmoid(beta*d)
    is strictly inside (0,1), which is what bounds and eventually anneals
    this estimator's variance.
    """
    pairs = np.asarray(pairs, dtype=np.intp)
    k = group.k
    if pairs.size == 0:
        raise InputError("gal_loss_grad needs at least one pair")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InputError(f"pairs must have shape (n, 2), got {pairs.shape}")
    # a plain loop: a group has few pairs, and numpy's per-call cost dominates
    rewards = group.rewards
    for win, lose in pairs.tolist():
        if not (0 <= win < k and 0 <= lose < k):
            raise InputError(f"pair indices must lie in [0, {k}), got ({win}, {lose})")
        if rewards[win] != 1 or rewards[lose] != 0:
            raise InputError("each pair must be (reward-1, reward-0) in that order")
    check_shared_interner(params, ref)
    beta = cfg.beta_gal
    win, lose = pairs[:, 0], pairs[:, 1]
    rows, tokens, lengths = group.step_rows(params)
    traj = np.repeat(np.arange(k), lengths)
    log_ratio = (np.bincount(traj, weights=params.logp_at(rows, tokens), minlength=k)
                 - np.bincount(traj, weights=ref.logp_at(rows, tokens), minlength=k))
    d = log_ratio[win] - log_ratio[lose]
    weights = expit(-beta * d)
    coef = -beta * weights / len(pairs)
    traj_coef = np.bincount(win, weights=coef, minlength=k) - np.bincount(
        lose, weights=coef, minlength=k)
    # the gradient's rows are those of the paired trajectories only
    paired = np.zeros(k, dtype=bool)
    paired[pairs] = True
    keep = paired[traj]
    return LossReport(
        loss=float(np.logaddexp(0.0, -beta * d).mean()),  # -log sigmoid(beta d)
        gradient=weighted_score(params, rows[keep], tokens[keep], traj_coef[traj[keep]]),
        aux={
            "eta": float(np.mean(weights**2)),
            "pair_count": float(len(pairs)),
            "weight_min": float(weights.min()),
            "weight_max": float(weights.max()),
        },
    )


def mixed_gradient(g_grpo: RowBlock, g_gal: RowBlock, alpha: float) -> RowBlock:
    """Convex combination alpha * g_grpo + (1 - alpha) * g_gal."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0,1), got {alpha}")
    return sum_blocks([(alpha, g_grpo), (1.0 - alpha, g_gal)])


def dypo_step_loss(params: PolicyParams, ref: PolicyParams,
                   group: GroupRollout, teachers: Sequence[TeacherOracle],
                   cfg: MixConfig, rng: np.random.Generator) -> LossReport:
    """Route one graded group to its pathway and return the dispatched report.

    Easy groups contribute exactly zero loss and gradient; Hard groups return
    gamma-scaled distillation; Mid groups return the alpha-mixture of the
    clipped surrogate and the pairwise alignment loss.
    """
    g = group.grade
    if g is DifficultyGrade.EASY:
        empty = RowBlock(np.zeros(0, dtype=np.intp), np.zeros((0, params.vocab_size)))
        return LossReport(loss=0.0, gradient=empty, aux={"grade": g.value})
    if g is DifficultyGrade.HARD:
        sft = sft_loss_grad(params, group.query, teachers, rng)
        aux = dict(sft.aux)
        aux["grade"] = g.value
        return LossReport(loss=cfg.gamma * sft.loss,
                          gradient=sft.gradient.scaled(cfg.gamma), aux=aux)
    pairs = build_pairs(group, cfg.pair_cap, rng)
    grpo = grpo_loss_grad(params, ref, group, cfg)
    gal = gal_loss_grad(params, ref, group, pairs, cfg)
    loss = cfg.alpha * grpo.loss + (1.0 - cfg.alpha) * gal.loss
    gradient = mixed_gradient(grpo.gradient, gal.gradient, cfg.alpha)
    aux = {"grade": g.value}
    aux.update(grpo.aux)
    aux.update(gal.aux)
    return LossReport(loss=loss, gradient=gradient, aux=aux)
