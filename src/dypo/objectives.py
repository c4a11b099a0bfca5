"""Loss values and exact gradients for every optimization pathway, and the
gate (``route_groups``) that sends each graded group to one of them.

GRPO, its estimator, GAL and their mixture are each one pass over a batch of
groups (``GroupBatch``): every group's loss, and gradients keyed by (group,
row), so each group keeps the row block it would have alone. The per-group
functions (``grpo_loss_grad``, ``gal_loss_grad``, ``dypo_step_loss``, ...)
are those passes, or the gate, over one group, which is what finite
differences certify. Each returns a LossReport: scalar loss, exact gradient as a row
block over the logit table, and named aux values. Gradients are exact for
the reported loss expression.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import grading
from .errors import ConfigError, InputError, StateError
from .grading import DifficultyGrade
from .policy import (
    KeyedBlocks,
    KeyIndex,
    PolicyParams,
    RowBlock,
    StepRows,
    Trajectory,
    check_shared_interner,
    keyed_score,
    kl_gradient,
    sample_lockstep,
    sum_blocks,
    weighted_score,
)
from .tasks import Query, TeacherOracle, batch_reward, teacher_sample


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


class GroupRollout:
    """k rollouts for one query, with rewards and standardized advantages.

    The group owns the rows of its trajectories' steps, read through
    ``step_rows``: a sampled group (``rollout_groups``) keeps the rows it was
    sampled with, and builds its ``Trajectory`` objects from them only when
    they are read; a group built from given trajectories resolves their rows
    once, on first use, and keeps them. ``sample_logp`` is the sampling
    policy's log-prob of every step, which GRPO's ratios read: a sampled
    group records it as it is sampled; a group built from trajectories has
    it set by whoever built it, or lacks it.
    """

    def __init__(self, query: Query, trajectories: Sequence[Trajectory] | None,
                 rewards: Sequence[int], advantages: np.ndarray | None = None,
                 rows: StepRows | None = None, sample_logp: np.ndarray | None = None):
        self.query = query
        self.rewards = tuple(rewards)
        self.advantages = advantages
        self.rows = rows
        self.sample_logp = sample_logp
        if trajectories is not None:  # None: a sampled group, see ``sampled``
            self.trajectories = tuple(trajectories)
            self.lengths = np.array([len(t) for t in self.trajectories])
            if len(self.trajectories) != self.k:
                raise InputError("trajectories and rewards must have equal length")
        if advantages is not None and len(advantages) != self.k:
            raise InputError("advantages length must match rewards")

    @classmethod
    def sampled(cls, query: Query, rewards: Sequence[int], grade: DifficultyGrade,
                advantages: np.ndarray, rows: StepRows, lengths: np.ndarray,
                terminal: np.ndarray, sample_logp: np.ndarray) -> GroupRollout:
        """A group as the sampler returns it: graded, with its steps' rows and
        sampling log-probs and every trajectory's length and terminal flag."""
        group = cls(query, None, rewards, advantages, rows, sample_logp)
        group.grade, group.lengths, group._terminal = grade, lengths, terminal
        return group

    @cached_property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """A sampled group's trajectories, built from its steps on first read."""
        ends = np.cumsum(self.lengths).tolist()
        tokens = self.rows.steps[1].tolist()
        return tuple(Trajectory(tuple(tokens[lo:hi]), terminal=bool(term))
                     for lo, hi, term in zip([0] + ends, ends, self._terminal))

    @property
    def k(self) -> int:
        return len(self.rewards)

    @cached_property
    def grade(self) -> DifficultyGrade:
        """Difficulty grade of the reward pattern, computed once per group."""
        return grading.grade(self.rewards)

    def _steps(self, params: PolicyParams) -> np.ndarray:
        """The ``(2, steps)`` int32 rows and tokens in ``params``' interner."""
        if self.rows is None:
            parts = [params.trajectory_rows(self.query.query_id, t.tokens)
                     for t in self.trajectories]
            self.rows = StepRows(params.interner,
                                 np.concatenate(parts, axis=1).astype(np.int32))
        elif self.rows.interner is not params.interner:
            raise InputError("the group's rows belong to another policy's interner")
        else:
            params._fit()
        return self.rows.steps

    def step_rows(self, params: PolicyParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, tokens, lengths) of the group's steps in ``params``' interner.

        Rows kept for another interner are an ``InputError``.
        """
        rows, tokens = self._steps(params)
        return rows, tokens, self.lengths

    def alone(self, params: PolicyParams) -> GroupBatch:
        """The group as a batch of one."""
        return GroupBatch(params, [self])


class GroupBatch:
    """The steps of several groups, concatenated once: what every loss pass reads.

    ``rows`` and ``tokens`` (intp) hold every step of every group in group
    order, ``traj`` each step's trajectory and ``owner`` each trajectory's
    group. A pass gathers its gradient under ``index``, the steps'
    ``(group, row)`` keys, so every group keeps its own row block
    (``KeyedBlocks``). ``advantages``, ``sample_logp`` and ``rewards`` read
    the groups' own. Groups whose rows belong to another interner are an
    ``InputError``.
    """

    def __init__(self, params: PolicyParams, groups: Sequence[GroupRollout]):
        if len(groups) == 0:
            raise InputError("a group batch needs at least one group")
        steps = [g._steps(params) for g in groups]
        rows, tokens = np.concatenate(steps, axis=1, dtype=np.intp)
        # after the steps: resolving a group's rows may intern new contexts
        span = len(params.interner.contexts)
        self._setup(groups, rows, tokens, [s.shape[1] for s in steps], span, params.vocab_size)

    @classmethod
    def tiled(cls, params: PolicyParams, group: GroupRollout, rows: np.ndarray) -> GroupBatch:
        """The group once per row of ``rows``, a ``(count, steps)`` array:
        copy i reads its steps at ``rows[i]`` instead of the group's own rows,
        which may be extra rows of ``params`` (``PolicyParams.with_rows``).
        Built from the group's step arrays, tiled."""
        count, steps = rows.shape
        tokens = np.tile(group._steps(params)[1].astype(np.intp), count)
        span = max(len(params.interner.contexts), int(rows.max()) + 1)
        batch = cls.__new__(cls)
        batch._setup((group,) * count, rows.ravel(), tokens, [steps] * count, span,
                     params.vocab_size)
        return batch

    def _setup(self, groups: Sequence[GroupRollout], rows: np.ndarray, tokens: np.ndarray,
               steps: list[int], span: int, vocab_size: int) -> None:
        """Hold the groups and their steps, ``steps[i]`` of them group i's,
        keyed by (group, row) with rows below ``span``."""
        self.groups = tuple(groups)
        self.count = len(self.groups)
        self.rows, self.tokens = rows, tokens
        self.lengths = np.concatenate([g.lengths for g in self.groups])
        self.k = np.array([g.k for g in self.groups])
        self.traj = np.repeat(np.arange(len(self.lengths)), self.lengths)
        if self.count == 1:  # owner 0: the keys are the rows
            keys = self.rows
        else:
            keys = np.repeat(np.arange(self.count), steps) * span + self.rows
        self.index = KeyIndex(keys, self.tokens, span, self.count, vocab_size)

    @property
    def advantages(self) -> np.ndarray:
        """Every trajectory's advantage, group by group."""
        parts = [g.advantages for g in self.groups]
        if any(part is None for part in parts):
            raise StateError("group advantages are not populated")
        return np.concatenate(parts, dtype=np.float64)

    @property
    def sample_logp(self) -> np.ndarray:
        """Every step's sampling log-prob, as the groups recorded them."""
        parts = [g.sample_logp for g in self.groups]
        if any(part is None for part in parts):
            raise StateError("group sampling log-probs are not recorded")
        return np.concatenate(parts)

    @property
    def owner(self) -> np.ndarray:
        """Each trajectory's group."""
        return np.repeat(np.arange(self.count), self.k)

    @cached_property
    def rewards(self) -> np.ndarray:
        """Every trajectory's reward, group by group."""
        return np.concatenate([g.rewards for g in self.groups])

    @cached_property
    def spans(self) -> np.ndarray:
        """Each group's (first trajectory, trajectory count) row, unsigned for
        the pair check's range comparison."""
        return np.stack([np.cumsum(self.k) - self.k, self.k], axis=1).astype(np.uintp)

    def log_ratios(self, params: PolicyParams) -> np.ndarray:
        """log(pi_params / pi_sampling) of every trajectory, against ``sample_logp``."""
        return np.bincount(self.traj, weights=params.logp_at(self.rows, self.tokens)
                           - self.sample_logp, minlength=len(self.lengths))


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``values`` summed over runs of ``counts[i]`` consecutive entries, each
    bit for bit as ``np.sum`` of the run alone: runs of one length are summed
    as the rows of one matrix, which numpy reduces as it reduces a lone run."""
    lengths = counts.tolist()
    if lengths.count(lengths[0]) == len(lengths):
        return values.reshape(len(lengths), -1).sum(axis=1)
    runs: dict[int, list[int]] = {}
    for i, n in enumerate(lengths):
        runs.setdefault(n, []).append(i)
    starts = np.cumsum(counts) - counts
    out = np.empty(len(lengths))
    for n, owners in runs.items():
        out[owners] = values[starts[owners][:, None] + np.arange(n)].sum(axis=1)
    return out


@dataclass
class LossReport:
    """Scalar loss plus exact gradient; the unit of all oracle comparisons."""

    loss: float
    gradient: RowBlock
    aux: dict = field(default_factory=dict)


@dataclass
class BatchReport:
    """One loss pass over a ``GroupBatch``.

    ``loss`` and every ``aux`` array hold one entry per group; the gradient
    is keyed by (group, row). The alignment loss also returns its per-pair
    weights, group by group, ``aux["pair_count"]`` of them each.
    """

    loss: np.ndarray
    gradient: KeyedBlocks
    aux: dict[str, np.ndarray]
    weights: np.ndarray | None = None

    def reports(self) -> list[LossReport]:
        """Each group's ``LossReport``, as the per-group loss functions return it."""
        aux = {name: v.tolist() for name, v in self.aux.items()}
        out = [LossReport(loss, block, {name: float(v[i]) for name, v in aux.items()})
               for i, (loss, block) in enumerate(zip(self.loss.tolist(), self.gradient.blocks()))]
        if self.weights is not None:
            ends = list(accumulate(aux["pair_count"]))
            for report, lo, hi in zip(out, [0] + ends, ends):
                report.aux["weights"] = self.weights[lo:hi]
        return out


def gal_etas(report: BatchReport) -> np.ndarray:
    """Each group's discrimination difficulty eta, the mean squared pair weight."""
    counts = report.aux["pair_count"]
    return _segment_sums(report.weights**2, counts) / counts


def standardize_advantages(rewards: Sequence[float] | np.ndarray, xi: float) -> np.ndarray:
    """Group-standardized advantages (R - mean) / (population std + xi) of one
    group's rewards, or of each row of a ``(groups, k)`` reward matrix."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.shape[-1] < 2:
        raise InputError("advantage standardization needs a group of >= 2")
    if xi <= 0:
        raise InputError(f"xi must be > 0, got {xi}")
    dev = r - r.mean(axis=-1, keepdims=True)
    return dev / (np.sqrt((dev * dev).mean(axis=-1, keepdims=True)) + xi)


def rollout_groups(params: PolicyParams, queries: Sequence[Query], k: int,
                   rng: np.random.Generator, *, xi: float, stop_token: int, t_max: int,
                   only: DifficultyGrade | None = None) -> list[GroupRollout]:
    """k rollouts for each query, sampled together by ``sample_lockstep``, as
    graded groups with rewards and standardized advantages, in query order.

    With ``only``, just the groups of that grade are returned. Rewards and
    advantages are computed over the whole batch. The groups share one int32
    ``(2, steps)`` array of exactly their own steps (the sampler's, when every
    group is kept), each a slice of it, with its steps' log-probs under
    ``params``, the sampling policy, as its ``sample_logp``.
    """
    sampled = sample_lockstep(params, [q.query_id for q in queries], k, rng,
                              stop_token=stop_token, t_max=t_max)
    rewards = batch_reward(queries, sampled.steps[1], sampled.lengths,
                           sampled.terminal).reshape(-1, k)
    reward_rows = [tuple(r) for r in rewards.tolist()]
    grades = [grading.grade(r) for r in reward_rows]
    kept = np.array([only is None or grade is only for grade in grades])
    if not kept.any():
        return []
    keep = np.flatnonzero(kept).tolist()
    lengths = sampled.lengths.reshape(-1, k)
    steps = sampled.steps
    if not kept.all():  # the kept groups' steps, by one step mask
        steps = steps.compress(np.repeat(kept, lengths.sum(axis=1)), axis=1)
        lengths = lengths[kept]
    ends = np.cumsum(lengths.sum(axis=1)).tolist()
    terminal = sampled.terminal.reshape(-1, k)[kept]
    advantages = standardize_advantages(rewards[kept], xi)
    logp = params.logp_at(*steps)
    return [GroupRollout.sampled(queries[g], reward_rows[g], grades[g], advantages[i],
                                 StepRows(params.interner, steps[:, lo:hi]), lengths[i],
                                 terminal[i], logp[lo:hi])
            for i, (g, lo, hi) in enumerate(zip(keep, [0] + ends, ends))]


def draw_demo(query: Query, teachers: Sequence[TeacherOracle],
              rng: np.random.Generator) -> tuple[int, Trajectory]:
    """``sft_loss_grad``'s draws: a teacher index, uniform over teachers, and
    that teacher's demonstration."""
    if len(teachers) == 0:
        raise ConfigError("sft_loss_grad needs at least one teacher")
    idx = int(rng.integers(len(teachers)))
    return idx, teacher_sample(teachers[idx], query, rng)


def sft_loss_grad(params: PolicyParams, query: Query, teachers: Sequence[TeacherOracle],
                  rng: np.random.Generator) -> LossReport:
    """Negative log-likelihood of a demonstration drawn uniformly over teachers."""
    idx, demo = draw_demo(query, teachers, rng)
    rows, tokens = params.trajectory_rows(query.query_id, demo.tokens)
    return LossReport(loss=-float(params.logp_at(rows, tokens).sum()),
                      gradient=weighted_score(params, rows, tokens, np.full(len(rows), -1.0)),
                      aux={"teacher_index": float(idx), "demo_len": float(len(demo))})


def grpo_pass(params: PolicyParams, ref: PolicyParams, batch: GroupBatch,
              cfg: MixConfig) -> BatchReport:
    """Clipped surrogate loss with KL penalty of every group of the batch.

    Each trajectory has one ratio, taken against its group's recorded
    ``sample_logp``: data, not parameters, so in training (sampler = current
    policy) every ratio is exactly 1, and finite differences certify the
    surrogate that training differentiates. The KL penalty anchors to the
    frozen reference. At clip kinks the unclipped branch wins, so the
    gradient is the exact one-sided derivative of the reported expression.
    ``aux`` holds each group's ``kl_value``; the ratios themselves are
    ``exp(batch.log_ratios(params))``, for whoever reads them.
    """
    adv = batch.advantages
    if any(g.k < 2 for g in batch.groups):
        raise InputError("grpo_loss_grad needs a group of >= 2")
    check_shared_interner(params, ref)
    lo, hi = 1.0 - cfg.epsilon_clip, 1.0 + cfg.epsilon_clip
    ratios = np.exp(batch.log_ratios(params))
    unclipped = ratios * adv
    clipped = np.minimum(np.maximum(ratios, lo), hi) * adv
    surrogate = _segment_sums(np.minimum(unclipped, clipped), batch.k)
    coef = np.where(unclipped <= clipped, adv * ratios, 0.0)
    index = batch.index
    pg = keyed_score(params, index, coef[batch.traj])
    kl_value, kl = kl_gradient(params, ref, index)
    gradient = pg._replace(values=(-1.0 / batch.k)[index.owner][:, None] * pg.values
                           + cfg.beta_kl * kl)
    return BatchReport(loss=-surrogate / batch.k + cfg.beta_kl * kl_value, gradient=gradient,
                       aux={"kl_value": kl_value})


def grpo_loss_grad(params: PolicyParams, ref: PolicyParams, group: GroupRollout,
                   cfg: MixConfig) -> LossReport:
    """``grpo_pass`` over the group alone."""
    return grpo_pass(params, ref, group.alone(params), cfg).reports()[0]


def grpo_estimator(params: PolicyParams, batch: GroupBatch) -> KeyedBlocks:
    """Unclipped advantage-weighted score estimator (1/k) sum A_i * score_i of
    every group of the batch.

    This is the quantity whose variance the benches measure; it is separate
    from ``grpo_pass`` so clipping and the KL term never leak into variance
    measurements. Trajectories with zero advantage are skipped, so a group
    whose advantages are all zero has an empty block.
    """
    weights = ((1.0 / batch.k)[batch.owner] * batch.advantages)[batch.traj]
    keep = weights != 0.0
    return keyed_score(params, batch.index, weights, keep)


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


def pair_arrays(groups: Sequence[GroupRollout], pair_cap: int,
                rng: np.random.Generator) -> list[np.ndarray]:
    """``build_pairs`` of every group, as one call per group would make them.

    Only the groups whose product exceeds ``pair_cap`` draw their subsets
    from ``rng``, in group order; the full products of all the others are
    built in one vectorized pass per group size.
    """
    if pair_cap < 1:
        raise InputError(f"pair_cap must be >= 1, got {pair_cap}")
    out: list[np.ndarray | None] = [None] * len(groups)
    full: dict[int, list[int]] = {}  # group size -> indices of uncapped groups
    for i, group in enumerate(groups):
        wins = sum(group.rewards)
        if group.grade is DifficultyGrade.MID and wins * (group.k - wins) <= pair_cap:
            full.setdefault(group.k, []).append(i)
        else:  # a capped group draws its subset; any other grade is its StateError
            out[i] = build_pairs(group, pair_cap, rng)
    for indices in full.values():
        won = np.array([groups[i].rewards for i in indices]) == 1
        owner, win, lose = np.nonzero(won[:, :, None] & ~won[:, None, :])
        pairs = np.stack([win, lose], axis=1)
        ends = np.cumsum(np.bincount(owner, minlength=len(indices))).tolist()
        for i, lo, hi in zip(indices, [0] + ends, ends):
            out[i] = pairs[lo:hi]
    return out


def _batch_pairs(batch: GroupBatch, pairs: Sequence[np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Each group's pair count, and all pairs as indices into the batch's
    trajectories. The first bad group, in batch order, is its own
    ``InputError``: no pairs, then a shape other than ``(n, 2)``, then its
    first bad pair, out of range before out of (reward-1, reward-0) order.
    """
    pairs = [np.asarray(p, dtype=np.intp) for p in pairs]
    shaped = [p.size > 0 and p.ndim == 2 and p.shape[1] == 2 for p in pairs]
    ill = shaped.index(False) if False in shaped else len(pairs)
    # only the groups before the first ill-shaped one can raise before it
    counts = np.array([len(p) for p in pairs[:ill]], dtype=np.intp)
    local = np.concatenate(pairs[:ill]) if ill else np.zeros((0, 2), dtype=np.intp)
    spans = np.repeat(batch.spans[:ill], counts, axis=0)
    # a negative index reads as a huge unsigned one: one comparison checks both bounds
    in_range = local.view(np.uintp) < spans[:, 1:]
    traj_pairs = local + spans[:, :1].view(np.intp)
    # an index out of range reads a clipped reward, but fails the range check
    good = in_range & (batch.rewards.take(traj_pairs, mode="clip") == (1, 0))
    if not good.all():
        bad = good.all(axis=1).argmin()
        win, lose = local[bad].tolist()
        if not in_range[bad].all():
            raise InputError(f"pair indices must lie in [0, {spans[bad, 1]}), got ({win}, {lose})")
        raise InputError("each pair must be (reward-1, reward-0) in that order")
    if ill < len(pairs):
        if pairs[ill].size == 0:
            raise InputError("gal_loss_grad needs at least one pair")
        raise InputError(f"pairs must have shape (n, 2), got {pairs[ill].shape}")
    return counts, traj_pairs


# log of the largest double: above it math.exp raises OverflowError where
# C's exp returns inf
_EXP_ARG_MAX = math.log(sys.float_info.max)


def _expit(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) over a 1-D float array, with the C library's exp
    (``math.exp``) entry by entry: bit for bit what ``scipy.special.expit``
    returns, including 0.0 where exp(-x) overflows, nan and +-inf."""
    neg = (-x).tolist()
    try:
        e = np.fromiter(map(math.exp, neg), float, len(neg))
    except OverflowError:
        e = np.fromiter((math.inf if v > _EXP_ARG_MAX else math.exp(v) for v in neg),
                        float, len(neg))
    return 1.0 / (1.0 + e)


def gal_pass(params: PolicyParams, ref: PolicyParams, batch: GroupBatch,
             pairs: Sequence[np.ndarray], cfg: MixConfig) -> BatchReport:
    """Pairwise contrastive alignment loss over (success, failure) rollouts of
    every group of the batch.

    ``pairs[i]`` holds group i's (success, failure) indices into its
    trajectories, as ``build_pairs`` returns them. Per pair, d is the
    policy-vs-reference log-ratio margin between the successful and the
    failed trajectory and the loss is -log sigmoid(beta*d), averaged over the
    group's pairs. The gradient weight 1 - sigmoid(beta*d) is strictly inside
    (0,1), which is what bounds and eventually anneals this estimator's
    variance; the pass returns the weights and leaves their reductions
    (``gal_etas``, the range) to whoever reads them. The sigmoid uses the C
    library's exp, not ``np.exp``, whose SIMD kernel can differ in the last bit
    and would move every seeded run.
    """
    if len(pairs) != batch.count:
        raise InputError(f"need one pair array per group, got {len(pairs)} for {batch.count}")
    counts, traj_pairs = _batch_pairs(batch, pairs)
    check_shared_interner(params, ref)
    beta = cfg.beta_gal
    win, lose = traj_pairs[:, 0], traj_pairs[:, 1]
    n = len(batch.lengths)
    log_ratio = (np.bincount(batch.traj, weights=params.logp_at(batch.rows, batch.tokens),
                             minlength=n)
                 - np.bincount(batch.traj, weights=ref.logp_at(batch.rows, batch.tokens),
                               minlength=n))
    margin = -beta * (log_ratio[win] - log_ratio[lose])  # -beta * d
    weights = _expit(margin)
    coef = -beta * weights / np.repeat(counts, counts)
    traj_coef = np.bincount(win, weights=coef, minlength=n) - np.bincount(
        lose, weights=coef, minlength=n)
    # the gradient's rows are those of the paired trajectories only
    paired = np.zeros(n, dtype=bool)
    paired[traj_pairs] = True
    keep = paired[batch.traj]
    return BatchReport(
        loss=_segment_sums(np.logaddexp(0.0, margin), counts) / counts,  # -log sigmoid(beta d)
        gradient=keyed_score(params, batch.index, traj_coef[batch.traj], keep),
        aux={"pair_count": counts},
        weights=weights,
    )


def gal_loss_grad(params: PolicyParams, ref: PolicyParams, group: GroupRollout,
                  pairs: np.ndarray, cfg: MixConfig) -> LossReport:
    """``gal_pass`` over the group alone; ``aux["weights"]`` are its pair weights."""
    return gal_pass(params, ref, group.alone(params), [pairs], cfg).reports()[0]


def mixed_gradient(g_grpo: RowBlock, g_gal: RowBlock, alpha: float) -> RowBlock:
    """Convex combination alpha * g_grpo + (1 - alpha) * g_gal."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0,1), got {alpha}")
    return sum_blocks([(alpha, g_grpo), (1.0 - alpha, g_gal)])


def mixed_keyed(g_grpo: KeyedBlocks, g_gal: KeyedBlocks, alpha: float) -> KeyedBlocks:
    """``mixed_gradient`` of two keyed gradients of one batch, group by group."""
    mixed = mixed_gradient(RowBlock(g_grpo.keys, g_grpo.values),
                           RowBlock(g_gal.keys, g_gal.values), alpha)
    return g_grpo._replace(keys=mixed.rows, values=mixed.values)


def mixed_pass(params: PolicyParams, ref: PolicyParams, batch: GroupBatch,
               pairs: Sequence[np.ndarray], cfg: MixConfig) -> BatchReport:
    """The alpha-mixture of ``grpo_pass`` and ``gal_pass``, Mid groups' pathway."""
    grpo = grpo_pass(params, ref, batch, cfg)
    gal = gal_pass(params, ref, batch, pairs, cfg)
    return BatchReport(loss=cfg.alpha * grpo.loss + (1.0 - cfg.alpha) * gal.loss,
                       gradient=mixed_keyed(grpo.gradient, gal.gradient, cfg.alpha),
                       aux={**grpo.aux, **gal.aux}, weights=gal.weights)


# the gate: each variant's pathway per grade, None for a discarded group
PATHWAYS = {
    "dypo": {DifficultyGrade.EASY: None, DifficultyGrade.HARD: "distill",
             DifficultyGrade.MID: "rl"},
    "sft_only": dict.fromkeys(DifficultyGrade, "distill"),
    "grpo_only": dict.fromkeys(DifficultyGrade, "rl"),
}
VARIANTS = tuple(PATHWAYS)


def route_groups(params: PolicyParams, ref: PolicyParams, groups: Sequence[GroupRollout],
                 teachers: Sequence[TeacherOracle], cfg: MixConfig, rng: np.random.Generator,
                 variant: str = "dypo") -> tuple[LossReport, BatchReport | None]:
    """The step: the mean loss and gradient of the groups not discarded, each
    from its pathway ``PATHWAYS[variant][grade]`` (each row adds its groups'
    terms in group order, as ``sum_blocks``; no group gives a zero loss and an
    empty block), and the RL pass's report, or ``None``. ``rng`` draws the
    capped Mid groups' pairs (``pair_arrays``), then the distilled groups'
    teachers, each in group order. A distilled term is gamma times
    ``sft_loss_grad``; the RL terms are the ``reports()`` of one
    ``mixed_pass`` under ``dypo``, else of one ``grpo_pass``.
    """
    if variant not in PATHWAYS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
    routes = [PATHWAYS[variant][group.grade] for group in groups]
    rl = [i for i, route in enumerate(routes) if route == "rl"]
    mixed = variant == "dypo"
    pairs = pair_arrays([groups[i] for i in rl], cfg.pair_cap, rng) if mixed else None
    terms: dict[int, LossReport] = {}  # by group index, the dispatched groups only
    for i, route in enumerate(routes):
        if route == "distill":
            sft = sft_loss_grad(params, groups[i].query, teachers, rng)
            terms[i] = LossReport(cfg.gamma * sft.loss, sft.gradient.scaled(cfg.gamma))
    passed = None
    if rl:
        batch = GroupBatch(params, [groups[i] for i in rl])
        passed = (mixed_pass(params, ref, batch, pairs, cfg) if mixed
                  else grpo_pass(params, ref, batch, cfg))
        terms.update(zip(rl, passed.reports()))
    if not terms:
        empty = RowBlock(np.zeros(0, dtype=np.intp), np.zeros((0, params.vocab_size)))
        return LossReport(0.0, empty), passed
    kept = [terms[i] for i in sorted(terms)]
    gradient = sum_blocks([(1.0, term.gradient) for term in kept]).scaled(1.0 / len(kept))
    return LossReport(sum(term.loss for term in kept) / len(kept), gradient), passed


def dypo_step_loss(params: PolicyParams, ref: PolicyParams,
                   group: GroupRollout, teachers: Sequence[TeacherOracle],
                   cfg: MixConfig, rng: np.random.Generator) -> LossReport:
    """The ``dypo`` step (``route_groups``) over the group alone, with the
    group's grade as ``aux["grade"]``: zero for an Easy group, gamma-scaled
    distillation for a Hard one and the alpha-mixture of the clipped
    surrogate and the pairwise alignment loss for a Mid one.
    """
    report, _ = route_groups(params, ref, [group], teachers, cfg, rng)
    report.aux["grade"] = group.grade.value
    return report
