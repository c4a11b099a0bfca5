"""Loss values and exact gradients for every optimization pathway, and the
gate (``route_groups``) that sends each graded group to one of them.

A step is one ``GroupBatch``, the arrays of its graded groups, built whole
by the sampler (``rollout_groups``) and read up to the update. GRPO, its
estimator, GAL and their mixture are each one pass over a batch: every
group's loss, and gradients keyed by (group, row), so each group keeps the
row block it would have alone; GAL's pairs are one product over the batch
(``pair_arrays``). A group built by hand (``GroupBatch.of``) is a batch of
one, whose keys are its rows; it is what finite differences certify. SFT
distillation is one pass too (``sft_pass``), keyed by (query, row); the
mixture is formed on GRPO's keys (``mixed_keyed``). Gradients
are exact for the reported loss expression. Each loss expression is one
function (``grpo_loss``, ``gal_loss``, ``mixed_loss``, ``demo_nll``) that
returns the terms its gradient reads; a pass builds its gradient on them, and
finite differences evaluate them alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import grading
from .errors import ConfigError, InputError, StateError
from .grading import DifficultyGrade
from .policy import (
    ContextInterner,
    KeyedBlocks,
    KeyIndex,
    OwnerKL,
    PolicyParams,
    RowBlock,
    Trajectory,
    check_shared_interner,
    keyed_score,
    kl_gradient,
    memo,
    owner_kl,
    sample_lockstep,
    sum_rows,
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


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The index ranges ``starts[i]`` to ``starts[i] + sizes[i] - 1``, one after another."""
    ends = sizes.cumsum()
    return (starts + sizes - ends).repeat(sizes) + np.arange(np.add.reduce(sizes))


class GroupBatch:
    """Groups as one set of arrays, never one object per group: what
    ``rollout_groups`` returns and every loss pass reads.

    Per group, 1-D: ``queries`` (the objects), ``grade`` (the codes of
    ``grading.grades``) and size ``k``; ``select``, ``concat`` and ``tiled``
    take every array whole, so they stay together. Per trajectory, group by
    group: ``rewards``, ``advantages``, ``lengths`` and ``terminal``. Per
    step: ``steps``, every step's row in ``interner`` and token as one
    ``(2, steps)`` intp array (``rows`` and ``tokens`` are its views), and
    ``sample_logp``, its log-prob under the policy that sampled it. Every
    batch has all of them, as ``rollout_groups`` and ``of`` build it, and
    ``sampled_by``, the sampling policy and its ``generation`` then, or
    ``None`` (a ``tiled`` batch, one built with other log-probs): at that
    policy, unwritten since, a pass reads ``sample_logp`` (``logp``).
    """

    def __init__(self, interner: ContextInterner, queries: np.ndarray, grade: np.ndarray,
                 k: np.ndarray, rewards: np.ndarray, advantages: np.ndarray,
                 lengths: np.ndarray, terminal: np.ndarray, steps: np.ndarray,
                 sample_logp: np.ndarray, sampled_by: tuple[PolicyParams, int] | None = None):
        self.interner, self.queries, self.grade, self.count = interner, queries, grade, len(queries)
        self.k, self.rewards, self.lengths, self.terminal = k, rewards, lengths, terminal
        self.advantages, self.steps, self.sample_logp = advantages, steps, sample_logp
        self.rows, self.tokens = steps
        self.sampled_by = sampled_by
        self.first = k.cumsum() - k  # each group's first trajectory
        self._index: KeyIndex | None = None

    def __len__(self) -> int:
        return self.count

    @classmethod
    def of(cls, sampler: PolicyParams, query: Query, trajectories: Sequence[Trajectory],
           rewards: Sequence[int], advantages: Sequence[float]) -> GroupBatch:
        """One group built by hand: k given trajectories for ``query``, with
        their rewards and advantages, as ``sampler`` sampled them. Its grade
        is its rewards'; its steps' rows are resolved in ``sampler``'s
        interner, trajectory by trajectory, and their log-probs under it are
        its ``sample_logp``, as ``rollout_groups`` records them."""
        k = len(rewards)
        if len(trajectories) != k:
            raise InputError("trajectories and rewards must have equal length")
        if len(advantages) != k:
            raise InputError("advantages length must match rewards")
        steps = np.concatenate([sampler.trajectory_rows(query.query_id, t.tokens)
                                for t in trajectories], axis=1)
        return cls(sampler.interner, np.fromiter([query], object, 1), grading.grades([rewards]),
                   np.array([k]), np.array(rewards), np.asarray(advantages, np.float64),
                   np.array([len(t) for t in trajectories]),
                   np.array([t.terminal for t in trajectories]), steps, sampler.logp_at(*steps),
                   (sampler, sampler.generation))

    def select(self, groups) -> GroupBatch:
        """The groups ``groups`` indexes (a mask over the groups, their
        indices or a slice), in that order, by one take of each array."""
        picked = np.arange(self.count)[groups]
        traj = _ranges(self.first[picked], self.k[picked])
        step = _ranges((self.lengths.cumsum() - self.lengths)[traj], self.lengths[traj])
        return GroupBatch(self.interner, self.queries[picked], self.grade[picked],
                          self.k[picked], self.rewards[traj],
                          self.advantages[traj], self.lengths[traj], self.terminal[traj],
                          self.steps.take(step, axis=1), self.sample_logp[step], self.sampled_by)

    @classmethod
    def concat(cls, batches: Sequence[GroupBatch]) -> GroupBatch:
        """The groups of the batches, which share one interner, in order, as
        one batch, sampled by their sampler if they share one generation of it."""
        if len(batches) == 0:
            raise InputError("concat needs at least one batch")
        if any(b.interner is not batches[0].interner for b in batches):
            raise InputError("the group's rows belong to another policy's interner")
        arrays = "queries grade k rewards advantages lengths terminal steps sample_logp".split()
        sampled_by = batches[0].sampled_by
        return cls(batches[0].interner,
                   *(np.concatenate([getattr(b, name) for b in batches], axis=-1)
                     for name in arrays),
                   sampled_by if all(b.sampled_by == sampled_by for b in batches) else None)

    def tiled(self, rows: np.ndarray) -> GroupBatch:
        """The batch once per row of ``rows``, a ``(count, steps)`` array:
        copy i reads its steps at ``rows[i]`` instead of the batch's own
        rows, which may be extra rows of a policy (``PolicyParams.with_rows``).
        No policy sampled the steps at those rows, so it has no ``sampled_by``."""
        n = len(rows)  # every array but the rows n times over, as np.tile without its dispatch
        *arrays, tokens, logp = (a[None].repeat(n, 0).ravel() for a in (
            self.queries, self.grade, self.k, self.rewards, self.advantages, self.lengths,
            self.terminal, self.tokens, self.sample_logp))
        return GroupBatch(self.interner, *arrays, np.stack([rows.ravel(), tokens]), logp)

    @memo
    def traj(self) -> np.ndarray:
        """Each step's trajectory, built on first use: a collected batch may never read it."""
        return np.arange(self.lengths.size).repeat(self.lengths)

    def check_pass(self, params: PolicyParams) -> None:
        """An ``InputError`` unless the batch has a group to pass over and
        ``params`` reads the interner its rows are numbered in."""
        if self.count == 0:
            raise InputError("a loss pass needs at least one group")
        if params.interner is not self.interner:
            raise InputError("the group's rows belong to another policy's interner")

    def key_index(self, params: PolicyParams) -> KeyIndex:
        """The steps' (group, row) keys under which a pass over ``params``
        gathers each group's row block, built on first use."""
        self.check_pass(params)
        if self._index is None:
            self._index = KeyIndex(np.arange(self.count).repeat(self.k)[self.traj], self.rows,
                                   self.tokens, self.count, self.interner.vocab_size)
        return self._index

    def at_sampler(self, params: PolicyParams) -> bool:
        """Whether ``params`` is the sampling policy, unwritten since (a copy is not)."""
        return self.sampled_by == (params, params.generation)

    def logp(self, params: PolicyParams) -> np.ndarray:
        """log pi_params of every step: ``sample_logp`` at the sampler, else a gather."""
        return self.sample_logp if self.at_sampler(params) else params.logp_at(*self.steps)

    def log_ratios(self, params: PolicyParams) -> np.ndarray:
        """log(pi_params / pi_sampling) of every trajectory; zeros at the sampler."""
        return np.bincount(self.traj, weights=self.logp(params) - self.sample_logp,
                           minlength=len(self.lengths))


class Runs:
    """Runs of ``counts[i]`` consecutive entries, grouped by length once for
    every sum over them (``sums``): a pass's pairs, group by group, are
    summed for its loss and again for ``gal_etas``."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        order = counts.argsort(kind="stable")  # the runs grouped by length, each in run order
        ordered = counts[order]
        self.plan = None  # one length: the values are the matrix
        if ordered[0] != ordered[-1]:  # per length, its runs and their entries' indices
            starts = (counts.cumsum() - counts)[order]
            edges = [0, *((ordered[1:] != ordered[:-1]).nonzero()[0] + 1).tolist(), counts.size]
            self.plan = [(order[lo:hi], starts[lo:hi, None] + np.arange(ordered[lo]))
                         for lo, hi in zip(edges, edges[1:])]

    def sums(self, values: np.ndarray) -> np.ndarray:
        """``values`` summed over each run, bit for bit as ``np.sum`` of the
        run alone: runs of one length are summed as the rows of one matrix,
        which numpy reduces as it reduces a lone run."""
        if self.plan is None:  # ndarray.sum, undispatched
            return np.add.reduce(values.reshape(self.counts.size, -1), axis=1)
        out = np.empty(self.counts.size)
        for runs, at in self.plan:
            out[runs] = np.add.reduce(values[at], 1)
        return out


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``values`` summed over runs of ``counts[i]`` consecutive entries (``Runs.sums``)."""
    return Runs(counts).sums(values)


@dataclass
class LossReport:
    """The step's mean loss and its exact gradient over the policy's rows."""

    loss: float
    gradient: RowBlock


@dataclass
class BatchReport:
    """One loss pass over a ``GroupBatch``, or ``sft_pass`` over queries.

    ``loss`` and every ``aux`` array hold one entry per group; the gradient
    is keyed by (group, row), and over a batch of one its keys are the
    group's rows, a ``RowBlock``. The alignment loss also returns its per-pair
    weights, group by group, ``aux["pair_count"]`` of them each, and those
    counts' ``Runs``.
    """

    loss: np.ndarray
    gradient: KeyedBlocks
    aux: dict[str, np.ndarray]
    weights: np.ndarray | None = None
    pair_runs: Runs | None = None


def gal_etas(report: BatchReport) -> np.ndarray:
    """Each group's discrimination difficulty eta, the mean squared pair weight."""
    return report.pair_runs.sums(report.weights**2) / report.aux["pair_count"]


def standardize_advantages(rewards: Sequence[float] | np.ndarray, xi: float) -> np.ndarray:
    """Group-standardized advantages (R - mean) / (population std + xi) of one
    group's rewards, or of each row of a ``(groups, k)`` reward matrix."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.shape[-1] < 2:
        raise InputError("advantage standardization needs a group of >= 2")
    if xi <= 0:
        raise InputError(f"xi must be > 0, got {xi}")
    k = r.shape[-1]  # a mean is numpy's sum and division, without its dispatch
    dev = r - np.add.reduce(r, axis=-1, keepdims=True) / k
    return dev / (np.sqrt(np.add.reduce(dev * dev, axis=-1, keepdims=True) / k) + xi)


def rollout_groups(params: PolicyParams, queries: Sequence[Query], k: int,
                   rng: np.random.Generator, *, xi: float, stop_token: int,
                   t_max: int) -> GroupBatch:
    """k rollouts for each query, sampled together by ``sample_lockstep``, as
    one batch of every query's graded group, with rewards and standardized
    advantages, in query order. The batch keeps the sampler's arrays, with
    every step's log-prob under ``params``, the sampling policy, as its
    ``sample_logp``. The groups are graded by one ``grading.grades`` pass
    over their reward rows; a caller that keeps some grades ``select``-s them.
    """
    sampled = sample_lockstep(params, [q.query_id for q in queries], k, rng,
                              stop_token=stop_token, t_max=t_max)
    rewards = batch_reward(queries, sampled.steps[1], sampled.lengths, sampled.terminal)
    reward_rows = rewards.reshape(-1, k)
    return GroupBatch(params.interner, np.fromiter(queries, object, len(queries)),
                      grading.grades(reward_rows), np.full(len(queries), k), rewards,
                      standardize_advantages(reward_rows, xi).ravel(), sampled.lengths,
                      sampled.terminal, sampled.steps, params.logp_at(*sampled.steps),
                      (params, params.generation))


def draw_demo(query: Query, teachers: Sequence[TeacherOracle],
              rng: np.random.Generator) -> tuple[int, Trajectory]:
    """``sft_pass``'s draws for one query: a teacher index, uniform over
    teachers, and that teacher's demonstration."""
    if len(teachers) == 0:
        raise ConfigError("sft_pass needs at least one teacher")
    idx = int(rng.integers(len(teachers)))
    return idx, teacher_sample(teachers[idx], query, rng)


def demo_nll(params: PolicyParams, rows: np.ndarray, tokens: np.ndarray,
             lengths: np.ndarray) -> np.ndarray:
    """Negative log-likelihood of each demonstration, ``lengths[i]``
    consecutive steps of ``tokens`` read at ``rows``."""
    return -_segment_sums(params.logp_at(rows, tokens), lengths)


def sft_pass(params: PolicyParams, queries: Sequence[Query], teachers: Sequence[TeacherOracle],
             rng: np.random.Generator) -> BatchReport:
    """Negative log-likelihood of one demonstration per query, each drawn
    uniformly over teachers (``draw_demo``), in query order. The gradient is
    keyed by (query, row), so each query keeps the block it would have
    alone. ``aux`` holds each query's ``teacher_index`` and ``demo_len``."""
    if len(queries) == 0:
        raise InputError("sft_pass needs at least one query")
    drawn = [draw_demo(query, teachers, rng) for query in queries]
    # each demonstration's rows are walked once: interning is append-only, so they stay valid
    walked, steps = params.interner.walked, []
    for query, (_, demo) in zip(queries, drawn):
        key = (query.query_id, demo.tokens)
        if key not in walked:
            walked[key] = np.stack(params.trajectory_rows(*key))
        steps.append(walked[key])
    rows, tokens = np.concatenate(steps, axis=1)
    lengths = np.array([len(demo) for _, demo in drawn])
    index = KeyIndex(np.arange(len(queries)).repeat(lengths), rows, tokens, len(queries),
                     params.vocab_size)
    return BatchReport(loss=demo_nll(params, rows, tokens, lengths),
                       gradient=keyed_score(params, index, np.full(len(rows), -1.0)),
                       aux={"teacher_index": np.array([i for i, _ in drawn]), "demo_len": lengths})


def grpo_loss(params: PolicyParams, ref: PolicyParams, batch: GroupBatch, cfg: MixConfig
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, OwnerKL]:
    """``grpo_pass``'s loss of every group of the batch, without its gradient:
    the loss, and the terms the gradient reads, every trajectory's unclipped
    and clipped surrogate and each group's ``owner_kl``."""
    adv = batch.advantages
    if np.logical_or.reduce(batch.k < 2):
        raise InputError("grpo_pass needs groups of >= 2")
    check_shared_interner(params, ref)
    index = batch.key_index(params)
    if batch.at_sampler(params):  # every ratio is exactly 1, inside the clip band
        unclipped = clipped = adv
    else:
        lo, hi = 1.0 - cfg.epsilon_clip, 1.0 + cfg.epsilon_clip
        ratios = np.exp(batch.log_ratios(params))
        unclipped = ratios * adv
        clipped = np.minimum(np.maximum(ratios, lo), hi) * adv
    surrogate = _segment_sums(np.minimum(unclipped, clipped), batch.k)
    kl = owner_kl(params, ref, index)
    return -surrogate / batch.k + cfg.beta_kl * kl.value, unclipped, clipped, kl


def grpo_pass(params: PolicyParams, ref: PolicyParams, batch: GroupBatch,
              cfg: MixConfig) -> BatchReport:
    """Clipped surrogate loss with KL penalty of every group of the batch.

    Each trajectory has one ratio, taken against its group's recorded
    ``sample_logp``: data, not parameters, so in training (sampler = current
    policy) every ratio is exactly 1, and finite differences certify the
    surrogate that training differentiates. At the sampler
    (``GroupBatch.at_sampler``) the pass takes them as 1 without a gather,
    an ``exp`` or the clip; at any other policy, a copy of the sampler
    included, it gathers its log-probs. The KL penalty anchors to the
    frozen reference. At clip kinks the unclipped branch wins, so the
    gradient is the exact one-sided derivative of the reported expression
    (``grpo_loss``). ``aux`` holds each group's ``kl_value``; the ratios
    themselves are ``exp(batch.log_ratios(params))``, for whoever reads them.
    """
    loss, unclipped, clipped, kl = grpo_loss(params, ref, batch, cfg)
    index = batch.key_index(params)
    # the score weight r * A of each trajectory whose unclipped branch wins
    pg = keyed_score(params, index, np.where(unclipped <= clipped, unclipped, 0.0)[batch.traj])
    gradient = pg._replace(values=(-1.0 / batch.k)[index.owner][:, None] * pg.values
                           + cfg.beta_kl * kl_gradient(index, kl))
    return BatchReport(loss=loss, gradient=gradient, aux={"kl_value": kl.value})


def grpo_estimator(params: PolicyParams, batch: GroupBatch) -> KeyedBlocks:
    """Unclipped advantage-weighted score estimator (1/k) sum A_i * score_i of
    every group of the batch.

    This is the quantity whose variance the benches measure; it is separate
    from ``grpo_pass`` so clipping and the KL term never leak into variance
    measurements. Trajectories with zero advantage are skipped, so a group
    whose advantages are all zero has an empty block.
    """
    weights = ((1.0 / batch.k).repeat(batch.k) * batch.advantages)[batch.traj]
    keep = weights != 0.0
    return keyed_score(params, batch.key_index(params), weights, keep)


class BatchPairs(NamedTuple):
    """The (success, failure) pairs of a batch: each group's pair count, and
    all pairs, group by group, as ``(n, 2)`` indices into the batch's
    trajectories. ``pair_arrays`` draws them; pairs made by hand are checked
    against their batch once (``of``)."""

    counts: np.ndarray
    traj: np.ndarray

    @classmethod
    def of(cls, batch: GroupBatch, pairs: Sequence[np.ndarray]) -> BatchPairs:
        """Pairs made by hand, one array of indices into its trajectories per
        group, checked. The first bad group is its own ``InputError``: no
        pairs, then a shape other than ``(n, 2)``, then its first bad pair,
        out of range before out of (reward-1, reward-0) order."""
        if len(pairs) != batch.count:
            raise InputError(f"need one pair array per group, got {len(pairs)} for {batch.count}")
        pairs = [np.asarray(p, dtype=np.intp) for p in pairs]
        # the pairs of the groups before the first with none or another shape, all at once
        shaped = [p.size > 0 and p.ndim == 2 and p.shape[1] == 2 for p in pairs]
        ok = (shaped + [False]).index(False)
        counts = np.array([len(p) for p in pairs[:ok]], dtype=np.intp)
        at = np.concatenate(pairs[:ok] or [np.zeros((0, 2), np.intp)])
        k, first = (np.repeat(a[:ok], counts)[:, None] for a in (batch.k, batch.first))
        traj = at + first
        inside = ((at >= 0) & (at < k)).all(axis=1)
        bad = ~inside | (batch.rewards[np.where(inside[:, None], traj, 0)] != (1, 0)).any(axis=1)
        if bad.any():
            i = bad.argmax()
            if not inside[i]:
                win, lose = at[i].tolist()
                raise InputError(f"pair indices must lie in [0, {k[i, 0]}), got ({win}, {lose})")
            raise InputError("each pair must be (reward-1, reward-0) in that order")
        if ok < len(pairs):
            raise InputError("gal_pass needs at least one pair per group" if pairs[ok].size == 0
                             else f"pairs must have shape (n, 2), got {pairs[ok].shape}")
        return cls(counts, traj)

    def tiled(self, n: int, trajectories: int) -> BatchPairs:
        """The pairs of the batch tiled n times (``GroupBatch.tiled``), of
        ``trajectories`` trajectories per copy: copy i's are the batch's,
        moved on by i * trajectories."""
        shift = trajectories * np.arange(n, dtype=np.intp)
        return BatchPairs(np.tile(self.counts, n),
                          (self.traj + shift[:, None, None]).reshape(-1, 2))


def pair_arrays(batch: GroupBatch, pair_cap: int, rng: np.random.Generator) -> BatchPairs:
    """The (success, failure) pairs of every group of the batch, which must
    all be Mid, moved onto the batch's trajectories, group by group.

    A group's pairs are its full product, success-major, when it has at most
    ``pair_cap`` of them, otherwise exactly ``pair_cap`` distinct rows of that
    product drawn by one ``rng.choice`` without replacement, in group order.
    Every group's product is one ``np.nonzero`` over its rewards, padded with
    -1 (neither won nor lost) to the batch's largest group.
    """
    if pair_cap < 1:
        raise InputError(f"pair_cap must be >= 1, got {pair_cap}")
    if np.logical_or.reduce(batch.grade != DifficultyGrade.MID):
        raise StateError("pair construction requires a Mid-graded group")
    width = int(np.maximum.reduce(batch.k, initial=0))
    padded = np.full((batch.count, width), -1)
    padded[np.arange(width) < batch.k[:, None]] = batch.rewards  # row-major: group by group
    won, lost = padded == 1, padded == 0
    owner, win, lose = (won[:, :, None] & lost[:, None, :]).nonzero()
    traj = (np.array([win, lose]) + batch.first[owner]).T
    full = np.add.reduce(won, axis=1) * np.add.reduce(lost, axis=1)
    counts = np.minimum(full, pair_cap)
    capped = (full > pair_cap).nonzero()[0].tolist()
    if capped:  # each capped group's run of the product is cut to its drawn rows
        starts, at = full.cumsum() - full, counts.cumsum() - counts
        take = _ranges(starts, counts)
        for i in capped:
            chosen = rng.choice(int(full[i]), size=pair_cap, replace=False)
            take[at[i]:at[i] + pair_cap] = starts[i] + chosen
        traj = traj[take]
    return BatchPairs(counts, traj)


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


def gal_loss(params: PolicyParams, ref: PolicyParams, batch: GroupBatch, pairs: BatchPairs,
             cfg: MixConfig) -> tuple[np.ndarray, np.ndarray, Runs]:
    """``gal_pass``'s loss of every group of the batch, without its gradient:
    the loss, the term the gradient reads, every pair's margin -beta*d, and
    the ``Runs`` of the groups' pairs it was averaged over."""
    counts, traj_pairs = pairs
    check_shared_interner(params, ref)
    batch.check_pass(params)
    n = len(batch.lengths)
    log_ratio = (np.bincount(batch.traj, weights=batch.logp(params), minlength=n)
                 - np.bincount(batch.traj, weights=ref.logp_at(batch.rows, batch.tokens),
                               minlength=n))
    margin = -cfg.beta_gal * (log_ratio[traj_pairs[:, 0]] - log_ratio[traj_pairs[:, 1]])
    runs = Runs(counts)
    # -log sigmoid(beta d), averaged over each group's pairs
    return runs.sums(np.logaddexp(0.0, margin)) / counts, margin, runs


def gal_pass(params: PolicyParams, ref: PolicyParams, batch: GroupBatch,
             pairs: BatchPairs, cfg: MixConfig) -> BatchReport:
    """Pairwise contrastive alignment loss over (success, failure) rollouts of
    every group of the batch.

    ``pairs`` are the batch's (success, failure) pairs, as ``pair_arrays``
    draws them or ``BatchPairs.of`` checks them. Per pair, d is the
    policy-vs-reference log-ratio margin between the successful and the
    failed trajectory and the loss is -log sigmoid(beta*d), averaged over the
    group's pairs, the policy's log-probs read by ``GroupBatch.logp``, with
    no gather at the sampler. The gradient weight 1 - sigmoid(beta*d) is
    strictly inside (0,1), which is what bounds and eventually anneals this estimator's
    variance; the pass returns the weights and leaves their reductions
    (``gal_etas``, the range) to whoever reads them. The sigmoid uses the C
    library's exp, not ``np.exp``, whose SIMD kernel can differ in the last bit
    and would move every seeded run. The loss is ``gal_loss``'s.
    """
    loss, margin, runs = gal_loss(params, ref, batch, pairs, cfg)
    counts, traj_pairs = pairs
    index = batch.key_index(params)
    weights = _expit(margin)
    coef = -cfg.beta_gal * weights / counts.repeat(counts)
    n = len(batch.lengths)
    traj_coef = np.bincount(traj_pairs[:, 0], weights=coef, minlength=n) - np.bincount(
        traj_pairs[:, 1], weights=coef, minlength=n)
    # the gradient's rows are those of the paired trajectories only
    paired = np.zeros(n, dtype=bool)
    paired[traj_pairs] = True
    keep = paired[batch.traj]
    return BatchReport(loss=loss, gradient=keyed_score(params, index, traj_coef[batch.traj], keep),
                       aux={"pair_count": counts}, weights=weights, pair_runs=runs)


def mixed_loss(grpo: np.ndarray, gal: np.ndarray, alpha: float) -> np.ndarray:
    """Convex combination alpha * grpo + (1 - alpha) * gal of two passes' losses."""
    return alpha * grpo + (1.0 - alpha) * gal


def mixed_keyed(g_grpo: KeyedBlocks, g_gal: KeyedBlocks, alpha: float) -> KeyedBlocks:
    """alpha * g_grpo + (1 - alpha) * g_gal of one batch on GRPO's keys, of
    which GAL's are a subset (a key GRPO lacks is a ``StateError``): bit for
    bit ``sum_blocks``, which adds GRPO's then GAL's terms into zeros."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0,1), got {alpha}")
    keys = g_grpo.keys
    at = np.searchsorted(keys, g_gal.keys)
    if np.logical_or.reduce(at >= keys.size) or np.logical_or.reduce(keys[at] != g_gal.keys):
        raise StateError("the GAL gradient has a key the GRPO gradient lacks")
    values = 0.0 + alpha * g_grpo.values
    values[at] += (1.0 - alpha) * g_gal.values
    return g_grpo._replace(values=values)


def mixed_pass(params: PolicyParams, ref: PolicyParams, batch: GroupBatch,
               pairs: BatchPairs, cfg: MixConfig) -> BatchReport:
    """The alpha-mixture of ``grpo_pass`` and ``gal_pass``, Mid groups' pathway."""
    grpo = grpo_pass(params, ref, batch, cfg)
    gal = gal_pass(params, ref, batch, pairs, cfg)
    return BatchReport(loss=mixed_loss(grpo.loss, gal.loss, cfg.alpha),
                       gradient=mixed_keyed(grpo.gradient, gal.gradient, cfg.alpha),
                       aux={**grpo.aux, **gal.aux}, weights=gal.weights,
                       pair_runs=gal.pair_runs)


# the gate: each variant's pathway by grade code (sorted grades are in code order)
_DYPO = {DifficultyGrade.EASY: "discard", DifficultyGrade.HARD: "distill",
         DifficultyGrade.MID: "rl"}
PATHWAYS = {
    "dypo": np.array([_DYPO[code] for code in sorted(DifficultyGrade)]),
    "sft_only": np.full(len(DifficultyGrade), "distill"),
    "grpo_only": np.full(len(DifficultyGrade), "rl"),
}
VARIANTS = tuple(PATHWAYS)


def route_groups(params: PolicyParams, ref: PolicyParams, batch: GroupBatch,
                 teachers: Sequence[TeacherOracle], cfg: MixConfig, rng: np.random.Generator,
                 variant: str = "dypo") -> tuple[LossReport, BatchReport | None]:
    """The step: the mean loss and gradient of the batch's groups not
    discarded, each from its pathway, its grade code's entry of
    ``PATHWAYS[variant]`` (each row adds its groups' terms into zeros in
    group order, as ``sum_blocks``, and the loss is the built-in ``sum`` of
    theirs in group order; no group gives a zero loss and an empty block), and the
    RL pass's report, or ``None``. The RL groups are ``select``-ed into one
    ``mixed_pass`` under ``dypo``, else one ``grpo_pass``, and the distilled
    groups' queries into one ``sft_pass``, whose terms weigh gamma. ``rng``
    draws the capped Mid groups' pairs (``pair_arrays``), then the distilled
    groups' teachers, each in group order.
    """
    if variant not in PATHWAYS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
    routes = PATHWAYS[variant].take(batch.grade)
    rl, distilled = routes == "rl", (routes == "distill").nonzero()[0]
    terms = []  # each pass's groups, report and coefficient
    passed = None
    if np.logical_or.reduce(rl):  # the pass draws its pairs and nothing else, so it runs first
        rl_batch = batch if np.logical_and.reduce(rl) else batch.select(rl)
        passed = (mixed_pass(params, ref, rl_batch, pair_arrays(rl_batch, cfg.pair_cap, rng), cfg)
                  if variant == "dypo" else grpo_pass(params, ref, rl_batch, cfg))
        terms.append((rl.nonzero()[0], passed, 1.0))
    if len(distilled):
        terms.append((distilled, sft_pass(params, batch.queries[distilled], teachers, rng),
                      cfg.gamma))
    if not terms:
        empty = RowBlock(np.zeros(0, dtype=np.intp), np.zeros((0, params.vocab_size)))
        return LossReport(0.0, empty), passed
    losses, owners, rows, values = np.zeros(batch.count), [], [], []  # by group; by term
    for groups, report, coef in terms:
        losses[groups] = coef * report.loss
        owner, row = report.gradient.owner_rows()
        owners.append(groups[owner])
        rows.append(row)
        values.append(coef * report.gradient.values)
    order = np.concatenate(owners).argsort(kind="stable")
    total, _ = sum_rows(np.concatenate(rows)[order], np.concatenate(values)[order])
    n = sum(len(groups) for groups, _, _ in terms)
    return LossReport(sum(losses.tolist()) / n, total.scaled(1.0 / n)), passed
