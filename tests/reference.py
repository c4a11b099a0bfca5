"""Naive references the tests check the lab's array code against.

Each per-token reference walks a trajectory one step at a time, looks its
context up by key, and shares no row or array code with what it checks; the
GRPO and GAL references read a batch of one only for its query and
advantages, and decode its trajectories from its steps' tokens
(``trajectories``). The variance bench's reference evaluates its losses one
group at a time, each group ``select``-ed from the sampled batch as a batch
of one, as the bench did before they became one pass per chunk of groups;
the gate's reference does the same. The reward's reference parses the
answer segment after the last separator (``naive_reward``), as ``reward``
did before it compared a trajectory's last three tokens. The scalar finite-difference oracle
perturbs one logit in place per probe and re-evaluates an arbitrary loss, as
the certifier did before its probes became one pass. A group's pairs are
drawn one group at a time (``draw_group_pairs``), as ``pair_arrays`` drew
them before every group's product became one array. The gate's step is
built by hand from its groups' terms, as the trainer reduced them before the
gate returned the step.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from dypo.grading import DifficultyGrade
from dypo.instrumentation import collect_mid_groups, variance_from_samples
from dypo.objectives import (
    GroupBatch,
    MixConfig,
    draw_demo,
    gal_pass,
    grpo_estimator,
    grpo_pass,
    mixed_pass,
    pair_arrays,
)
from dypo.policy import Context, PolicyParams, Trajectory, score_sq_norms, sum_blocks

from conftest import stacked, traj_log_prob, traj_score


def probs(params: PolicyParams, ctx: Context) -> np.ndarray:
    """The policy's probabilities in one context, interning it if new."""
    row = params.row(ctx)  # first: interning may grow the arrays
    return params._probs[row]


def log_probs(params: PolicyParams, ctx: Context) -> np.ndarray:
    """The policy's log-probabilities in one context, interning it if new."""
    row = params.row(ctx)  # first: interning may grow the arrays
    return params._logp[row]


def sampling_cdf(params: PolicyParams, ctx: Context) -> np.ndarray:
    """The policy's sampling cdf in one context, interning it if new."""
    row = params.row(ctx)  # first: interning may grow the arrays
    return params._cdf[row]


def log_softmax(logits: Sequence[float]) -> np.ndarray:
    """The log-probabilities of one logit row, by exactly rounded sums."""
    top = max(logits)
    log_total = math.log(math.fsum(math.exp(x - top) for x in logits))
    return np.array([x - top - log_total for x in logits])


def trajectories(batch: GroupBatch) -> tuple[Trajectory, ...]:
    """Every trajectory of a batch, group by group, decoded from its steps' tokens."""
    ends = np.cumsum(batch.lengths).tolist()
    tokens = batch.tokens.tolist()
    return tuple(Trajectory(tuple(tokens[lo:hi]), terminal=bool(term))
                 for lo, hi, term in zip([0] + ends, ends, batch.terminal.tolist()))


def step_contexts(query_id: int, tokens: Sequence[int], history: int) -> list[Context]:
    """Conditioning context for every generation step of a token sequence."""
    return [(query_id, tuple(tokens[max(0, t - history):t])) for t in range(len(tokens))]


def uniform_guess_rate(vocab_size: int, t_max: int) -> float:
    """Closed-form success probability of a uniform policy on one query.

    A successful trajectory is any no-stop prefix followed by
    (separator, answer, stop); summing the geometric series over prefix
    lengths 0..t_max-3 gives (1/V^2) * (1 - ((V-1)/V)^(t_max-2)).
    """
    v = float(vocab_size)
    return (1.0 / v**2) * (1.0 - ((v - 1.0) / v) ** (t_max - 2))


def naive_reward(query, traj: Trajectory) -> int:
    """The general answer parser: 1 iff the trajectory terminates on the stop
    token and the segment after its last separator, before the stop, equals
    the answer tokens (here the one answer token)."""
    if not traj.terminal or len(traj.tokens) == 0 or traj.tokens[-1] != query.stop:
        return 0
    body = traj.tokens[:-1]
    if query.separator not in body:
        return 0
    last_sep = len(body) - 1 - body[::-1].index(query.separator)
    return int(body[last_sep + 1:] == (query.answer,))


def naive_sample(params, qid, k, rng, stop, t_max) -> list[Trajectory]:
    """k samples, each token drawn by searchsorted on its context's cdf."""
    out = []
    for _ in range(k):
        tokens: list[int] = []
        while len(tokens) < t_max and (not tokens or tokens[-1] != stop):
            ctx = (qid, tuple(tokens[max(0, len(tokens) - params.history):]))
            tok = int(np.searchsorted(sampling_cdf(params, ctx), rng.random(), side="right"))
            tokens.append(min(tok, params.vocab_size - 1))
        out.append(Trajectory(tuple(tokens), terminal=tokens[-1] == stop))
    return out


def naive_lockstep_sample(params, query_ids, k, rng, stop, t_max) -> list[Trajectory]:
    """k samples per query, advanced together: at each position the running
    samples, in order, share one ``rng.random(running)`` call, and each token
    is drawn by searchsorted on its context's cdf. Sample i is of query
    ``query_ids[i // k]``."""
    samples: list[list[int]] = [[] for _ in range(len(query_ids) * k)]
    for _ in range(t_max):
        running = [i for i, tokens in enumerate(samples) if not tokens or tokens[-1] != stop]
        if not running:
            break
        for i, u in zip(running, rng.random(len(running))):
            tokens = samples[i]
            ctx = (query_ids[i // k], tuple(tokens[max(0, len(tokens) - params.history):]))
            tok = int(np.searchsorted(sampling_cdf(params, ctx), u, side="right"))
            tokens.append(min(tok, params.vocab_size - 1))
    return [Trajectory(tuple(tokens), terminal=tokens[-1] == stop) for tokens in samples]


def scalar_numerical_gradient(f: Callable[[PolicyParams], float], params: PolicyParams,
                              contexts: Sequence[Context],
                              eps: float = 1e-5) -> dict[Context, np.ndarray]:
    """Central differences of f over every (context, token) logit entry, one
    probe at a time: each adds +-eps to one logit of ``params`` in place,
    re-softmaxes its row, evaluates f and restores the entry and the row's
    distributions bit-exactly, so ``params`` ends unchanged."""
    grad: dict[Context, np.ndarray] = {}
    for ctx in contexts:
        r = params.row(ctx)
        row = np.zeros(params.vocab_size)
        for tok in range(params.vocab_size):
            for sign in (1.0, -1.0):
                saved = params._logits[r, tok]
                params._logits[r, tok] = saved + sign * eps
                params._refresh(slice(r, r + 1))
                try:
                    row[tok] += sign * f(params)
                finally:
                    params._logits[r, tok] = saved
                    params._refresh(slice(r, r + 1))
        grad[ctx] = row / (2.0 * eps)
    return grad


def _add(into: dict, grad: dict, coef: float) -> None:
    for ctx, vec in grad.items():
        into[ctx] = into.get(ctx, np.zeros(len(vec))) + coef * vec


def naive_score(params, qid, tokens) -> dict:
    """Gradient of log pi(tokens | qid), keyed by context."""
    grad: dict = {}
    for ctx, tok in zip(step_contexts(qid, tokens, params.history), tokens):
        row = grad.setdefault(ctx, np.zeros(params.vocab_size))
        row -= probs(params, ctx)
        row[tok] += 1.0
    return grad


def naive_log_prob(params, qid, tokens) -> float:
    return sum(log_probs(params, ctx)[tok]
               for ctx, tok in zip(step_contexts(qid, tokens, params.history), tokens))


def naive_grpo(params, ref, sampler, group: GroupBatch, cfg: MixConfig) -> dict:
    """GRPO gradient of a batch of one, with each trajectory's ratio taken
    against ``sampler``, the policy that stands for the one that sampled the
    group."""
    qid = group.queries[0].query_id
    trajs = trajectories(group)
    lo, hi = 1.0 - cfg.epsilon_clip, 1.0 + cfg.epsilon_clip
    pg: dict = {}
    for traj, adv in zip(trajs, group.advantages):
        rho = np.exp(naive_log_prob(params, qid, traj.tokens)
                     - naive_log_prob(sampler, qid, traj.tokens))
        if rho * adv <= min(max(rho, lo), hi) * adv:
            _add(pg, naive_score(params, qid, traj.tokens), adv * rho)
    grad = {ctx: -vec / len(trajs) for ctx, vec in pg.items()}
    visited = {c for t in trajs for c in step_contexts(qid, t.tokens, params.history)}
    for ctx in visited:
        p = probs(params, ctx)
        diff = log_probs(params, ctx) - log_probs(ref, ctx)
        _add(grad, {ctx: p * (diff - p @ diff) / len(visited)}, cfg.beta_kl)
    return grad


def naive_owner_kl(params, ref, owner, rows, count: int) -> tuple[np.ndarray, list]:
    """Each owner's mean exact KL over its distinct rows, given as the owner
    and row of every step, and the gradient of that mean at each (owner,
    row) key, in key order, computed key by key: a key's KL is
    ``probs * (logp - ref_logp)`` summed over the vocabulary, and an owner's
    mean is the ``math.fsum`` of its keys' KLs over their count."""
    keys: dict[int, list[int]] = {}
    for o, r in sorted(set(zip(owner.tolist(), rows.tolist()))):
        keys.setdefault(o, []).append(r)
    values, grads = [], []
    for o in range(count):
        inv = 1.0 / len(keys[o])
        terms = []
        for r in keys[o]:
            p = params._probs[r]
            diff = params._logp[r] - ref._logp[r]
            kl = (p * diff).sum()
            terms.append(kl)
            grads.append((o, r, inv * p * (diff - kl)))
        values.append(math.fsum(terms) * inv)
    return np.array(values), grads


def draw_group_pairs(rewards: np.ndarray, pair_cap: int, rng: np.random.Generator) -> np.ndarray:
    """(success, failure) pairs of one Mid group with these rewards, as an
    ``(n, 2)`` array of indices into its trajectories: the full Cartesian
    product, success-major, when it fits under pair_cap, otherwise a uniform
    random subset of exactly pair_cap distinct pairs, drawn by one
    ``rng.choice`` over the product's flat indices."""
    successes = np.flatnonzero(rewards == 1)
    failures = np.flatnonzero(rewards == 0)
    n_f = len(failures)
    n_pairs = len(successes) * n_f
    if n_pairs <= pair_cap:
        chosen = np.arange(n_pairs)
    else:
        chosen = rng.choice(n_pairs, size=pair_cap, replace=False)
    return np.stack([successes[chosen // n_f], failures[chosen % n_f]], axis=1)


def naive_gal(params, ref, group: GroupBatch, pairs, beta: float) -> dict:
    """GAL gradient of a batch of one over the given (success, failure) pairs."""
    qid = group.queries[0].query_id
    trajs = trajectories(group)

    def log_ratio(traj):
        return naive_log_prob(params, qid, traj.tokens) - naive_log_prob(ref, qid, traj.tokens)

    grad: dict = {}
    for i, j in pairs:
        win, lose = trajs[i], trajs[j]
        coef = -beta * expit(-beta * (log_ratio(win) - log_ratio(lose))) / len(pairs)
        _add(grad, naive_score(params, qid, win.tokens), coef)
        _add(grad, naive_score(params, qid, lose.tokens), -coef)
    return grad


def gate_terms(params, ref, batch: GroupBatch, teachers, cfg: MixConfig, rng, variant: str):
    """Each dispatched group's (loss, gradient rows, gradient values) term of
    the gate's step over ``batch``, by group index, and the RL pass (or
    None). The capped Mid groups' pairs are drawn from ``rng`` first, then
    the distilled groups' teachers, each in group order; a distilled term is
    gamma times its demonstration's NLL (``draw_demo``'s draw, scored on its
    own by ``traj_log_prob`` and ``traj_score``) and the RL terms are each
    group's loss and block of one pass over the RL groups, each
    ``select``-ed on its own."""
    rl = [i for i, g in enumerate(batch.grade.tolist()) if variant == "grpo_only"
          or variant == "dypo" and g == DifficultyGrade.MID]
    distilled = [i for i, g in enumerate(batch.grade.tolist()) if variant == "sft_only"
                 or variant == "dypo" and g == DifficultyGrade.HARD]
    rl_batch = GroupBatch.concat([batch.select([i]) for i in rl]) if rl else None
    pairs = pair_arrays(rl_batch, cfg.pair_cap, rng) if rl and variant == "dypo" else None
    terms = {}
    for i in distilled:
        query = batch.queries[i]
        _, demo = draw_demo(query, teachers, rng)
        score = traj_score(params, query.query_id, demo.tokens)
        terms[i] = (cfg.gamma * -traj_log_prob(params, query.query_id, demo.tokens), score.rows,
                    cfg.gamma * -score.values)
    passed = None
    if rl:
        passed = (mixed_pass(params, ref, rl_batch, pairs, cfg) if variant == "dypo"
                  else grpo_pass(params, ref, rl_batch, cfg))
        for i, loss, block in zip(rl, passed.loss.tolist(), passed.gradient.blocks()):
            terms[i] = (loss, block.rows, block.values)
    return terms, passed


def mean_step(terms: dict, vocab_size: int) -> tuple[float, list[int], np.ndarray]:
    """The mean of ``gate_terms``' terms: the loss, the rows, and each row's
    gradient, its groups' terms added one at a time in group order. No term
    is a zero loss and no rows."""
    kept = [terms[i] for i in sorted(terms)]
    if not kept:
        return 0.0, [], np.zeros((0, vocab_size))
    rows: dict[int, np.ndarray] = {}
    for _, block_rows, values in kept:
        for row, value in zip(block_rows.tolist(), values):
            rows[row] = rows.get(row, 0.0) + value
    return (sum(loss for loss, _, _ in kept) / len(kept), sorted(rows),
            (1.0 / len(kept)) * np.array([rows[r] for r in sorted(rows)]))


def per_group_variance_bench(params, ref, draw_query, cfg: MixConfig, n_groups: int, rng, *,
                             k: int, stop_token: int, t_max: int) -> dict:
    """``variance_ordering_bench``'s estimates, stderrs, verdict, eta_mean and
    score_sq_mean, each group's losses evaluated on their own."""
    batch = collect_mid_groups(params, draw_query, n_groups, rng, k=k, xi=cfg.xi,
                               stop_token=stop_token, t_max=t_max)
    g_grpo, g_gal, etas = [], [], []
    score_sq_sum = 0.0
    score_sq_n = 0
    for i in range(len(batch)):
        group = batch.select([i])
        gal = gal_pass(params, ref, group, pair_arrays(group, cfg.pair_cap, rng), cfg)
        g_grpo += grpo_estimator(params, group).blocks()
        g_gal += gal.gradient.blocks()
        etas.append(float(np.mean(gal.weights ** 2)))
        score_sq_sum += float(score_sq_norms(params, group.rows, group.tokens,
                                             group.lengths).sum())
        score_sq_n += int(group.k[0])
    g_mix = [sum_blocks([(cfg.alpha, a), (1.0 - cfg.alpha, b)]) for a, b in zip(g_grpo, g_gal)]
    est = {name: variance_from_samples(stacked(samples))
           for name, samples in (("grpo", g_grpo), ("gal", g_gal), ("mix", g_mix))}
    gap = est["grpo"].scalar_variance - est["mix"].scalar_variance
    combined_se = float(np.hypot(est["grpo"].standard_error, est["mix"].standard_error))
    return {"estimates": {f"var_{n}": e.scalar_variance for n, e in est.items()},
            "stderrs": {f"var_{n}": e.standard_error for n, e in est.items()},
            "verdict": gap > 3.0 * combined_se,
            "eta_mean": float(np.mean(etas)),
            "score_sq_mean": score_sq_sum / score_sq_n}
