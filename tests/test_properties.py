"""Property tests: the sampler and row-block gradients against naive
per-token references, pair construction, the grading partition, advantage
standardization, the reward parser and the JSON config round trip."""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from dypo.grading import DifficultyGrade, grade
from dypo.gradcheck import make_instance
from dypo.objectives import (
    GroupRollout,
    MixConfig,
    build_pairs,
    gal_loss_grad,
    grpo_loss_grad,
    sft_loss_grad,
    standardize_advantages,
)
from dypo.policy import (
    PolicyParams,
    Trajectory,
    sample_group_rows,
    sample_trajectory,
    score,
    step_contexts,
)
from dypo.seeding import substream
from dypo.tasks import (
    BiasTestbedConfig,
    TaskConfig,
    generate_query,
    max_demo_len,
    reward,
    teacher_sample,
)
from dypo.trainer import VARIANTS, TrainConfig, train_config_from_dict, train_config_to_dict

from conftest import block_dict

V = 9
# derandomized, so every run of the suite checks the same examples
FAST = settings(deadline=None, derandomize=True)
SLOW = settings(FAST, max_examples=40)


# --- naive per-token references --------------------------------------------

def naive_sample(params, qid, k, rng, stop, t_max) -> list[Trajectory]:
    """k samples, each token drawn by searchsorted on its context's cdf."""
    out = []
    for _ in range(k):
        tokens: list[int] = []
        while len(tokens) < t_max and (not tokens or tokens[-1] != stop):
            ctx = (qid, tuple(tokens[max(0, len(tokens) - params.history):]))
            tok = int(np.searchsorted(params.sampling_cdf(ctx), rng.random(), side="right"))
            tokens.append(min(tok, params.vocab_size - 1))
        out.append(Trajectory(tuple(tokens), terminal=tokens[-1] == stop))
    return out


def _add(into: dict, grad: dict, coef: float) -> None:
    for ctx, vec in grad.items():
        into[ctx] = into.get(ctx, np.zeros(V)) + coef * vec


def naive_score(params, qid, tokens) -> dict:
    grad: dict = {}
    for ctx, tok in zip(step_contexts(qid, tokens, params.history), tokens):
        row = grad.setdefault(ctx, np.zeros(V))
        row -= params.probs(ctx)
        row[tok] += 1.0
    return grad


def naive_log_prob(params, qid, tokens) -> float:
    return sum(params.log_probs(ctx)[tok]
               for ctx, tok in zip(step_contexts(qid, tokens, params.history), tokens))


def naive_grpo(params, ref, group: GroupRollout, cfg: MixConfig) -> dict:
    qid = group.query.query_id
    ratio_ref = params if cfg.ratio_baseline == "rollout" else ref
    lo, hi = 1.0 - cfg.epsilon_clip, 1.0 + cfg.epsilon_clip
    pg: dict = {}
    for traj, adv in zip(group.trajectories, group.advantages):
        ctxs = step_contexts(qid, traj.tokens, params.history)
        deltas = [params.log_probs(c)[a] - ratio_ref.log_probs(c)[a]
                  for c, a in zip(ctxs, traj.tokens)]
        if cfg.ratio_level == "trajectory":
            rho = np.exp(sum(deltas))
            if rho * adv <= min(max(rho, lo), hi) * adv:
                _add(pg, naive_score(params, qid, traj.tokens), adv * rho)
            continue
        for ctx, tok, delta in zip(ctxs, traj.tokens, deltas):
            r = np.exp(delta)
            if r * adv <= min(max(r, lo), hi) * adv:
                coef = adv * r / len(traj)
                row = pg.setdefault(ctx, np.zeros(V))
                row -= coef * params.probs(ctx)
                row[tok] += coef
    grad = {ctx: -vec / group.k for ctx, vec in pg.items()}
    visited = {c for t in group.trajectories for c in step_contexts(qid, t.tokens, params.history)}
    for ctx in visited:
        p = params.probs(ctx)
        diff = params.log_probs(ctx) - ref.log_probs(ctx)
        _add(grad, {ctx: p * (diff - p @ diff) / len(visited)}, cfg.beta_kl)
    return grad


def naive_gal(params, ref, group: GroupRollout, pairs, beta: float) -> dict:
    qid = group.query.query_id

    def log_ratio(traj):
        return naive_log_prob(params, qid, traj.tokens) - naive_log_prob(ref, qid, traj.tokens)

    grad: dict = {}
    for i, j in pairs:
        win, lose = group.trajectories[i], group.trajectories[j]
        coef = -beta * expit(-beta * (log_ratio(win) - log_ratio(lose))) / len(pairs)
        _add(grad, naive_score(params, qid, win.tokens), coef)
        _add(grad, naive_score(params, qid, lose.tokens), -coef)
    return grad


def assert_block_matches(params, block, expected: dict) -> None:
    """Equal to the reference at 1e-12, relative to max(1, largest reference entry)."""
    got = block_dict(params, block)
    assert set(expected) <= set(got)
    scale = max([1.0] + [float(np.abs(v).max()) for v in expected.values()])
    for ctx, vec in got.items():
        diff = np.abs(vec - expected.get(ctx, np.zeros(V))).max()
        assert diff <= 1e-12 * scale, (ctx, diff)


# --- strategies ---------------------------------------------------------------

seeds = st.integers(0, 2**32 - 1)
token_seqs = st.lists(st.integers(0, V - 1), min_size=1, max_size=14).map(tuple)


def _random_params(seed: int, history: int) -> PolicyParams:
    rng = np.random.default_rng(seed)
    params = PolicyParams(V, history, default_logits=rng.normal(0, 1, V))
    for a in range(V):
        params.set_logits((0, (a,) * min(history, 1)), rng.normal(0, 2, V))
    return params


def _sampling_params(seed: int, history: int) -> PolicyParams:
    """Random default logits, random written contexts, and rows a sibling
    policy interned that this policy's arrays do not cover yet."""
    rng = np.random.default_rng(seed)
    params = PolicyParams(V, history, default_logits=rng.normal(0, 2, V))
    sibling = PolicyParams(V, history, interner=params.interner)
    for policy in (params, sibling):
        for _ in range(12):
            hist = tuple(int(t) for t in rng.integers(V, size=rng.integers(history + 1)))
            policy.set_logits((0, hist), rng.normal(0, 3, V))
    return params


# --- properties -----------------------------------------------------------------

@given(seed=seeds, history=st.integers(0, 3), k=st.integers(2, 6), t_max=st.integers(1, 16),
       stop=st.integers(0, V - 1))
@FAST
def test_sampler_matches_naive_per_token_reference(seed, history, k, t_max, stop):
    params, twin = _sampling_params(seed, history), _sampling_params(seed, history)
    query = SimpleNamespace(query_id=0)
    rng, twin_rng = substream(seed, "sample"), substream(seed, "sample")
    trajs, sampled = sample_group_rows(params, query, k, rng, stop_token=stop, t_max=t_max)
    trajs.append(sample_trajectory(params, query, rng, stop_token=stop, t_max=t_max))
    assert trajs == naive_sample(twin, 0, k + 1, twin_rng, stop, t_max)
    assert rng.random() == twin_rng.random()
    group = trajs[:k]
    contexts = [ctx for t in group for ctx in step_contexts(0, t.tokens, history)]
    assert sampled.interner is params.interner
    assert np.array_equal(sampled.steps, [params.rows(contexts),
                                          [tok for t in group for tok in t.tokens]])
    # a group built from the same trajectories resolves the same rows once, and keeps them
    sampled_group = GroupRollout(query, tuple(group), (0,) * k, rows=sampled)
    built = GroupRollout(query, tuple(group), (0,) * k)
    rows, tokens, lengths = built.step_rows(params)
    kept = built.rows
    assert kept.interner is params.interner
    assert all(np.array_equal(a, b) for a, b in zip(sampled_group.step_rows(params),
                                                    (rows, tokens, lengths)))
    assert lengths.tolist() == [len(t) for t in group]
    built.step_rows(params)
    assert built.rows is kept


def test_sampler_clamps_a_draw_above_the_last_cdf_entry():
    # the uniform 7-way cdf rounds to a last entry below the largest draw
    params = PolicyParams(7, 1)
    assert params.sampling_cdf((0, ()))[-1] < np.nextafter(1.0, 0.0)
    top = SimpleNamespace(random=lambda: np.nextafter(1.0, 0.0))
    traj = sample_trajectory(params, SimpleNamespace(query_id=0), top, stop_token=6, t_max=3)
    assert traj == Trajectory((6,), terminal=True)
    assert naive_sample(params, 0, 1, top, 6, 3) == [traj]


@given(seed=seeds, history=st.integers(0, 3), tokens=token_seqs)
@FAST
def test_score_rows_sum_to_zero_over_exactly_the_visited_contexts(seed, history, tokens):
    params = _random_params(seed, history)
    block = score(params, SimpleNamespace(query_id=0), Trajectory(tokens, terminal=False))
    assert np.abs(block.values.sum(axis=1)).max() <= 1e-12
    assert set(block_dict(params, block)) == set(step_contexts(0, tokens, history))
    assert len(np.unique(block.rows)) == len(block.rows)
    assert_block_matches(params, block, naive_score(params, 0, tokens))


@given(seed=seeds, index=st.integers(0, 60), n_teachers=st.integers(1, 4))
@SLOW
def test_sft_block_matches_naive_reference(seed, index, n_teachers):
    inst = make_instance(seed, index)
    teachers = inst.teachers[:1] * n_teachers
    report = sft_loss_grad(inst.params, inst.query, teachers, substream(seed, "sft"))
    rng = substream(seed, "sft")
    demo = teacher_sample(teachers[int(rng.integers(n_teachers))], inst.query, rng)
    expected = {ctx: -vec for ctx, vec in
                naive_score(inst.params, inst.query.query_id, demo.tokens).items()}
    assert_block_matches(inst.params, report.gradient, expected)
    nll = -naive_log_prob(inst.params, inst.query.query_id, demo.tokens)
    assert abs(report.loss - nll) <= 1e-12 * max(1.0, abs(nll))


@given(seed=seeds, index=st.integers(0, 60), kind=st.sampled_from(["mid", "hard", "easy"]),
       level=st.sampled_from(["token", "trajectory"]),
       baseline=st.sampled_from(["rollout", "ref"]), beta_kl=st.sampled_from([0.0, 0.01, 0.5]))
@SLOW
def test_grpo_block_matches_naive_reference(seed, index, kind, level, baseline, beta_kl):
    inst = make_instance(seed, index, kind=kind)
    cfg = MixConfig(ratio_level=level, ratio_baseline=baseline, beta_kl=beta_kl)
    report = grpo_loss_grad(inst.params, inst.ref, inst.group, cfg)
    assert_block_matches(inst.params, report.gradient,
                         naive_grpo(inst.params, inst.ref, inst.group, cfg))


@given(seed=seeds, index=st.integers(0, 60), beta=st.sampled_from([0.5, 1.0, 3.0]),
       duplicated=st.booleans())
@SLOW
def test_gal_block_matches_naive_reference(seed, index, beta, duplicated):
    inst = make_instance(seed, index)
    group, pairs = inst.group, inst.pairs
    if duplicated:
        # a second copy of a success and of a failure, each paired like the original
        trajs = group.trajectories + (group.trajectories[0], group.trajectories[-1])
        group = GroupRollout(group.query, trajs, group.rewards + (1, 0))
        pairs = build_pairs(group, 64, substream(seed, "pairs"))
    report = gal_loss_grad(inst.params, inst.ref, group, pairs, MixConfig(beta_gal=beta))
    assert_block_matches(inst.params, report.gradient,
                         naive_gal(inst.params, inst.ref, group, pairs, beta))


@given(rewards=st.lists(st.integers(0, 1), min_size=2, max_size=12).filter(
           lambda r: 0 < sum(r) < len(r)),
       pair_cap=st.integers(1, 40), seed=seeds)
@FAST
def test_build_pairs_are_success_failure_index_pairs(rewards, pair_cap, seed):
    trajs = tuple(Trajectory((i,), terminal=False) for i in range(len(rewards)))
    group = GroupRollout(SimpleNamespace(query_id=0), trajs, tuple(rewards))
    pairs = build_pairs(group, pair_cap, substream(seed, "pairs"))
    product = {(s, f) for s, won in enumerate(rewards) if won
               for f, lost in enumerate(rewards) if not lost}
    got = [tuple(p) for p in pairs.tolist()]
    assert pairs.shape == (min(pair_cap, len(product)), 2)
    assert len(set(got)) == len(got)
    assert set(got) <= product


@given(rewards=st.lists(st.integers(0, 1), min_size=2, max_size=40))
@FAST
def test_grades_partition_all_reward_patterns(rewards):
    g = grade(rewards)
    total = sum(rewards)
    assert (g is DifficultyGrade.EASY) == (total == len(rewards))
    assert (g is DifficultyGrade.HARD) == (total == 0)
    assert (g is DifficultyGrade.MID) == (0 < total < len(rewards))


@given(rewards=st.lists(st.integers(-5, 5), min_size=2, max_size=16),
       shift=st.integers(-1000, 1000), xi=st.floats(1e-6, 1e-2))
@FAST
def test_standardized_advantages_have_mean_zero_and_ignore_shifts(rewards, shift, xi):
    adv = standardize_advantages(rewards, xi)
    assert abs(adv.mean()) <= 1e-12
    shifted = standardize_advantages([r + shift for r in rewards], xi)
    np.testing.assert_allclose(shifted, adv, rtol=0, atol=1e-9)


@given(modulus=st.integers(2, 9), chain_len=st.integers(1, 4), seed=seeds,
       prefix=st.lists(st.integers(0, 12), max_size=12), extra=st.integers(0, 12),
       before_answer=st.booleans())
@FAST
def test_reward_parser_reads_only_the_segment_after_the_last_separator(
        modulus, chain_len, seed, prefix, extra, before_answer):
    task = TaskConfig(modulus=modulus)
    query = generate_query(task, chain_len, substream(seed, "reward"))
    sep, stop, (answer,) = task.separator, task.stop, query.answer_tokens
    prefix = tuple(t % task.vocab_size for t in prefix)
    extra %= task.vocab_size

    def scores(tokens, terminal=True):
        return reward(query, Trajectory(tuple(tokens), terminal=terminal))

    assert scores(prefix + (sep, answer, stop)) == 1
    assert scores(prefix + (sep, answer, stop), terminal=False) == 0
    if extra != stop:  # a last token other than the stop
        assert scores(prefix + (sep, answer, extra)) == 0
    if extra not in (sep, answer):  # a non-answer token inside the answer segment
        segment = (extra, answer) if before_answer else (answer, extra)
        assert scores(prefix + (sep, *segment, stop)) == 0
    no_sep = tuple(t for t in prefix if t != sep)
    assert scores(no_sep + (answer, stop)) == 0


@st.composite
def train_configs(draw) -> TrainConfig:
    """Valid configs; float fields sometimes hold JSON integers."""
    def unit():
        return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

    def positive():
        return st.floats(1e-6, 10.0) | st.integers(1, 10)

    low = draw(st.integers(1, 4))
    task = TaskConfig(modulus=draw(st.integers(2, 9)), min_chain_len=low,
                      max_chain_len=draw(st.integers(low, 5)), pool_size=draw(st.integers(1, 32)))
    mix = MixConfig(alpha=draw(unit()), gamma=draw(positive()), beta_gal=draw(positive()),
                    beta_kl=draw(st.floats(0.0, 1.0) | st.just(0)),
                    epsilon_clip=draw(unit()), xi=draw(positive()),
                    pair_cap=draw(st.integers(1, 100)),
                    ratio_level=draw(st.sampled_from(["token", "trajectory"])),
                    ratio_baseline=draw(st.sampled_from(["rollout", "ref"])))
    dim = draw(st.integers(1, 6))
    b_sys = draw(st.lists(st.floats(-5.0, 5.0) | st.integers(-5, 5), min_size=dim, max_size=dim))
    testbed = BiasTestbedConfig(dim=dim, b_sys=tuple(b_sys),
                                sigma_bias=draw(st.floats(0.0, 5.0) | st.just(2)))
    m = draw(st.integers(1, 8))
    need = max(task.max_chain_len + 2, max_demo_len(task, m))
    return TrainConfig(
        seed=draw(st.integers(0, 2**32)), steps=draw(st.integers(0, 10_000)),
        batch_size=draw(st.integers(1, 64)), k=draw(st.integers(2, 64)),
        learning_rate=draw(positive()), m_teachers=m,
        ref_refresh_period=draw(st.integers(0, 100)),
        t_max=need + draw(st.integers(0, 8)), history=draw(st.integers(0, 4)),
        init_syntax_logit=draw(st.floats(0.0, 5.0) | st.just(0)),
        variant=draw(st.sampled_from(VARIANTS)), mix=mix, task=task, testbed=testbed)


@given(cfg=train_configs())
@FAST
def test_config_json_round_trip(cfg):
    doc = json.loads(json.dumps(train_config_to_dict(cfg)))
    assert train_config_from_dict(doc) == cfg
