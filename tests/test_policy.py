"""Policy core: log-probabilities, scores, sampling, entropy, KL."""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from dypo.errors import ConfigError, InputError, StateError
from dypo.gradcheck import certify, gradient_error, make_instance
from dypo.policy import (
    KeyIndex,
    PolicyParams,
    RowBlock,
    keyed_score,
    ContextInterner,
    mean_step_entropy,
    owner_kl,
    sample_lockstep,
    sample_trajectory,
)
from dypo.seeding import substream
from dypo.tasks import TaskConfig, generate_query

from conftest import block_dict, traj_log_prob, traj_score
from reference import log_probs, probs, sampling_cdf, scalar_numerical_gradient

Q0 = SimpleNamespace(query_id=0)


def test_log_prob_uniform_three_steps():
    params = PolicyParams(4, 1)
    lp = traj_log_prob(params, 0, (0, 1, 2))
    assert lp == pytest.approx(3 * np.log(0.25), abs=1e-12)
    assert lp == pytest.approx(-4.15888, abs=1e-4)


def test_log_prob_peaked_single_token():
    params = PolicyParams(4, 1)
    logits = np.array([10.0, -10.0, -10.0, -10.0])
    params.set_logits((0, ()), logits)
    lp = traj_log_prob(params, 0, (0,))
    direct = np.log(np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum())[0]
    assert lp == pytest.approx(direct, abs=1e-15)
    assert lp == pytest.approx(-6.18e-9, rel=0.02)


def test_log_prob_deterministic_across_copies():
    rng = substream(3, "lp")
    params = PolicyParams(5, 1)
    for ctx in [(0, ()), (0, (1,)), (0, (4,))]:
        params.set_logits(ctx, rng.normal(0, 2, 5))
    tokens = (1, 4, 2)
    assert traj_log_prob(params, 0, tokens) == traj_log_prob(params.copy(), 0, tokens)


def test_log_prob_input_errors():
    params = PolicyParams(4, 1)
    with pytest.raises(InputError):
        traj_log_prob(params, 0, (4,))
    with pytest.raises(InputError):
        traj_log_prob(params, 0, ())


def test_score_uniform_single_step():
    params = PolicyParams(4, 1)
    grad = block_dict(params, traj_score(params, 0, (0,)))
    np.testing.assert_allclose(grad[(0, ())], [0.75, -0.25, -0.25, -0.25], atol=1e-15)


def test_score_zero_mean_monte_carlo():
    # E[score] = 0 componentwise under the sampling policy, 3-sigma band
    task = TaskConfig()
    query = generate_query(task, 2, substream(5, "q"), query_id=0)
    params = PolicyParams(task.vocab_size, 1)
    rng = substream(5, "mc")
    n = 20_000
    sampled = sample_lockstep(params, [query.query_id] * (n // 8), 8, rng,
                              stop_token=task.stop, t_max=8)
    rows, tokens = sampled.steps
    # every trajectory's score, keyed by (trajectory, context row)
    span = len(params.interner.contexts)
    owner = np.repeat(np.arange(n), sampled.lengths)
    index = KeyIndex(owner, rows, tokens, n, task.vocab_size)
    score = keyed_score(params, index, np.ones(len(rows)))
    sums, sqs = np.zeros((span, task.vocab_size)), np.zeros((span, task.vocab_size))
    np.add.at(sums, index.rows, score.values)
    np.add.at(sqs, index.rows, score.values**2)
    visited = np.unique(index.rows)
    mean = sums[visited] / n
    var = sqs[visited] / n - mean**2
    se = np.sqrt(np.maximum(var, 1e-30) / n)
    zscores = (np.abs(mean) / (se + 1e-30)).ravel()
    # 81 correlated components: cap the worst at a Bonferroni-safe level and
    # require the bulk to sit inside the 3-sigma band
    assert max(zscores) < 4.5
    assert np.median(zscores) < 1.5
    assert np.mean(np.asarray(zscores) < 3.0) > 0.9


def test_score_matches_finite_differences():
    task = TaskConfig()
    for i in range(100):
        rng = substream(11, "fd", i)
        query = generate_query(task, 1 + i % 3, rng, query_id=i)
        params = PolicyParams(task.vocab_size, 1)
        contexts = [(i, ())] + [(i, (a,)) for a in range(task.vocab_size)]
        for ctx in contexts:
            params.set_logits(ctx, rng.normal(0, 1.5, task.vocab_size))
        traj = sample_trajectory(params, query, rng, stop_token=task.stop, t_max=10)
        analytic = traj_score(params, i, traj.tokens)
        numeric = scalar_numerical_gradient(lambda p: traj_log_prob(p, i, traj.tokens), params,
                                            contexts)
        assert gradient_error(params, analytic, numeric) < 1e-6


def test_sample_group_deterministic():
    task = TaskConfig()
    query = generate_query(task, 2, substream(7, "q"), query_id=0)
    params = PolicyParams(task.vocab_size, 1)
    a, b = (sample_lockstep(params, [query.query_id, 3], 8, substream(7, "roll"),
                            stop_token=task.stop, t_max=16) for _ in range(2))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_sample_group_forced_stop():
    task = TaskConfig()
    query = generate_query(task, 1, substream(7, "q"), query_id=0)
    row = np.zeros(task.vocab_size)
    row[task.stop] = 30.0
    params = PolicyParams(task.vocab_size, 1, default_logits=row)  # every context emits stop
    group = sample_lockstep(params, [query.query_id], 8, substream(7, "r"), stop_token=task.stop,
                            t_max=16)
    assert (group.lengths == 1).all() and group.terminal.all()
    assert (group.steps[1] == task.stop).all() and group.steps.shape == (2, 8)


def test_sample_group_needs_k_at_least_two():
    task = TaskConfig()
    query = generate_query(task, 1, substream(7, "q"), query_id=0)
    params = PolicyParams(task.vocab_size, 1)
    for k, stop, t_max in ((1, task.stop, 16), (2, task.vocab_size, 16), (2, task.stop, 0)):
        with pytest.raises(ConfigError):
            sample_lockstep(params, [query.query_id], k, substream(7, "r"), stop_token=stop,
                            t_max=t_max)


def test_transition_map_grows_past_its_capacity():
    interner = ContextInterner(3, 100)
    capacity = len(interner._next)
    chain = [interner.root(0)]
    for t in range(2 * capacity):  # the history only grows: a fresh context at every step
        chain.append(interner.step(chain[-1], t % 3))
    assert len(interner.contexts) > capacity
    assert len(interner._next) >= len(interner.contexts)
    filled = np.zeros(interner._next.shape, dtype=bool)
    for t, (row, nxt) in enumerate(zip(chain, chain[1:])):
        assert interner._next[row, t % 3] == nxt
        filled[row, t % 3] = True
    assert (interner._next[~filled] == -1).all()


def test_sampling_frequencies_match_softmax():
    params = PolicyParams(6, 1)
    rng = substream(9, "freq")
    params.set_logits((0, ()), rng.normal(0, 1, 6))
    pi = probs(params, (0, ()))
    counts = np.zeros(6)
    n = 100_000
    for _ in range(n):
        traj = sample_trajectory(params, Q0, rng, stop_token=5, t_max=1)
        counts[traj.tokens[0]] += 1
    np.testing.assert_allclose(counts / n, pi, atol=0.01)


def test_mean_step_entropy_uniform():
    params = PolicyParams(4, 1)
    assert mean_step_entropy(params, params.rows([(0, ())])) == pytest.approx(np.log(4), abs=1e-12)


def test_mean_step_entropy_near_deterministic():
    params = PolicyParams(4, 1)
    params.set_logits((0, ()), [20.0, 0.0, 0.0, 0.0])
    assert mean_step_entropy(params, params.rows([(0, ())])) < 0.01


def test_mean_step_entropy_mixed_contexts():
    rng = substream(13, "ent")
    params = PolicyParams(5, 1)
    contexts = [(0, ()), (0, (2,)), (1, (4,))]
    expected = 0.0
    for ctx in contexts:
        params.set_logits(ctx, rng.normal(0, 1, 5))
        p = probs(params, ctx)
        expected += -sum(pi * np.log(pi) for pi in p)
    got = mean_step_entropy(params, params.rows(contexts + contexts))  # duplicates collapse
    assert got == pytest.approx(expected / 3, rel=1e-12)


def _one_owner(params, rows) -> KeyIndex:
    """The given rows as the keys of one owner."""
    return KeyIndex(np.zeros_like(rows), rows, np.zeros_like(rows), 1, params.vocab_size)


def test_kl_identical_is_zero():
    rng = substream(17, "kl")
    params = PolicyParams(5, 1)
    params.set_logits((0, ()), rng.normal(0, 1, 5))
    kl = owner_kl(params, params.snapshot(), _one_owner(params, params.rows([(0, ())]))).value
    assert kl[0] == 0.0


def test_kl_nonnegative_and_matches_direct_sum():
    rng = substream(17, "pairs")
    for _ in range(1000):
        params = PolicyParams(4, 1)
        params.set_logits((0, ()), rng.normal(0, 2, 4))
        ref = params.copy()
        ref.set_logits((0, ()), rng.normal(0, 2, 4))
        kl = owner_kl(params, ref, _one_owner(params, params.rows([(0, ())]))).value[0]
        assert kl >= -1e-15
        p = probs(params, (0, ()))
        q = probs(ref, (0, ()))
        direct = sum(pi * (np.log(pi) - np.log(qi)) for pi, qi in zip(p, q))
        assert kl == pytest.approx(direct, abs=1e-12)


def test_kl_shape_mismatch():
    # another vocabulary, or the same vocabulary and history with an interner of its own
    params = PolicyParams(4, 1)
    rows = params.rows([(0, ())])
    for ref in (PolicyParams(5, 1), PolicyParams(4, 1)):
        with pytest.raises(InputError):
            owner_kl(params, ref, _one_owner(params, rows))


def test_softmax_normalization_tight():
    rng = substream(19, "norm")
    params = PolicyParams(7, 1)
    for i in range(200):
        ctx = (0, (i % 7,))
        params.set_logits(ctx, rng.normal(0, 5, 7))
        assert abs(probs(params, ctx).sum() - 1.0) < 1e-12


def test_snapshot_is_immutable_and_stable():
    params = PolicyParams(4, 1)
    params.set_logits((0, ()), [1.0, 2.0, 3.0, 4.0])
    snap = params.snapshot()
    with pytest.raises(StateError):
        snap.set_logits((0, ()), [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(StateError):
        snap.apply_update(RowBlock(snap.rows([(0, ())]), np.ones((1, 4))), 1.0)
    assert traj_log_prob(snap, 0, (2, 3)) == traj_log_prob(snap, 0, (2, 3))


@pytest.mark.parametrize("values, scale", [
    ([[np.nan, 0.0, 0.0, 0.0]], 1.0),
    ([[1.0, 0.0, 0.0, 0.0]], 1e308 * 10),  # the scaled update overflows
    ([[1.0, -1.0, 0.0, 0.0]], 1e308),  # finite logits whose range overflows
])
def test_an_update_leaving_a_row_unusable_is_refused_before_it_writes(values, scale):
    params = PolicyParams(4, 1)
    params.set_logits((0, ()), [1.0, 2.0, 3.0, 4.0])
    before, generation = params.copy(), params.generation
    rows = params.rows([(1, ()), (0, ())])
    update = RowBlock(rows, np.array([[0.5, 0.5, 0.0, 0.0]] + values))
    with pytest.raises(InputError, match="non-finite or too wide"):
        params.apply_update(update, scale)
    assert params.generation == generation
    assert params.written_contexts() == before.written_contexts()
    for ctx in ((0, ()), (1, ())):
        assert np.array_equal(params.logits(ctx), before.logits(ctx))
        assert np.array_equal(probs(params, ctx), probs(before, ctx))


def test_step_contexts_history_truncation():
    for history, expected in ((1, [(3, ()), (3, (5,)), (3, (2,))]),
                              (2, [(3, ()), (3, (5,)), (3, (5, 2))])):
        params = PolicyParams(8, history)
        rows, _ = params.trajectory_rows(3, (5, 2, 7))
        assert [params.interner.contexts[r] for r in rows] == expected


def test_fd_probes_restore_the_policy_bit_exactly():
    # the batched certifier, with an interned row the policy never wrote
    # among the probed contexts, leaves the policy and its reference as they were
    inst = make_instance(29, 4)
    params, ref = inst.params, inst.ref
    unwritten = (inst.query.query_id + 1, ())
    for policy in (params, ref):
        policy.row(unwritten)  # interned, and covered by both policies' arrays
    inst.contexts.append(unwritten)
    written = params.written_contexts()
    interned = len(params.interner.contexts)
    names = PolicyParams._ARRAYS + ("_written",)
    tables = [[getattr(p, name).tobytes() for name in names] for p in (params, ref)]
    for loss in ("sft_loss_grad", "grpo_loss_grad", "gal_loss_grad", "dypo_step_loss"):
        assert certify(inst, loss, rng=substream(29, "probe")) < 1e-6
    assert len(params.interner.contexts) == interned
    for p, before in zip((params, ref), tables):
        assert before == [getattr(p, name).tobytes() for name in names]
    assert params.written_contexts() == written
    assert unwritten not in written
    np.testing.assert_array_equal(params.logits(unwritten), params.default_logits)


def test_scalar_fd_oracle_restores_the_policy_bit_exactly():
    rng = substream(29, "probe")
    params = PolicyParams(5, 1)
    contexts = [(0, ()), (0, (1,)), (0, (3,))]
    for ctx in contexts:
        params.set_logits(ctx, rng.normal(0, 2, 5))
    probed = contexts + [(0, (4,))]  # one unwritten row too
    before = {ctx: [f(ctx).copy() for f in (params.logits, partial(probs, params),
                                            partial(log_probs, params),
                                            partial(sampling_cdf, params))] for ctx in probed}
    scalar_numerical_gradient(lambda p: traj_log_prob(p, 0, (1, 4, 3, 2)), params, probed)
    for ctx, rows in before.items():
        after = (params.logits(ctx), probs(params, ctx), log_probs(params, ctx),
                 sampling_cdf(params, ctx))
        assert all(np.array_equal(a, b) for a, b in zip(rows, after))
    assert params.written_contexts() == contexts


def test_probes_need_interned_contexts():
    inst = make_instance(29, 4)
    inst.contexts.append((inst.query.query_id + 1, ()))
    interned = len(inst.params.interner.contexts)
    with pytest.raises(InputError, match="interned"):
        certify(inst, "gal_loss_grad")
    assert len(inst.params.interner.contexts) == interned


def test_unwritten_rows_read_default_logits():
    params = PolicyParams(4, 1, default_logits=[1.0, 0.0, 0.0, 0.0])
    params.set_logits((0, ()), [0.0, 0.0, 0.0, 5.0])
    contexts = [(q, (a,)) for q in range(10) for a in range(4)]  # grows past 16 rows
    default = probs(params, (9, (3,))).copy()
    assert default[0] > 0.4
    for ctx in contexts:
        np.testing.assert_array_equal(probs(params, ctx), default)
    assert params.logits((0, ()))[3] == 5.0
    # fixed at construction: no write path refills the unwritten rows
    with pytest.raises(AttributeError):
        params.default_logits = np.zeros(4)
    with pytest.raises(ValueError, match="read-only"):
        params.default_logits[0] = 0.0
    np.testing.assert_array_equal(probs(params, (5, (2,))), default)
    assert params.written_contexts() == [(0, ())]


def test_copies_share_the_interner_and_not_the_logits():
    params = PolicyParams(4, 1)
    params.set_logits((0, ()), [1.0, 2.0, 3.0, 4.0])
    copy, snap = params.copy(), params.snapshot()
    assert copy.interner is params.interner is snap.interner
    copy.set_logits((0, ()), np.zeros(4))
    copy.set_logits((1, ()), np.ones(4))
    assert params.logits((0, ()))[3] == 4.0 and snap.logits((0, ()))[3] == 4.0
    assert snap.row((1, ())) == copy.row((1, ()))
    np.testing.assert_array_equal(snap.logits((1, ())), np.zeros(4))
