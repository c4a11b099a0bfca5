"""Property tests: the lockstep and scalar samplers and row-block gradients
against naive per-position and per-token references, a policy's copies,
snapshot and probe tables against the policy, a sampled group rebuilt
by hand against its batch of one, one keyed loss pass against its groups one
by one and at a copy of the policy against the policy (which may have sampled
the batch), one SFT pass against its queries one by one, the KL against its
per-key formula, the routing gate
against its pathways by hand, GAL's sigmoid against scipy's ``expit``, pair
construction one group at a time and batched, the grading partition and
batch grades against per-group grades, ``sum_rows`` against ``np.add.at``,
the keys' numbering against ``np.unique``,
advantage standardization per group and per reward matrix, the reward and
the batch reward against each other and the general answer parser, one
query draw against one draw per query, the JSON config round trip, a named
substream against ``default_rng`` of its ``SeedSequence`` and a run's bulk
step streams against substreams, the certifier's batched finite-difference
probes against scalar ones, the list-free exact sum against ``math.fsum``,
and the class-shared transition map against naive interning."""

from __future__ import annotations

import functools
import json
import math
import sys
import warnings
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from dypo.errors import ConfigError, InputError, StateError
from dypo.grading import DifficultyGrade, grade, grades
from dypo.gradcheck import make_instance, numerical_gradient, probe_losses
from dypo.objectives import (
    BatchPairs,
    GroupBatch,
    MixConfig,
    _expit,
    _segment_sums,
    gal_pass,
    grpo_estimator,
    grpo_pass,
    mixed_keyed,
    mixed_pass,
    pair_arrays,
    rollout_groups,
    route_groups,
    sft_pass,
    standardize_advantages,
)
from dypo import seeding
from dypo.policy import (
    ContextInterner,
    PolicyParams,
    Trajectory,
    _unique_inverse,
    exact_sum,
    kl_gradient,
    owner_kl,
    sample_lockstep,
    sample_trajectory,
    score_sq_norms,
    sum_blocks,
    sum_rows,
)
from dypo.seeding import step_substreams, substream
from dypo.tasks import (
    MAX_POOL_SIZE,
    MAX_TABLE_BYTES,
    BiasTestbedConfig,
    Query,
    TaskConfig,
    batch_reward,
    generate_query,
    make_teacher_ensemble,
    max_demo_len,
    reward,
    teacher_sample,
)
from dypo.trainer import (
    VARIANTS,
    QueryPool,
    TrainConfig,
    init_policy,
    train_config_from_dict,
    train_config_to_dict,
)

from conftest import block_dict, traj_score
from reference import (
    draw_group_pairs,
    gate_terms,
    log_softmax,
    mean_step,
    naive_gal,
    naive_grpo,
    naive_lockstep_sample,
    naive_log_prob,
    naive_owner_kl,
    naive_reward,
    naive_sample,
    naive_score,
    sampling_cdf,
    scalar_numerical_gradient,
    step_contexts,
    trajectories,
)

V = 9
# derandomized, so every run of the suite checks the same examples
FAST = settings(deadline=None, derandomize=True)
SLOW = settings(FAST, max_examples=40)


def assert_block_matches(params, block, expected: dict) -> None:
    """Equal to the reference at 1e-12, relative to max(1, largest reference entry)."""
    got = block_dict(params, block)
    assert set(expected) <= set(got)
    scale = max([1.0] + [float(np.abs(v).max()) for v in expected.values()])
    for ctx, vec in got.items():
        diff = np.abs(vec - expected.get(ctx, np.zeros(V))).max()
        assert diff <= 1e-12 * scale, (ctx, diff)


def assert_same_report(got, want) -> None:
    """Two passes over one batch, bit for bit: losses, gradient keys and
    values, every aux array and the pair weights."""
    assert got.loss.tobytes() == want.loss.tobytes()
    assert got.gradient.keys.tobytes() == want.gradient.keys.tobytes()
    assert got.gradient.values.tobytes() == want.gradient.values.tobytes()
    assert set(got.aux) == set(want.aux)
    for name, value in got.aux.items():
        assert value.tobytes() == want.aux[name].tobytes()
    assert (got.weights is None) == (want.weights is None)
    if want.weights is not None:
        assert got.weights.tobytes() == want.weights.tobytes()


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

# the largest double below 1: above the last entry of a cdf that rounds low
TOP = np.nextafter(1.0, 0.0)
# logits whose cdf ends below TOP: seven equal tokens and two of probability 0
ROUNDED_LOW = (0.0,) * 7 + (-800.0,) * 2


class TopDraws:
    """A generator whose draws number every, 2 * every, ... are TOP (every 0: none)."""

    def __init__(self, rng: np.random.Generator, every: int):
        self.rng, self.every, self.drawn = rng, every, 0

    def random(self, size=None):
        u = np.asarray(self.rng.random(size))
        if self.every:
            at = np.arange(self.drawn + 1, self.drawn + u.size + 1) % self.every == 0
            u = np.where(at.reshape(u.shape), TOP, u)
        self.drawn += u.size
        return u if size is not None else float(u)


@given(seed=seeds, history=st.integers(0, 3), k=st.integers(2, 6),
       others=st.lists(st.integers(0, 4), max_size=4), t_max=st.integers(1, 16),
       stop=st.integers(0, V - 1), every=st.sampled_from([0, 1, 2, 5]), rounded_root=st.booleans())
@example(seed=5, history=1, k=2, others=[3, 0, 3, 1], t_max=6, stop=6, every=0, rounded_root=False)
@FAST
def test_sampler_matches_naive_per_token_reference(seed, history, k, others, t_max, stop, every,
                                                   rounded_root):
    # query 0 has written rows (its root's cdf rounding low, maybe) and rows
    # a sibling interned; the others read default rows, all interned mid-sampling.
    # The ids after query 0 may repeat, so roots are interned in first-seen order
    params, twin = _sampling_params(seed, history), _sampling_params(seed, history)
    if rounded_root:
        for policy in (params, twin):
            policy.set_logits((0, ()), ROUNDED_LOW)
    query_ids = [0, *others]
    rng, twin_rng = (TopDraws(substream(seed, "sample"), every) for _ in range(2))
    got = sample_lockstep(params, query_ids, k, rng, stop_token=stop, t_max=t_max)
    want = naive_lockstep_sample(twin, query_ids, k, twin_rng, stop, t_max)
    # new contexts were interned in the reference's order: by position, then trajectory
    assert params.interner.contexts == twin.interner.contexts
    lengths = [len(t) for t in want]
    assert got.lengths.tolist() == lengths
    assert got.terminal.tolist() == [t.terminal for t in want]
    assert got.steps.shape == (2, sum(lengths)) and got.steps.dtype == np.intp
    assert got.steps[1].tolist() == [tok for t in want for tok in t.tokens]
    contexts = [ctx for i, t in enumerate(want)
                for ctx in step_contexts(query_ids[i // k], t.tokens, history)]
    assert np.array_equal(got.steps[0], params.rows(contexts))
    # the scalar sampler, on from the same streams
    query = SimpleNamespace(query_id=0)
    assert [sample_trajectory(params, query, rng, stop_token=stop, t_max=t_max)] == \
        naive_sample(twin, 0, 1, twin_rng, stop, t_max)
    assert rng.random() == twin_rng.random()
    # a group built from a sampled group's trajectories resolves the same rows
    built = GroupBatch.of(params, query, want[:k], (0,) * k, np.zeros(k))
    assert built.interner is params.interner
    assert np.array_equal(built.steps, got.steps[:, :sum(lengths[:k])])
    assert built.lengths.tolist() == lengths[:k]


@given(seed=seeds, history=st.integers(0, 3),
       picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=12))
@FAST
def test_copies_and_probe_tables_read_the_original(seed, history, picks):
    # the original's arrays do not cover the rows a sibling interned, which
    # every table reads as unwritten; the twin is built the same and is only read
    params, twin = _sampling_params(seed, history), _sampling_params(seed, history)
    generation = params.generation
    used = len(params.interner.contexts)
    rows = np.array(picks) % used
    shift = np.random.default_rng(seed).normal(0, 1, (len(rows), V))
    tables = (params.copy(), params.snapshot(), params.with_rows(rows),
              params.with_rows(rows, shift))
    every = (np.repeat(np.arange(used), V), np.tile(np.arange(V), used))
    want = twin.logp_at(*every).reshape(used, V)
    for table in tables:
        assert table.interner is params.interner
        assert table.logp_at(*every).tobytes() == want.tobytes()
        assert table.written_contexts() == twin.written_contexts()
    assert not tables[0].frozen and all(table.frozen for table in tables[1:])
    extra = np.repeat(used + np.arange(len(rows)), V), np.tile(np.arange(V), len(rows))
    assert tables[2].logp_at(*extra).tobytes() == want[rows].tobytes()
    shifted = tables[3].logp_at(*extra).reshape(len(rows), V)
    for got, row, moved in zip(shifted, rows.tolist(), shift):
        ctx = params.interner.contexts[row]
        np.testing.assert_allclose(got, log_softmax(twin.logits(ctx) + moved), rtol=0, atol=1e-12)
    # the original is unchanged
    assert params.generation == generation
    assert params.written_contexts() == twin.written_contexts()
    assert params.logp_at(*every).tobytes() == want.tobytes()
    for ctx in params.interner.contexts:
        assert params.logits(ctx).tobytes() == twin.logits(ctx).tobytes()


def _per_group(batch: GroupBatch) -> list[tuple[int, int, int]]:
    """Each group's query object (by identity), grade code and size, once
    the three are checked to be 1-D arrays of one entry per group."""
    for name in ("queries", "grade", "k"):
        column = getattr(batch, name)
        assert type(column) is np.ndarray and column.shape == (batch.count,), name
    return list(zip(map(id, batch.queries.tolist()), batch.grade.tolist(), batch.k.tolist()))


@given(seed=seeds, k=st.integers(2, 8), n_queries=st.integers(1, 12), mid_only=st.booleans())
@FAST
def test_sampled_groups_are_their_own_rollouts(seed, k, n_queries, mid_only):
    # the starting policy of a run: every grade occurs
    cfg = TrainConfig(seed=seed % 1000)
    pool = QueryPool(cfg.task, cfg.seed)
    params, twin = init_policy(cfg, pool), init_policy(cfg, pool)
    queries = [pool.queries[i % len(pool)] for i in range(n_queries)]
    only = DifficultyGrade.MID if mid_only else None
    batch = rollout_groups(params, queries, k, substream(seed, "groups"), xi=cfg.mix.xi,
                           stop_token=cfg.task.stop, t_max=cfg.t_max)
    if mid_only:  # the Mid groups, as collect_mid_groups keeps them
        batch = batch.select(batch.grade == only)
    groups = [batch.select([i]) for i in range(len(batch))]
    # every way to build a batch keeps each group's query, grade and size together
    facts = _per_group(batch)
    backwards = list(range(len(batch)))[::-1]
    assert _per_group(batch.select(backwards)) == [facts[i] for i in backwards]
    assert _per_group(batch.select(np.arange(len(batch)) % 2 == 0)) == facts[::2]
    assert _per_group(batch.select(slice(1, None, 2))) == facts[1::2]
    assert _per_group(batch.tiled(np.tile(batch.rows, (3, 1)))) == facts * 3
    if groups:
        assert _per_group(GroupBatch.concat(groups)) == facts
    sampled = sample_lockstep(twin, [q.query_id for q in queries], k, substream(seed, "groups"),
                              stop_token=cfg.task.stop, t_max=cfg.t_max)
    ends = np.cumsum(sampled.lengths).tolist()
    tokens = [tuple(sampled.steps[1, lo:hi].tolist()) for lo, hi in zip([0] + ends, ends)]
    expected = []
    for g, query in enumerate(queries):
        trajs = [Trajectory(tokens[i], terminal=bool(sampled.terminal[i]))
                 for i in range(g * k, g * k + k)]
        rewards = tuple(reward(query, t) for t in trajs)
        if only is None or grade(rewards) is only:
            expected.append((query, trajs, rewards))
    assert len(groups) == len(expected)
    # the groups share one intp array of exactly their own steps: no padding, no dropped group
    kept_steps = sum(len(t) for _, trajs, _ in expected for t in trajs)
    assert batch.steps.dtype == np.intp and batch.steps.shape == (2, kept_steps)
    for group, (query, trajs, rewards) in zip(groups, expected):
        assert group.queries[0] is query and tuple(group.rewards.tolist()) == rewards
        assert group.grade.tolist() == [grade(rewards)]
        by_hand = GroupBatch.of(params, query, trajs, rewards, group.advantages)
        assert _per_group(by_hand) == [(id(query), grade(rewards), k)]
        np.testing.assert_array_equal(group.advantages, standardize_advantages(rewards, cfg.mix.xi))
        assert trajectories(group) == tuple(trajs)
        contexts = [ctx for t in trajs for ctx in step_contexts(query.query_id, t.tokens, 1)]
        assert np.array_equal(group.rows, params.rows(contexts))
        assert group.tokens.tolist() == [tok for t in trajs for tok in t.tokens]
        assert group.lengths.tolist() == [len(t) for t in trajs]
        # recorded as sampled: GRPO's ratios on a fresh group are exactly 1
        np.testing.assert_array_equal(group.sample_logp, params.logp_at(group.rows, group.tokens))
        assert not group.log_ratios(params).any()


@given(seed=seeds, k=st.integers(2, 8), n_queries=st.integers(1, 12), history=st.integers(0, 2))
@FAST
def test_a_sampled_group_rebuilt_by_hand_is_its_batch_of_one(seed, k, n_queries, history):
    # each group's trajectories, decoded from the batch's tokens, rewarded
    # and standardized again and resolved anew in the policy's interner
    cfg = TrainConfig(seed=seed % 1000, history=history)
    pool = QueryPool(cfg.task, cfg.seed)
    params = init_policy(cfg, pool)
    queries = [pool.queries[i % len(pool)] for i in range(n_queries)]
    batch = rollout_groups(params, queries, k, substream(seed, "rebuilt"), xi=cfg.mix.xi,
                           stop_token=cfg.task.stop, t_max=cfg.t_max)
    for i, query in enumerate(queries):
        want = batch.select([i])
        trajs = trajectories(want)
        rewards = [reward(query, t) for t in trajs]
        got = GroupBatch.of(params, query, trajs, rewards,
                            standardize_advantages(rewards, cfg.mix.xi))
        assert got.interner is want.interner
        for name in ("queries", "grade", "k", "steps", "lengths", "terminal", "rewards",
                     "advantages", "sample_logp"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


@functools.cache
def _pool(size: int) -> QueryPool:
    return QueryPool(TaskConfig(pool_size=size), 0)


@given(seed=seeds, n=st.sampled_from([1, 2, 3, 7, 8, 32, 100, 1000]), m=st.integers(0, 512))
@FAST
def test_one_query_draw_is_the_one_index_draws(seed, n, m):
    # a step's, an evaluation's or a bench chunk's queries come from one
    # rng.integers call: the same queries, and the same stream after them,
    # as one draw per query
    pool = _pool(n)
    rng, twin = substream(seed, "draw"), substream(seed, "draw")
    assert pool.draw(rng, m) == [pool.queries[int(twin.integers(n))] for _ in range(m)]
    assert rng.random() == twin.random()


def test_sampler_clamps_a_draw_above_the_last_cdf_entry():
    # the uniform 7-way cdf rounds to a last entry below the largest draw
    params = PolicyParams(7, 1)
    assert sampling_cdf(params, (0, ()))[-1] < TOP
    top = TopDraws(np.random.default_rng(0), 1)
    traj = sample_trajectory(params, SimpleNamespace(query_id=0), top, stop_token=6, t_max=3)
    assert traj == Trajectory((6,), terminal=True)
    assert naive_sample(params, 0, 1, top, 6, 3) == [traj]
    group = sample_lockstep(params, [0, 1], 3, top, stop_token=6, t_max=3)
    assert group.steps[1].tolist() == [6] * 6 and (group.lengths == 1).all()
    assert naive_lockstep_sample(params, [0, 1], 3, top, 6, 3) == [traj] * 6


def test_samplers_follow_the_transition_map_as_it_grows_mid_sample():
    # a long history makes every step a new context, so the map outgrows its capacity
    logits = np.zeros(V)
    logits[6] = -800.0  # the stop token, never drawn
    params, twin = (PolicyParams(V, 40, default_logits=logits) for _ in range(2))
    capacity = len(params.interner._next)
    rng, twin_rng = substream(3, "grow"), substream(3, "grow")
    traj = sample_trajectory(params, SimpleNamespace(query_id=0), rng, stop_token=6, t_max=40)
    assert [traj] == naive_sample(twin, 0, 1, twin_rng, 6, 40)
    assert len(params.interner.contexts) > capacity
    got = sample_lockstep(params, [1, 2], 2, rng, stop_token=6, t_max=40)
    want = naive_lockstep_sample(twin, [1, 2], 2, twin_rng, 6, 40)
    assert got.steps[1].tolist() == [tok for t in want for tok in t.tokens]
    assert got.lengths.tolist() == [len(t) for t in want]
    assert params.interner.contexts == twin.interner.contexts


@given(seed=seeds, history=st.integers(0, 3), tokens=token_seqs)
@FAST
def test_score_rows_sum_to_zero_over_exactly_the_visited_contexts(seed, history, tokens):
    params = _random_params(seed, history)
    block = traj_score(params, 0, tokens)
    assert np.abs(block.values.sum(axis=1)).max() <= 1e-12
    assert set(block_dict(params, block)) == set(step_contexts(0, tokens, history))
    assert len(np.unique(block.rows)) == len(block.rows)
    assert_block_matches(params, block, naive_score(params, 0, tokens))


@given(seed=seeds, index=st.integers(0, 60), n_teachers=st.integers(1, 4))
@SLOW
def test_sft_block_matches_naive_reference(seed, index, n_teachers):
    inst = make_instance(seed, index)
    teachers = inst.teachers[:1] * n_teachers
    report = sft_pass(inst.params, [inst.query], teachers, substream(seed, "sft"))
    rng = substream(seed, "sft")
    demo = teacher_sample(teachers[int(rng.integers(n_teachers))], inst.query, rng)
    expected = {ctx: -vec for ctx, vec in
                naive_score(inst.params, inst.query.query_id, demo.tokens).items()}
    assert_block_matches(inst.params, report.gradient.blocks()[0], expected)
    nll = -naive_log_prob(inst.params, inst.query.query_id, demo.tokens)
    assert abs(report.loss[0] - nll) <= 1e-12 * max(1.0, abs(nll))


@given(seed=seeds, history=st.integers(0, 2),
       picks=st.lists(st.integers(0, 3), min_size=1, max_size=8), n_teachers=st.integers(1, 4))
@FAST
def test_one_sft_pass_is_its_queries_one_by_one(seed, history, picks, n_teachers):
    # queries may repeat; each draws its own teacher and demonstration
    task = TaskConfig()
    rng = np.random.default_rng(seed)
    pool = [generate_query(task, 1 + i % 3, rng, query_id=i) for i in range(4)]
    params = PolicyParams(task.vocab_size, history,
                          default_logits=rng.normal(0, 1, task.vocab_size))
    for query in pool:
        params.set_logits((query.query_id, ()), rng.normal(0, 2, task.vocab_size))
    teachers = make_teacher_ensemble(task, n_teachers, seed)
    queries = [pool[i] for i in picks]
    draws, twin = substream(seed, "sft"), substream(seed, "sft")
    batched = sft_pass(params, queries, teachers, draws)
    blocks = batched.gradient.blocks()
    assert len(blocks) == len(queries)
    for i, query in enumerate(queries):
        alone = sft_pass(params, [query], teachers, twin)
        assert batched.loss[i].tobytes() == alone.loss[0].tobytes()
        want, = alone.gradient.blocks()
        assert blocks[i].rows.tobytes() == want.rows.tobytes()
        assert blocks[i].values.tobytes() == want.values.tobytes()
        assert set(batched.aux) == set(alone.aux) == {"teacher_index", "demo_len"}
        for name, value in batched.aux.items():
            assert value[i] == alone.aux[name][0]
    assert draws.random() == twin.random()


@given(seed=seeds, index=st.integers(0, 60), kind=st.sampled_from(["mid", "hard", "easy"]),
       on_policy=st.booleans(), beta_kl=st.sampled_from([0.0, 0.01, 0.5]), twin=st.booleans())
@SLOW
def test_grpo_block_matches_naive_reference(seed, index, kind, on_policy, beta_kl, twin):
    # the group's sampling log-probs are the reference's, or the params' own as in training
    inst = make_instance(seed, index, kind=kind)
    sampler = inst.params if on_policy else inst.ref
    group = GroupBatch.of(sampler, inst.query, trajectories(inst.group), inst.group.rewards,
                          inst.group.advantages)
    cfg = MixConfig(beta_kl=beta_kl)
    report = grpo_pass(inst.params, inst.ref, group, cfg)
    block, = report.gradient.blocks()
    assert_block_matches(inst.params, block,
                         naive_grpo(inst.params, inst.ref, sampler, group, cfg))
    if twin:  # a copy of the params gathers its log-probs, and gives the same bits
        assert_same_report(grpo_pass(inst.params.copy(), inst.ref, group, cfg), report)


@given(seed=seeds, index=st.integers(0, 60), beta=st.sampled_from([0.5, 1.0, 3.0]),
       duplicated=st.booleans())
@SLOW
def test_gal_block_matches_naive_reference(seed, index, beta, duplicated):
    inst = make_instance(seed, index)
    group, pairs = inst.group, inst.pairs
    if duplicated:
        # a second copy of a success and of a failure, each paired like the original
        trajs = trajectories(group)
        rewards = group.rewards.tolist() + [1, 0]
        group = GroupBatch.of(inst.params, inst.query, trajs + (trajs[0], trajs[-1]), rewards,
                              standardize_advantages(rewards, 1e-4))
        pairs = pair_arrays(group, 64, substream(seed, "pairs"))
    block, = gal_pass(inst.params, inst.ref, group, pairs,
                      MixConfig(beta_gal=beta)).gradient.blocks()
    assert_block_matches(inst.params, block,
                         naive_gal(inst.params, inst.ref, group, pairs.traj, beta))


# the largest argument math.exp takes, its neighbours, and the other values
# where an exp-based sigmoid can go wrong
EXP_MAX = math.log(sys.float_info.max)
EXPIT_EDGES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min, math.inf, -math.inf,
     math.nan, 800.0, -800.0]
    + [sign * v for sign in (1.0, -1.0)
       for v in (math.nextafter(EXP_MAX, 0.0), EXP_MAX, math.nextafter(EXP_MAX, math.inf))])


@given(x=hnp.arrays(np.float64, st.integers(0, 64),
                    elements=st.floats(allow_nan=True, allow_infinity=True)
                    | st.floats(-40.0, 40.0)))
@FAST
def test_gal_sigmoid_is_scipy_expit_bit_for_bit(x):
    x = np.concatenate([EXPIT_EDGES, x])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _expit(x)
    assert got.dtype == np.float64
    assert np.array_equal(got, expit(x), equal_nan=True)


def _graded_groups(inst, picks, extra, sampler, grades=None) -> list[GroupBatch]:
    """Groups on one policy, each a batch of one, Mid unless ``grades[i]``
    says otherwise: Mid group i is a success, a failure and more of either,
    picked by ``picks[i]``, an Easy group only successes and a Hard group
    only failures; all with the sampling log-probs of ``sampler``."""
    given = list(zip(trajectories(inst.group), inst.group.rewards.tolist()))
    won = [t for t, r in given if r == 1]
    lost = [t for t, r in given if r == 0]
    lost += [Trajectory((inst.query.stop,), terminal=True)]
    lost += [t for t in (Trajectory(tokens, terminal=False) for tokens in extra)
             if reward(inst.query, t) == 0]
    pool = won + lost
    groups = []
    for i, pick in enumerate(picks):
        of = {DifficultyGrade.EASY: won, DifficultyGrade.HARD: lost}.get(
            grades[i] if grades else DifficultyGrade.MID)
        if of is None:
            trajs = (won[pick[0] % len(won)], lost[pick[1] % len(lost)],
                     *(pool[p % len(pool)] for p in pick[2:]))
        else:
            trajs = tuple(of[p % len(of)] for p in pick)
        rewards = tuple(reward(inst.query, t) for t in trajs)
        groups.append(GroupBatch.of(sampler, inst.query, trajs, rewards,
                                    standardize_advantages(rewards, 1e-4)))
    return groups


def assert_same_group(batched, i: int, alone) -> None:
    """Group i of a pass over a batch, bit for bit the pass over that group
    alone: loss, gradient rows and values, every aux entry and the pair weights."""
    assert batched.loss[i] == alone.loss[0]
    got, (want,) = batched.gradient.blocks()[i], alone.gradient.blocks()
    np.testing.assert_array_equal(got.rows, want.rows)
    np.testing.assert_array_equal(got.values, want.values)
    assert set(batched.aux) == set(alone.aux)
    for name, value in batched.aux.items():
        assert value[i] == alone.aux[name][0]
    assert (batched.weights is None) == (alone.weights is None)
    if alone.weights is not None:
        end = int(batched.aux["pair_count"][:i + 1].sum())
        np.testing.assert_array_equal(batched.weights[end - len(alone.weights):end],
                                      alone.weights)


picks = st.lists(st.lists(st.integers(0, 2**16), min_size=2, max_size=8), min_size=1, max_size=6)


@given(seed=seeds, index=st.integers(0, 60), picks=picks,
       extra=st.lists(token_seqs, max_size=4), on_policy=st.booleans(),
       pair_cap=st.integers(1, 8), twin=st.booleans())
@FAST
def test_one_pass_over_a_batch_is_its_groups_one_by_one(seed, index, picks, extra, on_policy,
                                                         pair_cap, twin):
    inst = make_instance(seed, index)
    params, ref = inst.params, inst.ref
    groups = _graded_groups(inst, picks, extra, params if on_policy else ref)
    cfg = MixConfig(pair_cap=pair_cap)
    pairs = [pair_arrays(g, pair_cap, substream(seed, "pairs", i)) for i, g in enumerate(groups)]
    batch = GroupBatch.concat(groups)
    batch_pairs = BatchPairs.of(batch, [p.traj for p in pairs])
    grpo = grpo_pass(params, ref, batch, cfg)
    gal = gal_pass(params, ref, batch, batch_pairs, cfg)
    mixed = mixed_pass(params, ref, batch, batch_pairs, cfg)
    if twin:  # a copy of the params, never the sampler, gathers and gives the same bits
        copy = params.copy()
        assert not batch.at_sampler(copy) and batch.at_sampler(params) == on_policy
        assert_same_report(grpo_pass(copy, ref, batch, cfg), grpo)
        assert_same_report(gal_pass(copy, ref, batch, batch_pairs, cfg), gal)
        assert_same_report(mixed_pass(copy, ref, batch, batch_pairs, cfg), mixed)
        at_copy, at_params = (route_groups(p, ref, batch, inst.teachers, cfg,
                                           substream(seed, "route"))[0] for p in (copy, params))
        assert at_copy.loss == at_params.loss
        assert at_copy.gradient.rows.tobytes() == at_params.gradient.rows.tobytes()
        assert at_copy.gradient.values.tobytes() == at_params.gradient.values.tobytes()
    estimator = grpo_estimator(params, batch)
    bench_mix = mixed_keyed(estimator, gal.gradient, cfg.alpha).blocks()
    for i, group in enumerate(groups):
        assert_same_group(grpo, i, grpo_pass(params, ref, group, cfg))
        alone = gal_pass(params, ref, group, pairs[i], cfg)
        assert_same_group(gal, i, alone)
        # the routed step draws the same pairs from the same stream
        step, _ = route_groups(params, ref, group, inst.teachers, cfg, substream(seed, "pairs", i))
        mixed_block = mixed.gradient.blocks()[i]
        assert step.loss == mixed.loss[i]
        np.testing.assert_array_equal(step.gradient.rows, mixed_block.rows)
        np.testing.assert_array_equal(step.gradient.values, mixed_block.values)
        g_grpo, = grpo_estimator(params, group).blocks()
        g_gal, = alone.gradient.blocks()
        for got, want in ((estimator.blocks()[i], g_grpo),
                          (bench_mix[i],
                           sum_blocks([(cfg.alpha, g_grpo), (1.0 - cfg.alpha, g_gal)]))):
            np.testing.assert_array_equal(got.rows, want.rows)
            np.testing.assert_array_equal(got.values, want.values)
    one_by_one = [score_sq_norms(params, g.rows, g.tokens, g.lengths) for g in groups]
    np.testing.assert_array_equal(score_sq_norms(params, batch.rows, batch.tokens, batch.lengths),
                                  np.concatenate(one_by_one))


@given(seed=seeds, index=st.integers(0, 60), picks=picks, extra=st.lists(token_seqs, max_size=4),
       tile=st.booleans())
@FAST
def test_the_kl_is_its_per_key_formula_bit_for_bit(seed, index, picks, extra, tile):
    # one query's groups share rows, and a tiled batch's copies read the same
    # rows or a probe's own: each distinct row's term is computed once and
    # gathered per key, as if computed key by key
    inst = make_instance(seed, index)
    params, ref = inst.params, inst.ref
    batch = GroupBatch.concat(_graded_groups(inst, picks, extra, ref))
    if tile:  # every 37th probe's copy, reading its perturbed row at its own row
        probes = inst.probes
        params, ref = probes.params, probes.ref
        batch = batch.tiled(probes.remap(batch.rows)[::37])
    index = batch.key_index(params)
    kl = owner_kl(params, ref, index)
    owner = np.arange(batch.count).repeat(batch.k)[batch.traj]  # each step's group
    want, grads = naive_owner_kl(params, ref, owner, batch.rows, batch.count)
    assert kl.value.tobytes() == want.tobytes()
    assert index.owner.tolist() == [o for o, _, _ in grads]
    assert index.rows.tolist() == [r for _, r, _ in grads]
    assert kl_gradient(index, kl).tobytes() == np.array([g for _, _, g in grads]).tobytes()


# each certified loss with the grade of the group it is probed on: every
# pathway of the gate, and GRPO on a group whose advantages are all zero
PROBED = [("sft_loss_grad", DifficultyGrade.MID), ("grpo_loss_grad", DifficultyGrade.MID),
          ("grpo_loss_grad", DifficultyGrade.HARD), ("gal_loss_grad", DifficultyGrade.MID),
          *(("dypo_step_loss", g) for g in DifficultyGrade)]


def _policy_state(params: PolicyParams) -> tuple:
    """The policy's tables as bytes, its written contexts and its interner's size."""
    return (tuple(getattr(params, name).tobytes() for name in PolicyParams._ARRAYS),
            params.written_contexts(), len(params.interner.contexts))


@pytest.mark.parametrize("loss, graded", PROBED)
@given(seed=seeds, index=st.integers(0, 60), pick=st.lists(st.integers(0, 2**16), min_size=2,
                                                          max_size=8),
       extra=st.lists(token_seqs, max_size=4), on_policy=st.booleans(),
       pair_cap=st.integers(1, 8), gamma=st.sampled_from([0.5, 1.0, 3.0]))
@settings(FAST, max_examples=10)
def test_batched_probes_are_the_scalar_probes_bit_for_bit(loss, graded, seed, index, pick, extra,
                                                          on_policy, pair_cap, gamma):
    inst = make_instance(seed, index)
    params, ref = inst.params, inst.ref
    group, = _graded_groups(inst, [pick], extra, params if on_policy else ref, [graded])
    inst.group = group
    if graded is DifficultyGrade.MID:
        inst.pairs = pair_arrays(group, pair_cap, substream(seed, "pairs"))
    cfg = MixConfig(pair_cap=pair_cap, gamma=gamma)
    before = _policy_state(params)
    batched = numerical_gradient(probe_losses(loss, cfg, substream(seed, "draws")), inst)
    assert _policy_state(params) == before
    # the loss itself, its draws made afresh on every probe
    scalar = {
        "sft_loss_grad": lambda p: sft_pass(p, [inst.query], inst.teachers,
                                            substream(seed, "draws")).loss[0],
        "grpo_loss_grad": lambda p: grpo_pass(p, ref, group, cfg).loss[0],
        "gal_loss_grad": lambda p: gal_pass(p, ref, group, inst.pairs, cfg).loss[0],
        "dypo_step_loss": lambda p: route_groups(p, ref, group, inst.teachers, cfg,
                                                 substream(seed, "draws"))[0].loss,
    }[loss]
    expected = scalar_numerical_gradient(scalar, params, inst.contexts)
    assert list(batched) == list(expected)
    for ctx, row in expected.items():
        assert batched[ctx].tobytes() == row.tobytes(), ctx


# a flaw of a group's pairs, and its InputError's message
FLAWS = {
    "swapped": (lambda pairs, k: pairs[:, ::-1], "in that order"),
    "out of range": (lambda pairs, k: pairs + k, "must lie in"),
    "negative": (lambda pairs, k: pairs - k, "must lie in"),
    "empty": (lambda pairs, k: pairs[:0], "at least one pair"),
    "shape": (lambda pairs, k: np.concatenate([pairs, pairs[:, :1]], axis=1), "shape"),
}


@given(seed=seeds, index=st.integers(0, 60), picks=picks, bad=st.integers(0, 5),
       flaw=st.sampled_from(sorted(FLAWS)), later=st.integers(0, 5),
       later_flaw=st.sampled_from(sorted(FLAWS)))
@FAST
def test_a_bad_group_anywhere_in_a_batch_is_its_own_input_error(seed, index, picks, bad, flaw,
                                                                later, later_flaw):
    inst = make_instance(seed, index)
    params, ref = inst.params, inst.ref
    groups = _graded_groups(inst, picks, (), ref)
    bad %= len(groups)
    # a batch of one: its pairs' trajectories are the group's own
    pairs = [pair_arrays(g, 8, substream(seed, "pairs", i)).traj for i, g in enumerate(groups)]
    flawed, message = FLAWS[flaw]
    pairs[bad] = flawed(pairs[bad], len(groups[bad].rewards))
    with pytest.raises(InputError, match=message) as alone:
        BatchPairs.of(groups[bad], [pairs[bad]])
    # the first bad group's error, also with a second bad group after it
    later %= len(groups)
    drawn = pair_arrays(groups[later], 8, substream(seed, "pairs", later)).traj
    second = FLAWS[later_flaw][0](drawn, len(groups[later].rewards))
    for batch, batch_pairs in ((groups, pairs), (groups + [groups[later]], pairs + [second])):
        with pytest.raises(InputError) as batched:
            BatchPairs.of(GroupBatch.concat(batch), batch_pairs)
        assert str(batched.value) == str(alone.value)
    # a group whose rows were resolved in another interner
    other = groups[bad]
    foreign = GroupBatch.of(PolicyParams(params.vocab_size, params.history), other.queries[0],
                            trajectories(other), other.rewards, other.advantages)
    with pytest.raises(InputError, match="interner") as alone:
        grpo_estimator(params, foreign)
    with pytest.raises(InputError) as batched:
        GroupBatch.concat(groups[:bad] + [foreign] + groups[bad:])
    assert str(batched.value) == str(alone.value)


@given(seed=seeds, index=st.integers(0, 60), picks=picks,
       grades=st.lists(st.sampled_from(DifficultyGrade), min_size=6, max_size=6),
       extra=st.lists(token_seqs, max_size=4), on_policy=st.booleans(),
       pair_cap=st.integers(1, 8), gamma=st.sampled_from([0.5, 1.0, 3.0]),
       variant=st.sampled_from(VARIANTS))
# every group discarded: the step is a zero loss with an empty block, and nothing is drawn
@example(seed=3, index=0, picks=[[0, 1], [2, 3, 4]], grades=[DifficultyGrade.EASY] * 6, extra=[],
         on_policy=True, pair_cap=1, gamma=1.0, variant="dypo")
@FAST
def test_the_gate_sends_each_group_to_its_pathway(seed, index, picks, grades, extra, on_policy,
                                                  pair_cap, gamma, variant):
    inst = make_instance(seed, index)
    params, ref, teachers = inst.params, inst.ref, inst.teachers
    groups = _graded_groups(inst, picks, extra, params if on_policy else ref, grades)
    cfg = MixConfig(gamma=gamma, pair_cap=pair_cap)
    rng, twin = substream(seed, "gate"), substream(seed, "gate")
    batch = GroupBatch.concat(groups)
    step, passed = route_groups(params, ref, batch, teachers, cfg, rng, variant)
    # the pathways by hand, from a twin of the stream
    terms, want = gate_terms(params, ref, batch, teachers, cfg, twin, variant)
    assert rng.random() == twin.random()
    assert (passed is None) == (want is None)
    if want is not None:
        np.testing.assert_array_equal(passed.loss, want.loss)
    for i in set(range(len(groups))) - set(terms):
        assert variant == "dypo" and groups[i].grade[0] == DifficultyGrade.EASY
    # the step is the mean of the terms; each row adds its groups' terms in group order
    mean_loss, rows, mean = mean_step(terms, params.vocab_size)
    assert step.loss == mean_loss
    assert step.gradient.rows.tolist() == rows
    assert step.gradient.values.shape == mean.shape
    assert step.gradient.values.tobytes() == mean.tobytes()
    # the certified step is the dypo gate over a group built by hand, the
    # group as the batch selects it, of each kind present
    for i in {int(group.grade[0]): i for i, group in enumerate(groups)}.values():
        one, _ = route_groups(params, ref, groups[i], teachers, cfg, substream(seed, "one"))
        alone, _ = route_groups(params, ref, batch.select([i]), teachers, cfg,
                                substream(seed, "one"))
        assert one.loss == alone.loss
        assert one.gradient.rows.tobytes() == alone.gradient.rows.tobytes()
        assert one.gradient.values.tobytes() == alone.gradient.values.tobytes()


@given(rewards=st.lists(st.integers(0, 1), min_size=2, max_size=12).filter(
           lambda r: 0 < sum(r) < len(r)),
       pair_cap=st.integers(1, 40), seed=seeds)
@FAST
def test_pair_arrays_are_success_failure_index_pairs(rewards, pair_cap, seed):
    trajs = tuple(Trajectory((i,), terminal=False) for i in range(len(rewards)))
    group = GroupBatch.of(PolicyParams(12, 1), SimpleNamespace(query_id=0), trajs, rewards,
                          standardize_advantages(rewards, 1e-4))
    pairs = pair_arrays(group, pair_cap, substream(seed, "pairs")).traj
    product = {(s, f) for s, won in enumerate(rewards) if won
               for f, lost in enumerate(rewards) if not lost}
    got = [tuple(p) for p in pairs.tolist()]
    assert pairs.shape == (min(pair_cap, len(product)), 2)
    assert len(set(got)) == len(got)
    assert set(got) <= product


mid_rewards = st.lists(st.integers(0, 1), min_size=2, max_size=12).filter(
    lambda r: 0 < sum(r) < len(r))


@given(patterns=st.lists(mid_rewards, min_size=1, max_size=6), pair_cap=st.integers(1, 8),
       seed=seeds)
# a capped group (6 pairs over a cap of 4) between uncapped groups of other sizes
@example(patterns=[[1, 0], [0, 1, 1, 0, 0], [0, 0, 1]], pair_cap=4, seed=3)
# every group capped
@example(patterns=[[1, 1, 0, 0], [0, 1, 0, 1, 1, 0, 0], [1, 0, 1, 0, 1]], pair_cap=3, seed=5)
@FAST
def test_batched_pairs_are_the_groups_own_draws(patterns, pair_cap, seed):
    # a small cap: some groups draw their subsets, the others take the full product
    params = PolicyParams(12, 1)  # holds the groups' steps, tokens 0..11
    groups = [GroupBatch.of(params, SimpleNamespace(query_id=0),
                            tuple(Trajectory((i,), terminal=False) for i in range(len(r))), r,
                            standardize_advantages(r, 1e-4))
              for r in patterns]
    rng, twin = substream(seed, "pairs"), substream(seed, "pairs")
    batch = GroupBatch.concat(groups)
    got = pair_arrays(batch, pair_cap, rng)
    # each group's pairs drawn on its own, the capped or full product one
    # group at a time, moved onto the batch's trajectories, in group order
    want = [draw_group_pairs(g.rewards, pair_cap, twin) for g in groups]
    want_traj = np.concatenate([w + first for w, first in zip(want, batch.first.tolist())])
    assert got.counts.dtype == got.traj.dtype == want_traj.dtype == np.intp
    assert got.counts.tolist() == [len(w) for w in want]
    assert got.traj.shape == want_traj.shape
    np.testing.assert_array_equal(got.traj, want_traj)
    assert rng.random() == twin.random()
    easy = GroupBatch.of(params, SimpleNamespace(query_id=0), trajectories(groups[0]),
                         (1,) * len(patterns[0]), np.zeros(len(patterns[0])))
    with pytest.raises(StateError, match="Mid-graded"):
        pair_arrays(GroupBatch.concat(groups + [easy]), pair_cap, rng)


@given(rewards=st.lists(st.lists(st.integers(-5, 5), min_size=12, max_size=12), min_size=1,
                        max_size=5),
       k=st.integers(2, 12), binary=st.booleans(), xi=st.floats(1e-6, 1e-2))
@FAST
def test_standardized_advantage_rows_are_each_groups_own(rewards, k, binary, xi):
    matrix = np.array(rewards)[:, :k]
    if binary:
        matrix = matrix % 2
    got = standardize_advantages(matrix, xi)
    assert got.shape == matrix.shape
    for row, adv in zip(matrix, got):
        np.testing.assert_allclose(adv, standardize_advantages(row.tolist(), xi), rtol=1e-15,
                                   atol=0)
    with pytest.raises(InputError, match=">= 2"):
        standardize_advantages(matrix[:, :1], xi)
    with pytest.raises(InputError, match="xi"):
        standardize_advantages(matrix, 0.0)


SEP, STOP = 4, 5


def reward_trajectories(draw, query: Query, vocab: int) -> list[Trajectory]:
    """1-4 trajectories of every shape the reward tells apart, for a query
    whose tokens lie below ``vocab``."""
    sep, answer, stop = query.separator, query.answer, query.stop
    trajs = []
    for _ in range(draw(st.integers(1, 4))):
        prefix = tuple(draw(st.lists(st.integers(0, vocab - 1), max_size=5)))
        tokens = draw(st.sampled_from([
            prefix + (sep, answer, stop),  # the answer after the last separator
            prefix + (sep, answer, sep, stop),  # before it: a trailing separator
            tuple(t for t in prefix if t != sep) + (answer, stop),  # no separator
            prefix + (answer, stop),
            prefix[:2],  # short, and maybe empty
            prefix,
        ]))
        trajs.append(Trajectory(tokens, terminal=draw(st.booleans())))
    return trajs


@st.composite
def reward_cases(draw):
    """A query (its answer token the separator or not, its stop the separator
    or not) and trajectories of every shape the reward tells apart."""
    stop = draw(st.sampled_from([STOP, SEP]))  # a stop equal to the separator, too
    query = Query(0, (), (draw(st.integers(0, 5)),), SEP, stop)
    return query, reward_trajectories(draw, query, 6)


@given(cases=st.lists(reward_cases(), min_size=1, max_size=4), per=st.integers(1, 3),
       repeat=st.booleans())
# only empty trajectories: no token at all to read
@example(cases=[(Query(0, (), (1,), SEP, STOP), [Trajectory((), True), Trajectory((), False)])],
         per=2, repeat=False)
@FAST
def test_batch_reward_is_the_scalar_reward(cases, per, repeat):
    if repeat:  # every query object again, in reverse order, with other trajectories
        cases = cases + [(query, trajs[::-1]) for query, trajs in cases[::-1]]
    queries = [query for query, _ in cases]
    trajs = [trajs[i % len(trajs)] for _, trajs in cases for i in range(per)]
    tokens = np.array([tok for t in trajs for tok in t.tokens], dtype=np.int32)
    lengths = np.array([len(t) for t in trajs])
    terminal = np.array([t.terminal for t in trajs])
    got = batch_reward(queries, tokens, lengths, terminal)
    assert got.tolist() == [reward(queries[i // per], t) for i, t in enumerate(trajs)]
    if len(queries) > 1:  # a trajectory short: the queries' runs are not equal
        with pytest.raises(InputError):
            batch_reward(queries, tokens[lengths[0]:], lengths[1:], terminal[1:])


@given(modulus=st.integers(2, 9), chain_len=st.integers(1, 4), seed=seeds, data=st.data())
@FAST
def test_the_rewards_are_the_answer_parser_on_every_generated_query(modulus, chain_len, seed,
                                                                     data):
    task = TaskConfig(modulus=modulus)
    query = generate_query(task, chain_len, substream(seed, "reward-oracle"))
    trajs = reward_trajectories(data.draw, query, task.vocab_size)
    want = [naive_reward(query, t) for t in trajs]
    assert [reward(query, t) for t in trajs] == want
    tokens = np.array([tok for t in trajs for tok in t.tokens], dtype=np.int32)
    got = batch_reward([query] * len(trajs), tokens, np.array([len(t) for t in trajs]),
                       np.array([t.terminal for t in trajs]))
    assert got.tolist() == want


@given(rewards=st.lists(st.integers(0, 1), min_size=2, max_size=40))
@FAST
def test_grades_partition_all_reward_patterns(rewards):
    g = grade(rewards)
    total = sum(rewards)
    assert (g is DifficultyGrade.EASY) == (total == len(rewards))
    assert (g is DifficultyGrade.HARD) == (total == 0)
    assert (g is DifficultyGrade.MID) == (0 < total < len(rewards))


@given(rewards=hnp.arrays(np.int64, st.tuples(st.integers(1, 6), st.integers(0, 8)),
                         elements=st.integers(0, 1)),
       bad=st.none() | st.tuples(st.integers(0, 47), st.sampled_from([2, -1, 0.5])))
@FAST
def test_batch_grades_are_the_per_group_grades(rewards, bad):
    # a non-binary entry, maybe: both raise the InputError of its group
    if bad is not None and rewards.size:
        rewards = rewards.astype(type(bad[1]))
        rewards.flat[bad[0] % rewards.size] = bad[1]
    try:
        want = [grade(row) for row in rewards.tolist()]
    except InputError as err:
        with pytest.raises(InputError) as raised:
            grades(rewards)
        assert str(raised.value) == str(err)
        if rewards.shape[1] >= 2:  # the message names the entry as given
            assert str(err) == f"rewards must be 0 or 1, got {bad[1]!r}"
    else:
        codes = grades(rewards)
        assert codes.dtype == np.int8 and codes.shape == (len(want),)
        # a code is its grade's value
        assert all(DifficultyGrade(code) is g for code, g in zip(codes, want))


@st.composite
def row_terms(draw):
    """Rows with repeats, dense or spread far apart (so both of ``_unique_inverse``'s
    paths run), and a row of terms for each: both signed zeros, and scales
    whose sums depend on the order of their terms."""
    stride = draw(st.sampled_from([1, 2**34]))
    rows = [stride * row for row in draw(st.lists(st.integers(0, 5), max_size=24))]
    values = draw(hnp.arrays(np.float64, (len(rows), draw(st.integers(1, 4))),
                             elements=st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0, 0.1])
                             | st.floats(-1e6, 1e6)))
    return np.array(rows, dtype=np.intp), values


@given(terms=row_terms())
@example(terms=(np.zeros(0, dtype=np.intp), np.zeros((0, 3))))
@FAST
def test_sum_rows_is_add_at_into_zeros_bit_for_bit(terms):
    rows, values = terms
    width = values.shape[1]
    got, at = sum_rows(rows, values)
    uniq, inv = np.unique(rows, return_inverse=True)
    want = np.zeros((len(uniq), width))
    np.add.at(want, inv, values)
    assert np.array_equal(got.rows, uniq) and np.array_equal(at, inv)
    assert got.values.dtype == want.dtype and got.values.shape == want.shape
    assert got.values.tobytes() == want.tobytes()


# keys as the policy numbers them: table rows, dense or spread up to 2**40
# (both sides of the table's range rule), with repeats
dense_keys = st.lists(st.integers(0, 64), max_size=200)
sparse_keys = st.lists(st.integers(0, 2**40), min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=200))


@given(keys=dense_keys | sparse_keys)
@example(keys=[])
@example(keys=[7])
@example(keys=[2**40])
@FAST
def test_unique_inverse_is_np_unique_with_its_inverse(keys):
    keys = np.array(keys, dtype=np.intp)
    uniq, inv = _unique_inverse(keys)
    want_uniq, want_inv = np.unique(keys, return_inverse=True)
    assert uniq.dtype == want_uniq.dtype and inv.dtype == want_inv.dtype
    assert np.array_equal(uniq, want_uniq) and np.array_equal(inv, want_inv)


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
    sep, stop, answer = task.separator, task.stop, query.answer
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
                    pair_cap=draw(st.integers(1, 100)))
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


@given(modulus=st.integers(2, 4000) | st.integers(2, 2**80),
       pool_size=st.integers(1, 64) | st.integers(1, MAX_POOL_SIZE))
@FAST
def test_a_config_whose_table_cannot_fit_is_a_config_error(modulus, pool_size):
    # pool_size * (modulus + 1) rows of modulus + 4 entries in five 8-byte
    # arrays; a config past the bound fails as it is read, before any allocation
    doc = train_config_to_dict(TrainConfig())
    doc["task"] = {**doc["task"], "modulus": modulus, "pool_size": pool_size}
    doc = json.loads(json.dumps(doc))
    if pool_size * (modulus + 1) * (modulus + 4) * 40 <= MAX_TABLE_BYTES:
        assert train_config_from_dict(doc).task == TaskConfig(modulus=modulus,
                                                              pool_size=pool_size)
    else:
        with pytest.raises(ConfigError, match=f"modulus {modulus} at pool_size {pool_size} "):
            train_config_from_dict(doc)


@given(counts=st.lists(st.integers(1, 260), min_size=1, max_size=8), equal=st.booleans(),
       seed=seeds)
# runs around numpy's 8-wide unroll and its 128-element pairwise split, unequal and equal
@example(counts=[1, 7, 8, 9, 16, 127, 128, 129, 200, 256, 257], equal=False, seed=1)
@example(counts=[200, 3], equal=True, seed=2)
@FAST
def test_segment_sums_are_each_runs_own_sum_bit_for_bit(counts, equal, seed):
    if equal:
        counts = [counts[0]] * len(counts)
    rng = np.random.default_rng(seed)
    n = sum(counts)
    # magnitudes over 16 decades, so that a sum in another order rounds otherwise
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    ends = np.cumsum(counts).tolist()
    # the second sum, over the same counts, groups the same runs by length
    for values in (values, values[::-1].copy()):
        got = _segment_sums(values, np.array(counts))
        want = np.array([np.sum(values[lo:hi]) for lo, hi in zip([0] + ends, ends)])
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@given(seed=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1),
       path=st.lists(st.text(max_size=6) | st.integers(0, 2**32 - 1)
                     | st.integers(2**32, 2**64 - 1), max_size=4),
       numpy_ints=st.booleans())
@example(seed=2**64 - 1, path=["rollout", 2**32, 2**64 - 1, 0], numpy_ints=True)
@FAST
def test_a_substream_is_default_rng_of_its_seed_sequence(seed, path, numpy_ints):
    # substream builds its generator directly, from the uint32 words the seed
    # sequence splits each value into; a str part is its UTF-8 CRC-32
    parts = [np.uint64(p) if numpy_ints and type(p) is int else p for p in path]
    got = substream(np.uint64(seed) if numpy_ints else seed, *parts)
    encoded = [zlib.crc32(p.encode("utf-8")) if type(p) is str else p for p in path]
    want = np.random.default_rng(np.random.SeedSequence([seed, *encoded]))
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(5).tobytes() == want.random(5).tobytes()


NAMES = ("stream", "rollout", "objective")


@given(seed=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1),
       start=st.sampled_from([0, 1, 499]) | st.integers(0, 2**64 - 8), steps=st.integers(0, 6))
@example(seed=1, start=2**32 - 3, steps=6)  # steps from one uint32 word to two
@example(seed=2**64 - 1, start=2**64 - 6, steps=6)
@FAST
def test_a_runs_step_streams_are_its_substreams(seed, start, steps):
    # step_substreams seeds every step's generators from one derivation, from
    # step 0 or from a resumed start; each step's are substream's, state and draws
    done = 0
    for step, streams in zip(range(start, start + steps),
                             step_substreams(seed, NAMES, start, start + steps)):
        for name, stream in zip(NAMES, streams):
            want = substream(seed, name, step)
            assert stream.bit_generator.state == want.bit_generator.state
            assert stream.random(3).tobytes() == want.random(3).tobytes()
        done += 1
    assert done == steps


def test_step_streams_carry_on_across_derivations(monkeypatch):
    # the run's steps are seeded a chunk at a time; a small chunk makes several
    monkeypatch.setattr(seeding, "_CHUNK", 3)
    got = [[stream.bit_generator.state for stream in streams]
           for streams in step_substreams(7, NAMES, 5, 15)]
    assert got == [[substream(7, name, step).bit_generator.state for name in NAMES]
                   for step in range(5, 15)]


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(values=st.lists(finite, min_size=1, max_size=8)
       | st.lists(st.floats(-1e-300, 1e-300) | st.floats(-1e300, 1e300), max_size=8),
       repeat=st.integers(1, 400), cancel=st.booleans(), subnormal=st.booleans())
@example(values=[5e-324, -1e-310, 2.0**-1022], repeat=300, cancel=False, subnormal=True)
@example(values=[1e300, -1e-300, 3.0], repeat=250, cancel=True, subnormal=False)
@example(values=[1e300, 1e300], repeat=400, cancel=False, subnormal=False)
@FAST
def test_an_exact_sum_is_fsum_bit_for_bit(values, repeat, cancel, subnormal):
    # above its size rule exact_sum adds per-exponent partials, not a list:
    # subnormals, wide exponent spreads, sums that cancel to a few bits or to
    # zero, and entries whose partials would pass the float range
    x = np.array(values * repeat, dtype=np.float64)
    if subnormal:
        x *= 2.0**-1060
    if cancel:
        x = np.concatenate([x, -x[::-1], [1e-30]])
    rng = np.random.default_rng(len(x))
    x = x[rng.permutation(x.size)]
    try:
        want = math.fsum(x.tolist())
    except OverflowError:
        with pytest.raises(OverflowError):
            exact_sum(x)
        return
    got = exact_sum(x)
    assert math.copysign(1.0, got) == math.copysign(1.0, want)
    assert got == want or math.isnan(got) and math.isnan(want)


@given(history=st.integers(0, 3),
       first=st.lists(st.tuples(st.integers(0, 2), st.lists(st.integers(0, V - 1), max_size=4)),
                      max_size=6),
       walks=st.lists(st.tuples(st.integers(0, 2), st.lists(st.integers(0, V - 1), max_size=8)),
                      max_size=10))
@FAST
def test_a_transition_is_the_successor_context_in_the_naive_interning_order(history, first,
                                                                            walks):
    # transitions shared by a class (query id, last history - 1 tokens) name
    # the context a walk reaches, and intern contexts in the order a map with
    # no classes does; ``first`` are rows interned before, as a reload's
    interner = ContextInterner(V, history)
    naive: dict = {}
    for qid, hist in first:
        ctx = (qid, tuple(hist)[max(0, len(hist) - history):] if history else ())
        interner.row(ctx)
        naive.setdefault(ctx, len(naive))
    for qid, tokens in walks:
        row, hist = interner.root(qid), ()
        naive.setdefault((qid, hist), len(naive))
        for tok in tokens:
            row = interner.step(row, tok)
            hist = (hist + (tok,))[max(0, len(hist) + 1 - history):] if history else ()
            naive.setdefault((qid, hist), len(naive))
            assert interner.contexts[row] == (qid, hist)
    assert interner.contexts == list(naive)
