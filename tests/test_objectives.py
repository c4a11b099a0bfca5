"""Objectives: standardization, SFT, GRPO, GAL, pairing, and the routed step."""

from __future__ import annotations

import sys
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy.special import expit

from dypo import gradcheck, objectives, policy
from dypo.errors import ConfigError, InputError, StateError
from dypo.gradcheck import (
    _off_clip,
    certify,
    check,
    grad_check_suite,
    make_instance,
    numerical_gradient,
    probe_losses,
    twin_stream,
)
from dypo.grading import DifficultyGrade, grade
from dypo.instrumentation import collect_mid_groups
from dypo.objectives import (
    BatchPairs,
    GroupBatch,
    MixConfig,
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
from dypo.policy import KeyedBlocks, PolicyParams, RowBlock, Trajectory, sum_blocks
from dypo.seeding import substream
from dypo.tasks import TaskConfig, make_teacher_ensemble, reward, teacher_sample
from dypo.trainer import QueryPool, TrainConfig, init_policy, train

from conftest import block_dict, traj_log_prob, traj_score
from reference import naive_log_prob, naive_score, step_contexts, trajectories

TASK = TaskConfig()
CFG = MixConfig()


def _mid_instance(seed: int = 0, index: int = 0):
    return make_instance(seed, index, kind="mid")


def _gal(params, ref, group, pairs, cfg=CFG):
    """GAL's pass over a batch of one: its loss, its gradient block and its pair weights."""
    report = gal_pass(params, ref, group, pairs, cfg)
    block, = report.gradient.blocks()
    return report.loss[0], block, report.weights


def test_standardize_zero_spread():
    np.testing.assert_array_equal(standardize_advantages([1, 1, 1, 1], 1e-4), np.zeros(4))


def test_standardize_alternating():
    adv = standardize_advantages([1, 0, 1, 0], 1e-4)
    expected = 0.5 / (0.5 + 1e-4)
    np.testing.assert_allclose(adv, [expected, -expected, expected, -expected], atol=1e-15)
    assert expected == pytest.approx(0.99980004, abs=1e-8)


def test_standardize_recomputation_oracle():
    rng = substream(23, "std")
    for _ in range(200):
        r = rng.integers(0, 2, size=int(rng.integers(2, 12))).astype(float)
        xi = 10.0 ** rng.uniform(-6, -2)
        adv = standardize_advantages(r, xi)
        assert abs(adv.mean()) < 1e-12
        sigma = r.std()
        assert adv.std() == pytest.approx(sigma / (sigma + xi), abs=1e-9)
        assert adv.std() <= 1.0 + 1e-12


def test_standardize_preconditions():
    with pytest.raises(InputError):
        standardize_advantages([1.0], 1e-4)
    with pytest.raises(InputError):
        standardize_advantages([1.0, 0.0], 0.0)


def test_sft_single_teacher_matches_plain_nll():
    inst = _mid_instance(index=5)
    teacher = make_teacher_ensemble(TASK, 1, seed=0)
    report = sft_pass(inst.params, [inst.query], teacher, substream(3, "sft"))
    demo = teacher_sample(teacher[0], inst.query, substream(3, "sft"))
    # identical substream: the same single-teacher demo is drawn
    assert report.loss[0] == -traj_log_prob(inst.params, inst.query.query_id, demo.tokens)
    assert report.aux["teacher_index"][0] == 0.0


def test_sft_teacher_draw_is_uniform():
    inst = _mid_instance(index=6)
    teachers = make_teacher_ensemble(TASK, 4, seed=0)
    rng = substream(3, "hist")
    counts = np.zeros(4)
    n = 100_000
    for _ in range(n):
        counts[int(rng.integers(4))] += 1  # the same draw sft_pass makes
    np.testing.assert_allclose(counts / n, 0.25, atol=0.01)
    # and the operation itself reports the drawn index
    rng = substream(3, "hist2")
    sampled = np.zeros(4)
    for _ in range(4000):
        sampled[int(sft_pass(inst.params, [inst.query], teachers, rng).aux["teacher_index"][0])] += 1
    np.testing.assert_allclose(sampled / 4000, 0.25, atol=0.03)


def test_sft_requires_teachers():
    inst = _mid_instance()
    with pytest.raises(ConfigError):
        sft_pass(inst.params, [inst.query], [], substream(3, "e"))


def test_sft_gradient_finite_differences():
    for i in range(15):
        assert check("sft_loss_grad", 31, i) < 1e-6


def test_grpo_on_policy_identity():
    # a group sampled from the params records their own log-probs, so every
    # ratio is exactly 1; with the reference at the params the loss is 0
    inst = _mid_instance(index=7)
    ref = inst.params.snapshot()
    # the first Mid group that rollout_groups samples, which records its
    # sampling log-probs as it is sampled
    group = collect_mid_groups(inst.params, lambda rng, size: [inst.query] * size, 1,
                               substream(7, "on-policy"), k=8, xi=CFG.xi, stop_token=TASK.stop,
                               t_max=14)
    report = grpo_pass(inst.params, ref, group, CFG)
    assert len(group) == 1 and not group.log_ratios(inst.params).any()
    assert report.aux["kl_value"][0] == 0.0
    assert report.loss[0] == pytest.approx(0.0, abs=1e-15)


def _gathers(monkeypatch) -> list:
    """Every ``PolicyParams.logp_at`` call from now on: the policy it
    gathers from and the function that called it."""
    calls = []
    gather = PolicyParams.logp_at

    def counted(self, rows, tokens):
        calls.append((self, sys._getframe(1).f_code.co_name))
        return gather(self, rows, tokens)

    monkeypatch.setattr(PolicyParams, "logp_at", counted)
    return calls


def _sampled(seed: int = 3):
    """A starting policy, its reference, and two batches it sampled, each
    with Mid groups."""
    cfg = TrainConfig(seed=seed)
    pool = QueryPool(cfg.task, cfg.seed)
    params = init_policy(cfg, pool)
    batches = [rollout_groups(params, pool.queries, 8, substream(seed, "score-once", i),
                              xi=CFG.xi, stop_token=TASK.stop, t_max=cfg.t_max)
               for i in range(2)]
    assert all((b.grade == DifficultyGrade.MID).any() for b in batches)
    return params, params.snapshot(), batches


def _mid(batch: GroupBatch) -> GroupBatch:
    return batch.select(batch.grade == DifficultyGrade.MID)


def test_a_batch_is_scored_once_at_its_sampler(monkeypatch):
    # a fresh batch, a select of it and a concat of two, each read at the
    # policy that sampled them, gather only the reference's log-probs
    params, ref, (first, second) = _sampled()
    calls = _gathers(monkeypatch)
    assert first.at_sampler(params) and not first.log_ratios(params).any()
    grpo_pass(params, ref, first, CFG)
    for batch in (_mid(first), GroupBatch.concat([_mid(first), _mid(second)])):
        assert batch.at_sampler(params) and not batch.log_ratios(params).any()
        mixed_pass(params, ref, batch, pair_arrays(batch, CFG.pair_cap, substream(3, "pairs")),
                   CFG)
    assert calls == [(ref, "gal_loss")] * 2


@pytest.mark.parametrize("write", ["apply_update", "set_logits"])
def test_a_write_to_the_sampler_brings_the_gather_back(monkeypatch, write):
    params, _, (batch, _) = _sampled()
    row = int(batch.rows[0])  # every trajectory's first row, its query's root, is unwritten
    tilt = np.linspace(-1.0, 1.0, TASK.vocab_size)  # moves every token's log-prob
    if write == "apply_update":
        params.apply_update(RowBlock(np.array([row]), tilt[None, :]), 1.0)
    else:
        params.set_logits(params.interner.contexts[row], params.default_logits + tilt)
    moved = {row}
    calls = _gathers(monkeypatch)
    assert not batch.at_sampler(params)
    ratios = batch.log_ratios(params)
    assert calls == [(params, "logp")]
    visits = np.bincount(batch.traj, weights=np.isin(batch.rows, list(moved)),
                         minlength=len(batch.lengths))
    assert visits.any()
    np.testing.assert_array_equal(ratios != 0.0, visits > 0)


def test_a_copy_of_the_sampler_always_gathers(monkeypatch):
    params, _, (batch, _) = _sampled()
    copy = params.copy()
    calls = _gathers(monkeypatch)
    assert not batch.at_sampler(copy)
    assert not batch.log_ratios(copy).any()  # the same table, read by a gather
    assert calls == [(copy, "logp")]


@pytest.mark.parametrize("variant", ["dypo", "sft_only", "grpo_only"])
def test_a_training_step_gathers_the_live_policy_once(monkeypatch, variant):
    # the rollouts are scored as they are sampled; the only other gather of
    # the live policy is the demonstrations' NLL, which no policy sampled
    calls = _gathers(monkeypatch)
    result = train(TrainConfig(seed=1, steps=20, variant=variant))
    live = Counter(caller for policy, caller in calls if not policy.frozen)
    hard_steps = sum(m.hard > 0 for m in result.checkpoint.metrics)
    distilled = {"dypo": hard_steps, "sft_only": 20, "grpo_only": 0}[variant]
    assert hard_steps and live == Counter({"rollout_groups": 20, "demo_nll": distilled})


def test_grpo_zero_advantage_groups():
    inst = make_instance(41, 2, kind="hard")
    report = grpo_pass(inst.params, inst.ref, inst.group, CFG)
    # policy-gradient term is exactly zero; only the KL penalty remains
    assert report.loss[0] == pytest.approx(CFG.beta_kl * report.aux["kl_value"][0], abs=1e-15)
    block, = report.gradient.blocks()
    assert np.sqrt(block.sq_norm()) < CFG.beta_kl * 10  # all gradient mass is KL


def test_grpo_gradient_finite_differences():
    for i in range(15):
        assert check("grpo_loss_grad", 37, i) < 1e-6


def test_the_training_form_is_certified():
    # sampling log-probs recorded from the params, as in training: every
    # ratio is exactly 1 and a probe moves only the ratio's numerator
    worst = 0.0
    for i in range(30):
        inst = _mid_instance(5, i)
        inst.group = GroupBatch.of(inst.params, inst.query, trajectories(inst.group),
                                   inst.group.rewards, inst.group.advantages)
        assert not inst.group.log_ratios(inst.params).any()
        worst = max(worst, certify(inst, "grpo_loss_grad"),
                    certify(inst, "dypo_step_loss", substream(5, "dypo", i)))
    assert worst <= 1e-6


@pytest.mark.parametrize("loss, calls", [
    ("sft_loss_grad", {"sft_pass": 1}),
    ("grpo_loss_grad", {"grpo_pass": 1, "grpo_loss": 2}),
    ("gal_loss_grad", {"gal_pass": 1, "gal_loss": 2}),
    ("dypo_step_loss", {"grpo_pass": 1, "gal_pass": 1, "grpo_loss": 2, "gal_loss": 2}),
])
def test_an_instance_is_certified_in_one_batched_loss_pass(monkeypatch, loss, calls):
    # the analytic pass, whose gradient is built on its loss evaluation, then
    # one loss evaluation over all 180 probes; SFT's probes are one gather of
    # the demonstration's log-probs
    counted = Counter()
    for name in ("grpo_pass", "gal_pass", "grpo_loss", "gal_loss", "sft_pass"):
        def counting(*args, _name=name, _real=getattr(objectives, name), **kwargs):
            counted[_name] += 1
            return _real(*args, **kwargs)
        for module in (objectives, gradcheck):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    inst = _mid_instance(5, 2)
    assert inst.group.grade.tolist() == [DifficultyGrade.MID]
    assert certify(inst, loss, substream(5, "guard")) < 1e-6
    assert counted == calls


# every function that builds a gradient, or only feeds one
GRADIENT_CODE = ("keyed_score", "kl_gradient", "mixed_keyed", "sum_blocks", "_expit")


@pytest.mark.parametrize("kind", ["easy", "hard", "mid"])
def test_the_probes_evaluate_losses_and_build_no_gradient(monkeypatch, kind):
    inst = make_instance(13, 4, kind=kind)
    losses = ("sft_loss_grad", "grpo_loss_grad", "gal_loss_grad", "dypo_step_loss")

    def probed(loss):
        return numerical_gradient(probe_losses(loss, CFG, substream(13, "draws")), inst)

    def gradient_code(*args, **kwargs):
        raise AssertionError("a probe evaluation built a gradient")
    for module in (objectives, policy, gradcheck):
        for name in GRADIENT_CODE:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, gradient_code)
    if kind != "mid":  # no pairs: a group that is not Mid has none to probe
        losses = losses[:2] + losses[3:]
        with pytest.raises(StateError, match="Mid-graded"):
            probed("gal_loss_grad")
    alone = {loss: probed(loss) for loss in losses}
    monkeypatch.undo()
    # the loss pieces are the very expressions the passes report
    for loss, numeric in alone.items():
        assert {ctx: row.tobytes() for ctx, row in numeric.items()} == \
            {ctx: row.tobytes() for ctx, row in probed(loss).items()}
        assert certify(inst, loss, substream(13, "draws")) < 1e-6


def test_the_suite_builds_each_instance_once_and_drops_it_after_its_index(monkeypatch):
    built, alive, tables = [], [], []

    def counting(seed, index, kind="mid"):
        index_of = index % 10_000
        # every instance of an earlier index, and its probe table, is gone
        # before the next is built
        assert all(ref() is None for i, ref in alive + tables if i < index_of)
        inst = make_instance(seed, index, kind)
        built.append((seed, index, kind))
        alive.append((index_of, weakref.ref(inst)))
        return inst

    class Tracked(gradcheck.Probes):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append((alive[-1][0], weakref.ref(self)))
    monkeypatch.setattr(gradcheck, "make_instance", counting)
    monkeypatch.setattr(gradcheck, "Probes", Tracked)
    grad_check_suite(1, 20)
    assert len(built) == len(set(built)) == 33
    assert len(tables) == 27
    # make_instance itself builds anew on every call
    first, second = make_instance(1, 0), make_instance(1, 0)
    assert first is not second and first.params is not second.params
    assert first.group is not second.group


def test_the_suite_builds_one_probe_table_per_instance_and_tiles_it_once(monkeypatch):
    tables, tiled, calls = [], {}, Counter()
    real_tiled = GroupBatch.tiled

    class Counted(gradcheck.Probes):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)  # kept alive, so that no two tables share an id

        def batch(self, group):
            out = super().batch(group)
            tiled.setdefault(id(self), []).append(out)
            return out

    def counting_tiled(self, rows):
        calls["tiled"] += 1
        return real_tiled(self, rows)
    monkeypatch.setattr(gradcheck, "Probes", Counted)
    monkeypatch.setattr(GroupBatch, "tiled", counting_tiled)
    grad_check_suite(1, 20)
    # one table per distinct instance, shared by every loss certified on it
    assert len(tables) == 27
    # a table that tiles its group tiles it once, for every loss that reads the copies
    assert all(len({id(b) for b in batches}) == 1 for batches in tiled.values())
    assert calls["tiled"] == len(tiled) and max(map(len, tiled.values())) > 1


def test_a_loss_that_reads_no_table_builds_none(monkeypatch):
    # the routed step discards an Easy group: its loss is 0 under every probe
    # and reads only the number of probes
    built = []

    class Counted(gradcheck.Probes):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)
    monkeypatch.setattr(gradcheck, "Probes", Counted)
    inst = make_instance(1, 2, "easy")
    assert inst.group.grade.tolist() == [DifficultyGrade.EASY]
    assert certify(inst, "dypo_step_loss", substream(1, "draws")) < 1e-6
    assert built == []


def test_a_tiled_batch_passes_each_copy_as_the_group_alone():
    # the copies read the same rows, so the KL reads each distinct row once
    # and gathers it per key, for the loss and for the gradient
    inst = _mid_instance(5, 2)
    group = inst.group
    tiled = group.tiled(np.tile(group.rows, (3, 1)))
    distinct, _ = tiled.key_index(inst.params).distinct
    np.testing.assert_array_equal(distinct, np.unique(group.rows))
    alone = grpo_pass(inst.params, inst.ref, group, CFG)
    copies = grpo_pass(inst.params, inst.ref, tiled, CFG)
    block, = alone.gradient.blocks()
    assert copies.loss.tobytes() == np.tile(alone.loss, 3).tobytes()
    assert copies.aux["kl_value"].tobytes() == np.tile(alone.aux["kl_value"], 3).tobytes()
    for got in copies.gradient.blocks():
        np.testing.assert_array_equal(got.rows, block.rows)
        assert got.values.tobytes() == block.values.tobytes()


def test_a_probe_evaluation_checks_one_group_of_pairs(monkeypatch):
    # hand-made pairs are checked once per instance, as it is built, not per
    # loss or per probe; the pairs pair_arrays draws are never checked
    checked, built, drawn = [], [], []

    def one_group(batch, pairs, _real=BatchPairs.of):
        # every batch the suite checks is a batch of one: the instance's group
        assert batch.count == len(pairs) == 1
        checked.append(batch)
        return _real(batch, pairs)

    def building(*args, _real=gradcheck.make_instance, **kwargs):
        before = len(checked)
        inst = _real(*args, **kwargs)
        built.append((inst.pairs is not None, len(checked) - before))
        return inst

    def drawing(*args, _real=objectives.pair_arrays, **kwargs):
        drawn.append(_real(*args, **kwargs))
        return drawn[-1]
    monkeypatch.setattr(BatchPairs, "of", one_group)
    monkeypatch.setattr(gradcheck, "make_instance", building)
    for module in (objectives, gradcheck):
        monkeypatch.setattr(module, "pair_arrays", drawing)
    grad_check_suite(1, 20)
    # each Mid instance's pairs are checked in its build, and nothing else is
    assert all(checks == mid for mid, checks in built)
    assert len(checked) == sum(mid for mid, _ in built) >= 20
    # the routed step at the 7 Mid indices draws its pairs, once in the
    # analytic pass and once for all the probes, and none of them is checked
    assert len(drawn) == 2 * 7


def test_a_probe_table_is_stale_once_its_interner_grows():
    inst = _mid_instance(5, 2)
    table = inst.probes
    assert inst.probes is table
    table.batch(inst.group)
    used = len(inst.params.interner.contexts)
    # a context interned after the table takes the number of its first probe row
    assert inst.params.row((10**6, ())) == table.own[0] == used
    for read in (lambda: table.batch(inst.group), lambda: table.remap(inst.group.rows)):
        with pytest.raises(StateError, match="stale"):
            read()
    fresh = inst.probes
    assert fresh is not table and not fresh.stale and fresh.own[0] == used + 1
    for loss in ("grpo_loss_grad", "gal_loss_grad"):
        assert certify(inst, loss) < 1e-6


def test_a_twin_stream_draws_the_stream_and_leaves_it_unadvanced():
    rng = substream(3, "draws")
    rng.random(5)
    state = rng.bit_generator.state
    twin = twin_stream(rng)
    assert type(twin.bit_generator) is type(rng.bit_generator)
    drawn = twin.random(7), twin.integers(100, size=5), twin.choice(50, size=4, replace=False)
    assert rng.bit_generator.state == state
    for got, want in zip(drawn, (rng.random(7), rng.integers(100, size=5),
                                 rng.choice(50, size=4, replace=False))):
        assert got.tobytes() == want.tobytes()
    assert twin_stream(None) is None


# the hex errors of grad_check_suite(7, 30), beside the seed-1 pin of
# test_trainer: the certifier's errors stay bit for bit at a second seed
def test_certified_errors_at_seed_seven_are_pinned():
    errors = {name: float(err).hex() for name, err in grad_check_suite(7, 30).items()}
    assert errors == {"sft_loss_grad": "0x1.084fe41bfb162p-32",
                      "grpo_loss_grad": "0x1.3c59a00000000p-35",
                      "gal_loss_grad": "0x1.499700f5fcb47p-33",
                      "dypo_step_loss": "0x1.72a0ee0000000p-33"}


def test_the_clip_guard_checks_trajectory_ratios():
    # one trajectory's log-ratio sits on the kink log 1.2, spread over its
    # steps so that every token's log-ratio stays well inside the clip band
    inst = _mid_instance(index=3)
    rows, tokens, lengths = inst.group.rows, inst.group.tokens, inst.group.lengths
    own = inst.params.logp_at(rows, tokens)
    assert _off_clip(inst, CFG, margin=1e-4)
    i = int(np.argmax(lengths))
    shift = np.zeros(len(rows))
    start = int(lengths[:i].sum())
    shift[start:start + lengths[i]] = np.log(1.2) / lengths[i]
    assert lengths[i] >= 3 and np.abs(shift).max() < np.log(1.2) / 2
    group = inst.group  # the same group, recorded with other sampling log-probs
    for sample_logp, off in ((own - shift, False), (own, True)):
        inst.group = GroupBatch(group.interner, group.queries, group.grade, group.k,
                                group.rewards, group.advantages, group.lengths, group.terminal,
                                group.steps, sample_logp)
        assert _off_clip(inst, CFG, margin=1e-4) is off


def test_grpo_policy_gradient_zero_for_flat_rewards():
    inst = make_instance(43, 1, kind="easy")
    block, = grpo_estimator(inst.params, inst.group).blocks()
    assert block.rows.size == 0


def test_grpo_policy_gradient_term_by_term_oracle():
    inst = _mid_instance(index=9)
    block, = grpo_estimator(inst.params, inst.group).blocks()
    got = block_dict(inst.params, block)
    expected: dict = {}
    k = len(inst.group.rewards)
    for traj, adv in zip(trajectories(inst.group), inst.group.advantages):
        for ctx, vec in naive_score(inst.params, inst.query.query_id, traj.tokens).items():
            expected[ctx] = expected.get(ctx, 0.0) + (adv / k) * vec
    assert set(got) == set(expected)
    for ctx in got:
        np.testing.assert_allclose(got[ctx], expected[ctx], rtol=1e-14, atol=1e-16)


def _group_with_split(n_succ: int, n_fail: int, seed: int = 0):
    """Mid group with the requested success/failure split, all trajectories distinct."""
    inst = make_instance(seed, 5, kind="mid")  # chain length 3: many demo styles
    q = inst.query
    teachers = make_teacher_ensemble(TASK, 6, seed=1)
    rng = substream(seed, "split")
    succ: dict = {q.ground_truth.tokens: q.ground_truth}
    while len(succ) < n_succ:
        demo = teacher_sample(teachers[int(rng.integers(6))], q, rng)
        succ.setdefault(demo.tokens, demo)
    fails: dict = {}
    while len(fails) < n_fail:
        t = trajectories(rollout_groups(inst.params, [q], 2, rng, xi=1e-4, stop_token=TASK.stop,
                                        t_max=14))[0]
        if reward(q, t) == 0:
            fails.setdefault(t.tokens, t)
    trajs = tuple(list(succ.values())[:n_succ] + list(fails.values())[:n_fail])
    rewards = tuple(reward(q, t) for t in trajs)
    group = GroupBatch.of(inst.params, q, trajs, rewards, standardize_advantages(rewards, 1e-4))
    return inst, group


def test_pair_arrays_full_product():
    inst, group = _group_with_split(3, 5)
    pairs = pair_arrays(group, 100, substream(5, "p")).traj
    trajs = trajectories(group)
    assert pairs.shape == (15, 2)
    assert all(reward(group.queries[0], trajs[s]) == 1
               and reward(group.queries[0], trajs[f]) == 0 for s, f in pairs)


def test_pair_arrays_cap():
    inst, group = _group_with_split(4, 4)
    pairs = pair_arrays(group, 8, substream(5, "p2")).traj
    assert pairs.shape == (8, 2)
    assert len({(s, f) for s, f in pairs.tolist()}) == 8


def test_pair_arrays_subset_is_uniform():
    inst, group = _group_with_split(2, 2)
    n = 100_000
    rng = substream(5, "u")
    # pair_arrays draws once per capped group, in group order: a call on 1000
    # copies of the group makes the draws of 1000 calls on the group
    copies = GroupBatch.concat([group] * 1000)
    first = copies.first.repeat(2)[:, None]  # each copy's pairs, on its own trajectories
    drawn = np.concatenate([pair_arrays(copies, 2, rng).traj - first for _ in range(n // 1000)])
    kept, counts = np.unique(drawn, axis=0, return_counts=True)
    # 4 pairs, 2 kept per draw: uniform inclusion probability 1/2
    freqs = counts / n
    assert len(kept) == 4
    se = np.sqrt(0.5 * 0.5 / n)
    np.testing.assert_allclose(freqs, 0.5, atol=4 * se)


def test_pair_arrays_rejects_degenerate_groups():
    inst = make_instance(43, 1, kind="easy")
    with pytest.raises(StateError):
        pair_arrays(inst.group, 8, substream(5, "x"))


def test_gal_anchors_at_reference():
    inst = _mid_instance(index=10)
    ref = inst.params.snapshot()
    report = gal_pass(inst.params, ref, inst.group, inst.pairs, CFG)
    assert report.loss[0] == pytest.approx(np.log(2.0), abs=1e-12)
    weights = report.weights
    assert weights.min() == pytest.approx(0.5, abs=1e-12)
    assert weights.max() == pytest.approx(0.5, abs=1e-12)
    assert np.mean(weights**2) == pytest.approx(0.25, abs=1e-12)
    assert report.aux["pair_count"][0] == len(inst.pairs.traj) == len(weights)


def test_gal_saturation_annealing():
    # pushing the policy hard toward the successes drives eta and the
    # gradient norm below 1e-3 monotonically
    inst = _mid_instance(index=11)
    params = inst.params.copy()
    last_eta, last_norm = 1.0, np.inf
    trajs = trajectories(inst.group)
    for boost in (0.0, 2.0, 6.0, 14.0):
        boosted = inst.params.copy()
        for s, _ in inst.pairs.traj:
            success = trajs[s].tokens
            boosted.apply_update(traj_score(inst.params, inst.query.query_id, success), boost)
        _, gradient, weights = _gal(boosted, inst.ref, inst.group, inst.pairs)
        eta = np.mean(weights**2)
        assert eta <= last_eta + 1e-12
        last_eta = eta
        last_norm = np.sqrt(gradient.sq_norm())
    assert last_eta < 1e-3
    assert last_norm < 1e-3


def test_gal_weights_strictly_bounded():
    for i in range(30):
        inst = _mid_instance(index=i)
        _, _, weights = _gal(inst.params, inst.ref, inst.group, inst.pairs)
        assert 0.0 < weights.min() <= weights.max() < 1.0


def test_gal_eta_matches_independent_recompute():
    inst = _mid_instance(index=12)
    _, _, weights = _gal(inst.params, inst.ref, inst.group, inst.pairs)
    trajs = trajectories(inst.group)
    qid = inst.query.query_id

    def log_ratio(traj):
        return (naive_log_prob(inst.params, qid, traj.tokens)
                - naive_log_prob(inst.ref, qid, traj.tokens))

    ws = []
    for s, f in ((trajs[i], trajs[j]) for i, j in inst.pairs.traj):
        d = log_ratio(s) - log_ratio(f)
        ws.append(1.0 - expit(CFG.beta_gal * d))
    np.testing.assert_allclose(weights, ws, rtol=0, atol=1e-15)
    assert np.mean(weights**2) == pytest.approx(np.mean(np.square(ws)), abs=1e-15)


def test_gal_gradient_skips_unpaired_trajectories():
    # GAL reads the group's stored rewards; trajectory 2 is a success left unpaired
    inst = _mid_instance(index=18)
    trajs = tuple(Trajectory(t, terminal=False) for t in ((0, 1, 2), (3, 4), (5, 6, 7)))
    group = GroupBatch.of(inst.params, inst.query, trajs, (1, 0, 1),
                          standardize_advantages((1, 0, 1), 1e-4))
    _, gradient, _ = _gal(inst.params, inst.ref, group, BatchPairs.of(group, [[(0, 1)]]))
    paired = {ctx for t in trajs[:2] for ctx in step_contexts(inst.query.query_id, t.tokens, 1)}
    assert set(block_dict(inst.params, gradient)) == paired


def test_gal_input_validation():
    inst = _mid_instance(index=13)
    k = len(inst.group.rewards)
    good = inst.pairs.traj  # a batch of one: its trajectories are the group's
    bad_pairs = {
        "empty list": [],
        "empty array": np.zeros((0, 2), dtype=int),
        "flipped": good[:, ::-1],
        "one flipped": np.vstack([good, good[:1, ::-1]]),
        "past the end": [(0, k)],
        "negative": [(0, -1)],
        "not pairs": good.ravel(),
    }
    for pairs in bad_pairs.values():
        with pytest.raises(InputError):
            BatchPairs.of(inst.group, [pairs])


def test_gal_gradient_finite_differences():
    for i in range(15):
        assert check("gal_loss_grad", 39, i) < 1e-6


def test_mixed_gradient_linearity_and_bounds():
    inst = _mid_instance(index=14)
    g = grpo_estimator(inst.params, inst.group)
    empty = g._replace(keys=g.keys[:0], values=g.values[:0])
    half = mixed_keyed(g, empty, 0.5)
    np.testing.assert_array_equal(half.keys, g.keys)
    np.testing.assert_array_equal(half.values, 0.5 * g.values)
    with pytest.raises(ConfigError):
        mixed_keyed(g, empty, 0.0)
    with pytest.raises(ConfigError):
        mixed_keyed(g, empty, 1.0)


def test_mixed_gradient_near_one_limit():
    inst = _mid_instance(index=15)
    g_grpo = grpo_estimator(inst.params, inst.group)
    g_gal = gal_pass(inst.params, inst.ref, inst.group, inst.pairs, CFG).gradient
    mix = block_dict(inst.params, mixed_keyed(g_grpo, g_gal, 0.999).blocks()[0])
    (grpo_block,), (gal_block,) = g_grpo.blocks(), g_gal.blocks()
    grpo = block_dict(inst.params, grpo_block)
    # direct norm bound: ||mix - grpo|| = 0.001 ||gal - grpo||
    delta = [mix.get(ctx, 0.0) - grpo.get(ctx, np.zeros(TASK.vocab_size))
             for ctx in set(mix) | set(grpo)]
    assert np.linalg.norm(delta) <= 0.001 * np.sqrt(grpo_block.sq_norm()) \
        + 0.001 * np.sqrt(gal_block.sq_norm()) + 1e-12


def test_mixed_gradient_componentwise_oracle():
    inst = _mid_instance(index=16)
    g_a = grpo_estimator(inst.params, inst.group)
    g_b = gal_pass(inst.params, inst.ref, inst.group, inst.pairs, CFG).gradient
    a, b = block_dict(inst.params, g_a.blocks()[0]), block_dict(inst.params, g_b.blocks()[0])
    mix = block_dict(inst.params, mixed_keyed(g_a, g_b, 0.3).blocks()[0])
    assert set(mix) == set(a) | set(b)
    for ctx in set(a) | set(b):
        expected = 0.3 * a.get(ctx, np.zeros(TASK.vocab_size)) \
            + 0.7 * b.get(ctx, np.zeros(TASK.vocab_size))
        np.testing.assert_array_equal(mix[ctx], expected)


@pytest.mark.parametrize("alpha", [0.5, 0.3, 0.999])
def test_mixing_on_grpos_keys_is_sum_blocks_bit_for_bit(alpha):
    inst = _mid_instance(index=18)
    cfg = MixConfig(alpha=alpha, pair_cap=3)
    rng = substream(18, "mid-batch")
    batch = collect_mid_groups(inst.params, lambda rng, size: [inst.query] * size, 6, rng, k=6,
                               xi=cfg.xi, stop_token=TASK.stop, t_max=14)
    gal = gal_pass(inst.params, inst.ref, batch, pair_arrays(batch, cfg.pair_cap, rng),
                   cfg).gradient
    # a GAL key dropped is a GRPO key GAL lacks; a -0.0 there and one on a key both have
    fewer = gal._replace(keys=gal.keys[1:], values=gal.values[1:])
    for grpo in (grpo_pass(inst.params, inst.ref, batch, cfg).gradient,
                 grpo_estimator(inst.params, batch)):
        signed = grpo.values.copy()
        signed[np.searchsorted(grpo.keys, gal.keys[:2]), 0] = -0.0
        for g_grpo in (grpo, grpo._replace(values=signed)):
            for g_gal in (gal, fewer):
                got = mixed_keyed(g_grpo, g_gal, alpha)
                want = sum_blocks([(alpha, RowBlock(g_grpo.keys, g_grpo.values)),
                                   (1.0 - alpha, RowBlock(g_gal.keys, g_gal.values))])
                assert got.keys.tobytes() == want.rows.tobytes()
                assert got.values.tobytes() == want.values.tobytes()
                assert (got.span, got.count) == (g_grpo.span, g_grpo.count)


def test_a_gal_key_grpo_lacks_is_a_state_error():
    # searchsorted would put a missing key on a neighbour's row, or past the end
    grpo = KeyedBlocks(np.array([2, 5, 9]), np.ones((3, 2)), 10, 1)
    for keys in ([3], [5, 12], [0, 2], [2, 5, 6]):
        gal = KeyedBlocks(np.array(keys), np.ones((len(keys), 2)), 10, 1)
        with pytest.raises(StateError, match="lacks"):
            mixed_keyed(grpo, gal, 0.5)
    np.testing.assert_array_equal(grpo.values, np.ones((3, 2)))


def test_dypo_step_easy_contributes_nothing():
    inst = make_instance(47, 4, kind="easy")
    report, passed = route_groups(inst.params, inst.ref, inst.group,
                                  inst.teachers, CFG, substream(5, "e"))
    assert report.loss == 0.0
    assert report.gradient.rows.size == 0
    assert inst.group.grade.tolist() == [DifficultyGrade.EASY] and passed is None


def test_dypo_step_hard_scales_with_gamma():
    inst = make_instance(47, 5, kind="hard")
    cfg1 = MixConfig(gamma=1.0)
    cfg2 = MixConfig(gamma=2.0)
    r1, _ = route_groups(inst.params, inst.ref, inst.group,
                         inst.teachers, cfg1, substream(5, "h"))
    r2, _ = route_groups(inst.params, inst.ref, inst.group,
                         inst.teachers, cfg2, substream(5, "h"))
    assert r2.loss == pytest.approx(2.0 * r1.loss, rel=1e-15)
    np.testing.assert_array_equal(r2.gradient.rows, r1.gradient.rows)
    np.testing.assert_allclose(r2.gradient.values, 2.0 * r1.gradient.values, rtol=1e-15)
    assert inst.group.grade.tolist() == [DifficultyGrade.HARD]


@pytest.mark.parametrize("variant, kinds", [("dypo", ("hard", "mid", "hard", "easy", "hard")),
                                             ("sft_only", ("mid", "hard", "easy"))])
def test_the_distilled_groups_are_one_sft_pass(monkeypatch, variant, kinds):
    # every group of the step that is distilled goes through one sft_pass
    # call, on the distilled groups' queries in group order
    calls = []

    def counting(params, queries, teachers, rng, _real=objectives.sft_pass):
        calls.append([q.query_id for q in queries])
        return _real(params, queries, teachers, rng)
    monkeypatch.setattr(objectives, "sft_pass", counting)
    inst = {kind: make_instance(47, 5, kind=kind) for kind in set(kinds)}
    params, ref = inst["hard"].params, inst["hard"].ref
    groups = [GroupBatch.of(ref, inst[kind].query, trajectories(inst[kind].group),
                            inst[kind].group.rewards, inst[kind].group.advantages)
              for kind in kinds]
    batch = GroupBatch.concat(groups)
    distilled = [q.query_id for q, kind in zip(batch.queries, kinds)
                 if variant == "sft_only" or kind == "hard"]
    assert len(distilled) >= 3
    for step in range(2):
        route_groups(params, ref, batch, inst["hard"].teachers, CFG, substream(5, "one", step),
                     variant)
        assert calls == [distilled] * (step + 1)


def test_dypo_step_mid_recomposition():
    inst = _mid_instance(index=17)
    rng_tag = substream(5, "m")
    report, _ = route_groups(inst.params, inst.ref, inst.group,
                             inst.teachers, CFG, rng_tag)
    pairs = pair_arrays(inst.group, CFG.pair_cap, substream(5, "m"))
    grpo = grpo_pass(inst.params, inst.ref, inst.group, CFG)
    gal_loss, gal_gradient, _ = _gal(inst.params, inst.ref, inst.group, pairs)
    manual_loss = CFG.alpha * grpo.loss[0] + (1 - CFG.alpha) * gal_loss
    assert report.loss == pytest.approx(manual_loss, abs=1e-12)
    g_grpo, = grpo.gradient.blocks()
    manual = sum_blocks([(CFG.alpha, g_grpo), (1 - CFG.alpha, gal_gradient)])
    np.testing.assert_array_equal(report.gradient.rows, manual.rows)
    np.testing.assert_allclose(report.gradient.values, manual.values, atol=1e-12)
    assert inst.group.grade.tolist() == [DifficultyGrade.MID]


def test_a_policy_of_another_interner_is_an_input_error():
    # a run has one interner: a reference with its own is rejected even when
    # it holds the same logits, and rows kept for another interner are never
    # resolved again
    inst = _mid_instance(index=19)
    assert inst.group.grade.tolist() == [DifficultyGrade.MID]
    foreign = PolicyParams(TASK.vocab_size, 1)
    for ctx in inst.ref.written_contexts():
        foreign.set_logits(ctx, inst.ref.logits(ctx))
    with pytest.raises(InputError, match="interner"):
        grpo_pass(inst.params, foreign, inst.group, CFG)
    with pytest.raises(InputError, match="interner"):
        gal_pass(inst.params, foreign, inst.group, inst.pairs, CFG)
    with pytest.raises(InputError, match="interner"):
        route_groups(inst.params, foreign, inst.group, inst.teachers, CFG, substream(5, "f"))
    group = GroupBatch.of(foreign, inst.query, trajectories(inst.group), inst.group.rewards,
                          inst.group.advantages)
    with pytest.raises(InputError, match="interner"):
        grpo_estimator(inst.params, group)


def test_every_pass_over_a_batch_without_groups_is_an_input_error():
    # a select of no groups, as collect_mid_groups makes of a chunk without Mid groups
    cfg = TrainConfig(seed=3)
    pool = QueryPool(cfg.task, cfg.seed)
    params = init_policy(cfg, pool)
    ref = params.snapshot()
    empty = rollout_groups(params, pool.queries[:1], cfg.k, substream(2, "e"), xi=cfg.mix.xi,
                           stop_token=cfg.task.stop, t_max=cfg.t_max).select([])
    assert len(empty) == 0 and empty.steps.shape == (2, 0)
    pairs = pair_arrays(empty, CFG.pair_cap, substream(2, "pairs"))
    passes = {
        "grpo_pass": lambda: grpo_pass(params, ref, empty, CFG),
        "grpo_estimator": lambda: grpo_estimator(params, empty),
        "gal_pass": lambda: gal_pass(params, ref, empty, pairs, CFG),
        "mixed_pass": lambda: mixed_pass(params, ref, empty, pairs, CFG),
        "key_index": lambda: GroupBatch.concat([empty, empty]).key_index(params),
    }
    for name, run in passes.items():
        with pytest.raises(InputError, match="at least one group"):
            run()
    with pytest.raises(InputError, match="at least one query"):
        sft_pass(params, [], make_teacher_ensemble(cfg.task, 1, 3), substream(2, "sft"))


def test_dypo_gradient_finite_differences():
    for i in range(15):
        assert check("dypo_step_loss", 53, i) < 1e-6


def test_grade_of_constructed_groups():
    assert grade(make_instance(1, 0, kind="easy").group.rewards) is DifficultyGrade.EASY
    assert grade(make_instance(1, 0, kind="hard").group.rewards) is DifficultyGrade.HARD
    assert grade(make_instance(1, 0, kind="mid").group.rewards) is DifficultyGrade.MID
