"""Task environment: query generation, rewards, teachers, bias testbed."""

from __future__ import annotations

import numpy as np
import pytest

from dypo.errors import ConfigError, InputError
from dypo.policy import PolicyParams, Trajectory, sample_trajectory
from dypo.seeding import substream
from dypo.tasks import (
    BiasTestbedConfig,
    TaskConfig,
    bias_sq_norms,
    generate_query,
    make_teacher_ensemble,
    max_demo_len,
    reward,
    teacher_sample,
    uniform_guess_rate,
)

TASK = TaskConfig()


def test_generate_query_deterministic():
    a = generate_query(TASK, 2, substream(7, "gen"), query_id=3)
    b = generate_query(TASK, 2, substream(7, "gen"), query_id=3)
    assert a == b


def test_chain_length_one_is_minimal_encoding():
    q = generate_query(TASK, 1, substream(7, "gen"), query_id=0)
    # no reasoning prefix: separator, answer, stop
    assert q.ground_truth.tokens == (TASK.separator, q.answer_tokens[0], TASK.stop)
    assert len(q.ground_truth) == 3


def test_ground_truth_self_consistency():
    rng = substream(7, "consistency")
    for i in range(1000):
        q = generate_query(TASK, 1 + i % 4, rng, query_id=i)
        assert reward(q, q.ground_truth) == 1


def test_chain_values_follow_the_grammar():
    rng = substream(7, "grammar")
    for i in range(200):
        q = generate_query(TASK, 1 + i % 4, rng, query_id=i)
        value = q.prompt_tokens[0]
        ops = q.prompt_tokens[1:]
        for kind, c in zip(ops[::2], ops[1::2]):
            value = (value * c) % TASK.modulus if kind == TASK.mul_op else (value + c) % TASK.modulus
        assert value == q.answer_tokens[0] == q.chain_values[-1]


def test_reward_exact_match_and_malformed():
    q = generate_query(TASK, 2, substream(7, "r"), query_id=0)
    ans = q.answer_tokens[0]
    assert reward(q, q.ground_truth) == 1
    # non-terminal scores 0 even with the right shape
    assert reward(q, Trajectory((TASK.separator, ans, TASK.stop), terminal=False)) == 0
    # wrong answer
    wrong = (ans + 1) % TASK.modulus
    assert reward(q, Trajectory((TASK.separator, wrong, TASK.stop), terminal=True)) == 0
    # no separator at all
    assert reward(q, Trajectory((ans, TASK.stop), terminal=True)) == 0
    # junk before the last separator is fine
    noisy = (0, TASK.separator, 3, 1, TASK.separator, ans, TASK.stop)
    assert reward(q, Trajectory(noisy, terminal=True)) == 1
    # extra tokens inside the answer segment break the match
    assert reward(q, Trajectory((TASK.separator, ans, ans, TASK.stop), terminal=True)) == 0


def test_teacher_demos_always_rewarded():
    rng = substream(7, "teach")
    teachers = make_teacher_ensemble(TASK, 6, seed=0)
    for i in range(100):
        q = generate_query(TASK, 1 + i % 4, rng, query_id=i)
        for oracle in teachers:
            for _ in range(3):
                assert reward(q, teacher_sample(oracle, q, rng)) == 1


def test_teachers_are_distinct():
    teachers = make_teacher_ensemble(TASK, 2, seed=0)
    rng_q = substream(7, "distinct")
    differing = 0
    for i in range(100):
        q = generate_query(TASK, 2 + i % 3, rng_q, query_id=i)
        a = teacher_sample(teachers[0], q, substream(7, "d", i))
        b = teacher_sample(teachers[1], q, substream(7, "d", i))
        differing += a.tokens != b.tokens
    assert differing >= 1


def test_single_teacher_ensemble_is_valid():
    teachers = make_teacher_ensemble(TASK, 1, seed=0)
    q = generate_query(TASK, 2, substream(7, "m1"), query_id=0)
    demo = teacher_sample(teachers[0], q, substream(7, "m1-d"))
    assert reward(q, demo) == 1


def test_teacher_rejects_foreign_query():
    other = TaskConfig(modulus=7)
    q = generate_query(other, 1, substream(7, "f"), query_id=0)
    oracle = make_teacher_ensemble(TASK, 1, seed=0)[0]
    with pytest.raises(InputError):
        teacher_sample(oracle, q, substream(7, "f-d"))


def test_teacher_count_validation():
    with pytest.raises(ConfigError):
        make_teacher_ensemble(TASK, 0, seed=0)


def test_bias_sample_noiseless():
    cfg = BiasTestbedConfig(dim=4, b_sys=(0.3, 0.0, -0.4, 0.0), sigma_bias=0.0)
    rng = substream(7, "b0")
    for m in (1, 2, 8):
        vals = bias_sq_norms(cfg, m, 3, rng)
        np.testing.assert_allclose(vals, 0.09 + 0.16, rtol=0, atol=1e-15)


def test_bias_sample_m1_matches_sigma_squared():
    cfg = BiasTestbedConfig(dim=8, b_sys=(0.0,) * 8, sigma_bias=1.0)
    rng = substream(7, "b1")
    vals = bias_sq_norms(cfg, 1, 100_000, rng)
    assert vals.shape == (100_000,)
    assert np.mean(vals) == pytest.approx(1.0, rel=0.02)


def test_bias_sample_m4_idiosyncratic_term():
    cfg = BiasTestbedConfig(dim=8, b_sys=(0.5,) + (0.0,) * 7, sigma_bias=1.0)
    rng = substream(7, "b4")
    vals = bias_sq_norms(cfg, 4, 100_000, rng)
    assert np.mean(vals) - cfg.b_sys_sq == pytest.approx(0.25, rel=0.05)


def test_bias_sample_rejects_zero_ensemble():
    cfg = BiasTestbedConfig(dim=2, b_sys=(0.0, 0.0), sigma_bias=1.0)
    with pytest.raises(InputError):
        bias_sq_norms(cfg, 0, 10, substream(7, "bz"))


def test_uniform_guess_rate_closed_form():
    # Monte Carlo cross-check of the analytic uniform-policy success rate
    q = generate_query(TASK, 3, substream(7, "guess"), query_id=0)
    params = PolicyParams(TASK.vocab_size, 1)
    rng = substream(7, "guess-mc")
    n = 200_000
    hits = sum(
        reward(q, sample_trajectory(params, q, rng, stop_token=TASK.stop, t_max=16))
        for _ in range(n)
    )
    p = uniform_guess_rate(TASK.vocab_size, 16)
    se = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 3.5 * se


def test_teacher_rewrites_preserve_reward_exhaustively():
    # every length-1 instance: all starts x op kinds x operands x 6 teachers,
    # both jitter branches
    from dypo.policy import Trajectory
    from dypo.tasks import Query

    teachers = make_teacher_ensemble(TASK, 6, seed=3)
    m = TASK.modulus
    for start in range(m):
        for is_mul in (False, True):
            for c in range(1, m):
                v1 = (start * c) % m if is_mul else (start + c) % m
                q = Query(
                    query_id=0,
                    prompt_tokens=(start, TASK.mul_op if is_mul else TASK.add_op, c),
                    ground_truth=Trajectory((TASK.separator, v1, TASK.stop), terminal=True),
                    answer_tokens=(v1,),
                    chain_values=(start, v1),
                    separator=TASK.separator,
                    stop=TASK.stop,
                )
                for oracle in teachers:
                    for jitter_seed in range(4):
                        demo = teacher_sample(oracle, q, substream(3, "ex", jitter_seed))
                        assert reward(q, demo) == 1


@pytest.mark.parametrize("max_chain_len", [1, 2, 4])
def test_max_demo_len_is_the_exact_longest_demo(max_chain_len):
    from types import SimpleNamespace

    task = TaskConfig(max_chain_len=max_chain_len)
    query = generate_query(task, max_chain_len, substream(8, "demo-len"))
    echo, no_echo = SimpleNamespace(random=lambda: 0.0), SimpleNamespace(random=lambda: 0.9)
    for m in range(1, 15):
        longest = max(len(teacher_sample(t, query, rng))
                      for t in make_teacher_ensemble(task, m, seed=0) for rng in (echo, no_echo))
        assert max_demo_len(task, m) == longest
