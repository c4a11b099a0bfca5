"""Trainer: config schema, determinism, resume, routing semantics, evaluation."""

from __future__ import annotations

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from dypo.errors import ConfigError, DataError, TrainingAborted
from dypo.instrumentation import read_metrics, write_metrics
from dypo.policy import PolicyParams, RowBlock
from dypo.seeding import substream
from dypo.tasks import TaskConfig, uniform_guess_rate
from dypo.trainer import (
    Checkpoint,
    QueryPool,
    TrainConfig,
    evaluate,
    init_policy,
    load_checkpoint,
    run_comparison,
    save_checkpoint,
    train,
    train_config_from_dict,
    train_config_to_dict,
)

from conftest import block_dict, tables_equal


def test_config_roundtrip_and_strictness():
    cfg = TrainConfig(seed=9, steps=3)
    doc = train_config_to_dict(cfg)
    assert train_config_from_dict(doc) == cfg
    doc_bad = json.loads(json.dumps(doc))
    doc_bad["mix"]["alpa"] = 0.5
    with pytest.raises(ConfigError, match="mix.alpa"):
        train_config_from_dict(doc_bad)
    with pytest.raises(ConfigError, match="learningrate"):
        train_config_from_dict({"learningrate": 0.1})


# JSON values of the wrong type for each kind of field; ints are valid reals
_WRONG = {int: ("5", 2.5, True, None, {}), float: ("0.5", False, None, {}, math.nan, math.inf),
          str: (5, True, None, {}),
          tuple: ("0.5", 0.5, [True], ["0"], [None], [-math.inf], None, {})}


def test_every_field_rejects_json_values_of_the_wrong_type():
    base = train_config_to_dict(TrainConfig())
    for section in ("", "mix", "task", "testbed"):
        fields = base[section] if section else base
        for key, default in fields.items():
            if isinstance(default, dict):
                wrong = (5, "mix", True, None, [])  # a section must be an object
            else:
                wrong = _WRONG[type(default)]
            name = f"{section}.{key}" if section else key
            for value in wrong:
                doc = json.loads(json.dumps(base))
                (doc[section] if section else doc)[key] = value
                with pytest.raises(ConfigError, match=rf"^config\.{name} must be "):
                    train_config_from_dict(doc)


def test_json_integers_are_accepted_for_real_fields():
    doc = {"learning_rate": 1, "mix": {"gamma": 2},
           "testbed": {"dim": 3, "b_sys": [0.5, 0, -1], "sigma_bias": 1}}
    cfg = train_config_from_dict(doc)
    assert (cfg.learning_rate, cfg.mix.gamma, cfg.testbed.b_sys) == (1, 2, (0.5, 0, -1))
    with pytest.raises(ConfigError, match="missing field config.testbed.sigma_bias"):
        train_config_from_dict({"testbed": {"dim": 1, "b_sys": [0.0]}})


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(k=1)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(variant="ppo")
    with pytest.raises(ConfigError):
        TrainConfig(t_max=4, task=TaskConfig(max_chain_len=4))


def test_zero_steps_leaves_policy_unchanged(tmp_path):
    cfg = TrainConfig(seed=4, steps=0)
    result = train(cfg, out_dir=tmp_path)
    pool = QueryPool(cfg.task, cfg.seed)
    assert tables_equal(result.checkpoint.params, init_policy(cfg, pool))
    assert result.metrics == []
    assert (tmp_path / "metrics.csv").read_text().count("\n") == 1  # header only


def _oracle_checkpoint(cfg: TrainConfig) -> Checkpoint:
    """Policy that reproduces every ground truth deterministically."""
    pool = QueryPool(cfg.task, cfg.seed)
    params = init_policy(cfg, pool)
    for q in pool.queries:
        tokens = q.ground_truth.tokens
        ctx_tokens = [()] + [(t,) for t in tokens[:-1]]
        for hist, target in zip(ctx_tokens, tokens):
            row = np.zeros(cfg.task.vocab_size)
            row[target] = 30.0
            params.set_logits((q.query_id, tuple(hist)), row)
    return Checkpoint(step=0, params=params, ref=params.snapshot(),
                      rng_state={"scheme": "named-substreams-v1", "seed": cfg.seed,
                                 "next_step": 0},
                      metrics=[], config=cfg)


def test_all_easy_stream_never_updates():
    # chain length 1 avoids context collisions, so the oracle policy is exact
    cfg = TrainConfig(seed=6, steps=25, task=TaskConfig(min_chain_len=1, max_chain_len=1))
    ckpt = _oracle_checkpoint(cfg)
    before = ckpt.params.copy()
    result = train(cfg, resume_from=ckpt)
    assert tables_equal(result.checkpoint.params, before)
    for row in result.metrics:
        assert row.easy == cfg.batch_size
        assert row.grad_norm == 0.0


def test_reward_trend_on_default_stream(dypo_run):
    rewards = np.array([m.mean_reward for m in dypo_run.metrics])
    ma = np.convolve(rewards, np.ones(20) / 20, mode="valid")
    quarters = np.array_split(ma, 4)
    means = [float(q.mean()) for q in quarters]
    assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))
    assert ma[-1] >= ma[0]


def test_metrics_are_deterministic(tmp_path):
    cfg = TrainConfig(seed=8, steps=50)
    a = train(cfg, out_dir=tmp_path / "a")
    b = train(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()
    assert tables_equal(a.checkpoint.params, b.checkpoint.params)


def test_checkpoint_resume_is_bit_exact(tmp_path):
    cfg = TrainConfig(seed=8, steps=50)
    full = train(cfg, out_dir=tmp_path / "full")

    half_cfg = TrainConfig(**{**train_config_to_dict(cfg), "steps": 25,
                              "mix": cfg.mix, "task": cfg.task, "testbed": cfg.testbed})
    half = train(half_cfg, out_dir=tmp_path / "half")
    save_checkpoint(tmp_path / "ckpt.json", half.checkpoint)
    loaded = load_checkpoint(tmp_path / "ckpt.json")
    assert tables_equal(loaded.params, half.checkpoint.params)

    resumed = train(cfg, out_dir=tmp_path / "resumed", resume_from=loaded)
    assert (tmp_path / "full" / "metrics.csv").read_bytes() == \
        (tmp_path / "resumed" / "metrics.csv").read_bytes()
    assert tables_equal(full.checkpoint.params, resumed.checkpoint.params)


def test_update_sparsity_per_step():
    cfg = TrainConfig(seed=12, steps=1)
    pool = QueryPool(cfg.task, cfg.seed)
    before = init_policy(cfg, pool)
    result = train(cfg)
    after = result.checkpoint.params
    batch_qids = {
        int(i) for i in substream(cfg.seed, "stream", 0).integers(len(pool),
                                                                  size=cfg.batch_size)
    }
    changed_qids = set()
    for ctx in set(after.written_contexts()) | set(before.written_contexts()):
        if not np.array_equal(after.logits(ctx), before.logits(ctx)):
            changed_qids.add(ctx[0])
    assert changed_qids <= batch_qids


def test_evaluate_oracle_policy():
    cfg = TrainConfig(seed=6, steps=0, task=TaskConfig(min_chain_len=1, max_chain_len=1))
    ckpt = _oracle_checkpoint(cfg)
    pool = QueryPool(cfg.task, cfg.seed)
    report = evaluate(ckpt.params, pool, 50, 8, substream(6, "ev"), t_max=cfg.t_max)
    assert report.pass_rate == 1.0
    assert report.grade_counts["easy"] == 50


def test_evaluate_uniform_policy_matches_guess_rate():
    cfg = TrainConfig(seed=14, steps=0, init_syntax_logit=0.0)
    pool = QueryPool(cfg.task, cfg.seed)
    params = PolicyParams(cfg.task.vocab_size, cfg.history)
    n = 600
    report = evaluate(params, pool, n, cfg.k, substream(14, "ev"), t_max=cfg.t_max)
    p = uniform_guess_rate(cfg.task.vocab_size, cfg.t_max)
    expect = 1.0 - (1.0 - p) ** cfg.k
    se = np.sqrt(expect * (1 - expect) / n)
    assert abs(report.pass_rate - expect) < 3.5 * se


def test_evaluate_deterministic():
    cfg = TrainConfig(seed=15, steps=0)
    pool = QueryPool(cfg.task, cfg.seed)
    params = init_policy(cfg, pool)
    a = evaluate(params, pool, 40, 4, substream(15, "ev"), t_max=cfg.t_max)
    b = evaluate(params, pool, 40, 4, substream(15, "ev"), t_max=cfg.t_max)
    assert a == b


def test_non_finite_gradient_aborts_with_diagnostic(tmp_path):
    cfg = TrainConfig(seed=17, steps=5)
    short = train(TrainConfig(seed=17, steps=1))
    poisoned = short.checkpoint
    rows = poisoned.params.rows((q, ()) for q in range(cfg.task.pool_size))
    poisoned.params.apply_update(RowBlock(rows, np.full((len(rows), cfg.task.vocab_size),
                                                        np.nan)), 1.0)
    with pytest.raises(TrainingAborted), \
            pytest.warns(RuntimeWarning, match="invalid value encountered in logaddexp"):
        train(cfg, out_dir=tmp_path, resume_from=poisoned)
    assert (tmp_path / "abort_checkpoint.json").exists()


def test_run_comparison_shares_the_stream(tmp_path):
    cfg = TrainConfig(seed=18, steps=12)
    results = run_comparison(cfg, out_dir=tmp_path)
    assert set(results) == {"dypo", "sft_only", "grpo_only"}
    rows = {v: read_metrics(tmp_path / f"{v}_metrics.csv") for v in results}
    # per-step reward at step 0 is computed before any update on a shared
    # stream and identical rollout seeds, so it matches across variants
    assert rows["dypo"][0].mean_reward == rows["sft_only"][0].mean_reward \
        == rows["grpo_only"][0].mean_reward
    for v, r in results.items():
        assert len(r.metrics) == 12


def test_written_metrics_roundtrip_from_training(tmp_path):
    cfg = TrainConfig(seed=19, steps=6)
    result = train(cfg, out_dir=tmp_path)
    rows = read_metrics(tmp_path / "metrics.csv")
    assert rows == result.metrics
    write_metrics(tmp_path / "again.csv", rows)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "metrics.csv").read_bytes()


def test_reference_refresh_zeroes_the_kl():
    cfg = TrainConfig(seed=21, steps=6, ref_refresh_period=1, variant="grpo_only")
    result = train(cfg)
    for row in result.metrics:
        assert row.kl == 0.0
    final = result.checkpoint
    assert tables_equal(final.ref, final.params)


def test_history_order_two_trains():
    cfg = TrainConfig(seed=22, steps=5, history=2)
    a = train(cfg)
    b = train(cfg)
    assert tables_equal(a.checkpoint.params, b.checkpoint.params)
    assert len(a.metrics) == 5


def test_batch_gradient_is_additive_over_query_reports():
    # the applied update equals the mean of independently recomputed
    # per-query reports: (theta_before - theta_after) / lr
    from dypo.objectives import dypo_step_loss, rollout_group
    from dypo.grading import DifficultyGrade
    from dypo.policy import sum_blocks

    cfg = TrainConfig(seed=23, steps=1, batch_size=4)
    pool = QueryPool(cfg.task, cfg.seed)
    before = init_policy(cfg, pool)
    ref = before.snapshot()
    after = train(cfg).checkpoint.params

    indices = [int(i) for i in substream(cfg.seed, "stream", 0).integers(
        len(pool), size=cfg.batch_size)]
    blocks = []
    teachers_mod = __import__("dypo.tasks", fromlist=["make_teacher_ensemble"])
    teachers = teachers_mod.make_teacher_ensemble(cfg.task, cfg.m_teachers, cfg.seed)
    for j, qi in enumerate(indices):
        query = pool.queries[qi]
        group = rollout_group(before, query, cfg.k, substream(cfg.seed, "rollout", 0, j),
                              xi=cfg.mix.xi, stop_token=cfg.task.stop, t_max=cfg.t_max)
        report = dypo_step_loss(before, ref, group, teachers, cfg.mix,
                                substream(cfg.seed, "objective", 0, j))
        if group.grade is not DifficultyGrade.EASY:
            blocks.append((1.0, report.gradient))
    assert blocks
    expected = block_dict(before, sum_blocks(blocks).scaled(1.0 / len(blocks)))
    for ctx, vec in expected.items():
        applied = (before.logits(ctx) - after.logits(ctx)) / cfg.learning_rate
        np.testing.assert_allclose(applied, vec, atol=1e-12)


def test_each_group_is_graded_once(monkeypatch):
    import dypo.grading

    calls = []
    original = dypo.grading.grade
    monkeypatch.setattr(dypo.grading, "grade",
                        lambda rewards: calls.append(1) or original(rewards))
    cfg = TrainConfig(seed=24, steps=6, batch_size=4)
    result = train(cfg)
    assert sum(r.easy + r.hard + r.mid for r in result.metrics) == 24
    assert len(calls) == 24


# --- checkpoint validation: one test per failure mode ----------------------

@pytest.fixture(scope="module")
def checkpoint_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
    save_checkpoint(path, train(TrainConfig(seed=25, steps=3)).checkpoint)
    return json.loads(path.read_text())


def _load_doc(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return load_checkpoint(path)


def test_checkpoint_missing_key_is_a_data_error(tmp_path, checkpoint_doc):
    with pytest.raises(DataError, match="missing key 'config'"):
        _load_doc(tmp_path, {"step": 1})
    doc = json.loads(json.dumps(checkpoint_doc))
    del doc["ref"]["table"]
    with pytest.raises(DataError, match="missing key 'table'"):
        _load_doc(tmp_path, doc)


def test_truncated_checkpoint_is_a_data_error(tmp_path, checkpoint_doc):
    path = tmp_path / "cut.json"
    text = json.dumps(checkpoint_doc)
    path.write_text(text[: len(text) // 2])
    with pytest.raises(DataError, match="not valid JSON"):
        load_checkpoint(path)
    with pytest.raises(DataError, match="cannot read"):
        load_checkpoint(tmp_path / "missing.json")


def test_checkpoint_row_length_is_checked(tmp_path, checkpoint_doc):
    doc = json.loads(json.dumps(checkpoint_doc))
    doc["params"]["table"][0][2] = doc["params"]["table"][0][2][:-1]
    with pytest.raises(DataError, match="malformed: logit row must have shape"):
        _load_doc(tmp_path, doc)


def test_checkpoint_history_length_is_checked(tmp_path, checkpoint_doc):
    doc = json.loads(json.dumps(checkpoint_doc))
    doc["params"]["table"][0][1] = [1, 2]  # history is 1
    with pytest.raises(DataError, match="longer than history=1"):
        _load_doc(tmp_path, doc)


def test_checkpoint_non_finite_logits_are_a_data_error(tmp_path, checkpoint_doc):
    doc = json.loads(json.dumps(checkpoint_doc))
    doc["ref"]["table"][0][2][0] = float("nan")
    with pytest.raises(DataError, match="malformed: logit entries must be finite"):
        _load_doc(tmp_path, doc)


def test_checkpoint_default_logits_of_the_wrong_length_are_a_data_error(tmp_path,
                                                                        checkpoint_doc):
    doc = json.loads(json.dumps(checkpoint_doc))
    doc["params"]["default_logits"].append(0.0)
    with pytest.raises(DataError, match="malformed: default_logits must have vocab_size"):
        _load_doc(tmp_path, doc)


def test_checkpoint_non_finite_default_logits_are_a_data_error(tmp_path, checkpoint_doc):
    doc = json.loads(json.dumps(checkpoint_doc))
    doc["ref"]["default_logits"][0] = float("inf")
    with pytest.raises(DataError, match="malformed: default_logits entries must be finite"):
        _load_doc(tmp_path, doc)


def test_checkpoint_metrics_rows_are_type_checked(tmp_path, checkpoint_doc):
    for key, value, message in (("mean_reward", "abc", "metrics[1].mean_reward must be a finite"),
                                ("easy", 1.5, "metrics[1].easy must be an integer"),
                                ("kl", None, "metrics[1].kl must be a finite number"),
                                ("eta", math.nan, "metrics[1].eta must be a finite number"),
                                ("tau", 0.0, "unknown field metrics[1].tau")):
        doc = json.loads(json.dumps(checkpoint_doc))
        doc["metrics"][1][key] = value
        with pytest.raises(DataError, match=re.escape(message)):
            _load_doc(tmp_path, doc)
    doc = json.loads(json.dumps(checkpoint_doc))
    del doc["metrics"][1]["kl"]
    with pytest.raises(DataError, match=re.escape("missing field metrics[1].kl")):
        _load_doc(tmp_path, doc)


def test_checkpoint_negative_step_is_a_data_error(tmp_path, checkpoint_doc):
    doc = json.loads(json.dumps(checkpoint_doc))
    doc["step"] = -2
    with pytest.raises(DataError, match="step -2, not a non-negative integer"):
        _load_doc(tmp_path, doc)


def test_checkpoint_fractional_step_is_a_data_error(tmp_path, checkpoint_doc):
    doc = json.loads(json.dumps(checkpoint_doc))
    doc["step"] = 2.7
    with pytest.raises(DataError, match="step 2.7, not a non-negative integer"):
        _load_doc(tmp_path, doc)


def test_checkpoint_metrics_must_be_the_rows_before_its_step(tmp_path, checkpoint_doc):
    short = json.loads(json.dumps(checkpoint_doc))
    short["metrics"] = short["metrics"][:1]
    relabeled = json.loads(json.dumps(checkpoint_doc))
    relabeled["metrics"][1]["step"] = 2
    for doc in (short, relabeled):
        with pytest.raises(DataError, match="at step 3, but its metrics are not"):
            _load_doc(tmp_path, doc)


def test_checkpoint_vocab_and_history_must_match_the_config(tmp_path, checkpoint_doc):
    for key, value in (("vocab_size", 7), ("history", 2)):
        doc = json.loads(json.dumps(checkpoint_doc))
        doc["params"][key] = value
        with pytest.raises(ConfigError, match="its config needs"):
            _load_doc(tmp_path, doc)


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    ckpt = train(TrainConfig(seed=26, steps=2)).checkpoint
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, ckpt)
    before = path.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("dypo.artifacts.os.replace", broken_replace)
    with pytest.raises(OSError):
        save_checkpoint(path, train(TrainConfig(seed=27, steps=2)).checkpoint)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]


def test_resume_refuses_a_checkpoint_of_another_config():
    cfg = TrainConfig(seed=28, steps=4)
    ckpt = train(replace(cfg, steps=2)).checkpoint
    with pytest.raises(ConfigError, match="differs in seed$"):
        train(replace(cfg, seed=29), resume_from=ckpt)
    with pytest.raises(ConfigError, match="differs in mix.alpha$"):
        train(replace(cfg, mix=replace(cfg.mix, alpha=0.3)), resume_from=ckpt)
    with pytest.raises(ConfigError, match="at step 2, past the configured 1 steps"):
        train(replace(cfg, steps=1), resume_from=ckpt)
