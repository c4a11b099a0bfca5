"""Acceptance gate: each criterion runs at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion. The heavy runs (the 500-step routed training, its policies at
steps 40, 120 and 500, the baseline comparison) are session fixtures shared
across criteria.
"""

from __future__ import annotations

import time
from itertools import product

import numpy as np

from dypo.gradcheck import grad_check_suite
from dypo.grading import DifficultyGrade, grade
from dypo.instrumentation import (
    CHUNK_GROUPS,
    collect_mid_groups,
    measure_eta,
    variance_from_samples,
    variance_ordering_bench,
)
from dypo.objectives import (
    MixConfig,
    gal_pass,
    grpo_estimator,
    rollout_groups,
)
from dypo.seeding import substream
from dypo.trainer import QueryPool, TrainConfig, train, train_config_to_dict

from conftest import ACCEPTANCE_SEED, tables_equal


def _announce(num: int, description: str, ok: bool, detail: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}  {detail}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def test_criterion_1_gradient_exactness():
    t0 = time.time()
    errors = grad_check_suite(seed=ACCEPTANCE_SEED, n_instances=100)
    elapsed = time.time() - t0
    worst = max(errors.values())
    ok = worst <= 1e-6 and elapsed < 60.0
    detail = " ".join(f"{k}={v:.2e}" for k, v in errors.items()) + f" ({elapsed:.1f}s)"
    _announce(1, "finite differences match all loss gradients within 1e-6", ok, detail)


def test_criterion_2_grading_partition():
    t0 = time.time()
    ok = True
    for k in range(2, 11):
        for pattern in product((0, 1), repeat=k):
            g = grade(list(pattern))
            total = sum(pattern)
            expected = (DifficultyGrade.EASY if total == k else
                        DifficultyGrade.HARD if total == 0 else DifficultyGrade.MID)
            ok = ok and g is expected and ((g is DifficultyGrade.MID) == (0 < total < k))
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _announce(2, "grades partition all reward patterns for k=2..10", ok,
              f"({elapsed:.3f}s)")


def test_criterion_3_bias_law(acceptance_config):
    from dypo.instrumentation import bias_law_bench

    t0 = time.time()
    report = bias_law_bench(acceptance_config.testbed, [1, 2, 4, 8, 16], 100_000,
                            substream(ACCEPTANCE_SEED, "acc-bias"))
    elapsed = time.time() - t0
    cfg = acceptance_config.testbed
    rel_ok = all(
        abs(report.estimates[str(m)] - (cfg.b_sys_sq + cfg.sigma_bias**2 / m))
        <= 0.05 * (cfg.b_sys_sq + cfg.sigma_bias**2 / m)
        for m in (1, 2, 4, 8, 16)
    )
    slope = report.diagnostics["slope"]
    ok = (rel_ok and abs(slope + 1.0) <= 0.1 and report.diagnostics["monotone"]
          and elapsed < 60.0)
    _announce(3, "ensemble bias follows b_sys^2 + sigma^2/m with slope -1", ok,
              f"slope={slope:.3f} max_rel={report.diagnostics['max_rel_error']:.3f} "
              f"({elapsed:.1f}s)")


def test_criterion_4_grpo_variance_scaling(snapshots, acceptance_config):
    t0 = time.time()
    params, _ = snapshots[120]
    pool = QueryPool(acceptance_config.task, acceptance_config.seed)
    common = dict(xi=acceptance_config.mix.xi, stop_token=acceptance_config.task.stop,
                  t_max=acceptance_config.t_max)
    probe = substream(ACCEPTANCE_SEED, "acc-probe")

    def success_rate(q):
        groups = rollout_groups(params, [q] * 40, 8, probe, **common)
        return np.mean(groups.rewards)

    query = min(pool.queries, key=lambda q: abs(success_rate(q) - 0.5))

    var = {}
    for k in (4, 8, 16):
        groups = collect_mid_groups(params, lambda rng, size: [query] * size, 10_000,
                                    substream(ACCEPTANCE_SEED, "acc-kscale", k), k=k, **common)
        parts = [grpo_estimator(params, groups.select(slice(lo, lo + CHUNK_GROUPS)))
                 for lo in range(0, len(groups), CHUNK_GROUPS)]
        var[k] = variance_from_samples(parts).scalar_variance
    r48 = var[4] / var[8]
    r816 = var[8] / var[16]
    elapsed = time.time() - t0
    ok = 1.7 <= r48 <= 2.3 and 1.7 <= r816 <= 2.3 and elapsed < 300.0
    _announce(4, "Var(g_grpo) halves when the group size doubles", ok,
              f"var4/var8={r48:.3f} var8/var16={r816:.3f} ({elapsed:.1f}s)")


def test_criterion_5_variance_ordering(dypo_run, acceptance_config):
    t0 = time.time()
    params = dypo_run.checkpoint.params.snapshot()
    ref = dypo_run.checkpoint.ref
    pool = QueryPool(acceptance_config.task, acceptance_config.seed)
    eta = measure_eta(params, ref, pool.draw, acceptance_config.mix, 200,
                      substream(ACCEPTANCE_SEED, "acc-eta"), k=acceptance_config.k,
                      stop_token=acceptance_config.task.stop,
                      t_max=acceptance_config.t_max)
    report = variance_ordering_bench(params, ref, pool.draw, acceptance_config.mix,
                                     5000, substream(ACCEPTANCE_SEED, "acc-vob"),
                                     k=acceptance_config.k,
                                     stop_token=acceptance_config.task.stop,
                                     t_max=acceptance_config.t_max)
    elapsed = time.time() - t0
    gap = report.diagnostics["gap"]
    ok = (eta <= 0.2 and report.verdict
          and report.estimates["var_mix"] < report.estimates["var_grpo"]
          and elapsed < 600.0)
    _announce(5, "Var(g_mix) < Var(g_grpo) by more than 3 combined SEs", ok,
              f"eta={eta:.3f} var_grpo={report.estimates['var_grpo']:.4f} "
              f"var_mix={report.estimates['var_mix']:.4f} gap={gap:.4f} "
              f"3se={3 * report.diagnostics['combined_se']:.4f} ({elapsed:.1f}s)")


def test_criterion_6_gal_variance_annealing(snapshots, acceptance_config):
    pool = QueryPool(acceptance_config.task, acceptance_config.seed)
    etas, var_gals = [], []
    for step in (40, 120, 500):
        params, ref = snapshots[step]
        report = variance_ordering_bench(params, ref, pool.draw, acceptance_config.mix,
                                         1500, substream(ACCEPTANCE_SEED, "acc-c6", step),
                                         k=acceptance_config.k,
                                         stop_token=acceptance_config.task.stop,
                                         t_max=acceptance_config.t_max)
        etas.append(report.diagnostics["eta_mean"])
        var_gals.append(report.estimates["var_gal"])
    eta_down = etas[0] > etas[1] > etas[2]
    var_down = var_gals[0] > var_gals[1] > var_gals[2]
    _announce(6, "var(g_gal) decreases strictly across checkpoints with eta",
              eta_down and var_down,
              f"eta={['%.3f' % e for e in etas]} var_gal={['%.4f' % v for v in var_gals]}")


def test_criterion_7_gal_anchors(dypo_run):
    from dypo.gradcheck import make_instance

    inst = make_instance(ACCEPTANCE_SEED, 21, kind="mid")
    ref = inst.params.snapshot()
    cfg = MixConfig()
    report = gal_pass(inst.params, ref, inst.group, inst.pairs, cfg)
    loss = report.loss[0]
    anchors_ok = (abs(loss - np.log(2.0)) <= 1e-12
                  and abs(report.weights.min() - 0.5) <= 1e-12
                  and abs(report.weights.max() - 0.5) <= 1e-12)
    w_lo = dypo_run.stats.gal_weight_min
    w_hi = dypo_run.stats.gal_weight_max
    bounded = 0.0 < w_lo <= w_hi < 1.0
    _announce(7, "GAL loss is ln2 with weight 0.5 at the reference; weights stay in (0,1)",
              anchors_ok and bounded,
              f"loss-ln2={loss - np.log(2.0):.1e} w_run=[{w_lo:.4g},{w_hi:.4g}]")


def test_criterion_8_training_dynamics_shape(dypo_run, baseline_runs):
    rows = dypo_run.checkpoint.metrics
    off_first = float(np.mean([m.offline_ratio for m in rows[:10]]))
    off_last = float(np.mean([m.offline_ratio for m in rows[-100:]]))
    drop_ok = off_first - off_last >= 0.2
    q = len(rows) // 4
    dypo_h = float(np.mean([m.mean_entropy for m in rows[-q:]]))
    grpo_rows = baseline_runs["grpo_only"].checkpoint.metrics
    grpo_h = float(np.mean([m.mean_entropy for m in grpo_rows[-q:]]))
    entropy_ok = dypo_h > grpo_h
    _announce(8, "offline ratio declines >= 0.2 and final entropy beats grpo_only",
              drop_ok and entropy_ok,
              f"offline {off_first:.2f}->{off_last:.2f} entropy {dypo_h:.3f} vs {grpo_h:.3f}")


def test_criterion_9_gradient_smoothness(dypo_run, baseline_runs):
    dypo_rows = dypo_run.checkpoint.metrics
    grpo_rows = baseline_runs["grpo_only"].checkpoint.metrics
    half = len(dypo_rows) // 2
    dypo_std = float(np.std([m.grad_norm for m in dypo_rows[half:]]))
    grpo_std = float(np.std([m.grad_norm for m in grpo_rows[half:]]))
    _announce(9, "dypo grad-norm variability is below grpo_only over the final half",
              dypo_std < grpo_std, f"dypo={dypo_std:.4f} grpo_only={grpo_std:.4f}")


def test_criterion_10_determinism(tmp_path):
    from dypo.trainer import load_checkpoint, save_checkpoint

    cfg = TrainConfig(seed=ACCEPTANCE_SEED, steps=60)
    a = train(cfg, out_dir=tmp_path / "a")
    b = train(cfg, out_dir=tmp_path / "b")
    same_csv = (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()

    half_doc = train_config_to_dict(cfg)
    half_doc["steps"] = 30
    from dypo.trainer import train_config_from_dict

    half = train(train_config_from_dict(half_doc), out_dir=tmp_path / "half")
    save_checkpoint(tmp_path / "ckpt.json", half.checkpoint)
    resumed = train(cfg, out_dir=tmp_path / "resumed",
                    resume_from=load_checkpoint(tmp_path / "ckpt.json"))
    same_resume = (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "resumed" / "metrics.csv").read_bytes()
    same_theta = tables_equal(a.checkpoint.params, resumed.checkpoint.params)
    _announce(10, "identical configs give byte-identical CSVs; resume is bit-exact",
              same_csv and same_resume and same_theta,
              f"csv={same_csv} resume_csv={same_resume} resume_theta={same_theta}")
