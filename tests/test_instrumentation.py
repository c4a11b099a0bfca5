"""Estimators and benches: variance, score norms, bias law, metrics CSV."""

from __future__ import annotations

import numpy as np
import pytest

from dypo.errors import BenchError, DataError, InputError
from dypo.gradcheck import make_instance
from dypo.instrumentation import (
    CHUNK_GROUPS,
    METRICS_HEADER,
    StepMetrics,
    bias_law_bench,
    collect_mid_groups,
    measure_eta,
    read_metrics,
    variance_from_samples,
    variance_ordering_bench,
    write_bench_report,
    write_metrics,
)
from dypo.objectives import MixConfig
from dypo.policy import KeyedBlocks, PolicyParams, RowBlock, sample_lockstep, score_sq_norms
from dypo.seeding import substream
from dypo.tasks import BiasTestbedConfig, TaskConfig, generate_query
from dypo.trainer import QueryPool, TrainConfig, train

from conftest import stacked, traj_score
from reference import per_group_variance_bench, probs

CTX = (0, ())


def _block(v) -> RowBlock:
    """A one-row gradient sample on row 0."""
    return RowBlock(np.array([0]), np.asarray(v, dtype=np.float64)[None, :])


def _draw(sampler, n: int, rng) -> list[RowBlock]:
    return [sampler(rng) for _ in range(n)]


def _mean_sq_score(params, query, n: int, rng, *, stop_token: int, t_max: int) -> float:
    """Monte Carlo E||score||^2: score_sq_norms over one group of n rollouts."""
    group = sample_lockstep(params, [query.query_id], n, rng, stop_token=stop_token, t_max=t_max)
    return float(score_sq_norms(params, *group.steps, group.lengths).sum()) / n


def test_variance_constant_sampler_is_zero():
    v = np.array([1.0, -2.0, 3.0])
    est = variance_from_samples(stacked(_draw(lambda rng: _block(v), 100, substream(1, "c"))))
    assert est.scalar_variance == 0.0
    assert est.standard_error == 0.0
    np.testing.assert_array_equal(est.mean_gradient.values[0], v)


def test_variance_two_point_sampler():
    v = np.array([0.6, -0.8, 1.0])
    target = float(np.dot(v, v))

    def sampler(rng):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return _block(sign * v)

    est = variance_from_samples(stacked(_draw(sampler, 10_000, substream(1, "pm"))))
    assert abs(est.scalar_variance - target) < 3 * est.standard_error + 1e-9


def test_variance_sample_order_invariance():
    rng = substream(1, "ord")
    samples = [_block(rng.normal(0, 1, 4)) for _ in range(500)]
    a = variance_from_samples(stacked(samples))
    b = variance_from_samples(stacked(samples[::-1]))
    perm = [samples[i] for i in rng.permutation(500)]
    c = variance_from_samples(stacked(perm))
    assert a.scalar_variance == pytest.approx(b.scalar_variance, rel=1e-9)
    assert a.scalar_variance == pytest.approx(c.scalar_variance, rel=1e-9)


def test_variance_standard_error_scales_as_root_n():
    def sampler(rng):
        return _block(rng.normal(0, 1, 3))

    small = variance_from_samples(stacked(_draw(sampler, 2_000, substream(1, "se-s"))))
    large = variance_from_samples(stacked(_draw(sampler, 8_000, substream(1, "se-l"))))
    ratio = small.standard_error / large.standard_error
    assert 1.4 < ratio < 2.9  # expect ~2 for a 4x sample increase


def test_variance_guards():
    with pytest.raises(InputError):
        variance_from_samples(stacked([_block(np.ones(2))] * 10))
    bad = [_block([1.0, np.nan])] * 40
    with pytest.raises(DataError):
        variance_from_samples(stacked(bad))
    # one bad sample among finite ones, owner 7 of the second of two chunks of 20, is named
    values = np.column_stack([np.ones(40), np.arange(40.0)])
    values[27, 0] = np.inf
    chunks = [KeyedBlocks(np.arange(20), values[lo:lo + 20], 1, 20) for lo in (0, 20)]
    with pytest.raises(DataError, match="^sample 27 contains non-finite gradient entries$"):
        variance_from_samples(chunks)


def test_score_variance_uniform_single_step():
    # uniform 4-way softmax: every outcome has ||score||^2 = 0.75
    params = PolicyParams(4, 1)
    query = type("Q", (), {"query_id": 0})()
    est = _mean_sq_score(params, query, 3000, substream(1, "sv"), stop_token=3, t_max=1)
    assert est == pytest.approx(0.75, abs=1e-12)


def test_score_variance_enumeration_oracle():
    # enumeration over outcomes matches the estimator arithmetic exactly
    rng = substream(1, "enum")
    params = PolicyParams(8, 1)
    params.set_logits(CTX, rng.normal(0, 1, 8))
    query = type("Q", (), {"query_id": 0})()
    pi = probs(params, CTX)
    enumerated = 0.0
    for a in range(8):
        s = traj_score(params, query.query_id, (a,))
        enumerated += pi[a] * s.sq_norm()
    direct = sum(p * float(np.dot((np.eye(8)[a] - pi), (np.eye(8)[a] - pi)))
                 for a, p in enumerate(pi))
    assert enumerated == pytest.approx(direct, abs=1e-12)


def test_score_variance_near_deterministic():
    params = PolicyParams(4, 1)
    params.set_logits(CTX, [25.0, 0.0, 0.0, 0.0])
    query = type("Q", (), {"query_id": 0})()
    est = _mean_sq_score(params, query, 500, substream(1, "det"), stop_token=0, t_max=1)
    assert est < 1e-4


def test_score_variance_stable_across_seeds():
    task = TaskConfig()
    q = generate_query(task, 2, substream(1, "svq"), query_id=0)
    params = PolicyParams(task.vocab_size, 1)
    chunks = [
        _mean_sq_score(params, q, 2000, substream(1, "sv-chunk", i), stop_token=task.stop,
                       t_max=10)
        for i in range(10)
    ]
    se = np.std(chunks, ddof=1) / np.sqrt(10)
    a = _mean_sq_score(params, q, 20_000, substream(2, "sv-a"), stop_token=task.stop, t_max=10)
    b = _mean_sq_score(params, q, 20_000, substream(3, "sv-b"), stop_token=task.stop, t_max=10)
    assert abs(a - b) < 3 * se * np.sqrt(2)


def test_bias_law_bench_full_law():
    cfg = BiasTestbedConfig(dim=8, b_sys=(0.5,) + (0.0,) * 7, sigma_bias=1.0)
    report = bias_law_bench(cfg, [1, 2, 4, 8, 16], 100_000, substream(1, "law"))
    assert report.verdict
    assert report.estimates["1"] == pytest.approx(0.25 + 1.0, rel=0.02)
    for m in (1, 2, 4, 8, 16):
        analytic = 0.25 + 1.0 / m
        assert report.estimates[str(m)] == pytest.approx(analytic, rel=0.05)
    assert report.diagnostics["monotone"]
    assert abs(report.diagnostics["slope"] + 1.0) <= 0.1


def test_bias_law_bench_guards():
    cfg = BiasTestbedConfig(dim=2, b_sys=(0.0, 0.0), sigma_bias=1.0)
    with pytest.raises(InputError):
        bias_law_bench(cfg, [], 10_000, substream(1, "e1"))
    with pytest.raises(InputError):
        bias_law_bench(cfg, [1, 2], 100, substream(1, "e2"))
    # a slope needs two distinct sizes
    for sizes in ([4], [2, 2]):
        with pytest.raises(InputError):
            bias_law_bench(cfg, sizes, 10_000, substream(1, "e3"))


def test_metrics_csv_header_only_and_roundtrip(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics(path, [])
    assert path.read_bytes() == (",".join(METRICS_HEADER) + "\n").encode()
    rows = [
        StepMetrics(step=0, mean_reward=1 / 3, offline_ratio=0.5,
                    mean_entropy=np.log(9), grad_norm=0.123456789012345678,
                    easy=1, hard=2, mid=1, eta=0.25, kl=1e-17),
        StepMetrics(step=1, mean_reward=0.0, offline_ratio=1.0,
                    mean_entropy=2.0, grad_norm=0.0, easy=0, hard=4, mid=0,
                    eta=0.0, kl=0.0),
    ]
    write_metrics(path, rows)
    assert read_metrics(path) == rows


# a broken third line of a metrics CSV (None: no file), and the line the error names
BROKEN_METRICS = {
    "short row": ("0,0.5,0.5", 3),
    "long row": ("0,0.5,0.5,1.0,0.1,0,1,1,0.2,0.0,7", 3),
    "text in a float field": ("0,x,0.5,1.0,0.1,0,1,1,0.2,0.0", 3),
    "fraction in an int field": ("0,0.5,0.5,1.0,0.1,1.5,1,1,0.2,0.0", 3),
    # past the CSV reader's field size limit, its own csv.Error
    "field too long": ("0," + "1" * 200_000 + ",0.5,1.0,0.1,0,1,1,0.2,0.0", 3),
    "missing file": (None, None),
}


@pytest.mark.parametrize("line, number", BROKEN_METRICS.values(), ids=BROKEN_METRICS)
def test_a_broken_metrics_file_is_a_data_error_naming_its_line(tmp_path, line, number):
    path = tmp_path / "metrics.csv"
    if line is not None:
        row = StepMetrics(step=0, mean_reward=0.5, offline_ratio=0.5, mean_entropy=1.0,
                          grad_norm=0.1, easy=0, hard=1, mid=1, eta=0.2, kl=0.0)
        write_metrics(path, [row])
        path.write_text(path.read_text() + line + "\n")
    with pytest.raises(DataError) as info:
        read_metrics(path)
    assert str(path) in str(info.value)
    if number is not None:
        assert f"line {number}:" in str(info.value)


def test_metrics_write_failing_midway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "metrics.csv"
    row = StepMetrics(step=0, mean_reward=0.5, offline_ratio=0.5, mean_entropy=1.0,
                      grad_norm=0.1, easy=0, hard=1, mid=1, eta=0.2, kl=0.0)
    write_metrics(path, [row])
    before = path.read_bytes()
    with pytest.raises(ValueError):  # the second row fails after the first is written
        write_metrics(path, [row, StepMetrics(**{**vars(row), "step": "x"})])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]


def test_metrics_offline_ratio_in_bounds(tmp_path):
    result = train(TrainConfig(seed=3, steps=12))
    for row in result.checkpoint.metrics:
        assert 0.0 <= row.offline_ratio <= 1.0
        assert row.easy + row.hard + row.mid == 2
        assert row.offline_ratio == row.hard / 2


def test_collect_mid_groups_budget_error():
    # an oracle-solved pool yields no Mid groups: the bench must fail loudly
    inst = make_instance(1, 0, kind="mid")
    row = np.zeros(inst.params.vocab_size)
    row[inst.query.stop] = 40.0  # everything terminates immediately: all fail
    params = PolicyParams(inst.params.vocab_size, 1, default_logits=row)
    with pytest.raises(BenchError) as exc:
        collect_mid_groups(params, lambda rng, size: [inst.query] * size, 5,
                           substream(1, "budget"), k=4, xi=1e-4, stop_token=inst.query.stop,
                           t_max=10)
    assert exc.value.diagnostics["attempts"] == 1000  # the floor of the budget


def test_collect_mid_groups_spends_exactly_its_budget_over_several_chunks():
    # only failures: a budget of 100 attempts per group, above the chunk size
    # and not a multiple of it (13000: 50 chunks of 256, then 200)
    inst = make_instance(1, 0, kind="mid")
    row = np.zeros(inst.params.vocab_size)
    row[inst.query.stop] = 40.0
    params = PolicyParams(inst.params.vocab_size, 1, default_logits=row)
    n_groups = CHUNK_GROUPS // 2 + 2
    budget = 100 * n_groups
    drawn = []
    with pytest.raises(BenchError) as exc:
        collect_mid_groups(params, lambda rng, size: drawn.append(size) or [inst.query] * size,
                           n_groups, substream(1, "budget-chunks"), k=4, xi=1e-4,
                           stop_token=inst.query.stop, t_max=10)
    assert exc.value.diagnostics == {"attempts": budget, "found": 0, "budget": budget}
    assert drawn == [CHUNK_GROUPS] * (budget // CHUNK_GROUPS) + [budget % CHUNK_GROUPS]


def test_measure_eta_at_reference_is_quarter():
    cfg = TrainConfig(seed=5, steps=0)
    pool = QueryPool(cfg.task, cfg.seed)
    from dypo.trainer import init_policy

    params = init_policy(cfg, pool)
    eta = measure_eta(params, params.snapshot(), pool.draw, cfg.mix, 50,
                      substream(5, "eta"), k=8, stop_token=cfg.task.stop,
                      t_max=cfg.t_max)
    assert eta == pytest.approx(0.25, abs=1e-12)


def test_variance_ordering_bench_report_fields(tmp_path, snapshots, acceptance_config):
    params, ref = snapshots[120]
    pool = QueryPool(acceptance_config.task, acceptance_config.seed)
    report = variance_ordering_bench(params, ref, pool.draw, acceptance_config.mix,
                                     400, substream(5, "vob"), k=8,
                                     stop_token=acceptance_config.task.stop,
                                     t_max=acceptance_config.t_max)
    assert set(report.estimates) == {"var_grpo", "var_gal", "var_mix"}
    assert all(v > 0 for v in report.estimates.values())
    assert report.diagnostics["predicted_var_gal"] > 0
    assert np.isfinite(report.diagnostics["score_sq_mean"])
    write_bench_report(tmp_path / "r.json", report)
    import json

    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["name"] == "variance_ordering"
    assert "verdict" in doc


def test_chunked_variance_bench_matches_the_per_group_loop(snapshots, acceptance_config):
    # three chunks, the last one partial; only the order of the score-norm sums differs
    n = 2 * CHUNK_GROUPS + 88
    params, ref = snapshots[120]
    pool = QueryPool(acceptance_config.task, acceptance_config.seed)
    common = dict(k=8, stop_token=acceptance_config.task.stop, t_max=acceptance_config.t_max)
    report = variance_ordering_bench(params, ref, pool.draw, acceptance_config.mix, n,
                                     substream(5, "chunks"), **common)
    want = per_group_variance_bench(params, ref, pool.draw, acceptance_config.mix, n,
                                    substream(5, "chunks"), **common)
    assert report.estimates == want["estimates"]
    assert report.stderrs == want["stderrs"]
    assert report.verdict == want["verdict"]
    assert report.diagnostics["eta_mean"] == want["eta_mean"]
    assert report.diagnostics["score_sq_mean"] == pytest.approx(want["score_sq_mean"], rel=1e-14,
                                                                abs=0)


# the hex floats of measure_eta and variance_ordering_bench at the routed run's
# step-120 snapshot, three chunks each, the last one partial. A change to how
# the estimates are computed keeps every stream and estimate, and so these bits
PINNED_VARIANCE_BENCH = {
    "eta": "0x1.836f59652052cp-4",
    "estimates": {"var_grpo": "0x1.cae7be615c7fdp-2", "var_gal": "0x1.0b17c202644e0p-2",
                  "var_mix": "0x1.0157d1951cce0p-4"},
    "stderrs": {"var_grpo": "0x1.09db3b47d4100p-7", "var_gal": "0x1.aedbcfe7ca4c2p-6",
                "var_mix": "0x1.2e691a99b7127p-9"},
    "diagnostics": {"gap": "0x1.8a91c9fc154c5p-2", "combined_se": "0x1.1465a9f4fa3c5p-7",
                    "eta_mean": "0x1.699acedb1dd26p-4", "score_sq_mean": "0x1.988503a6eaafdp+1",
                    "pair_count_mean": "0x1.9d11111111111p+3",
                    "predicted_var_gal": "0x1.659fc779d8e08p-5"},
}


def test_variance_bench_bits_at_seed_one_are_pinned(snapshots, acceptance_config):
    n = 2 * CHUNK_GROUPS + 88
    params, ref = snapshots[120]
    pool = QueryPool(acceptance_config.task, acceptance_config.seed)
    common = dict(k=8, stop_token=acceptance_config.task.stop, t_max=acceptance_config.t_max)
    eta = measure_eta(params, ref, pool.draw, acceptance_config.mix, n,
                      substream(5, "pin-eta"), **common)
    report = variance_ordering_bench(params, ref, pool.draw, acceptance_config.mix, n,
                                     substream(5, "pin-bench"), **common)
    got = {"eta": float(eta).hex()}
    for part in ("estimates", "stderrs", "diagnostics"):
        got[part] = {name: float(value).hex() for name, value in getattr(report, part).items()}
    assert got == PINNED_VARIANCE_BENCH, ("a variance bench estimate changed; a change meant "
                                          "to alter it updates this pin and records that in "
                                          "CHANGES.md")


def test_variance_ordering_alpha_near_one_limit(snapshots, acceptance_config):
    # alpha -> 1: the mixture variance converges to the grpo variance
    params, ref = snapshots[120]
    pool = QueryPool(acceptance_config.task, acceptance_config.seed)
    cfg = MixConfig(alpha=0.999)
    report = variance_ordering_bench(params, ref, pool.draw, cfg, 800,
                                     substream(5, "alpha1"), k=8,
                                     stop_token=acceptance_config.task.stop,
                                     t_max=acceptance_config.t_max)
    ratio = report.estimates["var_mix"] / report.estimates["var_grpo"]
    assert 0.95 <= ratio <= 1.05
