"""Command-line interface: exit codes, artifacts, overrides."""

from __future__ import annotations

import json

import pytest

from dypo.cli import main
from dypo.tasks import TaskConfig
from dypo.trainer import TrainConfig, train_config_to_dict


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = TrainConfig(seed=2, steps=12)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(train_config_to_dict(cfg)))
    return path


def test_no_arguments_prints_usage_and_exits_1(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_command_exits_1():
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_exits_1():
    assert main(["train"]) == 1


def test_train_writes_artifacts(tmp_path, tiny_config):
    out = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint.json").exists()
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["command"] == "train"
    assert echo["config"]["steps"] == 12


def test_train_is_reproducible_via_cli(tmp_path, tiny_config):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(tiny_config), "--out", str(a)]) == 0
    assert main(["train", "--config", str(tiny_config), "--out", str(b)]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


def test_seed_override_changes_the_run(tmp_path, tiny_config):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(tiny_config), "--out", str(a)]) == 0
    assert main(["train", "--config", str(tiny_config), "--out", str(b),
                 "--seed", "99"]) == 0
    assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()
    echo = json.loads((b / "config_echo.json").read_text())
    assert echo["config"]["seed"] == 99


def test_unknown_config_key_exits_1(tmp_path, capsys):
    doc = train_config_to_dict(TrainConfig())
    doc["mix"]["alpah"] = 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "mix.alpah" in capsys.readouterr().err


@pytest.mark.parametrize("doc, field", [
    ({"mix": 5}, "config.mix"),
    ({"steps": "5"}, "config.steps"),
    ({"mix": {"alpha": "x"}}, "config.mix.alpha"),
    ({"testbed": {"b_sys": 3}}, "config.testbed.b_sys"),
    ({"task": {"modulus": 2.5}}, "config.task.modulus"),
    ({"k": 3.5}, "config.k"),
    ({"batch_size": True}, "config.batch_size"),
])
def test_wrongly_typed_config_exits_1_with_one_line(tmp_path, capsys, doc, field):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: {field} must be ")


def test_unreadable_config_exits_1(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["train", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
    assert "nope.json" in capsys.readouterr().err


def test_grad_check_defaults(tmp_path, capsys):
    assert main(["grad-check", "--out", str(tmp_path / "gc"), "--instances", "4"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    errors = json.loads((tmp_path / "gc" / "grad_check.json").read_text())
    assert set(errors) == {"sft_loss_grad", "grpo_loss_grad", "gal_loss_grad",
                           "dypo_step_loss"}
    assert max(errors.values()) <= 1e-6


def test_bias_bench(tmp_path, tiny_config, capsys):
    out = tmp_path / "bias"
    assert main(["bias-bench", "--config", str(tiny_config), "--out", str(out),
                 "--m", "1,2,4,8,16", "--draws", "20000"]) == 0
    report = json.loads((out / "bias_bench.json").read_text())
    assert report["verdict"]
    assert abs(report["diagnostics"]["slope"] + 1.0) <= 0.1
    assert "fitted slope" in capsys.readouterr().out


def test_bias_bench_bad_m_list_exits_1(tmp_path, tiny_config):
    assert main(["bias-bench", "--config", str(tiny_config),
                 "--out", str(tmp_path / "o"), "--m", "1,two"]) == 1


def test_evaluate_reports_pass_rate_and_grades(tmp_path, tiny_config, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config), "--out", str(run)]) == 0
    for checkpoint in (["--checkpoint", str(run / "checkpoint.json")], []):
        out = tmp_path / f"eval{len(checkpoint)}"
        capsys.readouterr()
        assert main(["evaluate", "--config", str(tiny_config), "--out", str(out),
                     "--groups", "40", *checkpoint]) == 0
        report = json.loads((out / "eval.json").read_text())
        assert 0.0 <= report["pass_rate"] <= 1.0
        assert report["groups"] == sum(report["grade_counts"].values()) == 40
        assert report["offline_ratio"] == report["grade_counts"]["hard"] / 40
        assert f"offline_ratio={report['offline_ratio']:.3f}" in capsys.readouterr().out


def test_variance_bench_cli(tmp_path):
    cfg = TrainConfig(seed=2, steps=160)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(train_config_to_dict(cfg)))
    out = tmp_path / "vb"
    code = main(["variance-bench", "--config", str(path), "--out", str(out),
                 "--groups", "500"])
    assert code == 0
    report = json.loads((out / "variance_bench.json").read_text())
    assert report["verdict"]
    assert report["estimates"]["var_mix"] < report["estimates"]["var_grpo"]


def test_compare_cli(tmp_path):
    cfg = TrainConfig(seed=2, steps=15)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(train_config_to_dict(cfg)))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
    for variant in ("dypo", "sft_only", "grpo_only"):
        assert (out / f"{variant}_metrics.csv").exists()


def test_execution_key_in_config_exits_1(tmp_path, capsys):
    # keys of removed features are unknown keys
    for section, key, value in ((None, "execution", "threads"), ("testbed", "tau_star", []),
                                ("task", "family", "modular_chain")):
        doc = train_config_to_dict(TrainConfig())
        (doc[section] if section else doc)[key] = value
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err


def test_evaluate_bad_checkpoint_exits_2_with_one_line(tmp_path, tiny_config, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"step": 1}))
    assert main(["evaluate", "--config", str(tiny_config), "--out", str(tmp_path / "o"),
                 "--checkpoint", str(bad), "--groups", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing key" in err


def test_evaluate_checkpoint_of_another_vocabulary_exits_1(tmp_path, capsys):
    other = TrainConfig(seed=2, steps=1, task=TaskConfig(modulus=7))
    run = tmp_path / "run"
    assert main(["train", "--config", str(_write_config(tmp_path, other)),
                 "--out", str(run)]) == 0
    assert main(["evaluate", "--config", str(_write_config(tmp_path, TrainConfig(seed=2))),
                 "--out", str(tmp_path / "o"), "--checkpoint", str(run / "checkpoint.json"),
                 "--groups", "2"]) == 1
    assert "vocab_size=11" in capsys.readouterr().err


def _write_config(tmp_path, cfg):
    path = tmp_path / f"cfg-{cfg.task.modulus}.json"
    path.write_text(json.dumps(train_config_to_dict(cfg)))
    return path
