"""Command-line interface: exit codes, artifacts, overrides."""

from __future__ import annotations

import json
import time
from dataclasses import replace

import pytest

from dypo.cli import main
from dypo.tasks import TaskConfig
from dypo.trainer import (
    TrainConfig,
    load_checkpoint,
    load_train_config,
    train,
    train_config_to_dict,
)

from conftest import tables_equal


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


@pytest.mark.parametrize("count", ["0", "-3"])
def test_grad_check_without_instances_exits_1_with_one_line(tmp_path, capsys, count):
    out = tmp_path / "gc"
    assert main(["grad-check", "--out", str(out), "--instances", count]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["evaluate", "--groups", "0"],
    ["bias-bench", "--draws", "5"],
    ["bias-bench", "--m", ","],
    ["bias-bench", "--m", "0,1"],
    ["bias-bench", "--m", "4"],
    ["bias-bench", "--m", "2,2"],
    ["variance-bench", "--groups", "0"],
], ids=["evaluate-groups", "bias-draws", "bias-m-empty", "bias-m-zero", "bias-m-one",
        "bias-m-repeated", "variance-groups"])
def test_arguments_are_checked_before_anything_is_written(tmp_path, tiny_config, capsys,
                                                          monkeypatch, argv):
    def no_training(*args, **kwargs):
        raise AssertionError("variance-bench trained before checking --groups")

    monkeypatch.setattr("dypo.cli.train", no_training)
    out = tmp_path / "o"
    assert main([*argv, "--config", str(tiny_config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["existing-file", "path-under-a-file"])
def test_an_unusable_out_exits_1_with_one_line(tmp_path, tiny_config, capsys, under):
    # FileExistsError for an existing file, NotADirectoryError below one
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    before = sorted(tmp_path.rglob("*"))
    out = taken / "run" if under else taken
    assert main(["train", "--config", str(tiny_config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("usage error: cannot create output directory")
    assert sorted(tmp_path.rglob("*")) == before and taken.read_text() == "kept\n"


def test_an_unwritable_config_echo_exits_1_with_one_line(tmp_path, tiny_config, capsys):
    # the echo is written with the output directory, before any work
    out = tmp_path / "run"
    echo = out / "config_echo.json"
    echo.mkdir(parents=True)
    assert main(["train", "--config", str(tiny_config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"usage error: cannot write {echo}: ")
    assert list(out.rglob("*.tmp")) == []


@pytest.mark.parametrize("argv, artifact", [
    (["train"], "metrics.csv"),
    (["train"], "checkpoint.json"),
    (["evaluate", "--groups", "4"], "eval.json"),
    (["bias-bench", "--m", "1,2", "--draws", "10000"], "bias_bench.json"),
    (["grad-check", "--instances", "1"], "grad_check.json"),
    (["compare"], "grpo_only_metrics.csv"),
], ids=["metrics", "checkpoint", "eval", "bench-report", "grad-check", "compare"])
def test_an_unwritable_artifact_exits_2_with_one_line(tmp_path, tiny_config, capsys, argv,
                                                      artifact):
    # a directory in the artifact's place: the run ends in one line naming it
    out = tmp_path / "run"
    (out / artifact).mkdir(parents=True)
    assert main([*argv, "--config", str(tiny_config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"run failed: cannot write {out / artifact}: ")
    assert list(out.rglob("*.tmp")) == []


def test_a_directory_in_the_temporary_files_place_exits_2_with_one_line(tmp_path, tiny_config,
                                                                        capsys):
    # the write cannot open its temporary file, and cleaning up leaves the directory
    out = tmp_path / "run"
    taken = out / "metrics.csv.tmp"
    taken.mkdir(parents=True)
    assert main(["train", "--config", str(tiny_config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"run failed: cannot write {out / 'metrics.csv'}: ")
    assert taken.is_dir() and not (out / "metrics.csv").exists()


@pytest.mark.parametrize("doc", [
    {"steps": 3, "mix": {"beta_gal": 1e155}},  # the gradient norm overflows
    {"steps": 3, "learning_rate": 1e300, "mix": {"beta_gal": 1e300}},
])
def test_an_overflowing_step_exits_2_with_one_line_and_a_loadable_abort_checkpoint(
        tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert not (out / "checkpoint.json").exists()
    ckpt = load_checkpoint(out / "abort_checkpoint.json")
    assert err == f"run failed: non-finite loss or metric at step {ckpt.step}\n"
    # the first failing step: the steps before it, and the policy before it
    before = train(replace(load_train_config(path), steps=ckpt.step)).checkpoint
    assert 0 < ckpt.step < 3 and ckpt.metrics == before.metrics
    assert tables_equal(ckpt.params, before.params) and tables_equal(ckpt.ref, before.ref)


def test_bias_bench(tmp_path, tiny_config, capsys):
    out = tmp_path / "bias"
    assert main(["bias-bench", "--config", str(tiny_config), "--out", str(out),
                 "--m", "1,2,4,8,16", "--draws", "20000"]) == 0
    report = json.loads((out / "bias_bench.json").read_text())
    assert report["verdict"]
    assert abs(report["diagnostics"]["slope"] + 1.0) <= 0.1
    assert "fitted slope" in capsys.readouterr().out


def test_a_failing_bias_slope_writes_its_report_and_exits_2(tmp_path):
    # the means fall with m, but their slope misses -1: the verdict is a plain
    # bool, so the report is written and reads false
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"testbed": {"dim": 2, "b_sys": [0.5, 0.0],
                                              "sigma_bias": 0.05}}))
    out = tmp_path / "bias"
    assert main(["bias-bench", "--config", str(config), "--out", str(out),
                 "--m", "1,2,4", "--draws", "10000"]) == 2
    report = json.loads((out / "bias_bench.json").read_text())
    assert report["verdict"] is False and report["diagnostics"]["monotone"] is True
    assert abs(report["diagnostics"]["slope"] + 1.0) > 0.1


def test_bias_bench_bad_m_list_exits_1(tmp_path, tiny_config):
    assert main(["bias-bench", "--config", str(tiny_config),
                 "--out", str(tmp_path / "o"), "--m", "1,two"]) == 1


def test_bias_bench_checks_every_ensemble_size_before_the_first_draw(tmp_path, tiny_config,
                                                                   capsys, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("bias-bench drew before checking every ensemble size")

    monkeypatch.setattr("dypo.instrumentation.bias_sq_norms", no_draws)
    out = tmp_path / "o"
    assert main(["bias-bench", "--config", str(tiny_config), "--out", str(out),
                 "--m", "16,0"]) == 1
    assert capsys.readouterr().err == "config error: ensemble size must be >= 1, got 0\n"
    assert not out.exists()


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
                                ("task", "family", "modular_chain"),
                                ("mix", "ratio_level", "token"),
                                ("mix", "ratio_baseline", "ref")):
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
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["table", "default_logits"])
def test_evaluate_a_checkpoint_row_too_wide_for_the_softmax_exits_2_with_one_line(
        tmp_path, tiny_config, capsys, where):
    run = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config), "--out", str(run)]) == 0
    path = run / "checkpoint.json"
    doc = json.loads(path.read_text())
    wide = [0.0] * len(doc["params"]["default_logits"])
    wide[:2] = [1e308, -1e308]
    if where == "table":
        doc["params"]["table"][0][2] = wide
    else:
        doc["params"]["default_logits"] = wide
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(tiny_config), "--out", str(tmp_path / "o"),
                 "--checkpoint", str(path), "--groups", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: checkpoint {path} is malformed: ")
    assert "max - min spread inside the float range" in err
    assert not (tmp_path / "o").exists()


# valid JSON nested past the parser's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command", [["train"], ["evaluate", "--groups", "2"]])
def test_a_too_deeply_nested_config_exits_1_with_one_line(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    assert main([*command, "--config", str(deep), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: config ")
    assert not (tmp_path / "o").exists()


def test_a_too_deeply_nested_checkpoint_exits_2_with_one_line(tmp_path, tiny_config, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    assert main(["evaluate", "--config", str(tiny_config), "--out", str(tmp_path / "o"),
                 "--checkpoint", str(deep), "--groups", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: checkpoint ")
    assert not (tmp_path / "o").exists()


def test_a_table_that_cannot_fit_exits_1_with_one_line_and_writes_nothing(tmp_path, capsys):
    # modulus 100000 once ran into the kernel's out-of-memory kill: its table
    # of 8 * 100001 rows of 100004 logits is refused as the config is read
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"steps": 1, "task": {"modulus": 100000}}))
    out = tmp_path / "o"
    start = time.perf_counter()
    assert main(["train", "--config", str(path), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: modulus 100000 at pool_size 8 needs a ")
    assert not out.exists()


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


@pytest.mark.parametrize("change, argv, code, message", [
    ({"task": {"pool_size": 2**63}}, [], 1, "config error: pool_size must lie in [1, 65536]"),
    ({"k": 2**40}, [], 1, "config error: batch_size 2 and k 1099511627776: 256 groups need "),
    ({"steps": 1, "batch_size": 100_000_000}, [], 1,
     "config error: batch_size 100000000 and k 8: 100000000 groups need "),
    ({"k": 100_000_000}, [], 1, "config error: batch_size 2 and k 100000000: 256 groups need "),
    ({}, ["--groups", str(2**50)], 2, "run failed: out of memory: "),
    ({"steps": 3, "seed": 2**64 + 1}, [], 1, "config error: seed must lie in [0, 2**64), got "),
    ({"seed": -1}, [], 1, "config error: seed must lie in [0, 2**64), got -1"),
    ({}, ["--seed", str(2**64)], 1, "config error: seed must lie in [0, 2**64), got "),
], ids=["pool-size", "k", "batch-size", "k-past-the-sampler", "groups", "seed-past-2**64",
        "negative-seed", "seed-override-past-2**64"])
def test_a_huge_size_is_one_line_and_writes_nothing(tmp_path, capsys, change, argv, code,
                                                    message):
    # each once hung building the query pool, ended in a numpy allocation
    # traceback or could bring the kernel's out-of-memory kill; a batch the
    # sampler cannot take is refused as the config is read, and no size here
    # can be allocated at all; a seed outside [0, 2**64) once ran as the seed
    # it equals modulo 2**64, and is refused likewise, from a config or --seed
    doc = train_config_to_dict(TrainConfig(seed=2))
    for key, value in change.items():
        doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["evaluate", "--config", str(path), "--out", str(out), *argv]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(message)
    assert not out.exists()
