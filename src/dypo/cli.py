"""Command-line entry point: training, benches, gradient checks, diagnostics.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime or bench
failure (including a negative bench verdict). Every subcommand echoes its
effective configuration into the output directory so a run is reproducible
from its artifacts alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .artifacts import atomic_write
from .errors import BenchError, ConfigError, DypoError, InputError, TrainingAborted
from .gradcheck import grad_check_suite
from .instrumentation import (
    bias_law_bench,
    measure_eta,
    variance_ordering_bench,
    write_bench_report,
)
from .seeding import substream
from .trainer import (
    QueryPool,
    TrainConfig,
    evaluate,
    load_checkpoint,
    load_train_config,
    run_comparison,
    train,
    train_config_to_dict,
)

USAGE_EXIT = 1
FAILURE_EXIT = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dypo", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON experiment config")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("train", help="run the routed training loop")
    common(p)

    p = sub.add_parser("evaluate", help="roll out without updating; report pass rate and grades")
    common(p)
    p.add_argument("--checkpoint", default=None, help="policy checkpoint to evaluate")
    p.add_argument("--groups", type=int, default=200, help="number of evaluation queries")

    p = sub.add_parser("variance-bench", help="train to low eta, then compare variances")
    common(p)
    p.add_argument("--groups", type=int, default=5000, help="Mid groups per estimate")

    p = sub.add_parser("bias-bench", help="ensemble-size sweep of the bias testbed")
    common(p)
    p.add_argument("--m", default="1,2,4,8,16", help="comma-separated ensemble sizes")
    p.add_argument("--draws", type=int, default=100_000, help="draws per ensemble size")

    p = sub.add_parser("grad-check", help="finite-difference check of all loss gradients")
    common(p, config_required=False)
    p.add_argument("--instances", type=int, default=100, help="random instances per loss")

    p = sub.add_parser("compare", help="train sft_only, grpo_only, and dypo on one stream")
    common(p)
    return parser


def _load_config(args) -> TrainConfig:
    cfg = load_train_config(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _write_json(path: Path, doc) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _prepare_out(args, cfg: TrainConfig) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = {"command": args.command, "config": train_config_to_dict(cfg)}
    _write_json(out / "config_echo.json", echo)
    return out


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    out = _prepare_out(args, cfg)
    result = train(cfg, out_dir=out)
    final = result.metrics[-1] if result.metrics else None
    if final is not None:
        print(f"trained {cfg.steps} steps: mean_reward={final.mean_reward:.4f} "
              f"offline_ratio={final.offline_ratio:.3f} entropy={final.mean_entropy:.3f}")
    else:
        print("trained 0 steps")
    print(f"artifacts in {out}")
    return 0


def _load_params(cfg: TrainConfig, checkpoint: str | None):
    if checkpoint:
        params = load_checkpoint(checkpoint).params
        if (params.vocab_size, params.history) != (cfg.task.vocab_size, cfg.history):
            raise ConfigError(f"checkpoint {checkpoint} has vocab_size={params.vocab_size}, "
                              f"history={params.history}; the config needs "
                              f"{cfg.task.vocab_size}, {cfg.history}")
        return params
    from .trainer import init_policy

    return init_policy(cfg, QueryPool(cfg.task, cfg.seed))


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    out = _prepare_out(args, cfg)
    params = _load_params(cfg, args.checkpoint)
    pool = QueryPool(cfg.task, cfg.seed)
    report = evaluate(params, pool, args.groups, cfg.k,
                      substream(cfg.seed, "evaluate"), xi=cfg.mix.xi, t_max=cfg.t_max)
    _write_json(out / "eval.json", asdict(report))
    print(f"pass_rate={report.pass_rate:.4f} grades={report.grade_counts} "
          f"offline_ratio={report.offline_ratio:.3f} entropy={report.mean_entropy:.3f}")
    return 0


def _cmd_variance_bench(args) -> int:
    cfg = _load_config(args)
    out = _prepare_out(args, cfg)
    result = train(cfg)
    params = result.checkpoint.params.snapshot()
    ref = result.checkpoint.ref
    pool = QueryPool(cfg.task, cfg.seed)
    eta = measure_eta(params, ref, pool.draw, cfg.mix, 200,
                      substream(cfg.seed, "bench-eta"), k=cfg.k,
                      stop_token=cfg.task.stop, t_max=cfg.t_max)
    if eta > 0.2:
        print(f"protocol precondition failed: measured eta={eta:.3f} > 0.2 "
              f"after {cfg.steps} steps; train longer", file=sys.stderr)
        return FAILURE_EXIT
    report = variance_ordering_bench(params, ref, pool.draw, cfg.mix, args.groups,
                                     substream(cfg.seed, "bench-var"), k=cfg.k,
                                     stop_token=cfg.task.stop, t_max=cfg.t_max)
    write_bench_report(out / "variance_bench.json", report)
    print(f"eta={eta:.4f} " + " ".join(
        f"{name}={value:.6g}" for name, value in report.estimates.items()))
    print(f"verdict: {'pass' if report.verdict else 'FAIL'} "
          f"(gap={report.diagnostics['gap']:.3g}, "
          f"3*se={3 * report.diagnostics['combined_se']:.3g})")
    return 0 if report.verdict else FAILURE_EXIT


def _cmd_bias_bench(args) -> int:
    cfg = _load_config(args)
    out = _prepare_out(args, cfg)
    try:
        m_values = [int(part) for part in args.m.split(",") if part]
    except ValueError as exc:
        raise UsageError(f"--m must be a comma-separated integer list: {exc}")
    report = bias_law_bench(cfg.testbed, m_values, args.draws,
                            substream(cfg.seed, "testbed"))
    write_bench_report(out / "bias_bench.json", report)
    for m in sorted(m_values):
        print(f"m={m:>3d}  mean_sq_bias={report.estimates[str(m)]:.6f} "
              f"+/- {report.stderrs[str(m)]:.6f}")
    print(f"fitted slope: {report.diagnostics['slope']:.4f} (target -1 +/- 0.1)")
    return 0 if report.verdict else FAILURE_EXIT


def _cmd_grad_check(args) -> int:
    cfg = _load_config(args)
    out = _prepare_out(args, cfg)
    errors = grad_check_suite(seed=cfg.seed, n_instances=args.instances)
    _write_json(out / "grad_check.json", errors)
    worst = max(errors.values())
    for name, err in errors.items():
        print(f"{name:<18s} max relative error {err:.3e}")
    print(f"overall max relative error {worst:.3e}")
    return 0 if worst <= 1e-6 else FAILURE_EXIT


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    out = _prepare_out(args, cfg)
    results = run_comparison(cfg, out_dir=out)
    for variant, result in results.items():
        final = result.metrics[-1] if result.metrics else None
        if final is not None:
            print(f"{variant:<10s} reward={final.mean_reward:.4f} "
                  f"entropy={final.mean_entropy:.3f} offline={final.offline_ratio:.3f}")
    print(f"aligned CSVs in {out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "variance-bench": _cmd_variance_bench,
    "bias-bench": _cmd_bias_bench,
    "grad-check": _cmd_grad_check,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return USAGE_EXIT
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (BenchError, TrainingAborted) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    except DypoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE_EXIT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
