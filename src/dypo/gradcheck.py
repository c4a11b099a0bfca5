"""Central finite-difference certification of every analytic gradient.

The checker perturbs each logit entry of the contexts a loss can touch in
place, re-evaluates the loss, restores the entry, and compares the resulting
numeric gradient against the analytic one. It only ever calls loss
evaluation, never the gradient code under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .objectives import (
    GroupRollout,
    LossReport,
    MixConfig,
    dypo_step_loss,
    gal_loss_grad,
    grpo_loss_grad,
    sft_loss_grad,
    standardize_advantages,
)
from .policy import (
    Context,
    PolicyParams,
    RowBlock,
    Trajectory,
    sample_trajectory,
    sum_blocks,
)
from .seeding import substream
from .tasks import Query, TaskConfig, generate_query, make_teacher_ensemble, reward, teacher_sample


def numerical_gradient(f: Callable[[PolicyParams], float], params: PolicyParams,
                       contexts: Sequence[Context],
                       eps: float = 1e-5) -> dict[Context, np.ndarray]:
    """Central differences of f over every (context, token) logit entry.

    Each probe perturbs one entry of ``params`` in place and restores it
    bit-exactly before the next, so ``params`` ends unchanged.
    """
    grad: dict[Context, np.ndarray] = {}
    for ctx in contexts:
        row = np.zeros(params.vocab_size)
        for tok in range(params.vocab_size):
            for sign in (1.0, -1.0):
                with params.perturbed(ctx, tok, sign * eps):
                    row[tok] += sign * f(params)
        grad[ctx] = row / (2.0 * eps)
    return grad


def gradient_error(params: PolicyParams, analytic: RowBlock,
                   numeric: dict[Context, np.ndarray]) -> float:
    """Max absolute entry difference, relative to max(1, largest analytic entry)."""
    probed = RowBlock(params.rows(numeric), np.array(list(numeric.values())))
    diff = sum_blocks([(1.0, analytic), (-1.0, probed)])
    worst = float(np.abs(diff.values).max(initial=0.0))
    return worst / max(1.0, float(np.abs(analytic.values).max(initial=0.0)))


def _sample_failures(params: PolicyParams, query: Query, rng: np.random.Generator,
                     count: int, *, stop: int, t_max: int) -> list[Trajectory]:
    failures: list[Trajectory] = []
    for _ in range(200):
        traj = sample_trajectory(params, query, rng, stop_token=stop, t_max=t_max)
        if reward(query, traj) == 0:
            failures.append(traj)
            if len(failures) == count:
                break
    return failures


@dataclass
class GradCheckInstance:
    params: PolicyParams
    ref: PolicyParams
    query: Query
    group: GroupRollout
    pairs: np.ndarray
    teachers: list
    contexts: list[Context]


def make_instance(seed: int, index: int, kind: str = "mid",
                  task: TaskConfig | None = None, t_max: int = 14) -> GradCheckInstance:
    """One random (params, ref, query, group) tuple for gradient checking.

    ``kind`` picks the group's reward pattern: mixed successes and failures,
    all failures, or all successes. ``pairs`` are the first three (success,
    failure) index pairs of the group, empty unless it is Mid. The reference
    sits close to the params and stands in for the sampling policy: its
    log-probs are the group's ``sample_logp``.
    """
    rng = substream(seed, "gradcheck", index)
    task = task or TaskConfig()
    chain_len = 1 + index % 3
    query = generate_query(task, chain_len, rng, query_id=index)
    contexts = [(query.query_id, ())] + [(query.query_id, (a,)) for a in range(task.vocab_size)]
    params = PolicyParams(task.vocab_size, 1)
    for ctx in contexts:
        params.set_logits(ctx, rng.normal(0.0, 1.0, task.vocab_size))
    ref = params.copy()
    ref.apply_update(RowBlock(params.rows(contexts),
                              rng.normal(0.0, 0.02, (len(contexts), task.vocab_size))), 1.0)
    ref = ref.snapshot()
    teachers = make_teacher_ensemble(task, 1 + index % 3, seed)
    successes = [query.ground_truth, teacher_sample(teachers[0], query, rng)]
    failures = _sample_failures(params, query, rng, 3, stop=task.stop, t_max=t_max)
    if kind == "easy" or not failures:
        trajs = successes
    elif kind == "hard":
        trajs = failures[:2] if len(failures) >= 2 else failures * 2
    else:
        trajs = successes + failures
    rewards = tuple(reward(query, t) for t in trajs)
    group = GroupRollout(query=query, trajectories=tuple(trajs), rewards=rewards,
                         advantages=standardize_advantages(rewards, 1e-4))
    rows, tokens, _ = group.step_rows(params)
    group.sample_logp = ref.logp_at(rows, tokens)
    won = [i for i, r in enumerate(rewards) if r == 1]
    lost = [i for i, r in enumerate(rewards) if r == 0]
    pairs = np.array([(s, f) for s in won for f in lost][:3], dtype=np.intp).reshape(-1, 2)
    return GradCheckInstance(params=params, ref=ref, query=query, group=group,
                             pairs=pairs, teachers=teachers, contexts=contexts)


def _off_clip(inst: GradCheckInstance, cfg: MixConfig, margin: float) -> bool:
    """Whether every trajectory log-ratio, which GRPO clips, is > margin off both kinks."""
    kinks = np.log1p([-cfg.epsilon_clip, cfg.epsilon_clip])
    log_ratios = inst.group.alone(inst.params).log_ratios(inst.params)
    return bool(np.all(np.abs(log_ratios[:, None] - kinks) > margin))


# the losses are certified at the mixture config training runs by default
_MIX = MixConfig()


def _certify(inst: GradCheckInstance, loss: Callable[[PolicyParams], LossReport],
             eps: float) -> float:
    """Error of the analytic gradient of ``loss`` against central differences."""
    analytic = loss(inst.params).gradient
    numeric = numerical_gradient(lambda p: loss(p).loss, inst.params, inst.contexts, eps)
    return gradient_error(inst.params, analytic, numeric)


def check_sft(seed: int, index: int, eps: float = 1e-5) -> float:
    inst = make_instance(seed, index)
    return _certify(inst, lambda p: sft_loss_grad(
        p, inst.query, inst.teachers, substream(seed, "gradcheck-sft", index)), eps)


def check_grpo(seed: int, index: int, eps: float = 1e-5) -> float:
    # resample until every trajectory ratio is strictly off the clip kinks
    for attempt in range(50):
        inst = make_instance(seed, index + 10_000 * attempt)
        if _off_clip(inst, _MIX, margin=10 * eps):
            break
    return _certify(inst, lambda p: grpo_loss_grad(p, inst.ref, inst.group, _MIX), eps)


def check_gal(seed: int, index: int, eps: float = 1e-5) -> float:
    inst = make_instance(seed, index)
    return _certify(inst, lambda p: gal_loss_grad(p, inst.ref, inst.group, inst.pairs, _MIX), eps)


def check_dypo(seed: int, index: int, eps: float = 1e-5) -> float:
    kind = ("mid", "hard", "easy")[index % 3]
    for attempt in range(50):
        inst = make_instance(seed, index + 10_000 * attempt, kind=kind)
        if kind != "mid" or _off_clip(inst, _MIX, margin=10 * eps):
            break
    return _certify(inst, lambda p: dypo_step_loss(
        p, inst.ref, inst.group, inst.teachers, _MIX,
        substream(seed, "gradcheck-dypo", index)), eps)


CHECKS = {
    "sft_loss_grad": check_sft,
    "grpo_loss_grad": check_grpo,
    "gal_loss_grad": check_gal,
    "dypo_step_loss": check_dypo,
}


def grad_check_suite(seed: int = 0, n_instances: int = 100) -> dict[str, float]:
    """Max relative finite-difference error per loss over random instances."""
    if n_instances < 1:
        raise ConfigError(f"grad-check needs at least one instance, got {n_instances}")
    return {
        name: max(fn(seed, i) for i in range(n_instances))
        for name, fn in CHECKS.items()
    }
