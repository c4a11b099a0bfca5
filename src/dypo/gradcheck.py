"""Central finite-difference certification of every analytic gradient.

Four losses are certified, each named by a key of ``CHECKS`` (the keys of
``grad_check_suite``'s output, which name losses, not functions): SFT's
demonstration NLL (``sft_loss_grad``), the clipped GRPO surrogate
(``grpo_pass``), the GAL pair loss (``gal_pass``) and the routed step
(``route_groups`` under ``dypo``). An instance holds one group, a batch of
one (``GroupBatch.of``), whose gradient keys are its rows. The suite builds
each distinct instance at an index once, certifies every loss that reads it,
and drops it before the next index.

Each probe adds +eps or -eps to one logit entry of the contexts a loss can
touch. All 2 * |contexts| * V probes of an instance are one table
(``Probes``): a frozen copy of the policy with one extra row per probe, the
probed row so perturbed, and the instance's group tiled once per probe,
each copy reading its own probe's row. The instance keeps its table
(``GradCheckInstance.probes``), so every loss certified on it reads one
table, one tiled batch and one check of the group's pairs. One evaluation
of the loss alone (``grpo_loss``, ``gal_loss``, ``mixed_loss``,
``demo_nll``: the expressions the passes report) over that table gives every
probe's loss, and so the numeric gradient, which is compared against the
analytic one. Each probe's loss is bit for bit the loss with that one entry
perturbed in place. The checker never calls the gradient code under test on
a probe, and leaves the policy unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InputError, StateError
from .objectives import (
    PATHWAYS,
    BatchPairs,
    GroupBatch,
    MixConfig,
    _batch_pairs,
    demo_nll,
    draw_demo,
    gal_loss,
    gal_pass,
    grpo_loss,
    grpo_pass,
    mixed_loss,
    pair_arrays,
    route_groups,
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


class Probes:
    """Every central-difference probe of ``params`` over ``contexts``.

    Probe ``2 * (c * V + v)`` adds +eps, and the probe after it -eps, to
    entry v of the row of ``contexts[c]``, which must be interned. Probe p
    reads its perturbed row at row ``own[p]`` of ``self.params``, a copy of
    the policy with one extra row per probe; ``self.ref`` extends the
    reference likewise with the probed row's own, unperturbed, so that a
    row both policies read is read at the same row number.

    A table serves every loss certified on its instance
    (``GradCheckInstance.probes``): the group it tiles is tiled once
    (``batch``), and a group's pairs are checked once (``pairs``). The extra
    rows are numbered from the interner's size, so once the interner grows
    the table is stale, and reading rows through it is a ``StateError``.
    """

    def __init__(self, params: PolicyParams, ref: PolicyParams, contexts: Sequence[Context],
                 eps: float):
        index = params.interner.index
        missing = [ctx for ctx in contexts if ctx not in index]
        if missing:
            raise InputError(f"probed contexts must be interned, got {missing[0]}")
        v = params.vocab_size
        rows = np.array([index[ctx] for ctx in contexts], dtype=np.intp)
        self.probed = np.repeat(rows, 2 * v)
        self.count = len(self.probed)
        tokens = np.tile(np.arange(v).repeat(2), len(rows))
        shift = np.zeros((self.count, v))
        shift[np.arange(self.count), tokens] = np.tile([eps, -eps], len(rows) * v)
        self.params = params.with_rows(self.probed, shift)
        self.ref = ref.with_rows(self.probed)
        self._size = len(params.interner.contexts)
        self.own = self._size + np.arange(self.count)
        self._tiled: tuple | None = None  # (group, its sample_logp, its tiled batch)

    @property
    def stale(self) -> bool:
        """Whether a context was interned since the table was built."""
        return len(self.params.interner.contexts) != self._size

    def _check_fresh(self) -> None:
        if self.stale:
            raise StateError("the probe table is stale: its interner grew since it was built")

    def remap(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` as each probe reads them, one line per probe: its probed
        row swapped for its own."""
        self._check_fresh()
        return np.where(rows == self.probed[:, None], self.own[:, None], rows)

    def batch(self, group: GroupBatch) -> GroupBatch:
        """The group once per probe, each copy reading its probe's rows,
        tiled on the first call for the group and its ``sample_logp``."""
        self._check_fresh()
        tiled = self._tiled
        if tiled is None or tiled[0] is not group or tiled[1] is not group._sample_logp:
            tiled = self._tiled = (group, group._sample_logp, group.tiled(self.remap(group.rows)))
        return tiled[2]

    def pairs(self, group: GroupBatch, pairs: np.ndarray) -> BatchPairs:
        """The one group's ``pairs``, checked once (``_batch_pairs``, its
        errors), as the pairs of every copy of ``batch(group)``."""
        return _batch_pairs(group, [pairs]).tiled(self.count, len(group.lengths))


def numerical_gradient(losses: Callable[[Probes], np.ndarray], params: PolicyParams,
                       ref: PolicyParams, contexts: Sequence[Context],
                       eps: float = 1e-5, probes: Probes | None = None
                       ) -> dict[Context, np.ndarray]:
    """Central differences of a loss over every (context, token) logit entry.

    ``losses`` evaluates the loss under every probe of ``probes``, the table
    ``Probes(params, ref, contexts, eps)``, at once, in probe order. The
    table is built here unless given, as ``certify`` gives its instance's;
    ``params`` and ``ref`` are not changed.
    """
    if probes is None:
        probes = Probes(params, ref, contexts, eps)
    values = losses(probes)
    diff = (values[0::2] - values[1::2]) / (2.0 * eps)
    return dict(zip(contexts, diff.reshape(len(contexts), params.vocab_size)))


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
    group: GroupBatch
    pairs: np.ndarray
    teachers: list
    contexts: list[Context]
    # the probe table per eps, kept while the instance lives
    _probes: dict[float, Probes] = field(default_factory=dict, init=False, repr=False,
                                         compare=False)

    def probes(self, eps: float) -> Probes:
        """The probe table of the instance's contexts at ``eps``, built on
        first use, shared by every loss certified on the instance, and built
        anew once stale."""
        table = self._probes.get(eps)
        if table is None or table.stale:
            table = self._probes[eps] = Probes(self.params, self.ref, self.contexts, eps)
        return table


def make_instance(seed: int, index: int, kind: str = "mid",
                  task: TaskConfig | None = None, t_max: int = 14) -> GradCheckInstance:
    """One random (params, ref, query, group) tuple for gradient checking.

    ``kind`` picks the group's reward pattern: mixed successes and failures,
    all failures, or all successes. The group is a batch of one, built once.
    ``pairs`` are the first three (success, failure) index pairs of the
    group, empty unless it is Mid. The reference sits close to the params
    and stands in for the sampling policy: its log-probs are the group's
    ``sample_logp``.
    """
    rng = substream(seed, "gradcheck", index)
    task = task or TaskConfig()
    chain_len = 1 + index % 3
    query = generate_query(task, chain_len, rng, query_id=index)
    contexts = [(query.query_id, ())] + [(query.query_id, (a,)) for a in range(task.vocab_size)]
    params = PolicyParams(task.vocab_size, 1)
    shape = (len(contexts), task.vocab_size)
    # on zero logits, the update writes the draws themselves
    params.apply_update(RowBlock(params.rows(contexts), rng.normal(0.0, 1.0, shape)), 1.0)
    ref = params.copy()
    ref.apply_update(RowBlock(params.rows(contexts), rng.normal(0.0, 0.02, shape)), 1.0)
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
    group = GroupBatch.of(params, query, trajs, rewards, standardize_advantages(rewards, 1e-4))
    group.sample_logp = ref.logp_at(group.rows, group.tokens)
    won = [i for i, r in enumerate(rewards) if r == 1]
    lost = [i for i, r in enumerate(rewards) if r == 0]
    pairs = np.array([(s, f) for s in won for f in lost][:3], dtype=np.intp).reshape(-1, 2)
    return GradCheckInstance(params=params, ref=ref, query=query, group=group,
                             pairs=pairs, teachers=teachers, contexts=contexts)


def _off_clip(inst: GradCheckInstance, cfg: MixConfig, margin: float) -> bool:
    """Whether every trajectory log-ratio, which GRPO clips, is > margin off both kinks."""
    kinks = np.log1p([-cfg.epsilon_clip, cfg.epsilon_clip])
    log_ratios = inst.group.log_ratios(inst.params)
    return bool(np.all(np.abs(log_ratios[:, None] - kinks) > margin))


# the losses are certified at the mixture config training runs by default
_MIX = MixConfig()


def _off_clip_instance(build: Callable[[int, str], GradCheckInstance], index: int, kind: str,
                       eps: float) -> GradCheckInstance:
    """The instance ``build(index, kind)``; a Mid one is redrawn, at indices
    10_000 apart, until its ratios are off the clip kinks."""
    for attempt in range(50):
        inst = build(index + 10_000 * attempt, kind)
        if kind != "mid" or _off_clip(inst, _MIX, margin=10 * eps):
            break
    return inst


def _demo_nll(inst: GradCheckInstance, rng: np.random.Generator
              ) -> Callable[[Probes], np.ndarray]:
    """Each probe's negative log-likelihood of the demonstration that
    ``sft_loss_grad`` draws from ``rng``, drawn here once."""
    _, demo = draw_demo(inst.query, inst.teachers, rng)
    rows, tokens = inst.params.trajectory_rows(inst.query.query_id, demo.tokens)
    return lambda probes: demo_nll(probes.params, probes.remap(rows), tokens)


def probe_losses(inst: GradCheckInstance, loss: str, cfg: MixConfig,
                 rng: np.random.Generator | None = None) -> Callable[[Probes], np.ndarray]:
    """Every probe's value of the certified ``loss`` at the instance, as one
    evaluation over the probes of the loss alone, never of its gradient. The
    draws the loss makes from ``rng`` (a teacher and its demonstration,
    capped pairs) are made here, once, as the loss makes them."""
    group = inst.group
    if loss == "dypo_step_loss":
        route = PATHWAYS["dypo"][group.grades[0]]
        if route is None:
            return lambda probes: np.zeros(probes.count)
        if route == "distill":
            nll = _demo_nll(inst, rng)
            return lambda probes: cfg.gamma * nll(probes)
        pairs, = pair_arrays(group, cfg.pair_cap, rng)

        def mixed(probes: Probes) -> np.ndarray:
            batch = probes.batch(group)
            return mixed_loss(grpo_loss(probes.params, probes.ref, batch, cfg)[0],
                              gal_loss(probes.params, probes.ref, batch,
                                       probes.pairs(group, pairs), cfg)[0], cfg.alpha)
        return mixed
    if loss == "sft_loss_grad":
        return _demo_nll(inst, rng)
    if loss == "grpo_loss_grad":
        return lambda probes: grpo_loss(probes.params, probes.ref, probes.batch(group), cfg)[0]
    if loss == "gal_loss_grad":
        return lambda probes: gal_loss(probes.params, probes.ref, probes.batch(group),
                                       probes.pairs(group, inst.pairs), cfg)[0]
    raise ConfigError(f"no certified loss named {loss!r}")


def twin_stream(rng: np.random.Generator | None) -> np.random.Generator | None:
    """A generator that draws ``rng``'s stream from where ``rng`` stands, on
    a new bit generator of its type set to a copy of its state; ``rng`` is
    not advanced."""
    if rng is None:
        return None
    bits = type(rng.bit_generator)()
    bits.state = rng.bit_generator.state
    return np.random.Generator(bits)


# each certified loss's analytic gradient at an instance, as the library
# evaluates it: a pass over the instance's batch of one has one block
_GRADIENTS = {
    "sft_loss_grad": lambda inst, cfg, rng: sft_loss_grad(
        inst.params, inst.query, inst.teachers, rng).gradient,
    "grpo_loss_grad": lambda inst, cfg, rng: grpo_pass(
        inst.params, inst.ref, inst.group, cfg).gradient.blocks()[0],
    "gal_loss_grad": lambda inst, cfg, rng: gal_pass(
        inst.params, inst.ref, inst.group, [inst.pairs], cfg).gradient.blocks()[0],
    "dypo_step_loss": lambda inst, cfg, rng: route_groups(
        inst.params, inst.ref, inst.group, inst.teachers, cfg, rng)[0].gradient,
}


def certify(inst: GradCheckInstance, loss: str, cfg: MixConfig = _MIX,
            rng: np.random.Generator | None = None, eps: float = 1e-5) -> float:
    """Error of the analytic gradient of the certified ``loss`` at the
    instance against central differences, on the instance's probe table;
    ``rng`` feeds the loss's draws, which the probes make from a twin."""
    losses = probe_losses(inst, loss, cfg, twin_stream(rng))
    analytic = _GRADIENTS[loss](inst, cfg, rng)
    return gradient_error(inst.params, analytic,
                          numerical_gradient(losses, inst.params, inst.ref, inst.contexts, eps,
                                             inst.probes(eps)))


# the stream each certified loss draws from at an index, if it draws
_STREAMS = {"sft_loss_grad": "gradcheck-sft", "dypo_step_loss": "gradcheck-dypo"}


def _check(loss: str, seed: int, index: int, build: Callable[[int, str], GradCheckInstance],
           eps: float) -> float:
    """The certified ``loss``'s error at ``index``, on its instance from
    ``build(index, kind)``: SFT and GAL read the Mid instance; GRPO reads it,
    and the routed step the kind ``index % 3`` picks, redrawn while Mid until
    its ratios are off the clip kinks."""
    if loss in ("sft_loss_grad", "gal_loss_grad"):
        inst = build(index, "mid")
    else:
        kind = ("mid", "hard", "easy")[index % 3] if loss == "dypo_step_loss" else "mid"
        inst = _off_clip_instance(build, index, kind, eps)
    stream = _STREAMS.get(loss)
    return certify(inst, loss, rng=None if stream is None else substream(seed, stream, index),
                   eps=eps)


def check_sft(seed: int, index: int, eps: float = 1e-5) -> float:
    return _check("sft_loss_grad", seed, index, partial(make_instance, seed), eps)


def check_grpo(seed: int, index: int, eps: float = 1e-5) -> float:
    return _check("grpo_loss_grad", seed, index, partial(make_instance, seed), eps)


def check_gal(seed: int, index: int, eps: float = 1e-5) -> float:
    return _check("gal_loss_grad", seed, index, partial(make_instance, seed), eps)


def check_dypo(seed: int, index: int, eps: float = 1e-5) -> float:
    return _check("dypo_step_loss", seed, index, partial(make_instance, seed), eps)


CHECKS = {
    "sft_loss_grad": check_sft,
    "grpo_loss_grad": check_grpo,
    "gal_loss_grad": check_gal,
    "dypo_step_loss": check_dypo,
}


def grad_check_suite(seed: int = 0, n_instances: int = 100) -> dict[str, float]:
    """Max relative finite-difference error per loss over random instances.

    Index by index, every check at the index reads one build of each distinct
    instance, and the index's instances are dropped before the next's.
    """
    if n_instances < 1:
        raise ConfigError(f"grad-check needs at least one instance, got {n_instances}")
    errors: dict[str, list[float]] = {name: [] for name in CHECKS}
    for i in range(n_instances):
        build = cache(partial(make_instance, seed))
        for name, found in errors.items():
            found.append(_check(name, seed, i, build, 1e-5))
    return {name: max(found) for name, found in errors.items()}
