"""Central finite-difference certification of every analytic gradient.

Four losses are certified, each named by a key of ``CHECKS`` (the keys of
``grad_check_suite``'s output, which name losses, not functions): SFT's
demonstration NLL (``sft_pass``), the clipped GRPO surrogate
(``grpo_pass``), the GAL pair loss (``gal_pass``) and the routed step
(``route_groups`` under ``dypo``). A loss's one record there (``LossCheck``)
holds all that ``check`` needs to certify it. An instance holds one group, a
batch of one (``GroupBatch.of``), whose gradient keys are its rows. The suite
builds each distinct instance at an index once, certifies every loss that
reads it, and drops it before the next index.

Each probe adds +EPS or -EPS to one logit entry of the contexts a loss can
touch. All 2 * |contexts| * V probes of an instance are one table
(``Probes``): a frozen copy of the policy with one extra row per probe, the
probed row so perturbed, and the instance's group tiled once per probe,
each copy reading its own probe's row. The instance builds its table on
first read (``GradCheckInstance.probes``), so every loss certified on it
reads one table, one tiled batch and the pairs checked as it was built,
and a loss that evaluates nothing builds none. One evaluation of the loss alone
(``grpo_loss``, ``gal_loss``, ``mixed_loss``, ``demo_nll``: the expressions
the passes report) over that table gives every probe's loss, and so the
numeric gradient, which is compared against the analytic one. Each probe's
loss is bit for bit the loss with that one entry perturbed in place. The
checker never calls the gradient code under test on a probe, and leaves the
policy unchanged.
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
    demo_nll,
    draw_demo,
    gal_loss,
    gal_pass,
    grpo_loss,
    grpo_pass,
    mixed_loss,
    pair_arrays,
    route_groups,
    sft_pass,
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

# the central-difference step on a logit entry
EPS = 1e-5


class Probes:
    """Every central-difference probe of ``params`` over ``contexts``.

    Probe ``2 * (c * V + v)`` adds +EPS, and the probe after it -EPS, to
    entry v of the row of ``contexts[c]``, which must be interned. Probe p
    reads its perturbed row at row ``own[p]`` of ``self.params``, a copy of
    the policy with one extra row per probe; ``self.ref`` extends the
    reference likewise with the probed row's own, unperturbed, so that a
    row both policies read is read at the same row number.

    A table serves every loss certified on its instance
    (``GradCheckInstance.probes``), and tiles the group once (``batch``).
    The extra rows are numbered from the interner's size, so once the interner grows
    the table is stale, and reading rows through it is a ``StateError``.
    """

    def __init__(self, params: PolicyParams, ref: PolicyParams, contexts: Sequence[Context]):
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
        shift[np.arange(self.count), tokens] = np.tile([EPS, -EPS], len(rows) * v)
        self.params = params.with_rows(self.probed, shift)
        self.ref = ref.with_rows(self.probed)
        self._size = len(params.interner.contexts)
        self.own = self._size + np.arange(self.count)
        self._tiled: tuple | None = None  # (group, its tiled batch)

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
        tiled on the first call for the group."""
        self._check_fresh()
        if self._tiled is None or self._tiled[0] is not group:
            self._tiled = (group, group.tiled(self.remap(group.rows)))
        return self._tiled[1]


@dataclass
class GradCheckInstance:
    params: PolicyParams
    ref: PolicyParams
    query: Query
    group: GroupBatch
    pairs: BatchPairs | None
    teachers: list
    contexts: list[Context]
    _probes: Probes | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def probe_count(self) -> int:
        """The number of probes: two per logit entry of the contexts."""
        return 2 * len(self.contexts) * self.params.vocab_size

    @property
    def probes(self) -> Probes:
        """The probe table of the instance's contexts, built on first read,
        shared by every loss certified on the instance, and built anew once
        stale."""
        if self._probes is None or self._probes.stale:
            self._probes = Probes(self.params, self.ref, self.contexts)
        return self._probes


# a loss under every probe of an instance, in probe order
ProbeLosses = Callable[[GradCheckInstance], np.ndarray]
# the generator a loss draws from, if it draws
Draws = np.random.Generator | None


def numerical_gradient(losses: ProbeLosses, inst: GradCheckInstance
                       ) -> dict[Context, np.ndarray]:
    """Central differences of a loss over every (context, token) logit entry
    of the instance, from its value under every probe, ``losses(inst)``;
    the policies are not changed."""
    values = losses(inst)
    diff = (values[0::2] - values[1::2]) / (2.0 * EPS)
    return dict(zip(inst.contexts, diff.reshape(len(inst.contexts), inst.params.vocab_size)))


def gradient_error(params: PolicyParams, analytic: RowBlock,
                   numeric: dict[Context, np.ndarray]) -> float:
    """Max absolute entry difference, relative to max(1, largest analytic entry)."""
    probed = RowBlock(params.rows(numeric), np.array(list(numeric.values())))
    diff = sum_blocks([(1.0, analytic), (-1.0, probed)])
    worst = float(np.abs(diff.values).max(initial=0.0))
    return worst / max(1.0, float(np.abs(analytic.values).max(initial=0.0)))


def _sample_failures(params: PolicyParams, query: Query, rng: np.random.Generator,
                     count: int, stop: int) -> list[Trajectory]:
    failures: list[Trajectory] = []
    for _ in range(200):
        traj = sample_trajectory(params, query, rng, stop_token=stop, t_max=14)
        if reward(query, traj) == 0:
            failures.append(traj)
            if len(failures) == count:
                break
    return failures


def make_instance(seed: int, index: int, kind: str = "mid") -> GradCheckInstance:
    """One random (params, ref, query, group) tuple for gradient checking.

    ``kind`` picks the group's reward pattern: mixed successes and failures,
    all failures, or all successes. The group is a batch of one, built once.
    ``pairs`` are the first three (success, failure) index pairs of the
    group, checked once (``BatchPairs.of``), or ``None`` unless it is Mid.
    The reference sits close to the params and stands in for the sampling
    policy: the group is built from it (``GroupBatch.of(ref, ...)``), so its
    log-probs are the group's ``sample_logp``.
    """
    rng = substream(seed, "gradcheck", index)
    task = TaskConfig()
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
    failures = _sample_failures(params, query, rng, 3, task.stop)
    if kind == "easy" or not failures:
        trajs = successes
    elif kind == "hard":
        trajs = failures[:2] if len(failures) >= 2 else failures * 2
    else:
        trajs = successes + failures
    rewards = tuple(reward(query, t) for t in trajs)
    group = GroupBatch.of(ref, query, trajs, rewards, standardize_advantages(rewards, 1e-4))
    won = [i for i, r in enumerate(rewards) if r == 1]
    lost = [i for i, r in enumerate(rewards) if r == 0]
    first = [(s, f) for s in won for f in lost][:3]
    pairs = BatchPairs.of(group, [first]) if first else None
    return GradCheckInstance(params=params, ref=ref, query=query, group=group,
                             pairs=pairs, teachers=teachers, contexts=contexts)


def _off_clip(inst: GradCheckInstance, cfg: MixConfig, margin: float) -> bool:
    """Whether every trajectory log-ratio, which GRPO clips, is > margin off both kinks."""
    kinks = np.log1p([-cfg.epsilon_clip, cfg.epsilon_clip])
    log_ratios = inst.group.log_ratios(inst.params)
    return bool(np.all(np.abs(log_ratios[:, None] - kinks) > margin))


# the losses are certified at the mixture config training runs by default
_MIX = MixConfig()


def twin_stream(rng: np.random.Generator | None) -> np.random.Generator | None:
    """A generator that draws ``rng``'s stream from where ``rng`` stands, on
    a new bit generator of its type set to a copy of its state; ``rng`` is
    not advanced."""
    if rng is None:
        return None
    bits = type(rng.bit_generator)()
    bits.state = rng.bit_generator.state
    return np.random.Generator(bits)


def _grpo(inst: GradCheckInstance, cfg: MixConfig) -> np.ndarray:
    probes = inst.probes
    return grpo_loss(probes.params, probes.ref, probes.batch(inst.group), cfg)[0]


def _pairs(inst: GradCheckInstance) -> BatchPairs:
    if inst.pairs is None:  # a group that is not Mid has none
        raise StateError("pair construction requires a Mid-graded group")
    return inst.pairs


def _gal(inst: GradCheckInstance, cfg: MixConfig, pairs: BatchPairs) -> np.ndarray:
    """GAL under every probe, on the group's ``pairs`` tiled once per probe."""
    probes, group = inst.probes, inst.group
    tiled = pairs.tiled(probes.count, len(group.lengths))
    return gal_loss(probes.params, probes.ref, probes.batch(group), tiled, cfg)[0]


def _demo_nll(inst: GradCheckInstance, cfg: MixConfig, rng: Draws) -> np.ndarray:
    """The NLL under every probe of the demonstration ``sft_pass`` draws from ``rng``."""
    _, demo = draw_demo(inst.query, inst.teachers, rng)
    rows, tokens = inst.params.trajectory_rows(inst.query.query_id, demo.tokens)
    probes = inst.probes  # one copy of the demonstration per probe, each reading its probe's row
    return demo_nll(probes.params, probes.remap(rows).ravel(), np.tile(tokens, probes.count),
                    np.full(probes.count, len(rows)))


def _step_losses(inst: GradCheckInstance, cfg: MixConfig, rng: Draws) -> np.ndarray:
    """The routed step under every probe, on its group's route: 0 when
    discarded, which reads no table."""
    route = PATHWAYS["dypo"][inst.group.grade[0]]
    if route == "discard":
        return np.zeros(inst.probe_count)
    if route == "distill":
        return cfg.gamma * _demo_nll(inst, cfg, rng)
    pairs = pair_arrays(inst.group, cfg.pair_cap, rng)
    return mixed_loss(_grpo(inst, cfg), _gal(inst, cfg, pairs), cfg.alpha)


@dataclass(frozen=True)
class LossCheck:
    """All that certifying one loss takes. Its instance at an index is of
    kind ``kinds[index % 3]``, a Mid one redrawn off the clip kinks if
    ``off_clip``; its draws at an index come from substream ``stream``, if it
    draws. ``gradient`` is its analytic gradient at an instance, as the
    library evaluates it (a pass over a batch of one has one block), and
    ``losses`` its value under every probe, making the draws the loss makes."""
    kinds: tuple[str, str, str]
    off_clip: bool
    stream: str | None
    gradient: Callable[[GradCheckInstance, MixConfig, Draws], RowBlock]
    losses: Callable[[GradCheckInstance, MixConfig, Draws], np.ndarray]


_MID = ("mid",) * 3
CHECKS = {
    "sft_loss_grad": LossCheck(
        _MID, False, "gradcheck-sft",
        lambda inst, cfg, rng: sft_pass(inst.params, [inst.query], inst.teachers,
                                        rng).gradient.blocks()[0],
        _demo_nll),
    "grpo_loss_grad": LossCheck(
        _MID, True, None,
        lambda inst, cfg, rng: grpo_pass(inst.params, inst.ref, inst.group,
                                         cfg).gradient.blocks()[0],
        lambda inst, cfg, rng: _grpo(inst, cfg)),
    "gal_loss_grad": LossCheck(
        _MID, False, None,
        lambda inst, cfg, rng: gal_pass(inst.params, inst.ref, inst.group, _pairs(inst),
                                        cfg).gradient.blocks()[0],
        lambda inst, cfg, rng: _gal(inst, cfg, _pairs(inst))),
    "dypo_step_loss": LossCheck(
        ("mid", "hard", "easy"), True, "gradcheck-dypo",
        lambda inst, cfg, rng: route_groups(inst.params, inst.ref, inst.group, inst.teachers,
                                            cfg, rng)[0].gradient,
        _step_losses),
}


def probe_losses(loss: str, cfg: MixConfig, rng: Draws = None) -> ProbeLosses:
    """The certified ``loss`` under every probe of an instance, as one
    evaluation of the loss alone, never of its gradient, which makes the
    draws the loss makes from ``rng`` (a teacher and its demonstration,
    capped pairs) once, as the loss makes them."""
    return partial(CHECKS[loss].losses, cfg=cfg, rng=rng)


def certify(inst: GradCheckInstance, loss: str, rng: Draws = None) -> float:
    """Error of the analytic gradient of the certified ``loss`` at the
    instance against central differences, on the instance's probe table, at
    the default mixture config; ``rng`` feeds the loss's draws, which the
    probes make from a twin."""
    losses = probe_losses(loss, _MIX, twin_stream(rng))
    analytic = CHECKS[loss].gradient(inst, _MIX, rng)
    return gradient_error(inst.params, analytic, numerical_gradient(losses, inst))


def check(loss: str, seed: int, index: int,
          build: Callable[[int, str], GradCheckInstance] | None = None) -> float:
    """The certified ``loss``'s error at ``index``, on the instance of the
    kind its record picks, from ``build(index, kind)`` (``make_instance`` at
    ``seed`` unless given). A Mid instance the record keeps off the clip
    kinks is redrawn, at indices 10_000 apart, until its ratios are."""
    record = CHECKS[loss]
    build = build or partial(make_instance, seed)
    kind = record.kinds[index % 3]
    for attempt in range(50):
        inst = build(index + 10_000 * attempt, kind)
        if not (record.off_clip and kind == "mid") or _off_clip(inst, _MIX, margin=10 * EPS):
            break
    rng = None if record.stream is None else substream(seed, record.stream, index)
    return certify(inst, loss, rng=rng)


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
            found.append(check(name, seed, i, build))
    return {name: max(found) for name, found in errors.items()}
