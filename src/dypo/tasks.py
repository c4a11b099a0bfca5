"""Synthetic verifiable-reward tasks, teacher oracles, and the bias testbed.

The default task family is modular arithmetic chains: a prompt encodes a
start value and a sequence of +c / *c operations mod M, and a trajectory is
rewarded iff it terminates and the answer segment after its last separator
token equals the final chain value. Teachers are oracles that always emit a
rewarded demonstration, differing from each other only in correctness-
preserving style (filler repetitions of intermediate values).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .policy import Trajectory


@dataclass(frozen=True)
class TaskConfig:
    """Modular-chain task family parameters.

    Vocabulary layout: tokens 0..modulus-1 are residues, then separator,
    stop, add-op, and mul-op markers.
    """

    modulus: int = 5
    min_chain_len: int = 1
    max_chain_len: int = 4
    pool_size: int = 8

    def __post_init__(self):
        if self.modulus < 2:
            raise ConfigError(f"modulus must be >= 2, got {self.modulus}")
        if not 1 <= self.min_chain_len <= self.max_chain_len:
            raise ConfigError("need 1 <= min_chain_len <= max_chain_len")
        if self.pool_size < 1:
            raise ConfigError("pool_size must be >= 1")

    @property
    def separator(self) -> int:
        return self.modulus

    @property
    def stop(self) -> int:
        return self.modulus + 1

    @property
    def add_op(self) -> int:
        return self.modulus + 2

    @property
    def mul_op(self) -> int:
        return self.modulus + 3

    @property
    def vocab_size(self) -> int:
        return self.modulus + 4


@dataclass(frozen=True)
class Query:
    """One task instance; ground truth is hidden from the policy."""

    query_id: int
    prompt_tokens: tuple[int, ...]
    ground_truth: Trajectory
    answer_tokens: tuple[int, ...]
    chain_values: tuple[int, ...]  # v_0 (start) .. v_L (answer)
    separator: int
    stop: int


def generate_query(cfg: TaskConfig, chain_len: int, rng: np.random.Generator,
                   query_id: int = 0) -> Query:
    """Sample a chain of ``chain_len`` operations; deterministic under seed."""
    if chain_len < 1:
        raise InputError(f"chain length must be >= 1, got {chain_len}")
    m = cfg.modulus
    start = int(rng.integers(m))
    values = [start]
    prompt = [start]
    for _ in range(chain_len):
        is_mul = bool(rng.integers(2))
        c = 1 + int(rng.integers(m - 1))
        prompt.append(cfg.mul_op if is_mul else cfg.add_op)
        prompt.append(c)
        prev = values[-1]
        values.append((prev * c) % m if is_mul else (prev + c) % m)
    answer = values[-1]
    gt_tokens = tuple(values[1:-1]) + (cfg.separator, answer, cfg.stop)
    return Query(
        query_id=query_id,
        prompt_tokens=tuple(prompt),
        ground_truth=Trajectory(gt_tokens, terminal=True),
        answer_tokens=(answer,),
        chain_values=tuple(values),
        separator=cfg.separator,
        stop=cfg.stop,
    )


def reward(query: Query, traj: Trajectory) -> int:
    """1 iff the trajectory terminates and its answer segment matches exactly.

    The answer segment is everything after the last separator and before the
    final stop token; malformed trajectories (non-terminal, no separator,
    missing stop) simply score 0.
    """
    if not traj.terminal or len(traj.tokens) == 0:
        return 0
    if traj.tokens[-1] != query.stop:
        return 0
    body = traj.tokens[:-1]
    try:
        last_sep = len(body) - 1 - body[::-1].index(query.separator)
    except ValueError:
        return 0
    return int(body[last_sep + 1:] == query.answer_tokens)


@dataclass(frozen=True)
class TeacherOracle:
    """Demonstration generator with a teacher-specific, reward-preserving style.

    Style touches only the reasoning prefix (repetition count of intermediate
    chain values, optional leading start value, optional stochastic echo), so
    every demonstration keeps reward 1 by construction.
    """

    teacher_id: int
    task: TaskConfig
    noise_seed: int = 0

    def __post_init__(self):
        if self.teacher_id < 0:
            raise ConfigError("teacher_id must be >= 0")


def teacher_sample(oracle: TeacherOracle, query: Query, rng: np.random.Generator) -> Trajectory:
    """A reward-1 demonstration whose token-level style depends on teacher_id."""
    cfg = oracle.task
    if query.separator != cfg.separator or query.stop != cfg.stop:
        raise InputError("query does not belong to this oracle's task family")
    values = query.chain_values
    intermediates = values[1:-1]
    rep = 1 + oracle.teacher_id % 3
    prefix: list[int] = []
    if oracle.teacher_id % 2 == 1:
        prefix.append(values[0])
    for v in intermediates:
        prefix.extend([v] * rep)
    extra_tail = oracle.teacher_id // 6
    if intermediates and extra_tail:
        prefix.extend([intermediates[-1]] * extra_tail)
    # stochastic echo: half the demos restate one value, chosen by noise_seed
    if rng.random() < 0.5:
        pool = intermediates if intermediates else values[:1]
        prefix.append(pool[oracle.noise_seed % len(pool)])
    tokens = tuple(prefix) + (cfg.separator, values[-1], cfg.stop)
    return Trajectory(tokens, terminal=True)


def make_teacher_ensemble(cfg: TaskConfig, m: int, seed: int) -> list[TeacherOracle]:
    if m < 1:
        raise ConfigError(f"teacher count must be >= 1, got {m}")
    return [TeacherOracle(teacher_id=i, task=cfg, noise_seed=seed + i) for i in range(m)]


def max_demo_len(cfg: TaskConfig, m: int) -> int:
    """Exact length of the longest demonstration the first m teachers can emit.

    Teacher i writes an optional start value (odd i), each of the longest
    chain's intermediates 1 + i % 3 times, i // 6 extra tail repeats, one
    echo token, then separator, answer and stop; see teacher_sample.
    """
    inter = cfg.max_chain_len - 1
    return max(i % 2 + inter * (1 + i % 3) + (i // 6 if inter else 0) + 1 + 3
               for i in range(m))


def uniform_guess_rate(vocab_size: int, t_max: int) -> float:
    """Closed-form success probability of a uniform policy on one query.

    A successful trajectory is any no-stop prefix followed by
    (separator, answer, stop); summing the geometric series over prefix
    lengths 0..t_max-3 gives (1/V^2) * (1 - ((V-1)/V)^(t_max-2)).
    """
    v = float(vocab_size)
    return (1.0 / v**2) * (1.0 - ((v - 1.0) / v) ** (t_max - 2))


# --- vector-space bias testbed ---------------------------------------------

@dataclass(frozen=True)
class BiasTestbedConfig:
    """Testbed where the teacher-bias decomposition is literal vector algebra."""

    dim: int
    b_sys: tuple[float, ...]
    sigma_bias: float

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("testbed dimension must be >= 1")
        if len(self.b_sys) != self.dim:
            raise ConfigError("b_sys length must equal dim")
        if self.sigma_bias < 0:
            raise ConfigError("sigma_bias must be >= 0")

    @property
    def b_sys_sq(self) -> float:
        return float(np.dot(self.b_sys, self.b_sys))


def bias_sq_norms(cfg: BiasTestbedConfig, m: int, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """n draws of the squared ensemble bias ||b_sys + mean of m idiosyncratic draws||^2.

    Idiosyncratic draws are i.i.d. zero-mean with E||b_i||^2 = sigma_bias^2;
    all of them come from one ``(n, m, dim)`` normal draw.
    """
    if m < 1:
        raise InputError(f"ensemble size must be >= 1, got {m}")
    draws = rng.normal(0.0, cfg.sigma_bias / np.sqrt(cfg.dim), size=(n, m, cfg.dim))
    return ((np.asarray(cfg.b_sys) + draws.mean(axis=1)) ** 2).sum(axis=1)
