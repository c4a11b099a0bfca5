"""Contextual tabular softmax policy with exact log-probabilities and scores.

The policy is a logit table indexed by (query id, last-n generated tokens).
A ``ContextInterner`` maps each context to a row; the logits live in one
dense ``(rows, V)`` array, with the matching probabilities, log-probabilities
and sampling cdf refreshed by one vectorized softmax over the rows a write
touched. Rows a policy has never written read ``default_logits``. The
sampler walks the interner's transition map from row to row, so each step's
context is resolved once, and a sampled group keeps the rows of its steps.
Because the softmax is tabular, every gradient used elsewhere in the package is available
in closed form, as a ``RowBlock`` over the rows it touches, and can be checked
against finite differences.

Sums across rows use ``math.fsum``: row numbers depend on the order contexts
were first seen, which differs between a run and its resume, and an exactly
rounded sum keeps resumed runs bit-identical.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InputError, StateError

if TYPE_CHECKING:
    from .tasks import Query

# (query_id, history of the last n generated tokens)
Context = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class Trajectory:
    """A generated token sequence; terminal iff it ended on the stop token."""

    tokens: tuple[int, ...]
    terminal: bool

    def __len__(self) -> int:
        return len(self.tokens)


class RowBlock(NamedTuple):
    """A gradient over the logit table, stored only on the rows it touches.

    ``rows`` are unique row indices of the policy's interner and ``values[i]``
    is the gradient of row ``rows[i]``; every other row is zero.
    """

    rows: np.ndarray
    values: np.ndarray

    def scaled(self, scale: float) -> "RowBlock":
        return RowBlock(self.rows, scale * self.values)

    def sq_norm(self) -> float:
        return math.fsum((self.values * self.values).ravel())


def _unique_inverse(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(rows, return_inverse=True), with about half its call overhead
    on the small index arrays of one group."""
    ordered = np.sort(rows)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    uniq = ordered[keep]
    return uniq, np.searchsorted(uniq, rows)


def sum_blocks(terms: Sequence[tuple[float, RowBlock]]) -> RowBlock:
    """sum_i c_i * block_i over the union of the blocks' rows.

    Each row accumulates its terms in the order given, so the result does
    not depend on how the interner numbered the rows.
    """
    rows = np.concatenate([block.rows for _, block in terms])
    values = np.concatenate([c * block.values for c, block in terms])
    uniq, inv = _unique_inverse(rows)
    out = np.zeros((len(uniq), values.shape[1]))
    np.add.at(out, inv, values)
    return RowBlock(uniq, out)


class ContextInterner:
    """Append-only map from context to row, shared by a policy and its copies.

    It also holds the transition map ``step(row, tok)``, the row of the
    context that follows a row's context once ``tok`` is generated.
    """

    def __init__(self, vocab_size: int, history: int):
        self.vocab_size = vocab_size
        self.history = history
        self.index: dict[Context, int] = {}
        self.contexts: list[Context] = []
        # _next[row][tok] is step(row, tok), or -1 until first asked for
        self._next: list[list[int]] = []

    def row(self, ctx: Context) -> int:
        r = self.index.setdefault(ctx, len(self.contexts))
        if r == len(self.contexts):
            self.contexts.append(ctx)
            self._next.append([-1] * self.vocab_size)
        return r

    def root(self, query_id: int) -> int:
        """Row of a query's first generation step, whose history is empty."""
        return self.row((query_id, ()))

    def step(self, row: int, tok: int) -> int:
        """Row of the context after generating ``tok`` in ``row``'s context:
        the history gains ``tok`` and keeps its last ``history`` tokens."""
        nxt = self._next[row][tok]
        if nxt < 0:
            qid, hist = self.contexts[row]
            hist += (tok,)
            nxt = self.row((qid, hist[max(0, len(hist) - self.history):]))
            self._next[row][tok] = nxt
        return nxt


def _softmax_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # max-shift keeps exp() in range for large logits
    shifted = x - x.max(axis=1, keepdims=True)
    expx = np.exp(shifted)
    total = expx.sum(axis=1, keepdims=True)
    probs = expx / total
    return probs, shifted - np.log(total), np.cumsum(probs, axis=1)


class PolicyParams:
    """Dense logit table plus its per-row distributions.

    Every write refreshes the distributions of the rows it touched, so reads
    are plain array lookups. The table must be treated as read-only while
    rollouts or loss evaluations are in flight; updates happen in a
    single-writer phase.
    """

    _ARRAYS = ("_logits", "_probs", "_logp", "_cdf")

    def __init__(self, vocab_size: int, history: int = 1, frozen: bool = False,
                 default_logits: Sequence[float] | None = None,
                 interner: ContextInterner | None = None):
        if vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {vocab_size}")
        if history < 0:
            raise ConfigError(f"history order must be >= 0, got {history}")
        self.vocab_size = int(vocab_size)
        self.history = int(history)
        if interner is None:
            interner = ContextInterner(self.vocab_size, self.history)
        elif (interner.vocab_size, interner.history) != (self.vocab_size, self.history):
            raise ConfigError("a shared interner must have the policy's vocabulary and history")
        self.interner = interner
        self.frozen = frozen
        for name in self._ARRAYS:
            setattr(self, name, np.empty((0, self.vocab_size)))
        self._written = np.zeros(0, dtype=bool)
        self.default_logits = np.zeros(vocab_size) if default_logits is None else default_logits

    # --- storage -------------------------------------------------------------

    @property
    def default_logits(self) -> np.ndarray:
        return self._default

    @default_logits.setter
    def default_logits(self, values: Sequence[float]) -> None:
        """Logits of every row this policy has not written."""
        row = np.array(values, dtype=np.float64)
        if row.shape != (self.vocab_size,):
            raise InputError("default_logits must have vocab_size entries")
        if not np.all(np.isfinite(row)):
            raise InputError("default_logits entries must be finite")
        self._default = row
        self._default_dist = _softmax_rows(row[None, :])
        self._fill_default(np.flatnonzero(~self._written))

    def _fill_default(self, rows) -> None:
        self._logits[rows] = self._default
        for arr, dist in zip((self._probs, self._logp, self._cdf), self._default_dist):
            arr[rows] = dist

    def _fit(self) -> None:
        """Grow the arrays, by doubling, to cover every interned row."""
        have = len(self._written)
        need = len(self.interner.contexts)
        if need <= have:
            return
        cap = max(need, 2 * have, 16)
        for name in self._ARRAYS:
            grown = np.empty((cap, self.vocab_size))
            grown[:have] = getattr(self, name)
            setattr(self, name, grown)
        self._written = np.concatenate([self._written, np.zeros(cap - have, dtype=bool)])
        self._fill_default(slice(have, cap))

    def _refresh(self, rows) -> None:
        self._probs[rows], self._logp[rows], self._cdf[rows] = _softmax_rows(self._logits[rows])

    def row(self, ctx: Context) -> int:
        r = self.interner.row(ctx)
        self._fit()
        return r

    def rows(self, contexts: Iterable[Context]) -> np.ndarray:
        out = np.fromiter((self.interner.row(ctx) for ctx in contexts), dtype=np.intp)
        self._fit()
        return out

    def trajectory_rows(self, query_id: int,
                        tokens: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(row of each step's context, token array) of one token sequence."""
        if len(tokens) == 0:
            raise InputError("trajectory must be nonempty")
        for tok in tokens:
            if not 0 <= tok < self.vocab_size:
                raise InputError(f"token {tok} out of range [0, {self.vocab_size})")
        interner = self.interner
        rows = [interner.root(query_id)]
        for tok in tokens[:-1]:
            rows.append(interner.step(rows[-1], tok))
        self._fit()
        return np.array(rows, dtype=np.intp), np.array(tokens, dtype=np.intp)

    def written_contexts(self) -> list[Context]:
        """Contexts this policy has written, in row order."""
        return [self.interner.contexts[r] for r in np.flatnonzero(self._written)]

    # --- reads ---------------------------------------------------------------

    def logits(self, ctx: Context) -> np.ndarray:
        r = self.interner.index.get(ctx)
        if r is None or r >= len(self._written):
            return self._default
        return self._logits[r]

    # row() may grow the arrays, so it runs before the array is read

    def probs(self, ctx: Context) -> np.ndarray:
        r = self.row(ctx)
        return self._probs[r]

    def log_probs(self, ctx: Context) -> np.ndarray:
        r = self.row(ctx)
        return self._logp[r]

    def sampling_cdf(self, ctx: Context) -> np.ndarray:
        r = self.row(ctx)
        return self._cdf[r]

    def logp_at(self, rows: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """log pi(tokens[i] | rows[i]) for every i."""
        self._fit()
        return self._logp[rows, tokens]

    # --- writes --------------------------------------------------------------

    def set_logits(self, ctx: Context, values: Sequence[float]) -> None:
        if self.frozen:
            raise StateError("cannot mutate a frozen policy snapshot")
        row = np.asarray(values, dtype=np.float64)
        if row.shape != (self.vocab_size,):
            raise InputError(f"logit row must have shape ({self.vocab_size},), got {row.shape}")
        if not np.all(np.isfinite(row)):
            raise InputError("logit entries must be finite")
        r = self.row(ctx)
        self._logits[r] = row
        self._written[r] = True
        self._refresh(slice(r, r + 1))

    def apply_update(self, grad: RowBlock, scale: float) -> None:
        """theta[row] += scale * grad[row] for every row in grad."""
        if self.frozen:
            raise StateError("cannot mutate a frozen policy snapshot")
        self._fit()
        self._logits[grad.rows] += scale * grad.values
        self._written[grad.rows] = True
        self._refresh(grad.rows)

    @contextmanager
    def perturbed(self, ctx: Context, tok: int, delta: float) -> Iterator["PolicyParams"]:
        """Add ``delta`` to one logit inside the block; the row is restored
        bit-exactly on exit. This is the finite-difference probe."""
        if self.frozen:
            raise StateError("cannot mutate a frozen policy snapshot")
        r = self.row(ctx)
        saved = self._logits[r, tok]
        self._logits[r, tok] = saved + delta
        self._refresh(slice(r, r + 1))
        try:
            yield self
        finally:
            self._logits[r, tok] = saved
            self._refresh(slice(r, r + 1))

    def copy(self) -> "PolicyParams":
        """Unfrozen copy sharing this policy's interner; it holds only the used rows."""
        out = PolicyParams.__new__(PolicyParams)
        out.__dict__.update(self.__dict__)
        used = len(self.interner.contexts)
        for name in self._ARRAYS + ("_written",):
            setattr(out, name, getattr(self, name)[:used].copy())
        out.frozen = False
        return out

    def snapshot(self) -> "PolicyParams":
        """Frozen copy; log-probs under it are bit-identical across calls."""
        snap = self.copy()
        snap.frozen = True
        return snap


def translate_rows(params: PolicyParams, other: PolicyParams, rows: np.ndarray) -> np.ndarray:
    """The rows of ``other`` holding the contexts of ``params``' rows."""
    if other.interner is params.interner:
        other._fit()
        return rows
    return other.rows(params.interner.contexts[r] for r in rows)


def step_contexts(query_id: int, tokens: Sequence[int], history: int) -> list[Context]:
    """Conditioning context for every generation step of a token sequence."""
    return [(query_id, tuple(tokens[max(0, t - history):t])) for t in range(len(tokens))]


class StepRows(NamedTuple):
    """The row and the token of every step of a trajectory collection,
    concatenated in order; the rows index ``interner``.

    One ``(2, steps)`` int32 array, since a bench holds thousands of them.
    """

    interner: ContextInterner
    steps: np.ndarray


def weighted_score(params: PolicyParams, rows: np.ndarray, tokens: np.ndarray,
                   weights: np.ndarray) -> RowBlock:
    """sum_t weights[t] * (onehot(tokens[t]) - pi(. | rows[t])), gathered by row.

    The block's rows are exactly the unique given rows, in sorted order.
    """
    uniq, inv = _unique_inverse(rows)
    v = params.vocab_size
    hits = np.bincount(inv * v + tokens, weights=weights, minlength=len(uniq) * v)
    mass = np.bincount(inv, weights=weights, minlength=len(uniq))
    return RowBlock(uniq, hits.reshape(-1, v) - mass[:, None] * params._probs[uniq])


def log_prob(params: PolicyParams, query: "Query", traj: Trajectory) -> float:
    """Autoregressive log-probability of ``traj`` given the query, in nats."""
    rows, tokens = params.trajectory_rows(query.query_id, traj.tokens)
    return float(params.logp_at(rows, tokens).sum())


def score(params: PolicyParams, query: "Query", traj: Trajectory) -> RowBlock:
    """Exact gradient of log_prob w.r.t. the logit table.

    Per visited context the softmax score is 1{a = a_t} - pi(a | ctx),
    accumulated over the steps that hit that context.
    """
    rows, tokens = params.trajectory_rows(query.query_id, traj.tokens)
    return weighted_score(params, rows, tokens, np.ones(len(rows)))


def score_sq_norms(params: PolicyParams, rows: np.ndarray, tokens: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """||score(traj_i)||^2 of every trajectory of a concatenated collection.

    One bincount over (trajectory, row) keys gives the entries ``score``
    gives per trajectory; only the order of the final sums differs.
    """
    span = int(rows.max()) + 1
    owner = np.repeat(np.arange(len(lengths)), lengths)
    keys, pair = _unique_inverse(owner * span + rows)
    v = params.vocab_size
    hits = np.bincount(pair * v + tokens, minlength=len(keys) * v).reshape(-1, v)
    values = hits - np.bincount(pair, minlength=len(keys))[:, None] * params._probs[keys % span]
    return np.bincount(keys // span, weights=(values * values).sum(axis=1),
                       minlength=len(lengths))


def _sample(params: PolicyParams, query_id: int, n: int, rng: np.random.Generator,
            stop_token: int, t_max: int) -> tuple[list[Trajectory], list[int], list[int]]:
    """n autoregressive samples, one ``rng.random()`` draw per token.

    Each token is the first whose cdf entry exceeds the draw, clamped to the
    vocabulary for a draw above a rounded cdf's last entry. A sample stops on
    ``stop_token`` or after t_max tokens. Returns the samples and, over all of
    them in order, every step's row and token.
    """
    interner = params.interner
    successors = interner._next
    cdf, fitted = params._cdf, len(params._written)
    default = params._default_dist[2][0].tolist()
    cdf_lists: dict[int, list[float]] = {}
    last = params.vocab_size - 1
    draw = rng.random
    root = interner.root(query_id)
    rows: list[int] = []
    tokens: list[int] = []
    samples: list[Trajectory] = []
    for _ in range(n):
        start = len(tokens)
        row, tok = root, -1
        for t in range(t_max):
            if t:
                nxt = successors[row][tok]
                row = nxt if nxt >= 0 else interner.step(row, tok)
            c = cdf_lists.get(row)
            if c is None:
                # rows interned since the arrays last grew are unwritten
                c = cdf_lists[row] = cdf[row].tolist() if row < fitted else default
            tok = bisect_right(c, draw())
            if tok > last:
                tok = last
            rows.append(row)
            tokens.append(tok)
            if tok == stop_token:
                break
        samples.append(Trajectory(tuple(tokens[start:]), terminal=tok == stop_token))
    params._fit()
    return samples, rows, tokens


def sample_trajectory(params: PolicyParams, query: "Query", rng: np.random.Generator,
                      *, stop_token: int, t_max: int) -> Trajectory:
    """One autoregressive sample; stops on ``stop_token`` or after t_max tokens."""
    return _sample(params, query.query_id, 1, rng, stop_token, t_max)[0][0]


def sample_group_rows(params: PolicyParams, query: "Query", k: int, rng: np.random.Generator,
                      *, stop_token: int, t_max: int) -> tuple[list[Trajectory], StepRows]:
    """k independent rollouts for one query and the rows of their steps.

    Pure in (params, query, k, seed); the draws are those of k successive
    ``sample_trajectory`` calls.
    """
    if k < 2:
        raise ConfigError(f"group size must be >= 2, got {k}")
    if not 0 <= stop_token < params.vocab_size:
        raise ConfigError(f"stop token {stop_token} outside vocabulary")
    if t_max < 1:
        raise ConfigError(f"t_max must be >= 1, got {t_max}")
    samples, rows, tokens = _sample(params, query.query_id, k, rng, stop_token, t_max)
    return samples, StepRows(params.interner, np.array((rows, tokens), dtype=np.int32))


def mean_step_entropy(params: PolicyParams, rows: np.ndarray) -> float:
    """Mean categorical entropy (nats) over the unique given rows."""
    rows = np.unique(rows)
    if rows.size == 0:
        raise InputError("mean_step_entropy needs at least one visited context")
    ent = -(params._probs[rows] * params._logp[rows]).sum(axis=1)
    return math.fsum(ent) / len(rows)


def kl_gradient(params: PolicyParams, ref: PolicyParams,
                rows: np.ndarray) -> tuple[float, RowBlock]:
    """Mean exact KL(pi_theta || pi_ref) over the given unique rows, and its gradient."""
    if (params.vocab_size, params.history) != (ref.vocab_size, ref.history):
        raise ConfigError("policy and reference differ in vocabulary or history order")
    if rows.size == 0:
        raise InputError("kl_to_reference needs at least one visited context")
    ref_rows = translate_rows(params, ref, rows)
    probs = params._probs[rows]
    diff = params._logp[rows] - ref._logp[ref_rows]
    kl = (probs * diff).sum(axis=1)
    inv = 1.0 / len(rows)
    return math.fsum(kl) * inv, RowBlock(rows, inv * probs * (diff - kl[:, None]))


def kl_to_reference(params: PolicyParams, ref: PolicyParams, rows: np.ndarray) -> float:
    """Mean exact KL(pi_theta || pi_ref) over the unique given rows."""
    return kl_gradient(params, ref, np.unique(rows))[0]
