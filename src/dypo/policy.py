"""Contextual tabular softmax policy with exact log-probabilities and scores.

The policy is a logit table indexed by (query id, last-n generated tokens).
A ``ContextInterner`` maps each context to a row; the logits live in one
dense ``(rows, V)`` array, with the matching probabilities, log-probabilities
and sampling cdf refreshed by one vectorized softmax over the rows a write
touched. Rows a policy has never written read ``default_logits``, fixed
when it is built, and only ``_fit`` grows the arrays: a copy, a snapshot
and a probe table (``with_rows``) are fitted copies. The
sampler walks the interner's transition map, a ``(rows, V)`` array, from row
to row: ``sample_lockstep`` advances every trajectory of a batch of groups
one position at a time, so each step's context is resolved once, by array
lookups, and the rollouts keep the rows of their steps.
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
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

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
        """The exactly rounded sum of squares: inf past the float range, nan at a nan."""
        try:
            return math.fsum((self.values * self.values).ravel().tolist())
        except OverflowError:  # finite squares whose sum is past the float range
            return math.inf


def _unique(rows: np.ndarray) -> np.ndarray:
    """np.unique(rows) by one sort and one comparison, for rows of any range:
    with numpy 2.4, as fast as np.unique on 20 rows, ~4x faster on 200 and
    ~8x on 5000 (``timeit``, int64 rows, Xeon)."""
    ordered = np.sort(rows)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(keys, return_inverse=True) of non-negative integer keys, as every
    caller's are: rows, or ``owner * span + row``. Keys over a range of at most 32
    slots a key plus 1024 are numbered by a table over it, 9 bytes a slot: flags
    give the sorted unique keys and a slot array their numbers. Sparser keys are
    sorted and searched, as zeroing the table would cost more. On the perfbench
    keys (seed 1) the table is ~4x faster on ``variance`` and ~3x on ``gradcheck``;
    on ``train-wide``, whose keys fall on both sides, the rule is within 1% of the
    faster path call by call (``timeit``, 2-vCPU Xeon)."""
    top = int(keys.max(initial=-1)) + 1
    if top > 32 * len(keys) + 1024:
        uniq = _unique(keys)
        return uniq, np.searchsorted(uniq, keys)
    seen = np.zeros(top, dtype=bool)
    seen[keys] = True
    uniq = seen.nonzero()[0]
    slot = np.empty(top, dtype=np.intp)
    slot[uniq] = np.arange(len(uniq))
    return uniq.astype(keys.dtype, copy=False), slot.take(keys)


def sum_blocks(terms: Sequence[tuple[float, RowBlock]]) -> RowBlock:
    """sum_i c_i * block_i over the union of the blocks' rows.

    Each row accumulates its terms in the order given, so the result does
    not depend on how the interner numbered the rows. Keys of ``KeyedBlocks``
    sum the same way, owner by owner.
    """
    return sum_rows(np.concatenate([block.rows for _, block in terms]),
                    np.concatenate([c * block.values for c, block in terms]))[0]


def sum_rows(rows: np.ndarray, values: np.ndarray) -> tuple[RowBlock, np.ndarray]:
    """Each unique row of ``rows`` with the sum of its ``values`` rows,
    added into zeros in the order given: bit for bit ``np.add.at`` into
    zeros, by one flat ``np.bincount`` over (unique row, column) slots.
    Also where each of ``rows`` falls among the unique rows."""
    uniq, inv = _unique_inverse(rows)
    v = values.shape[1]
    sums = np.bincount((inv[:, None] * v + np.arange(v)).ravel(), weights=values.ravel(),
                       minlength=len(uniq) * v)
    # an empty bincount is integer whatever its weights
    return RowBlock(uniq, sums.reshape(-1, v).astype(np.float64, copy=False)), inv


class KeyedBlocks(NamedTuple):
    """The row blocks of ``count`` owners (the groups of a batch) in one array.

    ``values[i]`` is the gradient of one owner at one row, which
    ``owner_rows`` reads from ``keys[i]``. The keys are unique and sorted,
    so each owner's rows are contiguous and in row order, as in its own
    ``RowBlock``; an owner may have none.
    """

    keys: np.ndarray
    values: np.ndarray
    span: int
    count: int

    def owner_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Each entry's owner and row: a key is ``owner * span + row``."""
        return np.divmod(self.keys, self.span)

    def blocks(self) -> list[RowBlock]:
        """Every owner's ``RowBlock``, in owner order."""
        owner, rows = self.owner_rows()
        bounds = np.searchsorted(owner, np.arange(self.count + 1)).tolist()
        return [RowBlock(rows[lo:hi], self.values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


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
        # _next[row, tok] is step(row, tok), or -1 until first asked for; it
        # grows by doubling, so it may have more rows than there are contexts
        self._next = np.full((16, vocab_size), -1, dtype=np.intp)

    def row(self, ctx: Context) -> int:
        r = self.index.setdefault(ctx, len(self.contexts))
        if r == len(self.contexts):
            self.contexts.append(ctx)
            if r == len(self._next):
                grown = np.full((2 * r, self.vocab_size), -1, dtype=np.intp)
                grown[:r] = self._next
                self._next = grown
        return r

    def root(self, query_id: int) -> int:
        """Row of a query's first generation step, whose history is empty."""
        return self.row((query_id, ()))

    def step(self, row: int, tok: int) -> int:
        """Row of the context after generating ``tok`` in ``row``'s context:
        the history gains ``tok`` and keeps its last ``history`` tokens."""
        nxt = self._next.item(row, tok)
        if nxt < 0:
            qid, hist = self.contexts[row]
            hist += (tok,)
            nxt = self.row((qid, hist[max(0, len(hist) - self.history):]))
            self._next[row, tok] = nxt
        return nxt


def _softmax_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # max-shift keeps exp() in range for large logits
    shifted = x - x.max(axis=1, keepdims=True)
    expx = np.exp(shifted)
    total = expx.sum(axis=1, keepdims=True)
    probs = expx / total
    return probs, shifted - np.log(total), np.cumsum(probs, axis=1)


@np.errstate(over="ignore", invalid="ignore")  # a row it refuses may overflow
def _check_logit_rows(rows: np.ndarray, message: str) -> None:
    """Refuse, by ``InputError(message)``, logit rows with a non-finite entry or a
    max - min spread past the float range, which the softmax's max-shift overflows."""
    spread = np.maximum.reduce(rows, axis=1) - np.minimum.reduce(rows, axis=1)
    if not np.logical_and.reduce(np.isfinite(spread)):
        raise InputError(message)


class PolicyParams:
    """Dense logit table plus its per-row distributions.

    Every write refreshes the distributions of the rows it touched, so reads
    are plain array lookups. The table must be treated as read-only while
    rollouts or loss evaluations are in flight; updates happen in a
    single-writer phase.
    """

    _ARRAYS = ("_logits", "_probs", "_logp", "_cdf")

    def __init__(self, vocab_size: int, history: int = 1,
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
        self.frozen = False
        for name in self._ARRAYS:
            setattr(self, name, np.empty((0, self.vocab_size)))
        self._written = np.zeros(0, dtype=bool)
        self._generation = 0
        row = np.array(np.zeros(vocab_size) if default_logits is None else default_logits,
                       dtype=np.float64)
        if row.shape != (self.vocab_size,):
            raise InputError("default_logits must have vocab_size entries")
        _check_logit_rows(row[None, :], "default_logits entries must be finite, "
                          "with a max - min spread inside the float range")
        row.flags.writeable = False
        self._default = row
        self._default_dist = _softmax_rows(row[None, :])

    # --- storage -------------------------------------------------------------

    @property
    def default_logits(self) -> np.ndarray:
        """Logits of every row this policy has not written, fixed at construction."""
        return self._default

    def _fit(self) -> None:
        """Grow the arrays, by doubling, to cover every interned row: the one
        growth path of a policy and its copies. New rows are unwritten."""
        have = len(self._written)
        need = len(self.interner.contexts)
        if need <= have:
            return
        cap = max(need, 2 * have, 16)
        for name, default in zip(self._ARRAYS, (self._default, *self._default_dist)):
            grown = np.empty((cap, self.vocab_size))
            grown[:have] = getattr(self, name)
            grown[have:] = default
            setattr(self, name, grown)
        self._written = np.concatenate([self._written, np.zeros(cap - have, dtype=bool)])

    def _refresh(self, rows) -> None:
        self._probs[rows], self._logp[rows], self._cdf[rows] = _softmax_rows(self._logits[rows])
        self._generation += 1

    @property
    def generation(self) -> int:
        """The count of writes: this policy's log-probs stand while it does."""
        return self._generation

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
        _check_logit_rows(row[None, :], "logit entries must be finite, with a max - min "
                          "spread inside the float range")
        r = self.row(ctx)
        self._logits[r] = row
        self._written[r] = True
        self._refresh(slice(r, r + 1))

    @np.errstate(over="ignore", invalid="ignore")  # an update it refuses may overflow
    def apply_update(self, grad: RowBlock, scale: float) -> None:
        """theta[row] += scale * grad[row] for every row in grad; an update leaving a row
        non-finite, or too wide for its softmax's max-shift, is refused before any write."""
        if self.frozen:
            raise StateError("cannot mutate a frozen policy snapshot")
        self._fit()
        updated = self._logits[grad.rows] + scale * grad.values
        _check_logit_rows(updated, "the update would leave a row of logits non-finite or too wide")
        self._logits[grad.rows] = updated
        self._written[grad.rows] = True
        self._refresh(grad.rows)

    def _copied(self, extra: Sequence[int]) -> "PolicyParams":
        """The one copy path: an unfrozen copy sharing this policy's interner
        that holds its used rows, then row ``extra[i]`` again, unwritten, for
        each i. This policy is fitted first, so each array is copied once;
        its values, written rows and generation do not change."""
        self._fit()
        used = len(self.interner.contexts)
        size = used + len(extra)
        out = PolicyParams.__new__(PolicyParams)
        out.__dict__.update(self.__dict__)
        for name in self._ARRAYS:
            table, copied = getattr(self, name), np.empty((size, self.vocab_size))
            copied[:used], copied[used:] = table[:used], table[extra]
            setattr(out, name, copied)
        out._written = np.zeros(size, dtype=bool)
        out._written[:used] = self._written[:used]
        out.frozen = False
        return out

    def copy(self) -> "PolicyParams":
        """Unfrozen copy sharing this policy's interner, fitted to it."""
        return self._copied([])

    def snapshot(self) -> "PolicyParams":
        """Frozen copy; log-probs under it are bit-identical across calls."""
        snap = self.copy()
        snap.frozen = True
        return snap

    def with_rows(self, rows: np.ndarray, shift: np.ndarray | None = None) -> "PolicyParams":
        """A snapshot with one extra row per entry of ``rows``, numbered on
        from the interner's last row: extra row i is row ``rows[i]``, its
        logits moved by ``shift[i]`` and re-softmaxed when a shift is given.

        Extra rows belong to no context and are unwritten, so only reads by
        row see them. The table is stale once the interner grows: the next
        context interned takes extra row 0's number, so a reader that keeps
        it (``gradcheck.Probes``) checks the interner's size before each use.
        This policy is not changed.
        """
        out = self._copied(rows)
        out.frozen = True
        if shift is not None:
            used = len(self.interner.contexts)
            out._logits[used:] += shift
            out._refresh(slice(used, None))
        return out


def check_shared_interner(params: PolicyParams, ref: PolicyParams) -> None:
    """A run has one interner, so a row names the same context in every policy
    of the run; a reference with an interner of its own is an input error."""
    if ref.interner is not params.interner:
        raise InputError("policy and reference must share one interner")


class KeyIndex:
    """Where the steps of several owners fall among their unique (owner, row) keys.

    Step t is owner ``owner[t]``'s step at row ``rows[t]`` with token
    ``tokens[t]``. ``keys`` are the unique keys of the steps, sorted, split
    into ``owner`` and ``rows``; step t falls on key ``inv[t]``, and on
    entry ``slots[t] = inv[t] * V + token`` of the flattened ``(keys, V)``
    block. A key is ``owner * span + row``, a layout this module alone
    knows: this class encodes it and ``KeyedBlocks.owner_rows`` decodes it.
    It depends on no parameter, so a batch builds it once for all its
    evaluations.
    """

    def __init__(self, owner: np.ndarray, rows: np.ndarray, tokens: np.ndarray, count: int,
                 vocab_size: int):
        self.span = int(rows.max()) + 1
        # one owner: the keys are the rows
        self.keys, self.inv = _unique_inverse(rows if count == 1 else owner * self.span + rows)
        self.owner, self.rows = np.divmod(self.keys, self.span)
        self.slots = self.inv * vocab_size + tokens
        self.count = count

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray | slice]:
        """The keys' unique rows, and where each key's row falls among them:
        owners that read the same rows (the copies of a tiled batch) read
        each once."""
        if self.count == 1:  # one owner: its keys are its unique rows, in order
            return self.rows, slice(None)
        return _unique_inverse(self.rows)

    @cached_property
    def owner_means(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """For means over each owner's n keys: where each owner's keys end,
        1/n per owner, and 1/n per key as a column."""
        sizes = np.bincount(self.owner, minlength=self.count)
        if not sizes.all():
            raise InputError("a mean over an owner's keys needs at least one key")
        inv = 1.0 / sizes
        return list(accumulate(sizes.tolist())), inv, inv[self.owner][:, None]


def keyed_score(params: PolicyParams, index: KeyIndex, weights: np.ndarray,
                keep: np.ndarray | None = None) -> KeyedBlocks:
    """sum_t weights[t] * (onehot(tokens[t]) - pi(. | row)) per key of ``index``.

    Each key sums its steps in step order, so an owner's entries do not
    depend on the other owners of the batch. With ``keep``, a step mask whose
    dropped steps all weigh 0, only the keys of kept steps are returned.
    """
    v = params.vocab_size
    n = len(index.keys)
    params._fit()
    values = np.bincount(index.slots, weights=weights, minlength=n * v).reshape(-1, v)
    mass = np.bincount(index.inv, weights=weights, minlength=n)
    # in place: each (keys, V) result would be fresh pages
    drift = params._probs[index.rows]
    drift *= mass[:, None]
    values -= drift
    if keep is None:
        return KeyedBlocks(index.keys, values, index.span, index.count)
    kept = np.zeros(n, dtype=bool)
    kept[index.inv[keep]] = True
    return KeyedBlocks(index.keys[kept], values[kept], index.span, index.count)


def score_sq_norms(params: PolicyParams, rows: np.ndarray, tokens: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """||score(traj_i)||^2 of every trajectory of a concatenated collection.

    One keyed score pass with the trajectories as owners gives each
    trajectory's unit-weight score; only the order of the final sums differs
    from scoring them one by one.
    """
    owner = np.repeat(np.arange(len(lengths)), lengths)
    index = KeyIndex(owner, rows, tokens, len(lengths), params.vocab_size)
    values = keyed_score(params, index, np.ones(len(rows))).values
    values *= values
    return np.bincount(index.owner, weights=values.sum(axis=1), minlength=len(lengths))


def sample_trajectory(params: PolicyParams, query: "Query", rng: np.random.Generator,
                      *, stop_token: int, t_max: int) -> Trajectory:
    """One autoregressive sample, one ``rng.random()`` draw per token.

    Each token is the first whose cdf entry exceeds the draw, clamped to the
    vocabulary for a draw above a rounded cdf's last entry. The sample stops
    on ``stop_token`` or after t_max tokens. The lab's one caller is the
    certifier's failure draw (``gradcheck._sample_failures``): for a few
    trajectories this scalar path is faster than ``sample_lockstep``, which
    samples everything else.
    """
    interner = params.interner
    cdf, fitted = params._cdf, len(params._written)
    default = params._default_dist[2][0]
    last = params.vocab_size - 1
    draw = rng.random
    row = interner.root(query.query_id)
    tokens: list[int] = []
    for t in range(t_max):
        if t:
            nxt = interner._next.item(row, tok)  # read anew: step() may grow the map
            row = nxt if nxt >= 0 else interner.step(row, tok)
        # rows interned since the arrays last grew are unwritten
        tok = bisect_right(cdf[row] if row < fitted else default, draw())
        if tok > last:
            tok = last
        tokens.append(tok)
        if tok == stop_token:
            break
    params._fit()
    return Trajectory(tuple(tokens), terminal=tok == stop_token)


class Rollouts(NamedTuple):
    """Trajectories sampled together, in the layout every group reads:
    ``steps`` is the ``(2, total_steps)`` intp array of every step's
    context row and token, trajectory by trajectory, so trajectory i's
    ``lengths[i]`` steps follow those of trajectories 0..i-1;
    ``terminal[i]`` is whether it ended on the stop token."""

    steps: np.ndarray
    lengths: np.ndarray
    terminal: np.ndarray


def sample_lockstep(params: PolicyParams, query_ids: Sequence[int], k: int,
                    rng: np.random.Generator, *, stop_token: int, t_max: int) -> Rollouts:
    """k autoregressive samples for each query, advanced together position
    by position; trajectory i belongs to ``query_ids[i // k]``.

    At each position the running trajectories take, in order, one
    ``rng.random(live)`` draw, and a token is the first cdf entry above its
    draw, clamped to V - 1: the ``argmin`` of the "at or below" flags with
    the last one cleared, as a cdf never decreases. A trajectory stops on
    ``stop_token`` or after t_max tokens. Roots are interned in first-seen
    order, later first visits position by position in trajectory order; the
    cdf and map views are taken again only after them. The steps come back
    trajectory by trajectory (``Rollouts``).
    """
    if k < 2:
        raise ConfigError(f"group size must be >= 2, got {k}")
    if not 0 <= stop_token < params.vocab_size:
        raise ConfigError(f"stop token {stop_token} outside vocabulary")
    if t_max < 1:
        raise ConfigError(f"t_max must be >= 1, got {t_max}")
    interner = params.interner
    v = params.vocab_size
    n = len(query_ids) * k
    roots = dict.fromkeys(query_ids)  # first-seen order
    for q in roots:
        roots[q] = interner.root(q)
    row = np.repeat(np.fromiter(map(roots.__getitem__, query_ids), np.intp, len(query_ids)), k)
    live = np.arange(n)
    params._fit()
    cdf, nxt = params._cdf, interner._next.ravel()
    drawn = []  # per position: the running trajectories and each step's row * V + token
    for t in range(t_max):  # each position one pass over the running trajectories' arrays
        below = cdf.take(row, axis=0) <= rng.random((len(live), 1))
        below[:, -1] = False  # so a draw at or above the last entry takes V - 1
        tok = below.argmin(axis=1)
        key = row * v + tok
        drawn.append((live, key))
        going = tok != stop_token
        live, key = live[going], key[going]
        if t + 1 == t_max or len(live) == 0:
            break
        row = nxt.take(key)
        if np.minimum.reduce(row) < 0:  # first visits: intern the new contexts, then cover them
            for i in np.flatnonzero(row < 0).tolist():
                row[i] = interner.step(*divmod(int(key[i]), v))
            params._fit()
            cdf, nxt = params._cdf, interner._next.ravel()
    traj, keys = (np.concatenate(part) for part in zip(*drawn))
    # a stable sort of the position-major draws puts each trajectory's steps together
    steps = np.empty((2, len(traj)), dtype=np.intp)
    np.divmod(keys.take(np.argsort(traj, kind="stable")), v, out=(steps[0], steps[1]))
    lengths = np.bincount(traj, minlength=n)
    ends = np.cumsum(lengths)
    return Rollouts(steps, lengths, steps[1, ends - 1] == stop_token)


def mean_step_entropy(params: PolicyParams, rows: np.ndarray) -> float:
    """Mean categorical entropy (nats) over the unique given rows."""
    rows = _unique(rows)
    if rows.size == 0:
        raise InputError("mean_step_entropy needs at least one visited context")
    ent = -(params._probs[rows] * params._logp[rows]).sum(axis=1)
    return math.fsum(ent.tolist()) / len(rows)


class OwnerKL(NamedTuple):
    """Each owner's mean exact KL(pi_theta || pi_ref) over its keys of a
    ``KeyIndex`` (``value``), and the terms it was summed from, which its
    gradient reads: per ``distinct`` row of the index, its row of pi_theta
    (``probs``), of log pi_theta - log pi_ref (``diff``), and its KL (``kl``)."""

    value: np.ndarray
    probs: np.ndarray
    diff: np.ndarray
    kl: np.ndarray


def owner_kl(params: PolicyParams, ref: PolicyParams, index: KeyIndex) -> OwnerKL:
    """Each owner's mean exact KL(pi_theta || pi_ref) over its rows of ``index``.

    Every one of the index's owners needs at least one row. Each distinct
    row's term is computed once and gathered per key, bit for bit the term
    computed per key, and each owner's KL is an exactly rounded ``math.fsum``
    over its keys' terms.
    """
    check_shared_interner(params, ref)
    ends, inv, _ = index.owner_means
    params._fit()
    ref._fit()
    rows, at = index.distinct
    probs = params._probs[rows]
    diff = params._logp[rows] - ref._logp[rows]
    kl = (probs * diff).sum(axis=1)
    # fsum over slices of a list, not of the array: ~3x faster for 180 owners of 7
    # rows (timeit, numpy 2.4, Xeon), and exactly rounded either way
    terms = kl[at].tolist()
    sums = [math.fsum(terms[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    return OwnerKL(np.array(sums) * inv, probs, diff, kl)


def kl_gradient(index: KeyIndex, kl: OwnerKL) -> np.ndarray:
    """The gradient of each owner's mean KL, ``owner_kl`` over ``index``, at each of its keys."""
    at = index.distinct[1]
    return index.owner_means[2] * kl.probs[at] * (kl.diff[at] - kl.kl[at][:, None])
