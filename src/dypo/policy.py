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

Sums across rows are exactly rounded (``math.fsum``, or ``exact_sum`` for
long ones): row numbers depend on the order contexts were first seen, which
differs between a run and its resume, and an exactly rounded sum keeps
resumed runs bit-identical.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
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


class memo:
    """``functools.cached_property`` without the lock Python 3.11 takes on each
    first read: the value is stored in the instance, where later reads find it."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.func(obj))


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
        """The exactly rounded sum of squares: inf past the float range, nan at
        a nan. Up to 600 entries it is ``math.fsum`` over a list; above, the
        same bits from per-exponent partials, with no per-entry list
        (``exact_sum``): 52.3 -> 22.0 µs at 1640 entries, about even at 600,
        and slower below, 13.9 against 7.9 µs at 280 (``timeit``, 2-vCPU Xeon)."""
        try:
            return exact_sum((self.values * self.values).ravel())
        except OverflowError:  # finite squares whose sum is past the float range
            return math.inf


# exact_sum's size rule (see RowBlock.sq_norm): up to this many entries a listed fsum is faster
_LISTED_SUM_MAX = 600


def exact_sum(values: np.ndarray) -> float:
    """``math.fsum(values.tolist())``, bit for bit, of a 1-D float64 array.

    Up to ``_LISTED_SUM_MAX`` entries, or at a non-finite one, it is that
    call. Above, no per-entry list is built: each entry's 53-bit significand
    splits into a high and a low half (27 and 26 bits) at its exponent
    (``np.frexp``), two ``np.bincount``s sum the halves per exponent, exact
    as integers below 2**53 (fewer than 2**26 entries), and ``math.fsum``
    adds the few scaled partials. Their sum is the entries' exact sum, whose
    exactly rounded value is unique, so the bits match by construction. An
    entry of 2**990 or more, which could overflow a partial, a total of zero
    (``fsum`` decides the sign of a zero) or a non-finite one take the list.
    """
    if values.size <= _LISTED_SUM_MAX or values.size >= 2**26:
        return math.fsum(values.tolist())
    mantissa, exponent = np.frexp(values)
    low, top = int(np.minimum.reduce(exponent)), int(np.maximum.reduce(exponent))
    if top <= 990:
        whole = mantissa * 2.0**53  # an integer of at most 53 bits
        high = np.floor(whole * 2.0**-26)  # its high and low halves, exactly
        rest = whole - high * 2.0**26
        slot, scale = exponent - low, np.arange(low - 53, top - 52)
        partials = np.concatenate([np.ldexp(np.bincount(slot, weights=high), scale + 26),
                                   np.ldexp(np.bincount(slot, weights=rest), scale)])
        try:
            total = math.fsum(partials.tolist())
        except (OverflowError, ValueError):  # inf - inf, from an inf or nan entry
            total = 0.0
        if total and math.isfinite(total):
            return total
    return math.fsum(values.tolist())


def _unique(rows: np.ndarray) -> np.ndarray:
    """np.unique(rows) by one sort and one comparison, for rows of any range:
    with numpy 2.4, as fast as np.unique on 20 rows, ~4x faster on 200 and
    ~8x on 5000 (``timeit``, int64 rows, Xeon)."""
    ordered = np.sort(rows)
    keep = np.empty(ordered.size, dtype=bool)
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
    top = int(np.maximum.reduce(keys, initial=-1)) + 1
    if top > 32 * keys.size + 1024:
        uniq = _unique(keys)
        return uniq, np.searchsorted(uniq, keys)
    seen = np.zeros(top, dtype=bool)
    seen[keys] = True
    uniq = seen.nonzero()[0]
    slot = np.empty(top, dtype=np.intp)
    slot[uniq] = np.arange(uniq.size)
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


def _grown(table: np.ndarray, fill: int) -> np.ndarray:
    """``table`` with twice its rows, the new ones all ``fill``."""
    grown = np.full((2 * len(table), *table.shape[1:]), fill, dtype=table.dtype)
    grown[:len(table)] = table
    return grown


class ContextInterner:
    """Append-only map from context to row, shared by a policy and its copies.

    It also holds the transition map ``step(row, tok)``, the row of the
    context that follows a row's context once ``tok`` is generated. That
    row depends only on what the context keeps once a token is added: its
    query id and its last ``history - 1`` tokens, which name the row's
    *class*. The map is a ``(rows, V)`` table (``_next``), which the sampler
    reads with one take a position, backed by a ``(classes, V)`` one
    (``_class_next``), both -1 where a transition is not known yet and both
    growing by doubling. A row joins its class at its first transition and
    copies the class's known transitions then; a transition the class learns
    later is one class-table lookup in ``step``, and only a never-seen
    (class, token) interns a context. At the ``train-wide`` sizes that is
    ~2.3k contexts interned against ~18.7k first transitions over 500 steps.
    A row interned by ``row`` alone, as the certifier's are, has no class
    until it is stepped from (class 0 is no row's). A learned transition is
    not written to the class's other rows: on the certifier's many small
    tables that write cost ~3% of ``make_instance`` (``timeit``). The classes
    only cache transitions, so contexts are interned in the same order as
    without them.
    """

    def __init__(self, vocab_size: int, history: int):
        self.vocab_size = vocab_size
        self.history = history
        # what a history keeps of its tokens, and what a class keeps, one fewer
        self._keep = slice(-history, None) if history else slice(0)
        self._kept_by_class = slice(1 - history, None) if history > 1 else slice(0)
        self.index: dict[Context, int] = {}
        self.contexts: list[Context] = []
        self.roots: dict[int, int] = {}  # query id -> its root row, as ``root`` found it
        # (query id, tokens) -> the (2, n) rows and tokens of a walk from the query's
        # root, for a caller that walks the same ones again (sft_pass's demonstrations)
        self.walked: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        self._next = np.full((16, vocab_size), -1, dtype=np.intp)
        self._class = np.zeros(16, dtype=np.intp)  # each row's class, or 0
        self._classes: dict[Context, int] = {}  # (query id, kept tokens) -> class
        self._kept: list[Context] = [(-1, ())]  # each class's (query id, kept tokens)
        self._class_next = np.full((16, vocab_size), -1, dtype=np.intp)

    def row(self, ctx: Context) -> int:
        n = len(self.contexts)
        r = self.index.setdefault(ctx, n)
        if r == n:
            self.contexts.append(ctx)
            if r == len(self._next):
                self._next, self._class = _grown(self._next, -1), _grown(self._class, 0)
        return r

    def root(self, query_id: int) -> int:
        """Row of a query's first generation step, whose history is empty."""
        if query_id not in self.roots:
            self.roots[query_id] = self.row((query_id, ()))
        return self.roots[query_id]

    def _join(self, row: int) -> int:
        """Put ``row`` in its class, whose known transitions it takes, and return the class."""
        qid, hist = self.contexts[row]
        kept, new = (qid, hist[self._kept_by_class]), len(self._kept)
        cls = self._classes.setdefault(kept, new)
        if cls == new:  # it knows no transition yet
            self._kept.append(kept)
            if cls == len(self._class_next):
                self._class_next = _grown(self._class_next, -1)
        else:
            self._next[row] = self._class_next[cls]
        self._class[row] = cls
        return cls

    def step(self, row: int, tok: int) -> int:
        """Row of the context after generating ``tok`` in ``row``'s context:
        the history gains ``tok`` and keeps its last ``history`` tokens."""
        nxt = self._next.item(row, tok)
        if nxt < 0:
            cls = self._class.item(row) or self._join(row)
            nxt = self._class_next.item(cls, tok)
            if nxt < 0:  # a (class, token) never seen: intern the context it leads to
                qid, hist = self._kept[cls]
                nxt = self.row((qid, (hist + (tok,))[self._keep]))
                self._class_next[cls, tok] = nxt
            self._next[row, tok] = nxt
        return nxt


def _softmax_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # max-shift keeps exp() in range for large logits
    shifted = x - np.maximum.reduce(x, axis=1, keepdims=True)
    expx = np.exp(shifted)
    total = np.add.reduce(expx, axis=1, keepdims=True)
    probs = expx / total
    return probs, shifted - np.log(total), probs.cumsum(axis=1)


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
        have = self._written.size
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

    def written_logits(self) -> list[list[float]]:
        """The logit rows of ``written_contexts``, in its order, as lists of floats."""
        return self._logits[self._written].tolist()

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
        self.span = int(np.maximum.reduce(rows)) + 1
        # one owner: the keys are the rows
        self.keys, self.inv = _unique_inverse(rows if count == 1 else owner * self.span + rows)
        self.owner, self.rows = np.divmod(self.keys, self.span)
        self.slots = self.inv * vocab_size + tokens
        self.count = count

    @memo
    def distinct(self) -> tuple[np.ndarray, np.ndarray | slice]:
        """The keys' unique rows, and where each key's row falls among them:
        owners that read the same rows (the copies of a tiled batch) read
        each once."""
        if self.count == 1:  # one owner: its keys are its unique rows, in order
            return self.rows, slice(None)
        return _unique_inverse(self.rows)

    @memo
    def owner_means(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """For means over each owner's n keys: where each owner's keys end,
        1/n per owner, and 1/n per key as a column."""
        sizes = np.bincount(self.owner, minlength=self.count)
        if not np.logical_and.reduce(sizes):
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
    owner = np.arange(lengths.size).repeat(lengths)
    index = KeyIndex(owner, rows, tokens, len(lengths), params.vocab_size)
    values = keyed_score(params, index, np.ones(len(rows))).values
    values *= values
    return np.bincount(index.owner, weights=np.add.reduce(values, axis=1), minlength=lengths.size)


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
    row = np.fromiter(map(interner.root, query_ids), np.intp, len(query_ids)).repeat(k)
    live = np.arange(n)
    params._fit()
    cdf, nxt = params._cdf, interner._next.ravel()
    drawn = []  # per position: the running trajectories and each step's row * V + token
    for t in range(t_max):  # each position one pass over the running trajectories' arrays
        below = cdf.take(row, axis=0) <= rng.random((live.size, 1))
        below[:, -1] = False  # so a draw at or above the last entry takes V - 1
        tok = below.argmin(axis=1)
        key = row * v + tok
        drawn.append((live, key))
        going = tok != stop_token
        live, key = live[going], key[going]
        if t + 1 == t_max or not live.size:
            break
        row = nxt.take(key)
        if np.minimum.reduce(row) < 0:  # first visits: intern the new contexts, then cover them
            for i in (row < 0).nonzero()[0].tolist():
                row[i] = interner.step(*divmod(int(key[i]), v))
            params._fit()
            cdf, nxt = params._cdf, interner._next.ravel()
    traj, keys = map(np.concatenate, zip(*drawn))
    # a stable sort of the position-major draws puts each trajectory's steps together
    steps = np.empty((2, traj.size), dtype=np.intp)
    np.divmod(keys.take(traj.argsort(kind="stable")), v, out=(steps[0], steps[1]))
    lengths = np.bincount(traj, minlength=n)
    ends = lengths.cumsum()
    return Rollouts(steps, lengths, steps[1, ends - 1] == stop_token)


def mean_step_entropy(params: PolicyParams, rows: np.ndarray) -> float:
    """Mean categorical entropy (nats) over the unique given rows."""
    rows = _unique(rows)
    if rows.size == 0:
        raise InputError("mean_step_entropy needs at least one visited context")
    ent = -np.add.reduce(params._probs[rows] * params._logp[rows], axis=1)
    return math.fsum(ent.tolist()) / rows.size


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
    kl = np.add.reduce(probs * diff, axis=1)
    # fsum over slices of a list, not of the array: ~3x faster for 180 owners of 7
    # rows (timeit, numpy 2.4, Xeon), and exactly rounded either way
    terms = kl[at].tolist()
    sums = [math.fsum(terms[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    return OwnerKL(np.array(sums) * inv, probs, diff, kl)


def kl_gradient(index: KeyIndex, kl: OwnerKL) -> np.ndarray:
    """The gradient of each owner's mean KL, ``owner_kl`` over ``index``, at each of its keys."""
    at = index.distinct[1]
    return index.owner_means[2] * kl.probs[at] * (kl.diff[at] - kl.kl[at][:, None])
