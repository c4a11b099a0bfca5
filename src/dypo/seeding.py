"""Named RNG substreams derived from one root seed.

Every source of randomness (rollouts, teacher draws, pair subsampling,
testbed noise) pulls from its own named substream, so a bench can vary one
noise source while freezing the others, and a training step can be replayed
from a checkpoint without carrying generator state.
"""

from __future__ import annotations

import zlib
from typing import Iterator, Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .errors import ConfigError

# numpy's SeedSequence constants (pool size 4) and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_WORD, _STATE = 2**32 - 1, 2**128 - 1
_CHUNK = 1024  # steps seeded per derivation


def _words(seed, path) -> list[int]:
    """The uint32 words ``SeedSequence([seed, *path])`` splits its entropy into."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    words = []
    for value in (int(seed), *path):
        if type(value) is not int:
            if not isinstance(value, (str, int, np.integer)):
                raise TypeError(f"substream path part {value!r} is not a str or an int")
            value = zlib.crc32(value.encode("utf-8")) if isinstance(value, str) else int(value)
        value &= 2**64 - 1
        words += (value & _WORD, value >> 32) if value >> 32 else (value,)
    return words


def substream(seed: int, *path) -> np.random.Generator:
    """Generator for the substream named by ``path`` under ``seed``.

    The same (seed, path) always yields an identical stream, independently
    of any other substream drawn before or after it: ``default_rng(SeedSequence(
    [seed, *parts]))``, int parts modulo 2**64 and str parts as their UTF-8
    CRC-32, built from the uint32 words the seed sequence splits each value
    into. A seed outside [0, 2**64) is a ``ConfigError``, as the sequence
    would alias it to another's. This is the one-off path and the oracle of
    ``step_substreams``, which seeds a run's per-step streams in bulk."""
    return Generator(PCG64(SeedSequence(np.array(_words(seed, path), np.uint32))))


def _pcg64_seeds(words: np.ndarray) -> np.ndarray:
    """The ``generate_state(4, uint64)`` of ``SeedSequence(row)``, PCG64's seed,
    for each row of a ``(n, L)`` uint32 word matrix, as an ``(n, 4)`` uint64
    array: the sequence's hashmix/mix pool and its output words over all rows
    at once, in uint32 array arithmetic."""
    n, size = words.shape
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _WORD
        value = value * const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = x * _MIX_L - y * _MIX_R
        return out ^ out >> 16

    zero = np.zeros(n, np.uint32)
    pool = [hashmix(words[:, i] if i < size else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, size):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    const, state = _INIT_B, np.empty((n, 8), np.uint32)
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _WORD
        value *= const
        state[:, i] = value ^ value >> 16
    return state.astype("<u4").view("<u8")


def _pcg64_state(seed_hi: int, seed_lo: int, seq_hi: int, seq_lo: int) -> dict:
    """``PCG64.state`` of a generator seeded by four uint64 words
    (``_pcg64_seeds``): PCG64's 128-bit seeding, in Python ints."""
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _STATE
    return {"bit_generator": "PCG64",
            "state": {"state": ((seed_hi << 64 | seed_lo) + inc) * _PCG_MULT + inc & _STATE,
                      "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def step_substreams(seed: int, names: Sequence[str], start: int,
                    stop: int) -> Iterator[tuple[np.random.Generator, ...]]:
    """For each step from ``start`` to ``stop``, the generators of
    ``substream(seed, name, step)`` for each of ``names``, in that order.

    The seeds of up to ``_CHUNK`` steps come from one ``_pcg64_seeds``
    derivation, and each step sets their states on the same generators, one
    per name: a step's generators are spent once the next step's are asked
    for. Over 500 steps that is 2.7 µs a stream and step, against 13.6 µs
    for a ``substream`` build (``timeit``, 2-vCPU Xeon). A seed outside
    [0, 2**64) is a ``ConfigError``, as for ``substream``."""
    prefix = np.array([_words(seed, (name,)) for name in names], np.uint32)
    streams = [Generator(PCG64(0)) for _ in names]
    bits = [stream.bit_generator for stream in streams]
    lo = start
    while lo < stop:
        # a step of 2**32 or more is two words, so no chunk straddles it
        hi = min(stop, lo + _CHUNK, 2**32 if lo < 2**32 else stop)
        steps = np.arange(lo, hi, dtype=np.uint64)
        tail = np.stack([steps & _WORD, steps >> 32] if lo >> 32 else [steps], axis=1)
        shape = (len(steps), len(names))
        words = np.concatenate([np.broadcast_to(prefix, shape + prefix.shape[1:]),
                                np.broadcast_to(tail[:, None, :], shape + tail.shape[1:])],
                               axis=2, dtype=np.uint32)
        seeds = _pcg64_seeds(words.reshape(-1, words.shape[2]))
        for at in range(0, len(seeds), len(names)):
            for bit, seed_words in zip(bits, seeds[at:at + len(names)].tolist()):
                bit.state = _pcg64_state(*seed_words)
            yield tuple(streams)
        lo = hi
