"""Named RNG substreams derived from one root seed.

Every source of randomness (rollouts, teacher draws, pair subsampling,
testbed noise) pulls from its own named substream, so a bench can vary one
noise source while freezing the others, and a training step can be replayed
from a checkpoint without carrying generator state.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence


def substream(seed: int, *path) -> np.random.Generator:
    """Generator for the substream named by ``path`` under ``seed``.

    The same (seed, path) always yields an identical stream, independently
    of any other substream drawn before or after it: ``default_rng(SeedSequence(
    [seed, *parts]))``, int parts modulo 2**64 and str parts as their UTF-8
    CRC-32, built from the uint32 words the seed sequence splits each value into."""
    words = []
    for value in (int(seed), *path):
        if type(value) is not int:
            if not isinstance(value, (str, int, np.integer)):
                raise TypeError(f"substream path part {value!r} is not a str or an int")
            value = zlib.crc32(value.encode("utf-8")) if isinstance(value, str) else int(value)
        value &= 2**64 - 1
        words += (value & 0xFFFFFFFF, value >> 32) if value >> 32 else (value,)
    return Generator(PCG64(SeedSequence(np.array(words, np.uint32))))
