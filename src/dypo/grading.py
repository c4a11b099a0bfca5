"""Grade a rollout group's binary reward pattern.

The three grades partition all reward patterns: a group is Easy when every
rollout is rewarded, Hard when none is, and Mid otherwise, coded (all
rewarded) + 2 * (none rewarded), the value of ``DifficultyGrade``. The gate,
``objectives.route_groups``, picks each group's pathway from its code: under
``dypo`` it discards Easy groups (zero gradient contribution), distills Hard
groups and sends Mid groups to the mixed RL objective.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InputError


class DifficultyGrade(int, Enum):  # an int, its code; str names it; eval.json's key order
    EASY = 1
    HARD = 2
    MID = 0


def grades(rewards: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """Each group's grade code, as int8, from a ``(groups, k)`` matrix of
    binary rewards whose rows are the groups."""
    r = np.asarray(rewards)
    if r.ndim != 2:
        raise InputError(f"grading needs a (groups, k) reward matrix, got shape {r.shape}")
    k = r.shape[1]
    if k < 2:
        raise InputError(f"grading needs a group of >= 2 rewards, got {k}")
    bad = (r != 0) & (r != 1)
    if bad.any():
        raise InputError(f"rewards must be 0 or 1, got {r[bad].tolist()[0]!r}")
    total = r.sum(axis=1)
    return ((total == k) + 2 * (total == 0)).astype(np.int8)


def grade(rewards: Sequence[int]) -> DifficultyGrade:
    """Map a group's binary rewards to exactly one difficulty grade."""
    return DifficultyGrade(int(grades([rewards])[0]))
