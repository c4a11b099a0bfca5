"""Grade a rollout group's binary reward pattern.

The three grades partition all reward patterns: a group is Easy when every
rollout is rewarded, Hard when none is, and Mid otherwise. The gate,
``objectives.route_groups``, picks each group's pathway from its grade: under
``dypo`` it discards Easy groups (zero gradient contribution), distills Hard
groups and sends Mid groups to the mixed RL objective.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .errors import InputError


class DifficultyGrade(Enum):
    EASY = "easy"
    HARD = "hard"
    MID = "mid"


def grade(rewards: Sequence[int]) -> DifficultyGrade:
    """Map a group's binary rewards to exactly one difficulty grade."""
    if len(rewards) < 2:
        raise InputError(f"grading needs a group of >= 2 rewards, got {len(rewards)}")
    total = 0
    for r in rewards:
        if r not in (0, 1):
            raise InputError(f"rewards must be 0 or 1, got {r!r}")
        total += r
    if total == len(rewards):
        return DifficultyGrade.EASY
    if total == 0:
        return DifficultyGrade.HARD
    return DifficultyGrade.MID

