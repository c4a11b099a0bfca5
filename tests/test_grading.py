"""Difficulty grading: the three-way partition."""

from __future__ import annotations

from itertools import product

import pytest

from dypo.errors import InputError
from dypo.grading import DifficultyGrade, grade


def test_paper_examples():
    assert grade([1, 1, 1, 1, 1, 1, 1, 1]) is DifficultyGrade.EASY
    assert grade([0, 0, 0, 0, 0, 0, 0, 0]) is DifficultyGrade.HARD
    assert grade([1, 0, 1, 0, 0, 0, 1, 0]) is DifficultyGrade.MID


def test_partition_exhaustive_up_to_k10():
    for k in range(2, 11):
        for pattern in product((0, 1), repeat=k):
            g = grade(list(pattern))
            total = sum(pattern)
            expected = (
                DifficultyGrade.EASY if total == k
                else DifficultyGrade.HARD if total == 0
                else DifficultyGrade.MID
            )
            assert g is expected
            # mixed results iff 0 < sum < k
            assert (g is DifficultyGrade.MID) == (0 < total < k)


def test_input_errors():
    with pytest.raises(InputError):
        grade([])
    with pytest.raises(InputError):
        grade([1])
    with pytest.raises(InputError):
        grade([1, 2])
