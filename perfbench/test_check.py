"""Tests of the benchmark's own answer checker.

Run with: python3 -m pytest perfbench/test_check.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import canonical, same_answer, winner_in_largest_group  # noqa: E402

GOLD = [("Kalo Mineru", 41), ("Orla", 59), ("Tesu Pado", 23)]


def test_accepts_reordered_correct_rows():
    assert same_answer(list(reversed(GOLD)), GOLD)
    assert same_answer([("Orla", 59.0), ("Tesu Pado", 23), ("Kalo Mineru", 41)], GOLD)


def test_rejects_wrong_row_set():
    assert not same_answer([("Kalo", 67), ("Orla", 59), ("Tesu Pado", 23)], GOLD)
    assert not same_answer(GOLD[:2], GOLD)
    assert not same_answer(GOLD + [GOLD[0]], GOLD)
    assert not same_answer([("Kalo Mineru", "41"), ("Orla", 59), ("Tesu Pado", 23)], GOLD)


def test_floats_compare_to_six_decimals():
    assert same_answer([(1.0000001,)], [(1.0,)])
    assert not same_answer([(1.00001,)], [(1.0,)])


def test_canonical_orders_mixed_cells():
    assert canonical([(None,), (1,), ("a",)]) == canonical([("a",), (None,), (1.0,)])


def test_winner_must_hold_the_largest_group():
    a, b = [(1,)], [(2,)]
    rows = [a, b, b, None, [], [(None,)]]
    assert winner_in_largest_group(rows, 1)
    assert winner_in_largest_group(rows, 2)
    assert not winner_in_largest_group(rows, 0)
    assert not winner_in_largest_group(rows, 3)
    assert winner_in_largest_group([None, []], 0)
