"""Answer checks that do not rely on `t2s`.

The canonical form of a result set is a sorted list of rows in which every
number (int, float, bool) becomes a float rounded to 6 decimals and text
stays text.  Results compare as multisets: row order never matters here,
because no question of the benchmark asks for an order.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence


def canonical_cell(cell):
    if isinstance(cell, (bool, int, float)):
        return ("n", round(float(cell), 6))
    if cell is None:
        return ("z", "")
    return ("t", str(cell))


def canonical(rows: Sequence[Sequence]) -> tuple:
    return tuple(sorted(tuple(canonical_cell(c) for c in row) for row in rows))


def same_answer(rows: Sequence[Sequence], gold: Sequence[Sequence]) -> bool:
    return canonical(rows) == canonical(gold)


def has_rows(rows: Sequence[Sequence]) -> bool:
    """At least one row with at least one non-NULL cell."""
    return any(cell is not None for row in rows for cell in row)


def winner_in_largest_group(candidate_rows: Sequence, winner_index: int) -> bool:
    """The winner's answer is one that the most candidates agree on.

    `candidate_rows` holds one entry per candidate: its rows, or None when
    it did not execute cleanly.  Candidates with no real rows do not vote.
    """
    answers = [
        canonical(rows) for rows in candidate_rows if rows is not None and has_rows(rows)
    ]
    if not answers:
        return True
    winner = candidate_rows[winner_index]
    if winner is None or not has_rows(winner):
        return False
    counts = Counter(answers)
    return counts[canonical(winner)] == max(counts.values())
