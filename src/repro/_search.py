"""The one monotone search: the largest ``n`` at which a predicate holds."""

from __future__ import annotations

from typing import Callable


def largest_n(holds: Callable[[int], bool]) -> int:
    """Largest ``n >= 1`` with ``holds(n)`` (0 if none), for ``holds`` true up to
    some ``n`` and false beyond: the bound doubles from 1, then bisects."""
    low, high = 0, 1
    while holds(high):
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if holds(middle) else (low, middle)
    return low
