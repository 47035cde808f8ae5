"""The bitmask twin of `oracle.verify`, which the tests compare it with; the package never runs it.

`verify_by_masks` ORs together the packed domination rows of
`oracle.build_masks` (the rows brute force enumerates subsets over),
where `verify` evaluates one predicate row per center.
"""

from __future__ import annotations

from typing import Iterable

from diskdom.oracle import build_masks


def verify_by_masks(instance, centers: Iterable[int]) -> bool:
    """Whether the masks of `centers` (canonical indices) cover every disk."""
    dm = build_masks(instance)
    got = 0
    for c in centers:
        got |= dm.masks[c]
    return got == dm.universe
