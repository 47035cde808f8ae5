"""Reference twin of `geometry.union_runs`; the solvers never run it.

`union_extend` merges runs given as `CyclicSublist` values instead of
(start, length) pairs.  Tests check that the two agree on every outcome
(merged run, saturation, wrap-behind and `NotConsecutive`), and the
weighted reference steps in `weighted_reference` merge with it, so that
oracle stays independent of the production merge.
"""

from __future__ import annotations

from typing import Sequence

from diskdom.geometry import CyclicSublist, NotConsecutive


def union_extend(parts: Sequence[CyclicSublist]) -> CyclicSublist:
    """Merge runs that appear in overlapping-or-abutting order into one run.

    Saturates to the full cycle as soon as the accumulated coverage wraps.
    Raises NotConsecutive when a nonempty part leaves a gap against the
    coverage accumulated so far.
    """
    if not parts:
        raise ValueError("union_extend needs at least one part")
    n = parts[0].n
    s = None
    length = 0
    for p in parts:
        if p.n != n:
            raise ValueError("runs over different instance sizes")
        if p.is_empty:
            continue
        if p.is_full or length >= n:
            return CyclicSublist(0, n, n)
        if s is None:
            s, length = p.start, p.length
            continue
        d = (p.start - s) % n
        if d <= length:
            length = max(length, d + p.length)
        elif d + p.length >= n:
            # wraps around behind the accumulated run
            length = max(p.length, n - d + length)
            s = p.start
        else:
            raise NotConsecutive(f"gap between accumulated run and {p}")
    if s is None:
        return CyclicSublist(0, 0, n)
    if length >= n:
        return CyclicSublist(0, n, n)
    return CyclicSublist(s, length, n)


def run_of(cand, n: int) -> CyclicSublist:
    """A solver candidate's (start, length) run as a `CyclicSublist` over n."""
    return CyclicSublist(cand.start, cand.length, n)
