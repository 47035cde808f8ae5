"""First-non-intersecting-disk queries along the cyclic order.

For a fixed disk i and a scan origin j, the two core queries return the
first index z (counterclockwise respectively clockwise from j, inclusive)
whose disk does *not* intersect disk i.  When no such index exists the
explicit sentinel INTERSECTS_ALL is returned instead of a fake index, so
callers are forced to treat saturation separately.  The shared base turns
them into the runs the solvers merge (`dominated_run`, `run_after`,
`run_before`) and into the counting bound on any dominating set
(`domination_lower_bound`).

Three strategies answer the same queries:

* ``naive``  -- walks the cyclic order one disk at a time; the reference.
* ``tree``   -- a balanced binary tree over the canonical order whose nodes
  answer a farthest-disk subquery; a query climbs from the scan origin's
  leaf and then descends into the first promising subtree.
* ``bitset`` -- packs the per-disk avoidance predicate into integer rows
  (built lazily, one row per queried disk) and answers with bit scans;
  the default for the solvers.

All strategies evaluate the avoidance predicate as the negation of
`geometry.intersects`, with the same operations in the same order
(``dx*dx + dy*dy > (r_i + r_z)**2``), so their answers agree bit-for-bit
with each other and with `verify`.
"""

from __future__ import annotations

import numpy as np

from .geometry import CyclicSublist, Instance, full_sublist


class _IntersectsAll:
    """Sentinel: the queried disk intersects every disk of the instance."""

    __slots__ = ()

    def __repr__(self):
        return "INTERSECTS_ALL"


INTERSECTS_ALL = _IntersectsAll()


class FarthestDiskScan:
    """Farthest-disk subquery over a fixed slice of disks, by linear scan.

    ``max_clearance_from(x, y, r)`` returns ``max_p(|qp|^2 - (r + r_p)^2)``
    -- positive iff some disk in the slice avoids the query disk under the
    closed squared predicate of `geometry.intersects`.  A farthest-disk
    Voronoi diagram with point location could replace this class without
    touching any caller.
    """

    __slots__ = ("xs", "ys", "rs")

    def __init__(self, xs, ys, rs):
        self.xs = xs
        self.ys = ys
        self.rs = rs

    def max_clearance_from(self, x: float, y: float, r: float) -> float:
        dx = self.xs - x
        dy = self.ys - y
        rr = r + self.rs
        return float(np.max((dx * dx + dy * dy) - rr * rr))


def _coords(instance: Instance):
    xs = np.array([d.center.x for d in instance.disks], dtype=np.float64)
    ys = np.array([d.center.y for d in instance.disks], dtype=np.float64)
    rs = np.array([d.radius for d in instance.disks], dtype=np.float64)
    return xs, ys, rs


class _NeighborIndexBase:
    strategy = "?"

    def __init__(self, instance: Instance):
        self.instance = instance
        self.n = instance.n
        self._runs: dict[int, CyclicSublist] = {}

    def first_disjoint_ccw(self, i: int, j: int):
        raise NotImplementedError

    def first_disjoint_cw(self, i: int, j: int):
        raise NotImplementedError

    def closed_neighborhood_size(self, i: int) -> int:
        """Number of disks meeting disk i, disk i included.

        Counted with the strategy's scalar `_avoids`; the bitset strategy
        counts the bits of its row instead.
        """
        return sum(1 for z in range(self.n) if not self._avoids(i, z))

    def domination_lower_bound(self) -> int:
        """Fewest disks any dominating set needs.

        Each disk dominates only its closed neighborhood, so at least
        ceil(n / largest closed neighborhood) disks are needed.
        """
        n = self.n
        return -(-n // max(self.closed_neighborhood_size(i) for i in range(n)))

    def run_after(self, i: int, z: int) -> tuple[int, int]:
        """The run from z+1 counterclockwise that disk i meets throughout.

        Returned as (start, length): it stops just before the first disk
        disjoint from disk i, and is (0, n) when disk i meets every disk.
        """
        n = self.n
        a = self.first_disjoint_ccw(i, (z + 1) % n)
        if a is INTERSECTS_ALL:
            return 0, n
        return (z + 1) % n, (a - z - 1) % n

    def run_before(self, i: int, z: int) -> tuple[int, int]:
        """Mirror of `run_after`: the run from z-1 clockwise, as (start, length)."""
        n = self.n
        b = self.first_disjoint_cw(i, (z - 1) % n)
        if b is INTERSECTS_ALL:
            return 0, n
        return (b + 1) % n, (z - b - 1) % n

    def dominated_run(self, i: int) -> CyclicSublist:
        """Maximal contiguous run around p_i whose disks all meet disk i.

        Full when disk i intersects everything.
        """
        run = self._runs.get(i)
        if run is None:
            n = self.n
            a = self.first_disjoint_ccw(i, i)
            if a is INTERSECTS_ALL:
                run = full_sublist(n)
            else:
                b = self.first_disjoint_cw(i, i)
                ccw_count = (a - i) % n
                cw_count = (i - b) % n
                run = CyclicSublist((b + 1) % n, ccw_count + cw_count - 1, n)
            self._runs[i] = run
        return run


class _NaiveNeighborIndex(_NeighborIndexBase):
    """Reference implementation: walk the cyclic order disk by disk."""

    strategy = "naive"

    def __init__(self, instance):
        super().__init__(instance)
        # plain float tuples keep the scalar predicate allocation-free
        self._pts = [(d.center.x, d.center.y, d.radius) for d in instance.disks]

    def _avoids(self, i, z):
        xi, yi, ri = self._pts[i]
        xz, yz, rz = self._pts[z]
        dx = xz - xi
        dy = yz - yi
        rr = ri + rz
        return dx * dx + dy * dy > rr * rr

    def first_disjoint_ccw(self, i, j):
        n = self.n
        for step in range(n):
            z = (j + step) % n
            if self._avoids(i, z):
                return z
        return INTERSECTS_ALL

    def first_disjoint_cw(self, i, j):
        n = self.n
        for step in range(n):
            z = (j - step) % n
            if self._avoids(i, z):
                return z
        return INTERSECTS_ALL


class _TreeNeighborIndex(_NeighborIndexBase):
    """Balanced binary tree over the canonical order.

    Each internal node holds a farthest-disk scan over its leaf range.  A
    counterclockwise query climbs from the origin leaf testing right
    siblings (ranges strictly after the origin) and descends into the
    first subtree containing an avoiding disk; if the climb exhausts the
    tree, the search wraps by probing index 0 and restarting the climb
    from the leftmost leaf.  Clockwise queries mirror this.
    """

    strategy = "tree"

    def __init__(self, instance):
        super().__init__(instance)
        xs, ys, rs = _coords(instance)
        self._xs, self._ys, self._rs = xs, ys, rs
        self._lo: list[int] = []
        self._hi: list[int] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._parent: list[int] = []
        self._scan: list[FarthestDiskScan | None] = []
        self._leaf = [0] * self.n
        self._root = self._build(0, self.n, -1)
        self._all_hit: dict[int, bool] = {}

    def _build(self, lo, hi, parent):
        node = len(self._lo)
        self._lo.append(lo)
        self._hi.append(hi)
        self._left.append(-1)
        self._right.append(-1)
        self._parent.append(parent)
        if hi - lo == 1:
            self._scan.append(None)
            self._leaf[lo] = node
            return node
        self._scan.append(FarthestDiskScan(self._xs[lo:hi], self._ys[lo:hi], self._rs[lo:hi]))
        mid = (lo + hi) // 2
        self._left[node] = self._build(lo, mid, node)
        self._right[node] = self._build(mid, hi, node)
        return node

    def _avoids(self, i, z):
        dx = self._xs[z] - self._xs[i]
        dy = self._ys[z] - self._ys[i]
        rr = self._rs[i] + self._rs[z]
        return dx * dx + dy * dy > rr * rr

    def _node_pos(self, node, i):
        scan = self._scan[node]
        if scan is None:
            return self._avoids(i, self._lo[node])
        return scan.max_clearance_from(self._xs[i], self._ys[i], self._rs[i]) > 0.0

    def _intersects_all(self, i):
        hit = self._all_hit.get(i)
        if hit is None:
            hit = not self._node_pos(self._root, i)
            self._all_hit[i] = hit
        return hit

    def _climb(self, i, start_leaf, *, ccw):
        v = self._leaf[start_leaf]
        while (p := self._parent[v]) != -1:
            if ccw and self._left[p] == v:
                u = self._right[p]
                if self._node_pos(u, i):
                    return u
            elif not ccw and self._right[p] == v:
                u = self._left[p]
                if self._node_pos(u, i):
                    return u
            v = p
        return -1

    def _descend(self, i, node, *, ccw):
        while self._left[node] != -1:
            first = self._left[node] if ccw else self._right[node]
            node = first if self._node_pos(first, i) else (
                self._right[node] if ccw else self._left[node]
            )
        return self._lo[node]

    def first_disjoint_ccw(self, i, j):
        if self._intersects_all(i):
            return INTERSECTS_ALL
        if self._avoids(i, j):
            return j
        found = self._climb(i, j, ccw=True)
        if found == -1:
            if self._avoids(i, 0):
                return 0
            found = self._climb(i, 0, ccw=True)
            assert found != -1, "no avoiding disk despite non-saturated root"
        return self._descend(i, found, ccw=True)

    def first_disjoint_cw(self, i, j):
        if self._intersects_all(i):
            return INTERSECTS_ALL
        if self._avoids(i, j):
            return j
        last = self.n - 1
        found = self._climb(i, j, ccw=False)
        if found == -1:
            if self._avoids(i, last):
                return last
            found = self._climb(i, last, ccw=False)
            assert found != -1, "no avoiding disk despite non-saturated root"
        return self._descend(i, found, ccw=False)


class _BitsetNeighborIndex(_NeighborIndexBase):
    """Per-disk avoidance rows packed into integers; queried with bit scans.

    Rows are built lazily (one vectorized pass per queried disk) and kept,
    so a solver touching all disks pays O(n^2 / word) memory total.
    """

    strategy = "bitset"

    def __init__(self, instance):
        super().__init__(instance)
        self._xs, self._ys, self._rs = _coords(instance)
        self._rows: dict[int, int] = {}

    def _row(self, i):
        row = self._rows.get(i)
        if row is None:
            dx = self._xs - self._xs[i]
            dy = self._ys - self._ys[i]
            rr = self._rs[i] + self._rs
            pos = dx * dx + dy * dy > rr * rr
            row = int.from_bytes(np.packbits(pos, bitorder="little").tobytes(), "little")
            self._rows[i] = row
        return row

    def closed_neighborhood_size(self, i):
        return self.n - self._row(i).bit_count()

    def first_disjoint_ccw(self, i, j):
        row = self._row(i)
        ahead = row >> j
        if ahead:
            return j + ((ahead & -ahead).bit_length() - 1)
        if row:
            return (row & -row).bit_length() - 1
        return INTERSECTS_ALL

    def first_disjoint_cw(self, i, j):
        row = self._row(i)
        behind = row & ((1 << (j + 1)) - 1)
        if behind:
            return behind.bit_length() - 1
        if row:
            return row.bit_length() - 1
        return INTERSECTS_ALL


_STRATEGIES = {
    "naive": _NaiveNeighborIndex,
    "tree": _TreeNeighborIndex,
    "bitset": _BitsetNeighborIndex,
}


def build_neighbor_index(instance: Instance, strategy: str = "tree"):
    try:
        cls = _STRATEGIES[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {sorted(_STRATEGIES)}")
    return cls(instance)
