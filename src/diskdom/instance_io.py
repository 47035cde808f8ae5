"""Instance/solution files, seeded generators, and SVG rendering.

Documents are JSON. Floats go through Python's shortest round-trip
repr, so serialize → parse returns the exact same doubles. An instance
document holds its disks as float64 columns in input order: loading
checks the records' fields column by column and hands the columns to
`canonicalize` as they are, building no per-disk object. Generation
uses splitmix64 (documented below) rather than a platform RNG, so a
(seed, params) pair pins the instance bytes on any machine.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional, Union

import numpy as np

from .geometry import DiskColumns, GeometryError, Instance, canonicalize, intersects_row
from .oracle import verify
from .solution import WEIGHT_TOLERANCE, Solution, solution_of

SCHEMA_VERSION = 1


class BadParams(ValueError):
    """Generator or document parameters that cannot be honored."""


class SplitMix64:
    """splitmix64 (Steele, Lea & Flood): state += GAMMA, then two xor-shift
    multiplies. Fully specified by the constants below; trivially portable.
    """

    GAMMA = 0x9E3779B97F4A7C15
    MULT1 = 0xBF58476D1CE4E5B9
    MULT2 = 0x94D049BB133111EB
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + self.GAMMA) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * self.MULT1) & self.MASK
        z = ((z ^ (z >> 27)) * self.MULT2) & self.MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # top 53 bits -> exact double in [0, 1)
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0**-53)

    def normal(self) -> float:
        # Box-Muller, cosine branch only (one draw pair per call)
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


FAMILIES = ("circle", "ellipse", "perturbed-polygon")

Law = tuple  # ("uniform", a, b) | ("lognormal", mu, sigma) | ("unit",)


def parse_law(text: Union[str, Law]) -> Law:
    """Accepts "unit", "uniform(a,b)", "lognormal(mu,sigma)" or an
    already-parsed tuple."""
    if isinstance(text, tuple):
        law = text
    else:
        s = text.strip().lower()
        if s == "unit":
            law = ("unit",)
        else:
            name, _, rest = s.partition("(")
            if not rest.endswith(")"):
                raise BadParams(f"malformed law {text!r}")
            try:
                args = tuple(float(a) for a in rest[:-1].split(","))
            except ValueError:
                raise BadParams(f"malformed law {text!r}") from None
            law = (name.strip(),) + args
    if law[0] == "unit" and len(law) == 1:
        return law
    if law[0] == "uniform" and len(law) == 3 and law[1] <= law[2] and law[1] > 0:
        return law
    if law[0] == "lognormal" and len(law) == 3 and law[2] >= 0:
        return law
    raise BadParams(f"unsupported law {text!r}")


def law_repr(law: Law) -> str:
    if law[0] == "unit":
        return "unit"
    return f"{law[0]}({law[1]!r},{law[2]!r})"


def _draw(law: Law, rng: SplitMix64) -> float:
    if law[0] == "unit":
        return 1.0
    if law[0] == "uniform":
        return rng.uniform(law[1], law[2])
    return math.exp(law[1] + law[2] * rng.normal())


@dataclass
class InstanceDocument:
    """An instance file: its disks as columns in input order, and its metadata."""

    columns: DiskColumns
    metadata: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def points(self) -> list[dict]:
        """The disks as the file's {"x", "y", "r", "w"} records, in input order."""
        rows = zip(*(col.tolist() for col in self.columns))
        return [dict(zip("xyrw", row)) for row in rows]

    def to_instance(self, *, weighted: bool = True) -> Instance:
        try:
            return canonicalize(self.columns, weighted=weighted)
        except GeometryError as exc:
            raise BadParams(f"document is not a valid instance: {exc}") from exc

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "points": self.points,
            "metadata": self.metadata,
        }
        return json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n"


def instance_document(instance: Instance, metadata: Optional[dict] = None) -> InstanceDocument:
    """Document for an existing instance, points in original input order."""
    cols = (instance.xs, instance.ys, instance.rs, instance.ws)
    order = instance.canonical_index
    return InstanceDocument(DiskColumns(*(col[order] for col in cols)), dict(metadata or {}))


def load_instance_document(text: str) -> InstanceDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParams(f"not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadParams("instance document must be a JSON object")
    version = payload.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # True == 1.0 == 1: neither is an int
        raise BadParams(f"unsupported schema_version {version!r}")
    raw = payload.get("points")
    if not isinstance(raw, list) or not raw:
        raise BadParams("points must be a non-empty list")
    columns = _point_columns(raw)
    meta = payload.get("metadata", {})
    if not isinstance(meta, dict):
        raise BadParams("metadata must be an object")
    return InstanceDocument(columns, meta)


def _point_columns(raw: list) -> DiskColumns:
    """The records' x, y, r and w (1.0 where absent) as float64 columns.

    Checked a column at a time; when a check fails, the records are read
    one by one to raise the BadParams of the first bad field.
    """
    if set(map(type, raw)) == {dict}:
        try:
            cols = [list(map(operator.itemgetter(key), raw)) for key in "xyr"]
            cols.append([rec.get("w", 1.0) for rec in raw])
            if all(set(map(type, col)) <= {int, float} for col in cols):  # bool is not int here
                return DiskColumns(*(np.array(col, np.float64) for col in cols))
        except (KeyError, OverflowError):  # a field is missing, or an int is beyond float range
            pass
    for pos, rec in enumerate(raw):
        if not isinstance(rec, dict):
            raise BadParams(f"points[{pos}] is not an object")
        for key in ("x", "y", "r"):
            if key not in rec:
                raise BadParams(f"points[{pos}] lacks {key!r}")
            _number(rec[key], f"points[{pos}].{key}")
        _number(rec.get("w", 1.0), f"points[{pos}].w")
    raise BadParams("points must hold numbers")  # not reached: some field failed a check


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadParams(f"{where} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise BadParams(f"{where} is beyond float range") from None


@dataclass
class SolutionDocument:
    mode: str
    k: Optional[int]
    size: int
    weight: float
    centers: list[int]
    solver: str
    verified: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(", ", ": ")) + "\n"


def solution_document(
    solution: Solution, instance: Instance, *, k: Optional[int], solver: str
) -> SolutionDocument:
    if solver not in ("dp", "greedy", "brute"):
        raise BadParams(f"unknown solver tag {solver!r}")
    return SolutionDocument(
        mode=solution.mode,
        k=k,
        size=solution.size,
        weight=solution.weight,
        centers=list(solution.centers),
        solver=solver,
        verified=verify(instance, instance.to_canonical(solution.centers)),
    )


def load_solution_document(text: str, instance: Instance) -> SolutionDocument:
    """Parse a solution file; `verified` is recomputed against `instance`,
    never trusted from the file: the centers must dominate and number at
    most a stated bound `k` (which must be at least 1), and `weight` must
    be their `solution_of` weight within WEIGHT_TOLERANCE."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParams(f"not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadParams("solution document must be a JSON object")
    mode = payload.get("mode")
    if mode not in ("weighted", "unweighted"):
        raise BadParams(f"bad mode {mode!r}")
    solver = payload.get("solver")
    if solver not in ("dp", "greedy", "brute"):
        raise BadParams(f"bad solver {solver!r}")
    k = payload.get("k")
    if k is not None and (type(k) is not int or k < 1):
        raise BadParams(f"bad k {k!r}")
    centers = payload.get("centers")
    if not isinstance(centers, list) or not all(type(c) is int for c in centers):
        raise BadParams("centers must be a list of integers")
    if len(set(centers)) != len(centers) or not all(c in range(instance.n) for c in centers):
        raise BadParams("centers must be distinct original indices")
    size = payload.get("size")
    if type(size) is not int or size != len(centers):  # not True, nor 2.0
        raise BadParams(f"size {size!r} does not match centers")
    weight = _number(payload.get("weight", 0.0), "weight")
    canonical = instance.to_canonical(centers)
    exact = solution_of(instance, canonical, mode).weight
    return SolutionDocument(
        mode=mode,
        k=k,
        size=len(centers),
        weight=weight,
        centers=list(centers),
        solver=solver,
        verified=(k is None or size <= k)
        and abs(weight - exact) <= WEIGHT_TOLERANCE
        and verify(instance, canonical),
    )


# -- generators --------------------------------------------------------------

MIN_GAP_FRACTION = 0.15  # of the mean angular gap; keeps neighbors apart


def _angles(n: int, rng: SplitMix64) -> list[float]:
    # cumulative random gaps: every gap is at least MIN_GAP_FRACTION of the
    # mean, so arbitrarily close pairs cannot occur at any n
    gaps = [MIN_GAP_FRACTION + rng.uniform() for _ in range(n)]
    total = sum(gaps)
    start = rng.uniform(0.0, 2.0 * math.pi)
    out = []
    acc = 0.0
    for g in gaps:
        out.append(start + 2.0 * math.pi * acc / total)
        acc += g
    return out


def gen_random(
    n: int,
    seed: int,
    family: str = "circle",
    radius_law: Union[str, Law] = ("uniform", 0.5, 2.0),
    weight_law: Union[str, Law] = ("unit",),
) -> InstanceDocument:
    """Seeded instance on a strictly convex curve.

    Draw order is fixed (angles, then radii, then weights, then any
    family-specific jitter), so documents are reproducible from
    (n, seed, family, laws) alone.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadParams(f"n must be a positive integer, got {n!r}")
    if family not in FAMILIES:
        raise BadParams(f"unknown family {family!r}")
    rlaw = parse_law(radius_law)
    wlaw = parse_law(weight_law)
    rng = SplitMix64(seed)
    thetas = _angles(n, rng)
    radii = [_draw(rlaw, rng) for _ in range(n)]
    weights = [_draw(wlaw, rng) for _ in range(n)]
    scale = 10.0
    if family == "circle":
        centers = [(scale * math.cos(t), scale * math.sin(t)) for t in thetas]
    elif family == "ellipse":
        centers = [(0.7 * scale * math.cos(t), 0.3 * scale * math.sin(t)) for t in thetas]
    else:
        # radial bumps small enough that every vertex stays strictly outside
        # the chord of its neighbors (sagitta bound for the minimum gap)
        eta = 0.25 * (MIN_GAP_FRACTION * math.pi / n) ** 2 if n > 2 else 0.2
        centers = []
        for t in thetas:
            rho = scale * (1.0 + eta * rng.uniform())
            centers.append((rho * math.cos(t), rho * math.sin(t)))
    rows = [(x, y, r, w) for (x, y), r, w in zip(centers, radii, weights)]
    doc = InstanceDocument(
        DiskColumns.from_rows(rows),
        metadata={
            "generator": "gen_random",
            "n": str(n),
            "seed": str(seed),
            "family": family,
            "radius_law": law_repr(rlaw),
            "weight_law": law_repr(wlaw),
        },
    )
    made = doc.to_instance()  # self-check: strict convexity, weights
    if made.n != n:
        raise BadParams(f"family {family!r} degenerated at n={n}")
    return doc


BIG_ANGLE = math.pi
ARC_HALF_WIDTH = math.radians(20.0)
BIG_CLEARANCE = 0.15  # how far the big disk stops short of the nearest small
INTERSECT_OVERLAP = 0.05
AVOIDER_RADIUS = 0.02


def gen_figure1(n: int) -> InstanceDocument:
    """One large disk opposite an arc of small disjoint disks that
    alternately poke it and shy away from it.

    Construction: centers on a radius-10 circle; the small disks sit on a
    40-degree arc opposite the large one. Even arc positions get exactly
    enough radius to overlap the large disk; odd positions get radius
    0.02 and stay clear. Each avoider is then dominated only by itself,
    so the optimum is all avoiders plus the large disk, whose dominated
    positions interleave with theirs (this is what makes one center's
    coverage split into many separate runs). Unit weights.

    The fixed arc keeps small disks disjoint only up to n around 15; the
    construction is checked and BadParams raised if n is too large.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 5:
        raise BadParams(f"n must be an integer >= 5, got {n!r}")
    scale = 10.0
    m = n - 1
    thetas = [-ARC_HALF_WIDTH + 2.0 * ARC_HALF_WIDTH * j / (m - 1) for j in range(m)]
    big_center = (scale * math.cos(BIG_ANGLE), scale * math.sin(BIG_ANGLE))
    smalls = [(scale * math.cos(t), scale * math.sin(t)) for t in thetas]
    dists = [math.dist(big_center, c) for c in smalls]
    big_r = min(dists) - BIG_CLEARANCE
    rows = [(*big_center, big_r, 1.0)]
    for j, ((x, y), d) in enumerate(zip(smalls, dists)):
        r = d - big_r + INTERSECT_OVERLAP if j % 2 == 0 else AVOIDER_RADIUS
        rows.append((x, y, r, 1.0))
    doc = InstanceDocument(DiskColumns.from_rows(rows), {"generator": "gen_figure1", "n": str(n)})
    meets = [intersects_row(*doc.columns[:3], a)[a + 1 :] for a in range(n)]  # disks past a
    if meets[0].tolist() != [j % 2 == 0 for j in range(m)]:
        raise BadParams(f"n={n} breaks the alternation pattern")
    if any(row.any() for row in meets[1:]):
        raise BadParams(f"n={n} is too large for the fixed arc")
    doc.to_instance()
    return doc


# -- rendering ---------------------------------------------------------------

_SVG_STYLE = (
    "circle.disk{fill:#4a90d9;fill-opacity:0.18;stroke:#2a6099;stroke-width:0.5%}"
    "circle.chosen{fill:#d94a4a;fill-opacity:0.35;stroke:#991f1f}"
    "circle.center{fill:#10283c;stroke:none}"
    "polygon.hull{fill:none;stroke:#888888;stroke-width:0.25%;stroke-dasharray:2,2}"
)


def _fmt(v: float) -> str:
    out = f"{v:.6f}".rstrip("0").rstrip(".")
    return "0" if out == "-0" else out


def render_svg(instance: Instance, solution: Optional[Iterable[int]] = None) -> str:
    """Deterministic SVG 1.1 picture: hull polygon, all disks, and the
    solution's disks highlighted. `solution` takes original input indices
    (a Solution object works too)."""
    chosen: set[int] = set()
    if solution is not None:
        raw = solution.centers if isinstance(solution, Solution) else solution
        chosen = set(instance.to_canonical(raw))
    xs, ys, rs = (col.tolist() for col in (instance.xs, instance.ys, instance.rs))
    lo_x, hi_x = min(map(operator.sub, xs, rs)), max(map(operator.add, xs, rs))
    lo_y, hi_y = min(map(operator.sub, ys, rs)), max(map(operator.add, ys, rs))
    margin = 0.05 * max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    lo_x, lo_y = lo_x - margin, lo_y - margin
    w, h = hi_x + margin - lo_x, hi_y + margin - lo_y
    # flip y so the picture is in the usual orientation
    def fy(y: float) -> float:
        return lo_y + h - (y - lo_y)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(lo_x)} {_fmt(lo_y)} {_fmt(w)} {_fmt(h)}">',
        f"<style>{_SVG_STYLE}</style>",
    ]
    hull = " ".join(f"{_fmt(x)},{_fmt(fy(y))}" for x, y in zip(xs, ys))
    parts.append(f'<polygon class="hull" points="{hull}"/>')
    dot = 0.008 * max(w, h)
    for c, (x, y, r) in enumerate(zip(xs, ys, rs)):
        cls = "chosen" if c in chosen else "disk"
        cx, cy, r = _fmt(x), _fmt(fy(y)), _fmt(r)
        parts.append(f'<circle class="{cls}" cx="{cx}" cy="{cy}" r="{r}"/>')
        parts.append(
            f'<circle class="center" cx="{cx}" cy="{cy}" r="{_fmt(dot)}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
