"""Exact lattice-point enumeration in dilations of the homogenised polytope.

Enumeration runs by default in the triangularised coordinates, where
vertex entries are running gap products instead of raw powers.  The map
back to moment coordinates is unit lower-triangular, so the scan emits
each moment coordinate as it fixes the scan coordinate, shifted by an
offset that only the prefix sets; a moment-frame path exists for
cross-checking.  Candidate ranges come from the vertex coordinate
extrema and are narrowed per coordinate by the facet inequalities, so
the recursion only visits feasible prefixes.  A slice can be restricted
to the lattice the vertices span: each coordinate then steps through its
residue class modulo the Hermite pivot, so no point outside that lattice
is visited, while the budget still caps the full bounding box.

The last coordinate is fixed as one range per prefix, so a slice is a
run of fibers: the points that share all but the last coordinate, which
step along it by the last Hermite pivot (1 for the full lattice).  Each
slice is a `Slice` that holds only those fibers, as (head, first, last)
in moment coordinates: the normality scan reads the fibers, the counts
read its length, and only iterating a slice builds its points.

A budget caps the bounding-box volume: instances that would grind fail
fast with BudgetExceeded instead.  The default is 10**8 candidates and
can be overridden per call or through the CYCLOTORIC_BUDGET environment
variable.

A frame is "moment" (raw vertex coordinates) or "transformed" (the
triangularised ones), and this module alone selects one.  Facet normals
are plain primitive integer tuples from `faces`, in moment coordinates;
`ScanFrame.normals` is the one place that rewrites them in the
transformed frame, through the same matrix that maps scan points back.

Every stage reads one `Instance` context: each frame's scan data (vertex
columns, facet normals, the Hermite rows of the vertex lattice) and a
memo that enumerates each degree slice, full or vertex-lattice, once
and keeps its fibers.  `instance` keeps the latest one, keyed on the
parameters alone.  The budget comes with each slice request, and a memo
hit passes the same box check as a fresh enumeration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, prod

from .core import CycloParams, InvalidParameters, inverse_transform_factor, transform, vertex
from .faces import facet_hyperplane, facets
from .intlinalg import hnf, mat_mul

MOMENT = "moment"
TRANSFORMED = "transformed"
DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "CYCLOTORIC_BUDGET"


class BudgetExceeded(RuntimeError):
    """Bounding box larger than the enumeration budget."""


def resolve_budget(budget: int | None = None) -> int:
    """The budget given, else CYCLOTORIC_BUDGET, else the default; a negative one is refused."""
    if budget is not None:
        cap, name = int(budget), "the budget"
    else:
        env = os.environ.get(BUDGET_ENV_VAR)
        if not env:
            return DEFAULT_BUDGET
        try:
            cap, name = int(env), BUDGET_ENV_VAR
        except ValueError:
            raise InvalidParameters(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
    if cap < 0:
        raise InvalidParameters(f"{name} must be nonnegative, got {cap}")
    return cap


@dataclass(frozen=True)
class Slice:
    """One degree slice as its fibers; its length and iteration give the points.

    `fibers` holds one (head, first, last) per run of points that share
    the head, all coordinates but the last, in lex order of the heads:
    the run is head + (x,) for x = first, first + step, ..., last.
    """

    fibers: tuple[tuple[tuple[int, ...], int, int], ...]
    step: int

    def __len__(self) -> int:
        return sum((last - first) // self.step + 1 for _, first, last in self.fibers)

    def __iter__(self):
        for head, first, last in self.fibers:
            yield from (head + (x,) for x in range(first, last + 1, self.step))


@dataclass(frozen=True)
class ScanFrame:
    """The scan data of one coordinate frame, each part built on first use.

    No frame holds its context, so a context the cache drops is freed at once.
    """

    p: CycloParams
    name: str  # MOMENT or TRANSFORMED

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The vertex columns, in vertex order."""
        if self.name == MOMENT:
            return tuple(vertex(self.p, i) for i in range(1, self.p.n + 1))
        tm = transform(self.p)
        return tuple(tm.column(i) for i in range(1, self.p.n + 1))

    @cached_property
    def normals(self) -> tuple[tuple[int, ...], ...]:
        """The primitive inward facet normals, in facet order.

        A scan point z has moment coordinates L.z for the rows L of
        `to_moment`, so a moment normal a has slack a.(L.z) = (a.L).z: the
        scan normals are a.L, and L is unimodular, so they stay primitive.
        """
        normals = tuple(facet_hyperplane(w, self.p) for w in facets(self.p))
        return normals if self.to_moment is None else mat_mul(normals, self.to_moment)

    @cached_property
    def to_moment(self) -> tuple[tuple[int, ...], ...] | None:
        """Rows of the unit lower-triangular map to moment coordinates (None: the identity)."""
        if self.name == MOMENT:
            return None
        return inverse_transform_factor(self.p)

    @cached_property
    def lattice_rows(self) -> tuple[tuple[int, ...], ...]:
        """Row-style Hermite form of the vertex columns: a basis of the vertex lattice."""
        rows = hnf(self.columns)
        if len(rows) != self.p.d + 1:
            raise ArithmeticError("vertex lattice is not full rank")
        return tuple(rows)

    def box(self, k: int, budget: int | None = None) -> tuple[list[int], list[int]]:
        """Coordinate ranges of the degree-k bounding box, refused past the budget."""
        span = range(1, self.p.d + 1)
        lows = [k * min(c[t] for c in self.columns) for t in span]
        highs = [k * max(c[t] for c in self.columns) for t in span]
        volume = prod(hi - lo + 1 for lo, hi in zip(lows, highs))
        cap = resolve_budget(budget)
        if volume > cap:
            raise BudgetExceeded(f"bounding box holds {volume} candidates (budget {cap})")
        return lows, highs


@dataclass(frozen=True)
class Instance:
    """Per-frame scan data and a slice memo in scan order; each request brings its budget."""

    p: CycloParams
    _frames: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _slices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        return self.frame(MOMENT).columns

    def frame(self, name: str) -> ScanFrame:
        if name not in self._frames:
            if name not in (MOMENT, TRANSFORMED):
                raise ValueError(f"unknown frame {name!r}")
            self._frames[name] = ScanFrame(self.p, name)
        return self._frames[name]

    def slice(
        self, k: int, interior_only: bool = False, vertex_lattice: bool = False,
        budget: int | None = None,
    ) -> Slice:
        """The degree-k slice in scan order, enumerated once and kept as its fibers.

        A memo hit passes the box check a fresh enumeration under `budget` makes.
        """
        key = (k, interior_only, vertex_lattice)
        if key in self._slices:
            self.frame(TRANSFORMED).box(k, budget)
        else:
            self._slices[key] = enumerate_points(
                self.p, k, interior_only, budget=budget, vertex_lattice=vertex_lattice
            )
        return self._slices[key]


@lru_cache(maxsize=1)
def instance(p: CycloParams) -> Instance:
    """The shared context of p: the latest one is kept."""
    return Instance(p)


def _scan_box(k, lows, highs, normals, eps, basis, to_moment):
    """Points z = (k, z_1..z_d) of the lattice `basis` in the box with a.z >= eps for all a.

    `basis` holds the rows of a full-rank row-style Hermite form, so row t
    has its pivot on the diagonal.  Coordinates are fixed left to right.
    Each inequality narrows the current coordinate range using interval
    bounds on the still-free coordinates, so by the last nonzero
    coordinate of a normal that inequality is fully enforced: every value
    of the last range is a point, and that level is emitted whole.  A
    prefix lies in the lattice exactly when each coordinate t is
    congruent, modulo the pivot basis[t][t], to the offset the earlier
    lattice coordinates put on column t; so coordinate t steps through
    that residue class and never visits a point outside the lattice.
    Only the nonzero entries above a pivot carry an offset: with the
    identity basis the scan does no lattice arithmetic at all.

    Each point is emitted as L.z for the unit lower-triangular rows L of
    `to_moment`, or as z when it is None.  Emitted coordinate t is z_t
    plus a shift sum_{j<t} L[t][j] z_j that only the prefix sets, so each
    node computes it once and carries the emitted prefix beside the scan
    prefix.  The last range, shifted, is recorded as the fiber of its
    emitted prefix, and no point is built.
    """
    d = len(lows)
    pivots = [basis[t][t] for t in range(d + 1)]  # pivots[0] is 1: every vertex has x0 = 1
    # the nonzero entries above each pivot, by column; a row's lattice
    # coordinate is stored only when a later column reads it
    above = [[(i, basis[i][t]) for i in range(t) if basis[i][t]] for t in range(d + 1)]
    stored = [any(basis[t][s] for s in range(t + 1, d + 1)) for t in range(d + 1)]
    # the nonzero entries left of the unit diagonal of L, by row
    lower = [[(j, c) for j, c in enumerate(row[:t]) if c] for t, row in enumerate(to_moment or ())]
    coords = [k] + [0] * d  # lattice coordinates of the prefix
    items = []
    for a in normals:
        maxfut = [0] * (d + 2)
        for t in range(d, 0, -1):
            maxfut[t] = maxfut[t + 1] + max(a[t] * lows[t - 1], a[t] * highs[t - 1])
        items.append((a, maxfut))
    fibers = []
    prefix = [k] + [0] * d

    def rec(t: int, partials, head) -> None:
        lo, hi = lows[t - 1], highs[t - 1]
        for (a, maxfut), part in zip(items, partials):
            at = a[t]
            rest = maxfut[t + 1]
            if at == 0:
                if part + rest < eps:  # a_t is zero: prune on reachability
                    return
            elif at > 0:
                need = eps - part - rest
                bound = -((-need) // at)  # ceil division
                if bound > lo:
                    lo = bound
            else:
                cap = part + rest - eps
                bound = cap // (-at)  # floor division
                if bound < hi:
                    hi = bound
        step, offset, store = pivots[t], 0, stored[t]
        if step != 1:  # a unit pivot has nothing above it and admits every residue
            offset = sum(coords[i] * b for i, b in above[t])
            lo += (offset - lo) % step
        if lo > hi:
            return
        shift = sum(prefix[j] * c for j, c in lower[t]) if lower else 0
        if t == d:  # the range enforces every facet: each value is a point
            fibers.append((head, lo + shift, hi - (hi - lo) % step + shift))
            return
        for z in range(lo, hi + 1, step):
            prefix[t] = z
            if store:
                coords[t] = (z - offset) // step
            partials_z = [part + a[t] * z for (a, _), part in zip(items, partials)]
            rec(t + 1, partials_z, head + (z + shift,))

    rec(1, [a[0] * k for a, _ in items], (k,))
    return Slice(tuple(fibers), pivots[d])


def enumerate_points(
    p: CycloParams,
    k: int,
    interior_only: bool = False,
    *,
    frame: str = TRANSFORMED,
    budget: int | None = None,
    vertex_lattice: bool = False,
) -> Slice:
    """The degree-k dilation slice as its fibers, in moment coordinates.

    interior_only keeps only points with strictly positive slack on every
    facet.  vertex_lattice keeps only points of the lattice the vertices
    span, and the scan visits no others: it steps through residue classes
    of the Hermite form of the vertex columns in the scanning frame.  The
    budget still caps the full bounding box either way, checked before
    any scan data is built.  `frame` selects the coordinates enumeration
    works in; the scan emits moment coordinates either way, and in
    lexicographic order with no sort: it fixes coordinates left to right
    over ascending ranges, and the map back is unit lower-triangular, so
    both frames give equal slices, fiber for fiber.
    """
    if k < 0:
        raise InvalidParameters("dilation degree must be nonnegative")
    scan = instance(p).frame(frame)
    lows, highs = scan.box(k, budget)
    if vertex_lattice:
        basis = scan.lattice_rows
    else:
        basis = [tuple(int(i == j) for j in range(p.d + 1)) for i in range(p.d + 1)]
    eps = 1 if interior_only else 0
    return _scan_box(k, lows, highs, scan.normals, eps, basis, scan.to_moment)


def interior_count(p: CycloParams, k: int, *, budget: int | None = None) -> int:
    return len(instance(p).slice(k, True, budget=budget))


@dataclass(frozen=True)
class HStarVector:
    """Numerator coefficients of the lattice-point generating series."""

    h: tuple[int, ...]

    @property
    def normalized_volume(self) -> int:
        return sum(self.h)

    def is_palindromic(self) -> bool:
        """Coefficient symmetry after trailing zeros are dropped."""
        coeffs = list(self.h)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs == coeffs[::-1]


def _pulled_volume(p: CycloParams) -> int:
    """Normalized volume from the pulling triangulation at vertex 1.

    Each facet F without vertex 1 spans one simplex with it, whose
    normalized volume is the Vandermonde product of {tau_1} and tau_F.
    """
    t = p.tau
    return sum(
        prod(b - a for a, b in combinations((t[0],) + tuple(t[i - 1] for i in w), 2))
        for w in facets(p)
        if 1 not in w
    )


def h_star(p: CycloParams, *, budget: int | None = None) -> HStarVector:
    """The series numerator from low degrees alone; entries are always nonnegative.

    h*_0..h*_m, m = ceil(d/2), are the binomial transform of the counts
    of degrees 0..m.  The interior series is the sum over j of
    h*_{d-j} t^(j+1) / (1-t)^(d+1) (Ehrhart-Macdonald reciprocity; Beck &
    Robins, Computing the Continuous Discretely, ch. 4), so the other
    entries come from the interior counts Li(1..floor(d/2)), Li(0) = 0:
    h*_{d-j} = sum over i <= j+1 of (-1)^i C(d+1, i) Li(j+1-i).  No slice
    of degree above ceil(d/2) is enumerated.  The entries sum to the
    normalized volume, which `_pulled_volume` computes a second way.  A
    negative entry, a leading entry other than 1 or a volume mismatch
    can only come from a broken enumeration, so each raises.
    """
    d = p.d
    m = (d + 1) // 2
    ctx = instance(p)
    full = [len(ctx.slice(k, budget=budget)) for k in range(m + 1)]
    inner = [0] + [interior_count(p, k, budget=budget) for k in range(1, d - m + 1)]

    def binomial(counts, j):
        return sum((-1) ** i * comb(d + 1, i) * counts[j - i] for i in range(j + 1))

    h = [binomial(full, j) for j in range(m + 1)]
    h += [binomial(inner, j + 1) for j in reversed(range(d - m))]
    if h[0] != 1 or any(x < 0 for x in h):
        raise ArithmeticError(f"invalid h* transform {h}; enumeration is inconsistent")
    volume = _pulled_volume(p)
    if sum(h) != volume:
        raise ArithmeticError(f"h* {h} sums to {sum(h)}, not the normalized volume {volume}")
    return HStarVector(tuple(h))
