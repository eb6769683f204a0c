"""Exact lattice-point enumeration in dilations of the homogenised polytope.

Enumeration runs in moment coordinates.  The first t moment coordinates
of C_d(tau) span its shadow C_t(tau), the cyclic polytope on the same
parameters, so the facets of C_t(tau) give coordinate t its exact real
range once the prefix is fixed: the recursion visits no prefix outside
the shadow, and the facets of C_d(tau) make every value of the last
range a point.  A slice can be restricted to the lattice the vertices
span: each coordinate then steps through its residue class modulo the
Hermite pivot, so no point outside that lattice is visited.

The last coordinate is fixed as one range per prefix, so a slice is a
run of fibers: the points that share all but the last coordinate, which
step along it by the last Hermite pivot (1 for the full lattice).  Each
slice is a `Slice` that holds only those fibers, as (head, first, last):
the normality scan reads the fibers, the counts read its `count`, and
only iterating a slice builds its points.

A budget caps the nodes a scan visits, counted while it runs: a scan
that would grind fails with BudgetExceeded instead, naming the degree,
the cap and the bounding-box volume.  The default is 10**6 nodes and can
be overridden per call or through the CYCLOTORIC_BUDGET environment
variable.

Every stage reads one `Instance` context: the scan data (vertex columns,
the facet normals of the polytope and of its shadows, the Hermite rows
of the vertex lattice) and a memo of slices, which `Instance.fibers`
alone reads and writes.  A slice is streamed fiber by fiber, so a reader
that stops early, at a gap, stops the scan too; `enumerate_points`
reads the same stream to its end.  One rule holds for every read: a memo
entry, with the nodes its scan visited, is read back only within the
budget of the request, else the slice is scanned afresh and kept once
read to its end.  `instance` keeps the latest context, keyed on the
parameters alone.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, prod
from typing import NamedTuple

from .core import CycloParams, InvalidParameters, vertex
from .faces import facet_normals, facets
from .intlinalg import hnf

MOMENT = "moment"
DEFAULT_BUDGET = 10**6
BUDGET_ENV_VAR = "CYCLOTORIC_BUDGET"


class BudgetExceeded(RuntimeError):
    """A slice scan would visit more nodes than the enumeration budget."""


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


class Slice:
    """One degree slice as its fibers; its count and iteration give the points.

    `fibers` holds one (head, first, last) per run of points that share
    the head, all coordinates but the last, in lex order of the heads:
    the run is head + (x,) for x = first, first + step, ..., last.
    `nodes` is the number of scan nodes that built it; equality ignores it.
    """

    __slots__ = ("fibers", "step", "nodes")

    def __init__(self, fibers, step: int, nodes: int = 0) -> None:
        self.fibers, self.step, self.nodes = fibers, step, nodes

    def __eq__(self, other):
        return type(other) is Slice and (self.fibers, self.step) == (other.fibers, other.step)

    def count(self) -> int:
        """The number of points as an int of any size; len() overflows past sys.maxsize."""
        return sum((last - first) // self.step + 1 for _, first, last in self.fibers)

    def __len__(self) -> int:
        return self.count()

    def __iter__(self):
        for head, first, last in self.fibers:
            yield from (head + (x,) for x in range(first, last + 1, self.step))


def _refusal(vertices, k: int, cap: int) -> BudgetExceeded:
    """The error of a degree-k scan past `cap` nodes, with its bounding-box volume."""
    volume = prod(
        k * (max(c[t] for c in vertices) - min(c[t] for c in vertices)) + 1
        for t in range(1, len(vertices[0]))
    )
    return BudgetExceeded(
        f"degree {k} scan passes the budget of {cap} nodes (bounding box {volume} candidates)"
    )


class Instance:
    """The scan data of one instance, each part built on first use, and a slice memo.

    Slices are kept in scan order, and each request brings its budget.
    Nothing here refers back to the instance, not even a scan's recursion,
    so one the cache drops is freed at once.
    """

    def __init__(self, p: CycloParams) -> None:
        self.p = p
        self._slices = {}

    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """The vertex columns, in vertex order."""
        return tuple(vertex(self.p, i) for i in range(1, self.p.n + 1))

    @cached_property
    def shadows(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The primitive inward facet normals of C_t(tau), t = 1..d, in facet order.

        The first t+1 coordinates of C_d(tau) span C_t(tau), the cyclic
        polytope on the same parameters, so its facets bound the first t+1
        coordinates of every slice point exactly: shadows[t-1] holds them,
        t+1 entries each, with leading entry +-1, and shadows[d-1] holds
        the facets of C_d(tau).
        """
        d, tau = self.p.d, self.p.tau
        return tuple(facet_normals(CycloParams(t, tau)) for t in range(1, d + 1))

    @cached_property
    def lattice_rows(self) -> tuple[tuple[int, ...], ...]:
        """Row-style Hermite form of the vertex columns: a basis of the vertex lattice."""
        rows = hnf(self.vertices)
        if len(rows) != self.p.d + 1:
            raise ArithmeticError("vertex lattice is not full rank")
        return tuple(rows)

    def step(self, vertex_lattice: bool = False) -> int:
        """The step along the last coordinate within a fiber."""
        return self.lattice_rows[-1][-1] if vertex_lattice else 1

    def stream(self, k: int, vertex_lattice: bool, cap: int):
        """Yield the fibers of the degree-k slice as the scan finds them; return the Slice.

        The slice holds the points z = (k, z_1..z_d) with a.z >= 0 for every
        facet normal a, and with `vertex_lattice` only those of the lattice
        of `lattice_rows`.  Coordinates are fixed left to right.  At level t
        the normals b of `shadows[t-1]`, the facets of the shadow C_t(tau),
        have t+1 entries and a leading entry +-1, so each bounds z_t alone
        once the prefix is fixed: z_t >= -b.prefix where it is 1, z_t <=
        b.prefix where it is -1.  The range of z_t is thus the exact real one
        the closed slice, and so a lattice slice, leaves to the prefix, and
        no node is visited whose prefix lies outside the shadow.  Level d is
        C_d(tau) itself, whose normals are the facets, so every value of its
        range is a point and that level is emitted whole, as a fiber of its
        prefix, with no point built.  Each normal's sum over the prefix is
        carried down the recursion, one product per fixed coordinate.

        A prefix lies in the lattice exactly when each coordinate t is
        congruent, modulo the Hermite pivot, to the offset the earlier
        lattice coordinates put on column t; so coordinate t steps through
        that residue class and never visits a point outside the lattice.
        Only the nonzero entries above a pivot carry an offset: with the
        identity basis the scan does no lattice arithmetic at all.

        A node is one call of the level function: the root, and one per value
        tried at each level below d.  Node cap + 1 raises `_refusal`.
        """
        if k < 0:
            raise InvalidParameters("dilation degree must be nonnegative")
        d, vertices = self.p.d, self.vertices  # rec holds these, never self: no cycle keeps it
        identity = [tuple(int(i == j) for j in range(d + 1)) for i in range(d + 1)]
        basis = self.lattice_rows if vertex_lattice else identity
        pivots = [basis[t][t] for t in range(d + 1)]  # pivots[0] is 1: every vertex has x0 = 1
        # the nonzero entries above each pivot, by column; a row's lattice
        # coordinate is stored only when a later column reads it
        above = [[(i, basis[i][t]) for i in range(t) if basis[i][t]] for t in range(d + 1)]
        stored = [any(basis[t][s] for s in range(t + 1, d + 1)) for t in range(d + 1)]
        # level t's normals split by the sign of their leading entry: lower, then upper bounds
        sides = [
            [[b for b in level if b[-1] == sign] for sign in (1, -1)] for level in self.shadows
        ]
        # coefs[t][u]: entry t of the normals of level t+1+u, the ones fixing z_t feeds
        coefs = [None] + [
            [[[b[t] for b in side] for side in level] for level in sides[t:]] for t in range(1, d)
        ]
        coords = [k] + [0] * d  # lattice coordinates of the prefix
        fibers = []
        nodes = 0

        def rec(t: int, sums, head):
            # sums[u]: per side of level t+u, each normal's sum over the prefix
            nonlocal nodes
            nodes += 1
            if nodes > cap:
                raise _refusal(vertices, k, cap)
            low, high = sums[0]
            lo, hi = -min(low), min(high)
            step, offset, store = pivots[t], 0, stored[t]
            if step != 1:  # a unit pivot has nothing above it and admits every residue
                offset = sum(coords[i] * b for i, b in above[t])
                lo += (offset - lo) % step
            if lo > hi:
                return
            if t == d:
                fiber = (head, lo, hi - (hi - lo) % step)
                fibers.append(fiber)
                yield fiber
                return
            later = list(zip(sums[1:], coefs[t]))
            for z in range(lo, hi + 1, step):
                if store:
                    coords[t] = (z - offset) // step
                nxt = [
                    [[s + c * z for s, c in zip(ss, cs)] for ss, cs in zip(level, cols)]
                    for level, cols in later
                ]
                yield from rec(t + 1, nxt, head + (z,))

        start = [[[b[0] * k for b in side] for side in level] for level in sides]
        yield from rec(1, start, (k,))
        return Slice(tuple(fibers), pivots[d], nodes)

    def fibers(self, k: int, vertex_lattice: bool = False, budget: int | None = None):
        """Yield the fibers of the degree-k slice in scan order; return the Slice.

        The one reader of the memo.  A hit whose scan visited no more
        nodes than `budget` allows is read back; otherwise the slice is
        scanned afresh, so the stream stops where a fresh one would, and
        it is kept once read to its end: one left early, at a gap or at
        the budget, leaves no entry.
        """
        key = (k, vertex_lattice)
        cap = resolve_budget(budget)
        memo = self._slices.get(key)
        if memo is None or memo.nodes > cap:
            memo = self._slices[key] = yield from self.stream(k, vertex_lattice, cap)
        else:
            yield from memo.fibers
        return memo


@lru_cache(maxsize=1)
def instance(p: CycloParams) -> Instance:
    """The shared context of p: the latest one is kept."""
    return Instance(p)


def enumerate_points(
    p: CycloParams,
    k: int,
    interior_only: bool = False,
    *,
    frame: str = MOMENT,  # the one frame; perfbench/tracer.py reads this argument by name
    budget: int | None = None,
    vertex_lattice: bool = False,
) -> Slice:
    """The degree-k dilation slice as its fibers, in lexicographic order.

    vertex_lattice keeps only points of the lattice the vertices span, and
    the scan visits no others: it steps through residue classes of the
    Hermite form of the vertex columns.  interior_only keeps the points of
    strictly positive slack on every facet: each facet normal has last
    entry +-1, so they are the closed slice's fibers less their two ends,
    with its nodes, and are not taken on the vertex lattice.  The budget
    caps the nodes the scan visits.  No sort runs: the scan fixes
    coordinates left to right over ascending ranges.  This is
    `instance(p).fibers` read to its end, so it reads and fills that memo
    by the same rule.
    """
    if frame != MOMENT:
        raise ValueError(f"unknown frame {frame!r}")
    if interior_only and vertex_lattice:
        raise InvalidParameters("interior slices are taken in the full lattice only")
    stream = instance(p).fibers(k, vertex_lattice, budget)
    try:
        while True:
            next(stream)
    except StopIteration as end:
        closed = end.value
    if not interior_only:
        return closed
    inner = tuple((head, a + 1, b - 1) for head, a, b in closed.fibers if b - a > 1)
    return Slice(inner, 1, closed.nodes)


def interior_count(p: CycloParams, k: int, *, budget: int | None = None) -> int:
    return enumerate_points(p, k, True, budget=budget).count()


class HStarVector(NamedTuple):
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
    h*_{d-j} = sum over i <= j+1 of (-1)^i C(d+1, i) Li(j+1-i).  Every
    count reads a slice of degree 0..ceil(d/2), each scanned once.  The
    entries sum to the normalized volume, which `_pulled_volume` computes
    a second way.  A negative entry, a leading entry other than 1 or a
    volume mismatch can only come from a broken enumeration, so each raises.
    """
    d = p.d
    m = (d + 1) // 2
    full = [enumerate_points(p, k, budget=budget).count() for k in range(m + 1)]
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
