"""Exact lattice-point enumeration in dilations of the homogenised polytope.

Enumeration runs by default in the triangularised coordinates, where
vertex entries are running gap products instead of raw powers, and maps
results back through the inverse row-operation matrix; a moment-frame
path exists for cross-checking.  Candidate ranges come from the vertex
coordinate extrema and are narrowed per coordinate by the facet
inequalities, so the recursion only visits feasible prefixes.

A budget caps the bounding-box volume: instances that would grind fail
fast with BudgetExceeded instead.  The default is 10**8 candidates and
can be overridden per call or through the CYCLOTORIC_BUDGET environment
variable.

Every stage reads one `Instance` context: facet normals, vertices and a
memo that enumerates each degree slice once.  `instance` keeps
the latest one, keyed on the parameters and the resolved budget, so a
slice is never handed to a call whose budget refuses its box.  Code
with no budget of its own (`enumerate_points`, the Gorenstein candidate
solve) reads geometry from a fresh `Instance(p)` instead: a lookup under
another budget would evict the context a classification is using.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb

from .core import CycloParams, InvalidParameters, inverse_transform_factor, transform, vertex
from .faces import (
    MOMENT,
    TRANSFORMED,
    Hyperplane,
    facet_hyperplane,
    facets,
    require_uniform_frame,
    transport_to_transformed,
)
from .intlinalg import mat_vec

DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "CYCLOTORIC_BUDGET"


class BudgetExceeded(RuntimeError):
    """Bounding box larger than the enumeration budget."""


def resolve_budget(budget: int | None = None) -> int:
    if budget is not None:
        return int(budget)
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return DEFAULT_BUDGET
    try:
        return int(env)
    except ValueError:
        raise InvalidParameters(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None


@dataclass(frozen=True)
class Instance:
    """Geometry built on first use, and slices memoised under one budget."""

    p: CycloParams
    budget: int | None = None
    _slices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def hyperplanes(self) -> tuple[Hyperplane, ...]:
        """Facet hyperplanes in the moment frame, in facet order."""
        return tuple(facet_hyperplane(w, self.p) for w in facets(self.p))

    @cached_property
    def normals(self) -> tuple[tuple[int, ...], ...]:
        return tuple(h.normal for h in self.hyperplanes)

    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(vertex(self.p, i) for i in range(1, self.p.n + 1))

    def slice(self, k: int, interior_only: bool = False) -> list[tuple[int, ...]]:
        """The degree-k slice, enumerated once; callers must not mutate it."""
        key = (k, interior_only)
        if key not in self._slices:
            self._slices[key] = enumerate_points(self.p, k, interior_only, budget=self.budget)
        return self._slices[key]


def instance(p: CycloParams, budget: int | None = None) -> Instance:
    """The shared context of p under the resolved budget."""
    return _instance(p, resolve_budget(budget))


@lru_cache(maxsize=1)
def _instance(p: CycloParams, budget: int) -> Instance:
    return Instance(p, budget)


def cone_halfspaces(ctx: Instance, frame: str = MOMENT) -> list:
    hps = list(ctx.hyperplanes)
    if frame == TRANSFORMED:
        hps = [transport_to_transformed(h, ctx.p) for h in hps]
    elif frame != MOMENT:
        raise ValueError(f"unknown frame {frame!r}")
    return hps


def _vertex_columns(ctx: Instance, frame: str) -> list[tuple[int, ...]]:
    if frame == MOMENT:
        return list(ctx.vertices)
    tm = transform(ctx.p)
    return [tm.column(i) for i in range(1, ctx.p.n + 1)]


def _scan_box(k, lows, highs, normals, eps):
    """All integer points (k, z_1..z_d) in the box with a.z >= eps for every a.

    Coordinates are fixed left to right; each inequality narrows the
    current coordinate range using interval bounds on the still-free
    coordinates, so by the last nonzero coordinate of a normal that
    inequality is fully enforced.
    """
    d = len(lows)
    items = []
    for a in normals:
        maxfut = [0] * (d + 2)
        for t in range(d, 0, -1):
            maxfut[t] = maxfut[t + 1] + max(a[t] * lows[t - 1], a[t] * highs[t - 1])
        items.append((a, maxfut))
    out = []
    prefix = [k] + [0] * d

    def rec(t: int, partials) -> None:
        if t > d:
            out.append(tuple(prefix))
            return
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
        if lo > hi:
            return
        for z in range(lo, hi + 1):
            prefix[t] = z
            rec(t + 1, [part + a[t] * z for (a, _), part in zip(items, partials)])

    rec(1, [a[0] * k for a, _ in items])
    return out


def enumerate_points(
    p: CycloParams,
    k: int,
    interior_only: bool = False,
    *,
    frame: str = TRANSFORMED,
    budget: int | None = None,
) -> list[tuple[int, ...]]:
    """Lattice points of the degree-k dilation slice, in moment coordinates.

    interior_only keeps only points with strictly positive slack on every
    facet.  `frame` selects the coordinates enumeration works in; output
    is always mapped back to moment coordinates and sorted
    lexicographically, so both frames must agree point for point.
    """
    if k < 0:
        raise InvalidParameters("dilation degree must be nonnegative")
    ctx = Instance(p)  # geometry only: the primitive never touches the shared context
    cols = _vertex_columns(ctx, frame)
    d = p.d
    lows = [k * min(c[t] for c in cols) for t in range(1, d + 1)]
    highs = [k * max(c[t] for c in cols) for t in range(1, d + 1)]
    volume = 1
    for lo, hi in zip(lows, highs):
        volume *= hi - lo + 1
    cap = resolve_budget(budget)
    if volume > cap:
        raise BudgetExceeded(f"bounding box holds {volume} candidates (budget {cap})")
    hps = cone_halfspaces(ctx, frame)
    require_uniform_frame(hps, frame)
    normals = [h.normal for h in hps]
    pts = _scan_box(k, lows, highs, normals, 1 if interior_only else 0)
    if frame == TRANSFORMED:
        uinv = inverse_transform_factor(p)
        pts = [mat_vec(uinv, z) for z in pts]
    return sorted(pts)


def ehrhart_counts(p: CycloParams, k_max: int, *, budget: int | None = None) -> list[int]:
    """Lattice-point counts of the dilations 0..k_max."""
    if k_max < 0:
        raise InvalidParameters("k_max must be nonnegative")
    ctx = instance(p, budget)
    return [len(ctx.slice(k)) for k in range(k_max + 1)]


def interior_count(p: CycloParams, k: int, *, budget: int | None = None) -> int:
    return len(instance(p, budget).slice(k, True))


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


def h_star(p: CycloParams, *, budget: int | None = None) -> HStarVector:
    """Binomial transform of the counts 0..d; entries are always nonnegative.

    A negative entry or a leading entry other than 1 can only come from a
    broken enumeration, so either raises.
    """
    counts = ehrhart_counts(p, p.d, budget=budget)
    d = p.d
    h = []
    for j in range(d + 1):
        h.append(sum((-1) ** i * comb(d + 1, i) * counts[j - i] for i in range(j + 1)))
    if h[0] != 1 or any(x < 0 for x in h):
        raise ArithmeticError(f"invalid h* transform {h}; enumeration is inconsistent")
    return HStarVector(tuple(h))
