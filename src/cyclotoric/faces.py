"""Face combinatorics of the boundary complex and exact facet hyperplanes.

The boundary complex of a cyclic polytope is determined by pure
combinatorics: split a subset of {1..n} into end sets (runs touching 1
or n) and interior runs, and count the odd-sized interior runs.  Facets
are the d-subsets with no odd interior run (the evenness rule).  The
normal of facet W is the coefficient vector of the polynomial whose
roots are W's parameters: its value on vertex j is that polynomial at
tau_j, which vanishes exactly on W and, by the evenness rule, has one
sign on all the other vertices.

Hyperplanes carry the coordinate frame they live in ("moment" for raw
vertex coordinates, "transformed" for the triangularised ones) and
evaluators refuse to mix frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .core import (
    CycloParams,
    DeltaTable,
    InvalidParameters,
    inverse_transform_factor,
    root_polynomial,
    vertex,
)
from .intlinalg import dot, vector_gcd

MOMENT = "moment"
TRANSFORMED = "transformed"


class NotAFacet(ValueError):
    """Raised when an operation needs a facet index set but got something else."""


@dataclass(frozen=True)
class SubsetDecomposition:
    """Split of W into a low end set, ordered interior runs, and a high end set."""

    y1: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    y2: tuple[int, ...]


@dataclass(frozen=True)
class FaceType:
    """Cardinality r and the number s of odd-sized interior runs."""

    r: int
    s: int


def decompose(w, n: int) -> SubsetDecomposition:
    """Unique decomposition of W into end sets and interior runs.

    A run containing 1 or n is an end set; the remaining maximal runs of
    consecutive integers are the interior blocks, in increasing order.
    """
    elems = sorted(set(w))
    if elems and (elems[0] < 1 or elems[-1] > n):
        raise InvalidParameters(f"subset elements must lie in 1..{n}")
    runs: list[list[int]] = []
    for x in elems:
        if runs and runs[-1][-1] == x - 1:
            runs[-1].append(x)
        else:
            runs.append([x])
    y1: tuple[int, ...] = ()
    y2: tuple[int, ...] = ()
    if runs and runs[0][0] == 1:
        y1 = tuple(runs.pop(0))
    if runs and runs[-1][-1] == n:
        y2 = tuple(runs.pop())
    return SubsetDecomposition(y1, tuple(tuple(r) for r in runs), y2)


def face_type(w, n: int) -> FaceType:
    dec = decompose(w, n)
    r = len(dec.y1) + sum(len(b) for b in dec.blocks) + len(dec.y2)
    s = sum(1 for b in dec.blocks if len(b) % 2 == 1)
    return FaceType(r, s)


def is_face(w, p: CycloParams) -> bool:
    """Whether W spans a proper face of the boundary complex (empty set included)."""
    ft = face_type(w, p.n)
    return ft.r <= p.d and ft.s <= p.d - ft.r


@lru_cache(maxsize=4096)
def facets(p: CycloParams) -> tuple[tuple[int, ...], ...]:
    """All facet index sets, lexicographically sorted.

    These are exactly the d-subsets whose interior runs all have even
    size; for n = d+1 that is every d-subset.
    """
    out = []
    for w in combinations(range(1, p.n + 1), p.d):
        if face_type(w, p.n).s == 0:
            out.append(w)
    return tuple(out)


@dataclass(frozen=True)
class Hyperplane:
    """Closed half-space with a primitive integer normal.

    The right-hand side scales with the grading coordinate x0, so one
    object tests membership in every dilation: a point z satisfies the
    constraint iff slack(z) >= 0, with strict slack meaning the point is
    off the hyperplane.
    """

    normal: tuple[int, ...]
    rhs: int
    sense: str  # ">=" or "<="
    facet_indices: tuple[int, ...] | None
    frame: str  # MOMENT or TRANSFORMED

    def slack(self, x) -> int:
        v = dot(self.normal, x) - self.rhs * x[0]
        return v if self.sense == ">=" else -v


def require_uniform_frame(hyperplanes, frame: str | None = None) -> str:
    frames = {h.frame for h in hyperplanes}
    if frame is not None:
        frames.add(frame)
    if len(frames) != 1:
        raise ValueError(f"mixed coordinate frames: {sorted(frames)}")
    return frames.pop()


def _oriented_facet_normal(w: tuple[int, ...], p: CycloParams) -> tuple[int, ...]:
    # monic, hence primitive; its value off W is a product of nonzero differences
    normal = root_polynomial(p.tau[i - 1] for i in w)
    j = next(j for j in range(1, p.n + 1) if j not in w)
    return normal if dot(normal, vertex(p, j)) > 0 else tuple(-x for x in normal)


def facet_hyperplane(w, p: CycloParams) -> Hyperplane:
    """Primitive oriented supporting hyperplane of a facet, moment frame.

    The normal is +-(the coefficients of the product of (t - tau_i) over
    i in W, constant term first), signed to be strictly positive on the
    vertices off the facet; it vanishes on the facet's own.  rhs is 0
    because these hyperplanes pass through the apex of the homogenised
    cone.
    """
    return _facet_hyperplane_cached(tuple(sorted(w)), p)


@lru_cache(maxsize=65536)
def _facet_hyperplane_cached(w: tuple[int, ...], p: CycloParams) -> Hyperplane:
    ft = face_type(w, p.n)
    if ft.r != p.d or ft.s != 0:
        raise NotAFacet(f"{w} is not a facet index set")
    return Hyperplane(_oriented_facet_normal(w, p), 0, ">=", w, MOMENT)


def simplex_halfspaces(p: CycloParams) -> list[Hyperplane]:
    """The d+1 closed half-spaces cutting out the simplex case n = d+1.

    These live in the transformed coordinates.  The first one bounds
    above with a nonzero right-hand side; the others are homogeneous
    lower bounds.  Half-space i supports the facet omitting vertex i,
    and every normal ends in +-1, hence is primitive.
    """
    if p.n != p.d + 1:
        raise InvalidParameters("closed-form half-spaces need n = d+1")
    d = p.d
    dt = DeltaTable(p)

    def tail_product(i: int, t: int) -> int:
        out = 1
        for j in range(t + 2, d + 2):
            out *= dt.delta(i, j)
        return out

    out = []
    a1 = [0] * (d + 1)
    for t in range(1, d + 1):
        a1[t] = (-1) ** (t + 1) * tail_product(1, t)
    rhs1 = 1
    for j in range(2, d + 2):
        rhs1 *= dt.delta(1, j)
    out.append(Hyperplane(tuple(a1), rhs1, "<=", tuple(range(2, d + 2)), TRANSFORMED))
    for i in range(2, d + 2):
        a = [0] * (d + 1)
        for t in range(i - 1, d + 1):
            a[t] = (-1) ** (t - i + 1) * tail_product(i, t)
        rest = tuple(x for x in range(1, d + 2) if x != i)
        out.append(Hyperplane(tuple(a), 0, ">=", rest, TRANSFORMED))
    for h in out:
        if vector_gcd(h.normal) != 1:
            raise ArithmeticError("half-space normal is not primitive")
    return out


def transport_to_transformed(h: Hyperplane, p: CycloParams) -> Hyperplane:
    """Rewrite a moment-frame half-space in the triangularised coordinates."""
    if h.frame != MOMENT:
        raise ValueError("expected a moment-frame hyperplane")
    uinv = inverse_transform_factor(p)
    k = len(uinv)
    normal = tuple(sum(h.normal[s] * uinv[s][t] for s in range(k)) for t in range(k))
    return Hyperplane(normal, h.rhs, h.sense, h.facet_indices, TRANSFORMED)

