"""Face combinatorics of the boundary complex and exact facet normals.

The boundary complex of a cyclic polytope is determined by pure
combinatorics.  Its facets are the d-subsets of {1..n} whose interior
runs of consecutive indices, those touching neither 1 nor n, all have
even size (Gale's evenness rule); `facets` is the one place that
applies the rule.  The polytope is simplicial, so its proper faces are
the subsets of facets, and every facet query is a lookup in that list.
The normal of facet W is the coefficient vector of the polynomial whose
roots are W's parameters: its value on vertex j is that polynomial at
tau_j, which vanishes exactly on W and, by the evenness rule, has one
sign on all the other vertices.

A facet's half-space is that primitive integer normal alone, in moment
coordinates: the slack of a cone point x is dot(normal, x), which is 0
on the facet and positive inside.
"""

from __future__ import annotations

from functools import lru_cache

from .core import CycloParams, root_polynomial


class NotAFacet(ValueError):
    """Raised when an operation needs a facet index set but got something else."""


@lru_cache(maxsize=4096)
def facets(p: CycloParams) -> tuple[tuple[int, ...], ...]:
    """All facet index sets, lexicographically sorted.

    These are exactly the d-subsets whose interior runs all have even
    size (Gale's evenness condition; Ziegler, Lectures on Polytopes,
    Thm 0.7); for n = d+1 that is every d-subset.  They are generated
    index by index, each one taken before it is skipped, which is lex
    order; a run that closes before n with odd size and not starting at 1
    is cut at once, and so is a prefix too short to reach d elements.
    """
    n, d = p.n, p.d
    out: list[tuple[int, ...]] = []
    w: list[int] = []

    def grow(x: int, run: int, inner: bool) -> None:
        # w's last run has size `run` and ends at x-1; `inner`: it starts after 1
        closes = not (inner and run % 2)  # the run may stop before x
        if len(w) == d:
            if x > n or closes:
                out.append(tuple(w))
            return
        if n - x + 1 < d - len(w):
            return
        w.append(x)
        grow(x + 1, run + 1, inner if run else x > 1)
        w.pop()
        if closes:
            grow(x + 1, 0, False)

    grow(1, 0, False)
    return tuple(out)


@lru_cache(maxsize=4096)
def facet_normals(p: CycloParams) -> tuple[tuple[int, ...], ...]:
    """The inward normals of `facets(p)`, in facet order, with no facet check."""
    return tuple(_oriented_normal(w, p) for w in facets(p))


def facet_hyperplane(w, p: CycloParams) -> tuple[int, ...]:
    """Primitive inward normal of a facet's supporting hyperplane, moment frame.

    The normal is +-(the coefficients of the product of (t - tau_i) over
    i in W, constant term first), signed to be strictly positive on the
    vertices off the facet; it vanishes on the facet's own.  The
    hyperplane passes through the apex of the homogenised cone, so the
    slack of a point x is dot(normal, x) in every dilation.  A set that
    is not one of `facets(p)`, such as one with a repeated, missing or
    out-of-range index, raises NotAFacet.
    """
    key = tuple(sorted(w))
    normal = _facet_table(p).get(key)
    if normal is None:
        raise NotAFacet(f"{key} is not a facet index set")
    return normal


@lru_cache(maxsize=4096)
def _facet_table(p: CycloParams) -> dict[tuple[int, ...], tuple[int, ...]]:
    return dict(zip(facets(p), facet_normals(p), strict=True))


def _oriented_normal(w: tuple[int, ...], p: CycloParams) -> tuple[int, ...]:
    """The root polynomial of W's parameters, signed positive off the facet W.

    It is monic, hence primitive.  Its value at the first vertex j off W
    is the product of (tau_j - tau_i) over i in W, whose sign is -1 to
    the number of i in W above j; on a facet every vertex off W gives
    that one sign.
    """
    normal = root_polynomial(p.tau[i - 1] for i in w)
    j = next(j for j, i in enumerate(w + (0,), start=1) if i != j)
    if sum(i > j for i in w) % 2:
        return tuple(-x for x in normal)
    return normal
