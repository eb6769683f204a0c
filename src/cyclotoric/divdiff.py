"""Divided-difference vectors over the moment curve and facet lattice bases.

For an index set S the basic object is the integer vector

    sum over i in S of  v_i / prod_{j in S, j != i} (tau_j - tau_i),

the order-(#S - 1) divided difference of the homogenised moment curve at
the chosen parameters.  These vectors are always integral, satisfy the
classical two-point contraction recurrence, stack into unimodular bases
along index prefixes, and vanish exactly when #S exceeds d+1.  They are
the workhorse for two constructions: integer bases of a facet's lattice
slice, and explicit cone points whose support-form value on a chosen
facet is exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import CycloParams, InvalidParameters, vertex
from .faces import facet_hyperplane
from .intlinalg import (
    dot,
    hyperplane_lattice_index,
    solve_exact,
    vec_add,
    vec_sub,
)


@lru_cache(maxsize=65536)
def _bvec_cached(p: CycloParams, s: tuple[int, ...]) -> tuple[int, ...]:
    tau = p.tau
    coords = [Fraction(0)] * (p.d + 1)
    for i in s:
        ti = tau[i - 1]
        denom = 1
        for j in s:
            if j != i:
                denom *= tau[j - 1] - ti
        vi = vertex(p, i)
        for t in range(p.d + 1):
            coords[t] += Fraction(vi[t], denom)
    out = []
    for x in coords:
        if x.denominator != 1:
            raise ArithmeticError("divided-difference vector failed to be integral")
        out.append(int(x))
    return tuple(out)


def _check_index_set(s, p: CycloParams) -> tuple[int, ...]:
    s = tuple(sorted(set(s)))
    if not s:
        raise InvalidParameters("index set must be nonempty")
    if s[0] < 1 or s[-1] > p.n:
        raise InvalidParameters(f"indices must lie in 1..{p.n}")
    return s


def bvec(s, p: CycloParams) -> tuple[int, ...]:
    """Integer divided-difference vector of a nonempty index set.

    Independent of input order; a singleton returns the vertex itself and
    any set with more than d+1 indices returns the zero vector.
    """
    return _bvec_cached(p, _check_index_set(s, p))


@dataclass(frozen=True)
class SupportForm:
    """Primitive linear form vanishing on a facet and positive on the rest of the cone.

    Primitivity makes the form surjective onto Z over the ambient integer
    lattice, so value 1 is attainable in principle.
    """

    facet_indices: tuple[int, ...]
    normal: tuple[int, ...]

    def value_on(self, x) -> int:
        return dot(self.normal, x)


def support_form(w, p: CycloParams) -> SupportForm:
    h = facet_hyperplane(tuple(sorted(w)), p)
    return SupportForm(h.facet_indices, h.normal)


def facet_chain_basis(w, p: CycloParams) -> list[tuple[int, ...]]:
    """Integer points inside a facet whose span is the facet's full lattice slice.

    Entry j is the suffix sum of divided-difference vectors over
    {i_j..i_d}, {i_{j+1}..i_d}, ..., {i_d}; the last entry is the vertex
    v_{i_d} itself.  Each point is a nonnegative rational combination of
    the facet's vertices.
    """
    w = tuple(sorted(w))
    facet_hyperplane(w, p)  # validates the facet
    acc = (0,) * (p.d + 1)
    rev = []
    for j in range(len(w) - 1, -1, -1):
        acc = vec_add(acc, bvec(w[j:], p))
        rev.append(acc)
    return rev[::-1]


def facet_lattice_index(w, p: CycloParams) -> int:
    """Index of the chain-basis span inside the facet plane's integer lattice (want 1)."""
    sf = support_form(w, p)
    return hyperplane_lattice_index(facet_chain_basis(w, p), sf.normal)


def r1_witness(w, k: int, p: CycloParams) -> tuple[int, ...]:
    """Integer cone point whose support-form value on the facet is exactly 1.

    Construction: sort S = W + {k} and locate the position of the apex k;
    take the members of S sitting at positions of the opposite parity,
    form their suffix-sum point (which lies inside the facet), and correct
    by the divided-difference vector of all of S, adding it when the
    apex position is odd and subtracting it when even.
    """
    w = tuple(sorted(w))
    facet_hyperplane(w, p)  # validates the facet
    if k in w:
        raise InvalidParameters("apex must lie outside the facet")
    if not 1 <= k <= p.n:
        raise InvalidParameters(f"apex must lie in 1..{p.n}")
    s = tuple(sorted(w + (k,)))
    pos = s.index(k) + 1
    wanted = 0 if pos % 2 == 1 else 1  # opposite parity, 1-based positions
    members = [x for q, x in enumerate(s, start=1) if q % 2 == wanted]
    x = (0,) * (p.d + 1)
    for l in range(len(members)):
        x = vec_add(x, bvec(tuple(members[l:]), p))
    bs = bvec(s, p)
    return vec_add(x, bs) if pos % 2 == 1 else vec_sub(x, bs)


def cone_coefficients(x, indices, p: CycloParams) -> tuple[Fraction, ...]:
    """Exact coordinates of x over d+1 chosen vertex columns."""
    idx = tuple(indices)
    if len(idx) != p.d + 1:
        raise InvalidParameters(f"expected d+1 = {p.d + 1} indices")
    cols = [vertex(p, i) for i in idx]
    rows = [[col[t] for col in cols] for t in range(p.d + 1)]
    sol = solve_exact(rows, list(x))
    if sol is None:
        raise ArithmeticError("point is not in the span of the chosen vertices")
    return sol
