"""Divided-difference vectors over the moment curve and facet lattice bases.

For an index set S the basic object is the integer vector

    sum over i in S of  v_i / prod_{j in S, j != i} (tau_j - tau_i),

the order-(#S - 1) divided difference of the homogenised moment curve at
the chosen parameters, up to the sign (-1)^(#S - 1).  The divided
difference of t^r over #S points is the complete homogeneous symmetric
polynomial of degree r - #S + 1 in their parameters, so the vectors are
computed as those polynomials, in integers.  They satisfy the classical
two-point contraction recurrence, stack into unimodular bases along
index prefixes, and vanish exactly when #S exceeds d+1.  They are
the workhorse for two constructions: integer bases of a facet's lattice
slice, and explicit cone points whose support-form value on a chosen
facet is exactly 1.  Checking those points needs no linear solve: the
support form is the facet's integer normal, and the coordinates of a
point over d+1 vertices are Lagrange ratios of root polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod

from .core import CycloParams, InvalidParameters, root_polynomial, vertex
from .faces import facet_hyperplane
from .intlinalg import dot, hnf, vec_add, vec_sub


@lru_cache(maxsize=65536)
def _bvec_cached(p: CycloParams, s: tuple[int, ...]) -> tuple[int, ...]:
    # coordinate r is (-1)^(m-1) h_(r-m+1)(tau_S); h_j += tau * h_(j-1) adds one variable
    m = len(s)
    h = [1] + [0] * (p.d + 1 - m)
    for i in s:
        t = p.tau[i - 1]
        for j in range(1, len(h)):
            h[j] += t * h[j - 1]
    sign = 1 if m % 2 else -1
    return ((0,) * (m - 1) + tuple(sign * x for x in h))[: p.d + 1]


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


def support_form(w, p: CycloParams) -> tuple[int, ...]:
    """Primitive linear form vanishing on a facet and positive on the rest of the cone.

    It is the facet normal: the form's value at x is dot(normal, x).
    Primitivity makes the form surjective onto Z over the ambient integer
    lattice, so value 1 is attainable in principle.
    """
    return facet_hyperplane(w, p)


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
    """Index of the chain-basis span inside the facet plane's integer lattice (want 1).

    For d integer vectors spanning a hyperplane, the d x d minor that
    drops coordinate i is +-(the index of their span in the plane's
    integer lattice) times entry i of the plane's primitive normal
    (Schrijver, Theory of Linear and Integer Programming, ch. 4).  The
    facet normal is the monic root polynomial of the facet's parameters,
    so its last entry is +-1 and the minor that drops the last
    coordinate is +-index.  That minor is read off its Hermite form: a
    full-rank square integer matrix has |det| equal to the product of its
    Hermite pivots.  A chain vector off the facet or a minor of fewer than
    d Hermite rows can only come from a broken basis, so each raises.
    """
    basis = facet_chain_basis(w, p)
    sf = support_form(w, p)
    if any(dot(sf, v) for v in basis):
        raise ArithmeticError(f"a chain vector of facet {tuple(w)} leaves its plane")
    rows = hnf([v[:-1] for v in basis])
    if len(rows) < p.d:
        raise ArithmeticError(f"the chain basis of facet {tuple(w)} is degenerate")
    return prod(row[i] for i, row in enumerate(rows))


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
    """Exact coordinates of x over d+1 distinct vertex columns, in the order given.

    q_i, the root polynomial of all chosen parameters divided by
    (t - tau_i), vanishes on every chosen vertex but v_i, where it takes
    the value prod (tau_i - tau_j), so the coordinate on v_i is
    dot(q_i, x) over that product: a Lagrange ratio, with no linear solve.
    """
    idx = tuple(indices)
    if not len(idx) == len(_check_index_set(idx, p)) == p.d + 1:
        raise InvalidParameters(f"expected d+1 = {p.d + 1} distinct indices")
    whole = root_polynomial(p.tau[i - 1] for i in idx)
    out = []
    for i in idx:
        t, q = p.tau[i - 1], [1]  # q_i by synthetic division, leading coefficient first
        for c in whole[-2:0:-1]:
            q.append(c + t * q[-1])
        q.reverse()
        out.append(Fraction(dot(q, x), dot(q, vertex(p, i))))
    return tuple(out)
