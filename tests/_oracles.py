"""Independent oracles the tests check production code against.

The oracles deliberately avoid the production code paths they are used
to verify: facets come from rational nullspaces and sign patterns rather
than the combinatorial rule, polygon counts come from shoelace areas and
gcd boundary counts, and simplex volumes come from the closed-form
difference product.

Below them are helpers only the tests call, kept out of the package:
the alternating divided-difference form, the contraction identity,
prefix bases, the non-face partition scan, the last-row heights, a
generic nullspace, the facet-sign cone test, the memoised membership
search, and the two cone-probe normality scans that production's
degree-below lookup (`kp.first_gap`) replaced.  The last three read the
shared instance context, as production does.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from cyclotoric.core import CycloParams, DeltaTable, InvalidParameters, vertex
from cyclotoric.divdiff import _check_index_set, bvec
from cyclotoric.faces import is_face
from cyclotoric.intlinalg import dot, primitive, vec_sub
from cyclotoric.kp import r1_issues
from cyclotoric.kq import generator_lattice
from cyclotoric.lattice import BudgetExceeded, Instance, instance


def brute_facets(p: CycloParams) -> tuple[tuple[int, ...], ...]:
    """Facets by exact hyperplane testing: a d-subset spans a facet iff the
    nullspace of its vertex rows is a line whose values on the remaining
    vertices all share one sign."""
    out = []
    for w in combinations(range(1, p.n + 1), p.d):
        rows = [vertex(p, i) for i in w]
        basis = nullspace(rows)
        if len(basis) != 1:
            continue
        m = basis[0]
        vals = [dot(m, vertex(p, j)) for j in range(1, p.n + 1) if j not in w]
        if all(v > 0 for v in vals) or all(v < 0 for v in vals):
            out.append(w)
    return tuple(out)


def brute_is_face(w, p: CycloParams) -> bool:
    """Proper faces of a simplicial polytope are exactly the subsets of facets."""
    w = tuple(sorted(set(w)))
    if not w:
        return True
    return any(set(w) <= set(f) for f in brute_facets(p))


def polygon_pick_data(p: CycloParams) -> tuple[int, int, int]:
    """(2*area, boundary points, interior points) of a d=2 instance.

    Shoelace for twice the area, gcd run lengths along hull edges for the
    boundary count, then interior = area - boundary/2 + 1.
    """
    assert p.d == 2
    hull = [(t, t * t) for t in p.tau]  # convex position along the parabola
    twice_area = 0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
        twice_area += x1 * y2 - x2 * y1
    twice_area = abs(twice_area)
    boundary = sum(
        gcd(abs(x2 - x1), abs(y2 - y1))
        for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1])
    )
    interior = (twice_area - boundary + 2) // 2
    assert (twice_area - boundary + 2) % 2 == 0
    return twice_area, boundary, interior


def vandermonde_product(p: CycloParams) -> int:
    out = 1
    for i in range(p.n):
        for j in range(i + 1, p.n):
            out *= p.tau[j] - p.tau[i]
    return out


def gap_family(max_d: int, max_n: int, max_gap: int, d_min: int = 1):
    """All (d, tau) with tau_1 = 0 over the full gap grid, no deduplication."""
    from itertools import product

    for d in range(d_min, max_d + 1):
        for n in range(d + 1, max_n + 1):
            for gaps in product(range(1, max_gap + 1), repeat=n - 1):
                tau = [0]
                for g in gaps:
                    tau.append(tau[-1] + g)
                yield d, tuple(tau)


def identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def nullspace(rows) -> list[tuple[int, ...]]:
    """Primitive integer basis of the rational right-nullspace of an integer matrix."""
    m = len(rows)
    n = len(rows[0])
    a = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][col]
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    basis = []
    pivot_set = set(pivots)
    for fc in (c for c in range(n) if c not in pivot_set):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        den = 1
        for x in v:
            den = den * x.denominator // gcd(den, x.denominator)
        basis.append(primitive([int(x * den) for x in v]))
    return basis


def bvec_alternating(s, p: CycloParams) -> tuple[Fraction, ...]:
    """The same vector via the alternating absolute-value form.

    Kept as an independent second route: production code uses the signed
    form only, and the two are compared in tests.
    """
    s = _check_index_set(s, p)
    tau = p.tau
    coords = [Fraction(0)] * (p.d + 1)
    for k, i in enumerate(s):
        ti = tau[i - 1]
        denom = 1
        for j in s:
            if j != i:
                denom *= abs(tau[j - 1] - ti)
        sign = (-1) ** k
        vi = vertex(p, i)
        for t in range(p.d + 1):
            coords[t] += sign * Fraction(vi[t], denom)
    return tuple(coords)


def bvec_recursion_check(s, a: int, b: int, p: CycloParams) -> bool:
    """Exact check of the two-point contraction identity.

    The vector of S equals the vector of S-minus-a scaled by 1/(t_a - t_b)
    plus the vector of S-minus-b scaled by 1/(t_b - t_a).
    """
    s = _check_index_set(s, p)
    if a == b or a not in s or b not in s:
        raise InvalidParameters("a and b must be distinct members of S")
    if len(s) < 2:
        raise InvalidParameters("S must have at least two elements")
    dba = p.tau[a - 1] - p.tau[b - 1]
    left = bvec(s, p)
    va = bvec(tuple(x for x in s if x != a), p)
    vb = bvec(tuple(x for x in s if x != b), p)
    return all(
        Fraction(lx) == Fraction(ax, dba) + Fraction(bx, -dba)
        for lx, ax, bx in zip(left, va, vb)
    )


def basis_matrix(indices, p: CycloParams) -> tuple[tuple[int, ...], ...]:
    """Rows are the divided-difference vectors of the index prefixes.

    For d+1 distinct indices in any order the rows form a basis of the
    full integer lattice; the determinant is always +-1.
    """
    idx = tuple(indices)
    if len(set(idx)) != len(idx):
        raise InvalidParameters("indices must be distinct")
    if len(idx) != p.d + 1:
        raise InvalidParameters(f"expected d+1 = {p.d + 1} indices")
    return tuple(bvec(idx[: q + 1], p) for q in range(len(idx)))


def nonface_partitions(p: CycloParams) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All splits [n] = F | G with 1 in F where neither side spans a face.

    Only defined for n = d+2, where the expected outcome is the single
    odds/evens split.
    """
    if p.n != p.d + 2:
        raise InvalidParameters("partition scan expects n = d+2")
    n = p.n
    rest = list(range(2, n + 1))
    out = []
    for mask in range(1 << (n - 1)):
        f = (1,) + tuple(x for b, x in enumerate(rest) if mask >> b & 1)
        g = tuple(x for b, x in enumerate(rest) if not mask >> b & 1)
        if not is_face(f, p) and not is_face(g, p):
            out.append((f, g))
    out.sort()
    return out


def leading_facet_heights(p: CycloParams) -> tuple[tuple[int, ...], int]:
    """Last triangular row evaluated on the trailing vertices, with its gcd.

    Diagnostic view of the support form of the facet spanned by the first
    d vertices, normalised to the vertex lattice rather than the ambient
    one; dividing the raw values by the gcd gives the lattice-normalised
    form.
    """
    dt = DeltaTable(p)
    vals = tuple(dt.delta_tilde(p.d, i) for i in range(p.d + 1, p.n + 1))
    g = 0
    for v in vals:
        g = gcd(g, v)
    return vals, g


def in_cone(ctx: Instance, x) -> bool:
    """Cone membership: facet hyperplanes pass through the apex (rhs 0, >=)."""
    return all(dot(a, x) >= 0 for a in ctx.normals)


def member_kp(z, p: CycloParams, *, budget: int | None = None) -> bool:
    """Membership of z in the semigroup generated by all degree-1 lattice points.

    Decided by memoized degree-descending search: subtract one generator,
    recurse, accept only the origin at degree 0; branches leaving the cone
    are pruned.
    """
    z = tuple(z)
    ctx = instance(p, budget)
    gens = ctx.slice(1)
    memo: dict[tuple[int, ...], bool] = {}

    def rec(x) -> bool:
        if x[0] == 0:
            return not any(x)
        if x[0] < 0 or not in_cone(ctx, x):
            return False
        cached = memo.get(x)
        if cached is not None:
            return cached
        ok = any(rec(vec_sub(x, g)) for g in gens)
        memo[x] = ok
        return ok

    return rec(z)


def cone_probe_normal_kp(
    p: CycloParams, max_degree: int | None = None, *, budget: int | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Exhaustive normality check; returns (flag, first failing point or None).

    Degrees 2..max_degree are scanned in (degree, lex) order.  The default
    bound d is exhaustive: any cone lattice point of degree above d has a
    vertex coefficient >= 1 in some conic combination, so peeling whole
    vertices reduces every membership question to degree <= d.  Because
    degrees are verified in order, a degree-k point is a member iff one
    generator step lands back in the cone.
    """
    bound = p.d if max_degree is None else max_degree
    ctx = instance(p, budget)
    vert_set = set(ctx.vertices)
    gens = ctx.vertices + tuple(g for g in ctx.slice(1) if g not in vert_set)
    for k in range(2, bound + 1):
        for z in ctx.slice(k):
            if not any(in_cone(ctx, vec_sub(z, g)) for g in gens):
                return False, z
    return True, None


def cone_probe_normal_kq(
    p: CycloParams, max_degree: int | None = None, *, budget: int | None = None
) -> tuple[str, tuple[int, ...] | None]:
    """Search for a cone-and-lattice point missed by the vertex semigroup.

    Returns ("normal" | "not_normal" | "inconclusive", witness).  Degrees
    above d are redundant by the usual vertex-peeling argument, so the
    default bound is exhaustive; hitting the enumeration budget downgrades
    the verdict to inconclusive, never to a wrong answer.  Degrees are
    verified in order, so at degree k one vertex subtraction landing in
    the cone certifies membership.
    """
    bound = p.d if max_degree is None else max_degree
    lat = generator_lattice(p)
    ctx = instance(p, budget)
    vert_set = set(ctx.vertices)
    try:
        for k in range(1, bound + 1):
            for z in ctx.slice(k):
                if not lat.contains(z):
                    continue
                if k == 1:
                    if z not in vert_set:
                        return "not_normal", z
                    continue
                if not any(in_cone(ctx, vec_sub(z, v)) for v in ctx.vertices):
                    return "not_normal", z
    except BudgetExceeded:
        return "inconclusive", None
    return "normal", None


def verify_r1(p: CycloParams) -> bool:
    return not r1_issues(p)
