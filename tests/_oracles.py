"""Independent oracles the tests check production code against.

The oracles deliberately avoid the production code paths they are used
to verify: facets come from integer maximal minors (Bareiss
determinants) and sign patterns rather than the combinatorial rule,
polygon counts come from shoelace areas and gcd boundary counts, and
simplex volumes come from the closed-form difference product.

Below them are helpers only the tests call, kept out of the package:
the alternating divided-difference form, the contraction identity,
prefix bases, the non-face partition scan, the last-row heights, the
dilation counts of every degree 0..d and the h* their binomial
transform gives (production reads fewer slices), a generic nullspace,
the facet-sign cone test, the memoised membership search, the two
cone-probe normality scans that production's degree-below lookup
replaced, and that lookup point by point, which the fiber scan
(`kp.first_gap`) replaced.  The counts and the last four read an
instance context, as production does.  Last come the two formulas
production replaced by cheaper ones: Gauss-Jordan elimination over
Fraction (`intlinalg.solve_exact` eliminates in integers) and one root
polynomial per cone coefficient (`divdiff.cone_coefficients` divides one
polynomial of all the parameters).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, prod

from cyclotoric.core import CycloParams, InvalidParameters, delta_tilde, root_polynomial, vertex
from cyclotoric.divdiff import _check_index_set, bvec
from cyclotoric.intlinalg import dot, primitive, vec_sub
from cyclotoric.kp import r1_issues
from cyclotoric.kq import generator_lattice
from cyclotoric.lattice import BudgetExceeded, Instance, Slice, enumerate_points, instance


def brute_facets(p: CycloParams) -> tuple[tuple[int, ...], ...]:
    """Facets by exact hyperplane testing: a d-subset spans a facet iff the
    normal of its vertex rows (their signed maximal minors) is nonzero and
    its values on the remaining vertices all share one sign."""
    verts = {i: vertex(p, i) for i in range(1, p.n + 1)}
    out = []
    for w in combinations(verts, p.d):
        m = minors_normal([verts[i] for i in w])
        if not any(m):
            continue
        vals = [dot(m, v) for j, v in verts.items() if j not in w]
        if all(v > 0 for v in vals) or all(v < 0 for v in vals):
            out.append(w)
    return tuple(out)


def minors_normal(rows) -> list[int]:
    """Signed maximal minors of d rows of length d+1: a normal of their span, zero if rank < d."""
    return [
        (-1) ** j * bareiss_det([row[:j] + row[j + 1 :] for row in rows])
        for j in range(len(rows) + 1)
    ]


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[n - 1][n - 1] if n else 1


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


def ehrhart_counts(p: CycloParams, k_max: int, *, budget: int | None = None) -> list[int]:
    """Lattice-point counts of the dilations 0..k_max."""
    if k_max < 0:
        raise InvalidParameters("k_max must be nonnegative")
    return [len(enumerate_points(p, k, budget=budget)) for k in range(k_max + 1)]


def h_star_all_degrees(p: CycloParams, *, budget: int | None = None) -> tuple[int, ...]:
    """h* as the binomial transform of the full counts of every degree 0..d."""
    d = p.d
    counts = ehrhart_counts(p, d, budget=budget)
    return tuple(
        sum((-1) ** i * comb(d + 1, i) * counts[j - i] for i in range(j + 1))
        for j in range(d + 1)
    )


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
    facet_sets = [set(f) for f in brute_facets(p)]  # faces are subsets of facets

    def is_face(w) -> bool:
        return any(set(w) <= f for f in facet_sets)

    out = []
    for mask in range(1 << (n - 1)):
        f = (1,) + tuple(x for b, x in enumerate(rest) if mask >> b & 1)
        g = tuple(x for b, x in enumerate(rest) if not mask >> b & 1)
        if not is_face(f) and not is_face(g):
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
    vals = tuple(delta_tilde(p, p.d, i) for i in range(p.d + 1, p.n + 1))
    g = 0
    for v in vals:
        g = gcd(g, v)
    return vals, g


def in_cone(ctx: Instance, x) -> bool:
    """Cone membership: facet hyperplanes pass through the apex (rhs 0, >=)."""
    return all(dot(a, x) >= 0 for a in ctx.shadows[-1])


def member_kp(z, p: CycloParams, *, budget: int | None = None) -> bool:
    """Membership of z in the semigroup generated by all degree-1 lattice points.

    Decided by memoized degree-descending search: subtract one generator,
    recurse, accept only the origin at degree 0; branches leaving the cone
    are pruned.
    """
    z = tuple(z)
    ctx = instance(p)
    gens = tuple(enumerate_points(p, 1, budget=budget))
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
    ctx = instance(p)
    vert_set = set(ctx.vertices)
    slice1 = enumerate_points(p, 1, budget=budget)
    gens = ctx.vertices + tuple(g for g in slice1 if g not in vert_set)
    for k in range(2, bound + 1):
        for z in enumerate_points(p, k, budget=budget):
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
    ctx = instance(p)
    vert_set = set(ctx.vertices)
    try:
        for k in range(1, bound + 1):
            for z in enumerate_points(p, k, budget=budget):
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


def pointwise_first_gap(
    ctx: Instance, gens, bound: int, vertex_lattice: bool = False, budget: int | None = None
) -> tuple[int, ...] | None:
    """First slice point, in (degree, lex) order up to `bound`, that `gens` miss; or None.

    The point-by-point form of `kp.first_gap`, with generator points:
    at degree 1 a point must be a generator; at degree k >= 2 one
    generator step must lead down to a point of degree k-1, all of which
    are members by then.  The generator that worked last is tried first;
    a point fails only when every generator misses.
    """
    below = set(gens)
    last = gens[0]
    for k in range(1, bound + 1):
        kept = set()
        # the whole slice is read before its first point is checked
        fibers = tuple(ctx.fibers(k, vertex_lattice=vertex_lattice, budget=budget))
        for z in Slice(fibers, ctx.step(vertex_lattice)):
            if k == 1:
                if z not in below:
                    return z
            elif vec_sub(z, last) not in below:
                for g in gens:
                    if g is not last and vec_sub(z, g) in below:
                        last = g
                        break
                else:
                    return z
            if k < bound:
                kept.add(z)
        below = kept
    return None


def verify_r1(p: CycloParams) -> bool:
    return not r1_issues(p)


def fraction_solve(rows, rhs) -> tuple[Fraction, ...] | None:
    """Gauss-Jordan elimination over Fraction: the unique solution of a
    full-column-rank system, or None when it is inconsistent; a
    column-rank-deficient matrix raises ValueError."""
    m = len(rows)
    n = len(rows[0])
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs, strict=True)]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][col]
        a[rank] = [x / pv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    if rank < n:
        raise ValueError("coefficient matrix is column-rank deficient")
    if any(a[i][n] for i in range(rank, m)):
        return None
    return tuple(a[i][n] for i in range(n))


def lagrange_coefficients(x, indices, p: CycloParams) -> tuple[Fraction, ...]:
    """Coordinates of x over the vertex columns of `indices`, one root
    polynomial of the other chosen parameters per coordinate."""
    out = []
    for i in indices:
        rest = [p.tau[j - 1] for j in indices if j != i]
        t = p.tau[i - 1]
        out.append(Fraction(dot(root_polynomial(rest), x), prod(t - r for r in rest)))
    return tuple(out)
