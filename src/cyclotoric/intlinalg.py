"""Small exact linear algebra over Z and Q.

Everything works on plain Python ints (arbitrary precision) or
fractions.Fraction and never touches floating point.  Matrices are small
and dense throughout the package, so simple cubic algorithms win.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

IntVec = tuple[int, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v, strict=True))


def vec_add(u: Sequence[int], v: Sequence[int]) -> IntVec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> IntVec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vector_gcd(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries."""
    g = vector_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in v)


def mat_vec(m, v) -> IntVec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def det(m) -> int:
    """Determinant of a square integer matrix, by fraction-free elimination."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def solve_exact(rows, rhs) -> tuple[Fraction, ...] | None:
    """Solve a full-column-rank rational system exactly.

    `rows` is an m x n matrix (ints or Fractions) with m >= n and column
    rank n.  Returns the unique solution, or None when the system is
    inconsistent.  A rank-deficient coefficient matrix raises, since no
    call site should produce one.
    """
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
    for i in range(rank, m):
        if a[i][n]:
            return None
    return tuple(a[i][n] for i in range(n))


def cross_normal(rows) -> IntVec:
    """Integer normal to d independent row vectors in R^(d+1) (cofactor expansion)."""
    d = len(rows)
    out = []
    for t in range(d + 1):
        minor = [[row[c] for c in range(d + 1) if c != t] for row in rows]
        out.append((-1) ** t * det(minor))
    return tuple(out)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b) and g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def solve_dot_one(v: Sequence[int]) -> IntVec:
    """Integer w with <v, w> = 1; requires a primitive v."""
    g = 0
    w = [0] * len(v)
    for i, x in enumerate(v):
        if x == 0:
            continue
        g2, s, t = xgcd(g, x)
        w = [s * wj for wj in w]
        w[i] += t
        g = g2
        if g == 1:
            break
    if g != 1:
        raise ValueError("vector is not primitive")
    return tuple(w)


def hnf(rows) -> list[IntVec]:
    """Row-style Hermite normal form of the lattice spanned by integer rows.

    Returns the nonzero rows only: echelon shape, positive pivots, entries
    above each pivot reduced into [0, pivot).
    """
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][c] == 0:
                continue
            a, b = mat[r][c], mat[i][c]
            g, x, y = xgcd(a, b)
            row_r = [x * u + y * v for u, v in zip(mat[r], mat[i])]
            row_i = [(a // g) * v - (b // g) * u for u, v in zip(mat[r], mat[i])]
            mat[r], mat[i] = row_r, row_i
        if mat[r][c] < 0:
            mat[r] = [-u for u in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [u - q * v for u, v in zip(mat[i], mat[r])]
        r += 1
    return [tuple(row) for row in mat[:r]]


def lattice_contains(hnf_basis, z) -> bool:
    """Membership of an integer vector in the lattice given by HNF rows."""
    x = list(z)
    for row in hnf_basis:
        c = next(i for i, u in enumerate(row) if u)
        if x[c] % row[c]:
            return False
        q = x[c] // row[c]
        if q:
            x = [u - q * v for u, v in zip(x, row)]
    return not any(x)


def hyperplane_lattice_index(vectors, normal) -> int:
    """Index of span(vectors) inside {x in Z^k : <normal, x> = 0}.

    `normal` must be primitive and vanish on every vector.  Completing
    either lattice with any w satisfying <normal, w> = 1 yields all of
    Z^k, so the index is the absolute determinant of the completed span.
    """
    for v in vectors:
        if dot(normal, v) != 0:
            raise ValueError("vector does not lie on the hyperplane")
    w = solve_dot_one(normal)
    m = [list(v) for v in vectors] + [list(w)]
    val = det(m)
    if val == 0:
        raise ValueError("vectors do not span the hyperplane")
    return abs(val)


def unit_lower_inverse(u):
    """Inverse of a unit lower-triangular integer matrix (again integral)."""
    n = len(u)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(u[i][k] * inv[k][j] for k in range(j, i))
    return tuple(tuple(row) for row in inv)
