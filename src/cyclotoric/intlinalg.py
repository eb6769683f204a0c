"""Small exact linear algebra over Z: dot products, Hermite form, one exact solve.

The Hermite form gives the vertex lattice its basis, and the product of
its pivots is the index of a lattice of full rank.  Everything works on
plain Python ints (arbitrary precision), and only the solve's results
are fractions.Fraction; nothing touches floating point.  Matrices are
small and dense, so simple cubic algorithms win.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import sub
from typing import Sequence

IntVec = tuple[int, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v, strict=True))


def vec_add(u: Sequence[int], v: Sequence[int]) -> IntVec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> IntVec:
    if len(u) != len(v):
        raise ValueError(f"vec_sub of lengths {len(u)} and {len(v)}")
    return tuple(map(sub, u, v))


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


def solve_exact(rows, rhs) -> tuple[Fraction, ...] | None:
    """Solve a full-column-rank integer system exactly.

    `rows` is an m x n integer matrix with m >= n and column rank n.
    Returns the unique solution, or None when the system is inconsistent.
    Rows are combined in integers, each divided by its content, and only
    the solution's quotients are Fractions.  A rank-deficient coefficient
    matrix raises, since no call site should produce one.
    """
    m = len(rows)
    n = len(rows[0])
    a = [list(row) + [y] for row, y in zip(rows, rhs, strict=True)]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][col]
        for i in range(m):
            if i != rank and a[i][col]:
                row = [pv * x - a[i][col] * y for x, y in zip(a[i], a[rank])]
                a[i] = primitive(row) if any(row) else row
        rank += 1
    if rank < n:
        raise ValueError("coefficient matrix is column-rank deficient")
    for i in range(rank, m):
        if a[i][n]:
            return None
    return tuple(Fraction(a[i][n], a[i][i]) for i in range(n))


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
