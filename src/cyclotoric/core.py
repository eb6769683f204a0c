"""Parameters and exact matrix forms of integral cyclic polytopes.

An instance is a dimension d together with n >= d+1 strictly increasing
integer parameters; vertex i is the homogenised moment-curve point
(1, t_i, t_i^2, ..., t_i^d).  All arithmetic is arbitrary-precision
integer arithmetic: the triangularised entries grow like tau^d, so floats
are never used anywhere.

Public indices are 1-based (subsets of {1, ..., n}); 0-based positions
are an internal convention only.  Every value here is immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import NamedTuple

from .intlinalg import dot, mat_mul


class InvalidParameters(ValueError):
    """Raised when inputs do not describe an integral cyclic polytope."""


class CycloParams(NamedTuple("CycloParams", [("d", int), ("tau", tuple[int, ...])])):
    """Dimension and moment-curve parameters; everything else derives from these.

    Construction checks them, and so does unpickling, which constructs anew.
    """

    __slots__ = ()

    def __new__(cls, d: int, tau: tuple[int, ...]):
        if d < 1:
            raise InvalidParameters("d must be at least 1")
        if any(b <= a for a, b in zip(tau, tau[1:])):
            raise InvalidParameters("tau must be strictly increasing")
        if len(tau) < d + 1:
            raise InvalidParameters(f"need at least d+1 = {d + 1} parameters, got {len(tau)}")
        return super().__new__(cls, d, tau)

    @property
    def n(self) -> int:
        return len(self.tau)

    @property
    def gaps(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.tau, self.tau[1:]))


def build_params(d: int, tau) -> CycloParams:
    """Validate raw user input and freeze it as CycloParams."""
    return CycloParams(int(d), tuple(int(t) for t in tau))


def vertex(p: CycloParams, i: int) -> tuple[int, ...]:
    """Homogenised vertex (1, t_i, ..., t_i^d) for a 1-based index."""
    t = p.tau[i - 1]
    return tuple(t**r for r in range(p.d + 1))


def moment_matrix(p: CycloParams) -> tuple[tuple[int, ...], ...]:
    """Rows of the (d+1) x n matrix whose column i is the homogenised vertex i."""
    return tuple(tuple(t**r for t in p.tau) for r in range(p.d + 1))


def delta(p: CycloParams, i: int, j: int) -> int:
    """The paper's delta_{i,j} = tau_j - tau_i, for 1-based indices."""
    return p.tau[j - 1] - p.tau[i - 1]


def delta_tilde(p: CycloParams, i: int, j: int) -> int:
    """The paper's running product: delta_{k,j} over k = 1..i, for 1-based indices."""
    return prod(p.tau[j - 1] - t for t in p.tau[:i])


class TransformedMatrix(NamedTuple):
    """Triangularised vertex matrix plus the row-operation matrix producing it.

    entries[r][j] is the product of (tau_{j+1} - tau_k) over k = 1..r
    (0-based column j), so the first d+1 columns are upper triangular;
    unimodular_factor is unit lower triangular with
    unimodular_factor @ moment matrix == entries.
    """

    entries: tuple[tuple[int, ...], ...]
    unimodular_factor: tuple[tuple[int, ...], ...]

    def column(self, i: int) -> tuple[int, ...]:
        return tuple(row[i - 1] for row in self.entries)


def root_polynomial(roots) -> tuple[int, ...]:
    """Coefficients of the product of (t - r) over the roots, constant term first.

    Its dot product with a homogenised vertex (1, t, ..., t^k) is the
    polynomial's value at t.
    """
    poly = (1,)
    for r in roots:
        poly = tuple(a - r * b for a, b in zip((0,) + poly, poly + (0,)))
    return poly


@lru_cache(maxsize=4096)
def transform(p: CycloParams) -> TransformedMatrix:
    """Triangularise the moment matrix by accumulated row operations.

    Row r of the factor is the `root_polynomial` of tau_1, ..., tau_r,
    padded with zeros, so the product against the moment matrix evaluates
    those polynomials on the parameters.  The result is cross-checked
    against the running-product closed form entry by entry.
    """
    d = p.d
    factor = tuple(root_polynomial(p.tau[:r]) + (0,) * (d - r) for r in range(d + 1))
    entries = mat_mul(factor, moment_matrix(p))
    for r in range(1, d + 1):
        for j in range(p.n):
            if entries[r][j] != delta_tilde(p, r, j + 1):
                raise ArithmeticError("triangularisation disagrees with the product formula")
    return TransformedMatrix(entries, factor)


def to_moment(p: CycloParams, z) -> tuple[int, ...]:
    """Moment coordinates of a transformed-frame point z: the x with U.x = z.

    U, the factor of `transform`, is unit lower triangular, so forward
    substitution solves it in integers: x_i is z_i less row i's dot
    product with x_1..x_(i-1).
    """
    x = []
    for row, zi in zip(transform(p).unimodular_factor, z, strict=True):
        x.append(zi - dot(row[: len(x)], x))
    return tuple(x)


def reverse_negate(p: CycloParams) -> CycloParams:
    """The equivalent instance on (-t_n, ..., -t_1); reverses the gap sequence."""
    return CycloParams(p.d, tuple(-t for t in reversed(p.tau)))


def translate(p: CycloParams, m: int) -> CycloParams:
    """Shift every parameter by m; all differences are unchanged."""
    return CycloParams(p.d, tuple(t + m for t in p.tau))


def canonical_form(p: CycloParams) -> CycloParams:
    """Canonical representative among all translates and the reversal.

    The form has tau_1 = 0 and a gap sequence lexicographically <= its
    reversal, so equivalent instances share one scan key.  Idempotent.
    """
    if tuple(reversed(p.gaps)) < p.gaps:
        p = reverse_negate(p)
    return translate(p, -p.tau[0])
