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

from dataclasses import dataclass
from functools import lru_cache

from .intlinalg import mat_mul, unit_lower_inverse


class InvalidParameters(ValueError):
    """Raised when inputs do not describe an integral cyclic polytope."""


@dataclass(frozen=True)
class CycloParams:
    """Dimension and moment-curve parameters; everything else derives from these."""

    d: int
    tau: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InvalidParameters("d must be at least 1")
        if any(b <= a for a, b in zip(self.tau, self.tau[1:])):
            raise InvalidParameters("tau must be strictly increasing")
        if len(self.tau) < self.d + 1:
            raise InvalidParameters(
                f"need at least d+1 = {self.d + 1} parameters, got {len(self.tau)}"
            )

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


@dataclass(frozen=True)
class MomentMatrix:
    """(d+1) x n matrix whose column i is the homogenised vertex of parameter i."""

    entries: tuple[tuple[int, ...], ...]

    def column(self, i: int) -> tuple[int, ...]:
        return tuple(row[i - 1] for row in self.entries)


@lru_cache(maxsize=4096)
def moment_matrix(p: CycloParams) -> MomentMatrix:
    return MomentMatrix(tuple(tuple(t**r for t in p.tau) for r in range(p.d + 1)))


class DeltaTable:
    """Pairwise parameter differences and their running products.

    delta(i, j) = tau_j - tau_i and delta_tilde(i, j) is the product of
    delta(k, j) over k = 1..i.  Indices are 1-based.
    """

    def __init__(self, p: CycloParams):
        self.params = p

    def delta(self, i: int, j: int) -> int:
        return self.params.tau[j - 1] - self.params.tau[i - 1]

    def delta_tilde(self, i: int, j: int) -> int:
        tau = self.params.tau
        out = 1
        tj = tau[j - 1]
        for k in range(i):
            out *= tj - tau[k]
        return out


@dataclass(frozen=True)
class TransformedMatrix:
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


@lru_cache(maxsize=4096)
def transform(p: CycloParams) -> TransformedMatrix:
    """Triangularise the moment matrix by accumulated row operations.

    Row r of the factor holds the coefficients of (x - tau_1)...(x - tau_r),
    so the product against the moment matrix evaluates those polynomials on
    the parameters.  The result is cross-checked against the running-product
    closed form entry by entry.
    """
    d = p.d
    u_rows = []
    poly = [1]
    for r in range(d + 1):
        u_rows.append(tuple(poly) + (0,) * (d + 1 - len(poly)))
        if r < d:
            t = p.tau[r]
            nxt = [0] * (len(poly) + 1)
            for s, c in enumerate(poly):
                nxt[s + 1] += c
                nxt[s] -= t * c
            poly = nxt
    factor = tuple(u_rows)
    entries = mat_mul(factor, moment_matrix(p).entries)
    dt = DeltaTable(p)
    for r in range(1, d + 1):
        for j in range(p.n):
            if entries[r][j] != dt.delta_tilde(r, j + 1):
                raise ArithmeticError("triangularisation disagrees with the product formula")
    return TransformedMatrix(entries, factor)


@lru_cache(maxsize=4096)
def inverse_transform_factor(p: CycloParams) -> tuple[tuple[int, ...], ...]:
    return unit_lower_inverse(transform(p).unimodular_factor)


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
