"""The vertex-generated semigroup: its lattice, principal relation, and normality.

Unlike the full semigroup, the one generated by the vertices alone need
not span the whole integer lattice, so membership questions run inside
the Hermite-form lattice of the vertex columns.  At n = d+2 the relation
module is principal and the single relation is written down exactly; for
wider gaps a divisibility criterion on the last triangular row certifies
non-normality, and an exhaustive bounded-degree search settles what it
can within budget.
"""

from __future__ import annotations

from itertools import combinations
from math import prod
from typing import NamedTuple

from .core import CycloParams, InvalidParameters, delta_tilde, moment_matrix
from .intlinalg import lattice_contains, mat_vec, primitive
from .kp import first_gap, normality_bound
from .lattice import BudgetExceeded, instance


class GeneratorLattice(NamedTuple):
    """Hermite basis of the lattice spanned by the vertex columns."""

    hnf_basis: tuple[tuple[int, ...], ...]
    index_in_ambient: int

    def contains(self, z) -> bool:
        return lattice_contains(self.hnf_basis, z)


def generator_lattice(p: CycloParams) -> GeneratorLattice:
    basis = instance(p).lattice_rows
    return GeneratorLattice(basis, prod(row[i] for i, row in enumerate(basis)))


class KernelBinomial(NamedTuple):
    """Primitive sign-normalised relation vector among the vertex columns.

    c has positive entries exactly on the odd indices and negative on the
    even ones; the positive and negative exponent sums agree, so the two
    monomials it encodes share one degree.
    """

    c: tuple[int, ...]
    u_support: tuple[int, ...]
    v_support: tuple[int, ...]
    u_exponents: tuple[int, ...]
    v_exponents: tuple[int, ...]
    u_squarefree: bool
    v_squarefree: bool
    degree: int

    def monomials(self) -> tuple[str, str]:
        def side(support, exps):
            return "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in zip(support, exps)
            )

        return side(self.u_support, self.u_exponents), side(self.v_support, self.v_exponents)

    def to_dict(self) -> dict:
        u, v = self.monomials()
        return {
            "c": list(self.c),
            "u_support": list(self.u_support),
            "v_support": list(self.v_support),
            "u_exponents": list(self.u_exponents),
            "v_exponents": list(self.v_exponents),
            "u_squarefree": self.u_squarefree,
            "v_squarefree": self.v_squarefree,
            "degree": self.degree,
            "u": u,
            "v": v,
        }


def kernel_binomial(p: CycloParams) -> KernelBinomial:
    """The single relation at n = d+2, from the Vandermonde kernel form.

    Component i of the kernel is proportional to the reciprocal of the
    product of (tau_j - tau_i) over j != i, which has i-1 negative
    factors.  Scaled by the Vandermonde product of all the parameters,
    component i is (-1)^(i-1) times the Vandermonde product of the other
    parameters: an integer vector with c_1 > 0, made primitive and
    checked against the moment matrix exactly.
    """
    if p.n != p.d + 2:
        raise InvalidParameters("principal relation needs n = d+2")
    tau = p.tau
    c = primitive([
        (-1) ** i * prod(b - a for a, b in combinations(tau[:i] + tau[i + 1 :], 2))
        for i in range(p.n)
    ])
    if any(v != 0 for v in mat_vec(moment_matrix(p), c)):
        raise ArithmeticError("kernel vector does not annihilate the moment matrix")
    u_support = tuple(i + 1 for i, x in enumerate(c) if x > 0)
    v_support = tuple(i + 1 for i, x in enumerate(c) if x < 0)
    odds = tuple(range(1, p.n + 1, 2))
    evens = tuple(range(2, p.n + 1, 2))
    if u_support != odds or v_support != evens:
        raise ArithmeticError("kernel supports are not the odd/even split")
    u_exponents = tuple(c[i - 1] for i in u_support)
    v_exponents = tuple(-c[i - 1] for i in v_support)
    if sum(u_exponents) != sum(v_exponents):
        raise ArithmeticError("kernel degree balance failed")
    return KernelBinomial(
        c=c,
        u_support=u_support,
        v_support=v_support,
        u_exponents=u_exponents,
        v_exponents=v_exponents,
        u_squarefree=all(e == 1 for e in u_exponents),
        v_squarefree=all(e == 1 for e in v_exponents),
        degree=sum(u_exponents),
    )


def divisibility_test(p: CycloParams) -> int | None:
    """Least s in [d+2, n] whose last-row product is not divisible by the first.

    A hit certifies non-normality of the vertex semigroup; silence says
    nothing.  Only defined for n >= d+3.
    """
    if p.n < p.d + 3:
        raise InvalidParameters("divisibility criterion needs n >= d+3")
    base = delta_tilde(p, p.d, p.d + 1)
    for s in range(p.d + 2, p.n + 1):
        if delta_tilde(p, p.d, s) % base:
            return s
    return None


def is_normal_kq_bruteforce(
    p: CycloParams, max_degree: int | None = None, *, budget: int | None = None
) -> tuple[str, tuple[int, ...] | None]:
    """Search for a cone-and-lattice point missed by the vertex semigroup.

    Returns ("normal" | "not_normal" | "inconclusive", witness).  The
    default bound `normality_bound(d)` = max(1, d-1) is exhaustive: once
    degree 1 has no gap the vertices are the only points of their lattice
    in P, so P is a lattice polytope there and is generated in degrees
    below d (Bruns, Gubeladze & Trung).  Hitting the enumeration budget
    downgrades the verdict to inconclusive, never to a wrong answer.
    `first_gap` scans degrees 1..max_degree over vertex-lattice slices,
    which the enumeration builds by stepping each coordinate through its
    residue class, so no point outside the lattice is visited; it stops
    at the first gap, and the budget caps the nodes visited until then.
    A `max_degree` above the bound scans no further.
    """
    ctx = instance(p)
    try:
        gens = tuple((v[:-1], v[-1], v[-1]) for v in ctx.vertices)
        bound = normality_bound(p.d, max_degree)
        witness = first_gap(ctx, gens, bound, vertex_lattice=True, budget=budget)
    except BudgetExceeded:
        return "inconclusive", None
    return ("normal", None) if witness is None else ("not_normal", witness)


class RingReportKQ(NamedTuple):
    case: str  # simplex_regular | curve_d1 | principal_d2 | general
    normal: str  # yes | no | unknown
    complete_intersection: bool
    evidence: dict
    kernel: tuple[int, ...] | None

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "normal": self.normal,
            "complete_intersection": self.complete_intersection,
            "evidence": self.evidence,
            "kernel": list(self.kernel) if self.kernel is not None else None,
        }


def classify_kq(
    p: CycloParams,
    use_bruteforce: bool = False,
    max_degree: int | None = None,
    *,
    budget: int | None = None,
) -> RingReportKQ:
    """Branch table for the vertex semigroup's normality.

    Simplices are regular, curves are normal exactly for equal spacing,
    n = d+2 with d >= 2 is never normal (both sides of the principal
    relation carry a square), and wider instances fall to the
    divisibility criterion, then optionally to brute force; whatever
    survives is reported unknown rather than guessed.

    The brute force proves "yes" only when it ran to the full bound
    (`max_degree` None or at least `normality_bound(d)` = max(1, d-1));
    the evidence kind is then "bruteforce_exhaustive".  Otherwise its
    verdict stays "unknown", with evidence {"kind": "none", "bruteforce":
    ...}: "normal" means no gap below a lowered `max_degree`, and
    "inconclusive" a budget stop.  Without brute force the evidence is {"kind": "none"}.
    """
    ci = p.n == p.d + 2
    kb = kernel_binomial(p) if ci else None
    case = "general"
    if p.n == p.d + 1:
        case, normal, evidence = "simplex_regular", "yes", {"kind": "regularity"}
    elif p.d == 1:
        equal = len(set(p.gaps)) == 1
        case, normal = "curve_d1", "yes" if equal else "no"
        evidence = {"kind": "equal_spacing", "equal": equal}
    elif ci:
        case, normal = "principal_d2", "no"
        evidence = {
            "kind": "kernel_binomial",
            "u_squarefree": kb.u_squarefree,
            "v_squarefree": kb.v_squarefree,
        }
    elif (s := divisibility_test(p)) is not None:
        normal, evidence = "no", {"kind": "divisibility_witness", "s": s}
    elif not use_bruteforce:
        normal, evidence = "unknown", {"kind": "none"}
    else:
        verdict, witness = is_normal_kq_bruteforce(p, max_degree, budget=budget)
        if verdict == "not_normal":
            normal, evidence = "no", {"kind": "bruteforce_witness", "witness": list(witness)}
        elif verdict == "normal" and (max_degree is None or max_degree >= normality_bound(p.d)):
            normal, evidence = "yes", {"kind": "bruteforce_exhaustive"}
        else:
            normal, evidence = "unknown", {"kind": "none", "bruteforce": verdict}
    return RingReportKQ(case, normal, ci, evidence, kb.c if kb else None)
