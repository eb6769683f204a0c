"""Classification of the full lattice-point semigroup ring of a cyclic polytope.

Normality is decided by exhaustive low-degree membership checks: a cone
lattice point of degree above d always splits off a whole vertex, so
degrees 2..d settle the question.  Codimension-one regularity is checked
constructively on every facet through explicit lattice bases and value-1
points.  Gorensteinness is decided twice: a closed-form predicate on
(d, n, gaps), and an independent exact route that solves for an integer
point with support-form value 1 against every facet.  The two answers
are compared and any disagreement is reported as data, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CycloParams, DeltaTable, reverse_negate
from .divdiff import (
    cone_coefficients,
    facet_lattice_index,
    r1_witness,
    support_form,
)
from .faces import TRANSFORMED, facets, require_uniform_frame, simplex_halfspaces
from .intlinalg import solve_exact, vec_sub
from .lattice import HStarVector, Instance, h_star, instance, interior_count


def first_gap(ctx: Instance, gens, bound: int, keep=None) -> tuple[int, ...] | None:
    """First kept point, in (degree, lex) order up to `bound`, that `gens` miss; or None.

    At degree 1 a kept point must be a generator; at degree k >= 2 one
    generator step must lead down to a kept point of degree k-1, all of
    which are members by then.  `keep` (None keeps every point) is applied
    point by point, so the scan stops at the first gap.
    """
    below = set(gens)
    for k in range(1, bound + 1):
        kept = set()
        for z in ctx.slice(k):
            if keep is not None and not keep(z):
                continue
            if not (z in below if k == 1 else any(vec_sub(z, g) in below for g in gens)):
                return z
            if k < bound:  # no set for the last degree: nothing looks it up
                kept.add(z)
        below = kept
    return None


def is_normal_kp(
    p: CycloParams, max_degree: int | None = None, *, budget: int | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Exhaustive normality check; returns (flag, first failing point or None).

    Degrees 1..max_degree are scanned by `first_gap`.  The default
    bound d is exhaustive: any cone lattice point of degree above d has a
    vertex coefficient >= 1 in some conic combination, so peeling whole
    vertices reduces every membership question to degree <= d.  Vertices
    lead the generators: in slice order a step down takes 10-50x the lookups.
    """
    bound = p.d if max_degree is None else max_degree
    ctx = instance(p, budget)
    vert_set = set(ctx.vertices)
    gens = ctx.vertices + tuple(g for g in ctx.slice(1) if g not in vert_set)
    witness = first_gap(ctx, gens, bound)
    return witness is None, witness


def r1_issues(p: CycloParams) -> list[str]:
    """Codimension-one regularity certificates for every facet; empty means all pass.

    Per facet: the chain basis must span the facet plane's full integer
    lattice (index 1), and every apex off the facet must yield an integer
    cone point with support-form value exactly 1.
    """
    issues = []
    for w in facets(p):
        idx = facet_lattice_index(w, p)
        if idx != 1:
            issues.append(f"facet {w}: lattice slice index {idx} != 1")
        sf = support_form(w, p)
        for k in range(1, p.n + 1):
            if k in w:
                continue
            x = r1_witness(w, k, p)
            val = sf.value_on(x)
            if val != 1:
                issues.append(f"facet {w} apex {k}: support value {val} != 1")
            coeffs = cone_coefficients(x, sorted(w + (k,)), p)
            if any(c < 0 for c in coeffs):
                issues.append(f"facet {w} apex {k}: point leaves the cone")
    return issues


def gorenstein_theorem(p: CycloParams) -> bool:
    """Closed-form Gorenstein predicate on the shape data (d, n, gap pair)."""
    return p.d == 2 and p.n == 3 and p.gaps in ((1, 2), (2, 1))


def interior_generator_candidate(p: CycloParams) -> tuple[int, ...] | None:
    """Unique rational solution of <facet form, c> = 1 over all facets, if integral.

    The facet normals span the dual space, so the solution is unique
    whenever the system is consistent; None means inconsistent or
    non-integral, and in either case no integer point can have value 1
    against every facet.
    """
    rows = Instance(p).normals  # no budget here, so not the shared context
    sol = solve_exact(rows, [1] * len(rows))
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


@dataclass(frozen=True)
class GorensteinOracle:
    status: str  # "gorenstein" | "not_gorenstein"
    generator: tuple[int, ...] | None
    h_star_palindromic: bool | None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "generator": list(self.generator) if self.generator is not None else None,
            "h_star_palindromic": self.h_star_palindromic,
        }


def gorenstein_oracle(
    p: CycloParams,
    normal: bool | None = None,
    h: HStarVector | None = None,
    *,
    budget: int | None = None,
) -> GorensteinOracle:
    """Exact Gorenstein decision through the facet support forms.

    When no integer point has value 1 against every facet the ring cannot
    be Gorenstein whether or not it is normal (a non-normal ring is not
    even Cohen-Macaulay), so normality is only consulted when a candidate
    generator exists; callers that already know it pass it in.
    """
    pal = h.is_palindromic() if h is not None else None
    cand = interior_generator_candidate(p)
    if cand is None:
        return GorensteinOracle("not_gorenstein", None, pal)
    if normal is None:
        normal, _ = is_normal_kp(p, budget=budget)
    if not normal:
        return GorensteinOracle("not_gorenstein", None, pal)
    return GorensteinOracle("gorenstein", cand, pal)


class NoWitnessExpected(ValueError):
    """The instance is in the Gorenstein family, so no interior pair exists."""


@dataclass(frozen=True)
class WitnessReport:
    """Two interior points of a designated sub-simplex, with their slack evidence.

    Points live in the transformed coordinates of params_used (degree 1).
    subset gives which original parameters the sub-simplex uses;
    reversed_params records whether the orientation was flipped first.
    Families settled only by the exact route return no points and set
    oracle_needed.
    """

    points: tuple[tuple[int, ...], ...]
    subset: tuple[int, ...]
    params_used: CycloParams
    reversed_params: bool
    oracle_needed: bool
    slacks: tuple[tuple[int, ...], ...]
    verified: bool


def _oracle_needed(p: CycloParams, subset) -> WitnessReport:
    return WitnessReport((), tuple(subset), p, False, True, (), True)


def _verified_report(pp: CycloParams, pts, subset, rev: bool) -> WitnessReport:
    hps = simplex_halfspaces(pp)
    require_uniform_frame(hps, TRANSFORMED)  # points below are transformed-frame
    slacks = tuple(tuple(h.slack(pt) for h in hps) for pt in pts)
    ok = all(s > 0 for row in slacks for s in row)
    return WitnessReport(tuple(pts), tuple(subset), pp, rev, False, slacks, ok)


def _sub_params(p: CycloParams, idx) -> CycloParams:
    return CycloParams(p.d, tuple(p.tau[i - 1] for i in idx))


def _witnesses_dim2_simplex(pp: CycloParams, subset) -> WitnessReport:
    g1, g2 = pp.gaps
    if (g1, g2) == (1, 1):
        return _oracle_needed(pp, subset)
    rev = False
    if g1 < g2:
        pp = reverse_negate(pp)
        rev = True
        g1, g2 = pp.gaps
    if g2 >= 2:
        pts = ((1, 1, 1), (1, 2, 2))
    else:
        if g1 < 3:
            raise AssertionError("branch table reached an excluded gap pair")
        pts = ((1, 2, 1), (1, 3, 1))
    return _verified_report(pp, pts, subset, rev)


def _witnesses_dim3_simplex(pp: CycloParams, subset) -> WitnessReport:
    if pp.gaps == (1, 1, 1):
        return _oracle_needed(pp, subset)
    rev = False
    g1, g2, g3 = pp.gaps
    if g1 == 1 and g2 == 1 and g3 >= 2:
        pp = reverse_negate(pp)
        rev = True
        g1, g2, g3 = pp.gaps
    dt = DeltaTable(pp)
    if g2 >= 2:
        base = (1, dt.delta(1, 2) + 1, dt.delta(1, 3) + 1)
        pts = (base + (1,), base + (2,))
    elif g1 >= 2 and g3 >= 2:
        pts = ((1, 2, 2, 1), (1, 2, 2, 2))
    else:
        pts = ((1, g1, g1, 1), (1, g1 + 1, g1 + 2, 3))
    return _verified_report(pp, pts, subset, rev)


def gorenstein_witnesses(p: CycloParams) -> WitnessReport:
    """Interior point pair certifying failure of Gorensteinness.

    Chosen by a branch table on (d, n, gaps), possibly after reversing
    the parameter order or passing to a sub-simplex whose interior sits
    inside the original polytope's interior; every point is re-verified
    to have strictly positive slack against all simplex half-spaces.
    Families with no constructive pair return an empty report flagged
    oracle_needed; the one Gorenstein family raises.
    """
    if gorenstein_theorem(p):
        raise NoWitnessExpected("instance is in the Gorenstein family; no witness expected")
    d = p.d
    if d == 1:
        return _oracle_needed(p, range(1, p.n + 1))
    if d == 2:
        if p.n == 3:
            return _witnesses_dim2_simplex(p, (1, 2, 3))
        if p.n == 4:
            if p.gaps == (1, 1, 1):
                return _oracle_needed(p, (1, 2, 3, 4))
            return _witnesses_dim2_simplex(_sub_params(p, (1, 3, 4)), (1, 3, 4))
        return _witnesses_dim2_simplex(_sub_params(p, (1, 4, 5)), (1, 4, 5))
    if d == 3:
        if p.n == 4:
            return _witnesses_dim3_simplex(p, (1, 2, 3, 4))
        return _witnesses_dim3_simplex(_sub_params(p, (1, 3, 4, 5)), (1, 3, 4, 5))
    subset = tuple(range(1, d + 2))
    sub = _sub_params(p, subset)
    dt = DeltaTable(sub)
    if d % 2 == 0:
        mid = [dt.delta(1, j) + 1 for j in range(2, d)]
        pts = tuple(tuple([1] + mid + [dt.delta(1, d), q]) for q in (1, 2))
    else:
        mid = [dt.delta(1, j) + 1 for j in range(2, d + 1)]
        pts = tuple(tuple([1] + mid + [dt.delta(1, d + 1) - q]) for q in (1, 2))
    return _verified_report(sub, pts, subset, False)


@dataclass(frozen=True)
class RingReportKP:
    normal: bool
    nonnormal_witness: tuple[int, ...] | None
    cohen_macaulay: bool
    s2: bool
    r1: bool
    seminormal: bool
    gorenstein_theorem: bool
    gorenstein_oracle: GorensteinOracle | None
    notes: tuple[tuple[str, str], ...]  # (finding kind, detail) pairs
    h_star: HStarVector
    interior_k1: int

    @property
    def discrepancy(self) -> str | None:
        return "; ".join(f"{kind}: {detail}" for kind, detail in self.notes) or None

    def to_dict(self) -> dict:
        return {
            "normal": self.normal,
            "nonnormal_witness": list(self.nonnormal_witness)
            if self.nonnormal_witness is not None
            else None,
            "cohen_macaulay": self.cohen_macaulay,
            "s2": self.s2,
            "r1": self.r1,
            "seminormal": self.seminormal,
            "gorenstein_theorem": self.gorenstein_theorem,
            "gorenstein_oracle": self.gorenstein_oracle.to_dict()
            if self.gorenstein_oracle is not None
            else None,
            "discrepancy": self.discrepancy,
            "h_star": list(self.h_star.h),
            "interior_k1": self.interior_k1,
        }


def classify_kp(
    p: CycloParams,
    *,
    oracle: bool = True,
    max_degree: int | None = None,
    budget: int | None = None,
) -> RingReportKP:
    """Assemble the full flag set for the lattice-point semigroup ring.

    Normality drives Cohen-Macaulay, depth-two and seminormality flags,
    which all coincide for these rings.  With oracle enabled the exact
    Gorenstein route runs alongside the closed-form predicate and any
    mismatch (or a failed witness verification) lands in the notes as a
    (kind, detail) pair; notes are findings, not errors.
    """
    normal, witness = is_normal_kp(p, max_degree=max_degree, budget=budget)
    issues = r1_issues(p)
    h = h_star(p, budget=budget)
    interior1 = interior_count(p, 1, budget=budget)
    predicate = gorenstein_theorem(p)
    notes = [("witness_verification_failure", msg) for msg in issues]
    oracle_rec = None
    if oracle:
        oracle_rec = gorenstein_oracle(p, normal=normal, h=h, budget=budget)
        if predicate != (oracle_rec.status == "gorenstein"):
            notes.append(
                (
                    "theorem_oracle_discrepancy",
                    f"closed-form predicate says {predicate} "
                    f"but exact route says {oracle_rec.status}",
                )
            )
        if not predicate:
            wrep = gorenstein_witnesses(p)
            if not wrep.oracle_needed and not wrep.verified:
                notes.append(
                    (
                        "witness_verification_failure",
                        "constructed interior pair has a nonpositive slack "
                        f"(subset {wrep.subset})",
                    )
                )
    return RingReportKP(
        normal=normal,
        nonnormal_witness=witness,
        cohen_macaulay=normal,
        s2=normal,
        r1=not issues,
        seminormal=normal,
        gorenstein_theorem=predicate,
        gorenstein_oracle=oracle_rec,
        notes=tuple(notes),
        h_star=h,
        interior_k1=interior1,
    )
