"""Classification of the full lattice-point semigroup ring of a cyclic polytope.

Normality is decided by exhaustive low-degree membership checks: a
lattice polytope of dimension d is generated in degrees below d
(Bruns, Gubeladze & Trung), so degrees 2..d-1 settle the question.
Each degree is checked against the one below a fiber at a time: the
points that share all but the last coordinate form one run, and one
generator covers an interval of it.
Codimension-one regularity is checked constructively on every facet
through explicit lattice bases and value-1 points.  Gorensteinness is
decided twice: a closed-form predicate on (d, n, gaps), and an
independent exact route that solves for an integer point with
support-form value 1 against every facet.  The two answers
are compared and any disagreement is reported as data, never raised.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import CycloParams, InvalidParameters, delta, reverse_negate, to_moment
from .divdiff import (
    cone_coefficients,
    facet_lattice_index,
    r1_witness,
    support_form,
)
from .faces import facet_normals, facets
from .intlinalg import dot, solve_exact, vec_sub
from .lattice import HStarVector, Instance, enumerate_points, h_star, instance


def normality_bound(d: int, max_degree: int | None = None) -> int:
    """Degree up to which a normality scan is exhaustive in dimension d: max(1, d-1).

    A lattice polytope of dimension d has kP = (k-1)P + P on lattice
    points for every k >= d (Bruns, Gubeladze & Trung, J. reine angew.
    Math. 485 (1997), Thm 1.3.3), so its points of degree d and above
    add no generator.  Inside the vertex lattice the same holds once
    degree 1 has no gap: the vertices are then its only points in P.
    A `max_degree` below the bound lowers it; one above scans no further.
    """
    bound = max(1, d - 1)
    return bound if max_degree is None else min(max_degree, bound)


def first_gap(
    ctx: Instance, gens, bound: int, vertex_lattice: bool = False, budget: int | None = None
) -> tuple[int, ...] | None:
    """First slice point, in (degree, lex) order up to `bound`, that `gens` miss; or None.

    `gens` are generator fibers (head, first, last) of degree 1, stepping
    like the slices.  Degrees are checked in order, so a point of degree
    k is a member when one generator leads down to a point of degree
    k-1: the Minkowski-sum form of normality, kP in (k-1)P + P on
    lattice points.  The points of degree k-1 with one head form one
    run, so a generator fiber g and the run below at head - g.head cover
    a whole interval of each fiber of degree k, and a cursor walks the
    fiber from interval to interval.  Degree 0 is the one point at the
    origin, so at degree 1 the generators cover themselves alone.
    Neighbouring fibers tend to step down along the same generator, so
    each interval tries the generator that covered last first, then the
    ones after it in the order of `gens`, wrapping around to those before
    it; the first value no generator covers is the answer whatever that
    order.  With vertex_lattice the slices hold only the points of the
    lattice the vertices span, and no other point is enumerated.  Each
    slice is streamed under `budget` and read only up to the first gap,
    so the scan stops there too.
    """
    if bound < 0:
        raise InvalidParameters("the degree bound must be nonnegative")
    n = len(gens)
    ring = tuple(gens) * 2  # a walk from any start reads n generators in a row
    below = {(0,) * len(gens[0][0]): (0, 0)}
    won = 0  # index of the generator that covered last
    step = ctx.step(vertex_lattice)
    for k in range(1, bound + 1):
        kept = {}
        for head, x, end in ctx.fibers(k, vertex_lattice=vertex_lattice, budget=budget):
            if k < bound:  # no runs for the last degree: nothing looks them up
                kept[head] = (x, end)
            while x <= end:
                for j in range(won, won + n):
                    gh, lo, hi = ring[j]
                    run = below.get(vec_sub(head, gh))
                    if run is not None and run[0] + lo <= x <= run[1] + hi:
                        won = j % n
                        break
                else:
                    return head + (x,)
                x = run[1] + hi + step
        below = kept
    return None


def is_normal_kp(
    p: CycloParams, max_degree: int | None = None, *, budget: int | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Exhaustive normality check; returns (flag, first failing point or None).

    Degrees 1..max_degree are scanned by `first_gap`, one fiber at a
    time.  The default bound `normality_bound(d)` = max(1, d-1) is
    exhaustive, so the slice of degree d, the largest one a default
    check could need, is never enumerated.  The generators are the
    fibers of degree 1 in slice order, which the walk from the last
    winner follows at degree 1 itself.
    """
    gens = enumerate_points(p, 1, budget=budget).fibers
    witness = first_gap(instance(p), gens, normality_bound(p.d, max_degree), budget=budget)
    return witness is None, witness


def r1_certificate(w, p: CycloParams, apexes=None) -> tuple[int, list[tuple]]:
    """Codimension-one regularity evidence for one facet: (index, rows).

    The index is that of the facet's chain basis in the facet plane's
    integer lattice.  Each row is (apex, value-1 point, its support value,
    its cone coefficients over the facet and the apex, whether none of
    them is negative), for every apex off the facet by default.  The facet
    passes when the index is 1 and every row has value 1 and lies in the
    cone.  A set that is not a facet raises NotAFacet before any apex is
    checked.
    """
    sf = support_form(w, p)
    if apexes is None:
        apexes = [k for k in range(1, p.n + 1) if k not in w]
    index = facet_lattice_index(w, p)
    rows = []
    for k in apexes:
        x = r1_witness(w, k, p)  # raises on an apex on the facet or outside 1..n
        coeffs = cone_coefficients(x, sorted(w + (k,)), p)
        rows.append((k, x, dot(sf, x), coeffs, all(c >= 0 for c in coeffs)))
    return index, rows


def r1_issues(p: CycloParams) -> list[str]:
    """Codimension-one regularity certificates for every facet; empty means all pass.

    Per facet: the chain basis must span the facet plane's full integer
    lattice (index 1), and every apex off the facet must yield an integer
    cone point with support-form value exactly 1.
    """
    issues = []
    for w in facets(p):
        idx, rows = r1_certificate(w, p)
        if idx != 1:
            issues.append(f"facet {w}: lattice slice index {idx} != 1")
        for k, _, val, _, in_cone in rows:
            if val != 1:
                issues.append(f"facet {w} apex {k}: support value {val} != 1")
            if not in_cone:
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
    rows = facet_normals(p)
    sol = solve_exact(rows, [1] * len(rows))
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


class GorensteinOracle(NamedTuple):
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


class WitnessReport(NamedTuple):
    """Two interior points of a designated sub-simplex, with their slack evidence.

    Points live in the transformed coordinates of params_used (degree 1).
    subset gives which original parameters the sub-simplex uses;
    reversed_params records whether the orientation was flipped first.
    Families settled only by the exact route return no points and set
    oracle_needed.  interior holds, per point, whether every slack is
    positive, and the report is verified when every point is interior.
    """

    points: tuple[tuple[int, ...], ...]
    subset: tuple[int, ...]
    params_used: CycloParams
    reversed_params: bool
    oracle_needed: bool
    slacks: tuple[tuple[int, ...], ...]
    interior: tuple[bool, ...]

    @property
    def verified(self) -> bool:
        return all(self.interior)


def _oracle_needed(p: CycloParams, subset) -> WitnessReport:
    return WitnessReport((), tuple(subset), p, False, True, (), ())


def _verified_report(pp: CycloParams, pts, subset, rev: bool) -> WitnessReport:
    # the points are transformed-frame, and to_moment maps each to moment
    # coordinates by substitution; facets run lex, so reversed, slack i is on
    # the facet omitting vertex i.
    moment = [to_moment(pp, pt) for pt in pts]
    slacks = tuple(tuple(dot(a, z) for a in facet_normals(pp)[::-1]) for z in moment)
    interior = tuple(all(s > 0 for s in row) for row in slacks)
    return WitnessReport(tuple(pts), tuple(subset), pp, rev, False, slacks, interior)


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
    if g2 >= 2:
        base = (1, delta(pp, 1, 2) + 1, delta(pp, 1, 3) + 1)
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
    to have strictly positive slack on every facet of the sub-simplex.
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
    if d % 2 == 0:
        mid = [delta(sub, 1, j) + 1 for j in range(2, d)]
        pts = tuple(tuple([1] + mid + [delta(sub, 1, d), q]) for q in (1, 2))
    else:
        mid = [delta(sub, 1, j) + 1 for j in range(2, d + 1)]
        pts = tuple(tuple([1] + mid + [delta(sub, 1, d + 1) - q]) for q in (1, 2))
    return _verified_report(sub, pts, subset, False)


class RingReportKP(NamedTuple):
    normal: bool | None  # None: a lowered max_degree found no gap
    nonnormal_witness: tuple[int, ...] | None
    cohen_macaulay: bool | None
    s2: bool | None
    r1: bool
    seminormal: bool | None
    gorenstein_theorem: bool
    gorenstein_oracle: GorensteinOracle | None
    notes: tuple[tuple[str, str], ...]  # (finding kind, detail) pairs
    h_star: HStarVector
    interior_k1: int

    @property
    def findings(self) -> list[tuple[str, str]]:
        """(kind, "kind: detail") per note: the text its finding and discrepancy carry."""
        return [(kind, f"{kind}: {detail}") for kind, detail in self.notes]

    @property
    def discrepancy(self) -> str | None:
        return "; ".join(text for _, text in self.findings) or None

    def to_dict(self) -> dict:
        return {
            "normal": self.normal,
            "nonnormal_witness": self.nonnormal_witness and list(self.nonnormal_witness),
            "cohen_macaulay": self.cohen_macaulay,
            "s2": self.s2,
            "r1": self.r1,
            "seminormal": self.seminormal,
            "gorenstein_theorem": self.gorenstein_theorem,
            "gorenstein_oracle": self.gorenstein_oracle and self.gorenstein_oracle.to_dict(),
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
    (kind, detail) pair; notes are findings, not errors.  On a normal
    instance the h* symmetry is a third route, compared with the exact one.
    A `max_degree` below `normality_bound(d)` that finds no gap leaves
    those four flags None, unless the oracle is on and needs the full
    scan anyway: that is when an integer candidate generator exists, and
    its verdict is reported.  Any `max_degree` at or above that bound is
    a proof.
    """
    bound = normality_bound(p.d)
    if oracle and max_degree in range(bound) and interior_generator_candidate(p) is not None:
        max_degree = None  # the oracle scans in full here anyway
    normal, witness = is_normal_kp(p, max_degree=max_degree, budget=budget)
    if normal and max_degree is not None and max_degree < bound:
        normal = None
    issues = r1_issues(p)
    h = h_star(p, budget=budget)
    predicate = gorenstein_theorem(p)
    notes = [("witness_verification_failure", msg) for msg in issues]
    oracle_rec = None
    if oracle:
        oracle_rec = gorenstein_oracle(p, normal=normal, h=h, budget=budget)
        exact = oracle_rec.status
        if predicate != (exact == "gorenstein"):
            detail = f"closed-form predicate says {predicate} but exact route says {exact}"
            notes.append(("theorem_oracle_discrepancy", detail))
        pal = oracle_rec.h_star_palindromic
        if normal and pal != (exact == "gorenstein"):
            # normal K[P] is Cohen-Macaulay, so Gorenstein iff h* is symmetric (Stanley)
            detail = f"h* palindromic is {pal} but exact route says {exact}"
            notes.append(("hstar_oracle_discrepancy", detail))
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
        interior_k1=h.h[p.d],  # h*_d counts the interior points (Ehrhart-Macdonald)
    )
