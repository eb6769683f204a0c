"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value here is either pinned from an independent in-test
oracle (rational nullspaces, shoelace counts, difference products) or is
a structural property checked exhaustively over the stated family at the
stated time budget.  Families are enumerated in full, without canonical
deduplication, unless the criterion says otherwise.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import combinations, product
from math import comb

from cyclotoric.core import build_params, moment_matrix
from cyclotoric.divdiff import (
    bvec,
    facet_chain_basis,
    facet_lattice_index,
    r1_witness,
    support_form,
)
from cyclotoric.faces import facet_hyperplane, facets
from cyclotoric.intlinalg import dot, mat_vec
from cyclotoric.kp import (
    classify_kp,
    gorenstein_oracle,
    gorenstein_witnesses,
    is_normal_kp,
)
from cyclotoric.kq import divisibility_test, is_normal_kq_bruteforce, kernel_binomial
from cyclotoric.lattice import enumerate_points

from _oracles import (
    bareiss_det,
    basis_matrix,
    brute_facets,
    bvec_recursion_check,
    gap_family,
    nonface_partitions,
    polygon_pick_data,
)


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {number:02d} FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_seconds else "FAIL"
    print(f"acceptance {number:02d} {status} {name} ({elapsed:.1f}s / {limit_seconds:.0f}s)")
    assert elapsed < limit_seconds, f"{name} exceeded time budget"


def test_criterion_01_divided_difference_suite():
    with criterion(1, "divided-difference suite", 10.0):
        rng = random.Random(20260808)
        for _ in range(1000):
            d = rng.randint(1, 5)
            n = rng.randint(d + 1, 8)
            tau = [rng.randint(-20, 20)]
            for _ in range(n - 1):
                tau.append(tau[-1] + rng.randint(1, 4))
            p = build_params(d, tau)
            s = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
            v = bvec(s, p)  # integrality enforced by construction
            assert (v == (0,) * (d + 1)) == (len(s) >= d + 2)
            if len(s) >= 2:
                a, b = rng.sample(s, 2)
                assert bvec_recursion_check(s, a, b, p)
            idx = rng.sample(range(1, n + 1), d + 1)
            assert abs(bareiss_det(basis_matrix(idx, p))) == 1


def test_criterion_02_facet_oracle_equivalence():
    with criterion(2, "facet oracle equivalence", 30.0):
        count = 0
        for d, tau in gap_family(max_d=4, max_n=7, max_gap=3):
            p = build_params(d, tau)
            assert facets(p) == brute_facets(p), (d, tau)
            count += 1
        assert count == 4314


def test_criterion_03_codimension_one_witnesses():
    with criterion(3, "codimension-one witnesses", 60.0):
        for d, tau in gap_family(max_d=4, max_n=7, max_gap=3):
            p = build_params(d, tau)
            hps = [facet_hyperplane(w, p) for w in facets(p)]
            for w in facets(p):
                minor = [v[:-1] for v in facet_chain_basis(w, p)]
                # the Hermite pivots and a Bareiss elimination: two routes to one index
                assert facet_lattice_index(w, p) == abs(bareiss_det(minor)) == 1, (d, tau, w)
                sf = support_form(w, p)
                for k in range(1, p.n + 1):
                    if k in w:
                        continue
                    x = r1_witness(w, k, p)
                    assert dot(sf, x) == 1, (d, tau, w, k)
                    assert all(dot(h, x) >= 0 for h in hps), (d, tau, w, k)


def test_criterion_04_gorenstein_positive_cases():
    with criterion(4, "gorenstein positive cases", 1.0):
        for tau in ([0, 1, 3], [0, 2, 3]):
            p = build_params(2, tau)
            report = classify_kp(p, oracle=True)
            assert report.gorenstein_theorem
            assert report.gorenstein_oracle.status == "gorenstein"
            assert report.gorenstein_oracle.generator is not None
            assert report.h_star.h == (1, 4, 1)
            assert report.h_star.is_palindromic()
        exact = classify_kp(build_params(2, [0, 1, 3])).gorenstein_oracle.generator
        assert exact == (1, 1, 2)


def _witness_families():
    for g1 in range(2, 5):
        for g2 in range(2, g1 + 1):
            yield 2, (g1, g2)
    for g1 in (3, 4):
        yield 2, (g1, 1)
    for gaps in product((1, 2, 3), repeat=3):
        if gaps != (1, 1, 1):
            yield 3, gaps
    for d in (4, 5, 6, 7):
        for gaps in product((1, 2), repeat=d):
            yield d, gaps


def test_criterion_05_gorenstein_negative_witnesses():
    with criterion(5, "gorenstein negative witnesses", 300.0):
        count = 0
        for d, gaps in _witness_families():
            tau = [0]
            for g in gaps:
                tau.append(tau[-1] + g)
            p = build_params(d, tau)
            rep = gorenstein_witnesses(p)
            assert not rep.oracle_needed, (d, gaps)
            assert len(rep.points) >= 2, (d, gaps)
            assert rep.verified, (d, gaps, rep.slacks)
            assert all(s > 0 for row in rep.slacks for s in row), (d, gaps)
            assert gorenstein_oracle(p).status == "not_gorenstein", (d, gaps)
            count += 1
        assert count == 274


def test_criterion_06_discrepancy_transparency():
    with criterion(6, "discrepancy transparency", 60.0):
        cases = [(2, [0, 1, 2]), (2, [0, 1, 2, 3]), (3, [0, 1, 2, 3])]
        for d, tau in cases:
            report = classify_kp(build_params(d, tau), oracle=True)
            assert report.gorenstein_oracle is not None
            theorem = report.gorenstein_theorem
            oracle_says = report.gorenstein_oracle.status == "gorenstein"
            has_finding = (
                report.discrepancy is not None
                and "theorem_oracle_discrepancy" in report.discrepancy
            )
            assert has_finding == (theorem != oracle_says), (d, tau)
            # the run itself never turns a finding into a failure
            res = subprocess.run(
                [
                    sys.executable, "-m", "cyclotoric", "classify",
                    "--d", str(d), "--tau", ",".join(map(str, tau)),
                    "--ring", "kp", "--oracle", "--json",
                ],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert res.returncode == 0
            rec = json.loads(res.stdout)
            assert rec["kp"]["gorenstein_theorem"] == theorem
            assert (rec["kp"]["gorenstein_oracle"]["status"] == "gorenstein") == oracle_says


def test_criterion_07_principal_relation_family():
    with criterion(7, "principal relation family", 60.0):
        for d in (2, 3, 4, 5):
            n = d + 2
            for gaps in product((1, 2, 3), repeat=n - 1):
                tau = [0]
                for g in gaps:
                    tau.append(tau[-1] + g)
                p = build_params(d, tau)
                kb = kernel_binomial(p)
                assert all(v == 0 for v in mat_vec(moment_matrix(p), kb.c))
                assert kb.u_support == tuple(range(1, n + 1, 2))
                assert kb.v_support == tuple(range(2, n + 1, 2))
                assert sum(kb.u_exponents) == sum(kb.v_exponents)
                assert not kb.u_squarefree and not kb.v_squarefree, (d, gaps)
                odds = tuple(range(1, n + 1, 2))
                evens = tuple(range(2, n + 1, 2))
                assert nonface_partitions(p) == [(odds, evens)], (d, gaps)
        for d in range(2, 7):
            kb = kernel_binomial(build_params(d, list(range(d + 2))))
            assert tuple(abs(x) for x in kb.c) == tuple(comb(d + 1, i) for i in range(d + 2))


def test_criterion_08_curve_normality():
    with criterion(8, "curve normality agreement", 60.0):
        count = 0
        for n in range(2, 6):
            for rest in combinations(range(1, 9), n - 1):
                tau = (0,) + rest
                p = build_params(1, tau)
                expected = len(set(p.gaps)) == 1
                verdict, witness = is_normal_kq_bruteforce(p)
                assert verdict == ("normal" if expected else "not_normal"), tau
                if verdict == "not_normal":
                    assert witness is not None
                count += 1
        assert count == 162


def test_criterion_09_divisibility_cross_validation():
    with criterion(9, "divisibility cross-validation", 120.0):
        fired = 0
        for d in (2, 3):
            n = d + 3
            for gaps in product((1, 2, 3), repeat=n - 1):
                tau = [0]
                for g in gaps:
                    tau.append(tau[-1] + g)
                p = build_params(d, tau)
                if divisibility_test(p) is None:
                    continue
                verdict, witness = is_normal_kq_bruteforce(p)
                assert verdict == "not_normal", (d, gaps)
                assert witness is not None and 1 <= witness[0] <= d, (d, gaps)
                fired += 1
        assert fired > 0


def test_criterion_10_polygon_normality_and_pick_counts():
    with criterion(10, "polygon normality and Pick's counts", 120.0):
        count = 0
        for d, tau in gap_family(max_d=2, max_n=6, max_gap=4, d_min=2):
            p = build_params(d, tau)
            flag, witness = is_normal_kp(p)
            assert flag and witness is None, tau
            # Pick: |kP| = (k^2 * 2A + k * b) / 2 + 1, from the shoelace area
            twice_area, boundary, interior = polygon_pick_data(p)
            for k in (1, 2):
                expected = (k * k * twice_area + k * boundary) // 2 + 1
                assert len(enumerate_points(p, k)) == expected, (tau, k)
            assert len(enumerate_points(p, 1, True)) == interior, tau
            count += 1
        assert count == 1360


def test_criterion_11_scan_determinism(tmp_path):
    with criterion(11, "scan determinism", 60.0):
        out1 = tmp_path / "t1.jsonl"
        out8 = tmp_path / "t8.jsonl"
        base = [
            sys.executable, "-m", "cyclotoric", "scan",
            "--d", "2..2", "--n", "3..4", "--max-gap", "2",
            "--ring", "both", "--oracle",
        ]
        r1 = subprocess.run(
            base + ["--threads", "1", "--out", str(out1)],
            capture_output=True, text=True, timeout=300,
        )
        r8 = subprocess.run(
            base + ["--threads", "8", "--out", str(out8)],
            capture_output=True, text=True, timeout=300,
        )
        assert r1.returncode == 0 and r8.returncode == 0
        assert out1.read_bytes() == out8.read_bytes()
        assert out1.read_bytes()  # non-empty
