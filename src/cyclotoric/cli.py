"""Command-line interface: classify one instance, scan families, print witnesses.

Scans enumerate gap tuples up to a cap, deduplicate equivalent instances
through the canonical form, classify each one, and emit one JSON record
per line in canonical order regardless of worker count, so repeated runs
are byte-identical.  Findings (theorem/oracle disagreements, failed
witness verifications, unknown or complete-intersection instances) are
data: they never change the exit code.

Exit codes: 0 success, 2 usage or validation error, 3 enumeration budget
exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

from .core import CycloParams, InvalidParameters, build_params, canonical_form
from .divdiff import bvec, cone_coefficients, facet_lattice_index, r1_witness, support_form
from .faces import NotAFacet, facet_hyperplane, facets
from .kp import (
    NoWitnessExpected,
    RingReportKP,
    classify_kp,
    gorenstein_oracle,
    gorenstein_witnesses,
)
from .kq import RingReportKQ, classify_kq, kernel_binomial
from .lattice import BudgetExceeded, Instance, enumerate_points, h_star, resolve_budget

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Finding:
    kind: str
    params: CycloParams
    details: str

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "params": {"d": self.params.d, "tau": list(self.params.tau)},
            "details": self.details,
        }


def derive_findings(
    p: CycloParams, kp: RingReportKP | None, kq: RingReportKQ | None
) -> list[Finding]:
    """Collect reportable findings from the per-ring reports of one instance."""
    canon = canonical_form(p)
    out = []
    if kp is not None:
        for kind, detail in kp.notes:
            out.append(Finding(kind, canon, f"{kind}: {detail}"))
    if kq is not None:
        if kq.normal == "unknown":
            out.append(
                Finding(
                    "conjecture45_unknown_instance",
                    canon,
                    "vertex-semigroup normality undecided by every implemented route",
                )
            )
        if p.n == p.d + 2 and p.d >= 2:
            out.append(
                Finding(
                    "conjecture48_ci_instance",
                    canon,
                    "complete intersection (hence Cohen-Macaulay) with a non-normal "
                    "vertex semigroup",
                )
            )
    return out


def _parse_tau(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidParameters(f"tau must be a comma-separated integer list: {exc}") from None


def _parse_index_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidParameters("expected a comma-separated index list") from None


def _params(args) -> CycloParams:
    return build_params(args.d, _parse_tau(args.tau))


def _instance_header(p: CycloParams) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "d": p.d,
        "n": p.n,
        "tau": list(p.tau),
        "gaps": list(p.gaps),
    }


def _classify_instance(
    p: CycloParams,
    rings: set[str],
    oracle: bool,
    max_degree: int | None,
    budget: int | None,
    catch_budget: bool = True,
) -> dict:
    record = _instance_header(p)
    record["status"] = "ok"
    try:
        kp = (
            classify_kp(p, oracle=oracle, max_degree=max_degree, budget=budget)
            if "kp" in rings
            else None
        )
        kq = (
            classify_kq(p, use_bruteforce=oracle, max_degree=max_degree, budget=budget)
            if "kq" in rings
            else None
        )
    except BudgetExceeded:
        if not catch_budget:
            raise
        record.update(
            {
                "status": "skipped",
                "reason": "enumeration budget exhausted",
                "kp": None,
                "kq": None,
                "findings": [],
            }
        )
        return record
    findings = derive_findings(p, kp, kq)
    record["kp"] = kp.to_dict() if kp is not None else None
    record["kq"] = kq.to_dict() if kq is not None else None
    record["findings"] = [f.to_dict() for f in findings]
    return record


def _scan_worker(task) -> dict:
    d, tau, rings, oracle, max_degree, budget = task
    return _classify_instance(CycloParams(d, tau), set(rings), oracle, max_degree, budget)


def _rings(arg: str) -> set[str]:
    return {"kp", "kq"} if arg == "both" else {arg}


def _print_kp(report: dict) -> None:
    print(
        "K[P]: normal={normal} cohen_macaulay={cohen_macaulay} s2={s2} "
        "r1={r1} seminormal={seminormal}".format(**report)
    )
    oracle = report["gorenstein_oracle"]
    oracle_text = (
        "none"
        if oracle is None
        else f"{oracle['status']} generator={oracle['generator']} "
        f"h_star_palindromic={oracle['h_star_palindromic']}"
    )
    print(
        f"      gorenstein_theorem={report['gorenstein_theorem']} oracle={oracle_text}"
    )
    print(
        f"      h_star={report['h_star']} interior_k1={report['interior_k1']} "
        f"nonnormal_witness={report['nonnormal_witness']}"
    )
    if report["discrepancy"]:
        print(f"      discrepancy: {report['discrepancy']}")


def _print_kq(report: dict) -> None:
    print(
        "K[Q]: case={case} normal={normal} complete_intersection="
        "{complete_intersection} evidence={evidence}".format(**report)
    )
    if report["kernel"] is not None:
        print(f"      kernel={report['kernel']}")


def cmd_classify(args) -> int:
    p = _params(args)
    record = _classify_instance(
        p, _rings(args.ring), args.oracle, args.max_degree, args.budget,
        catch_budget=False,
    )
    if args.json:
        print(json.dumps(record))
        return 0
    print(f"d={p.d} n={p.n} tau={','.join(map(str, p.tau))} gaps={','.join(map(str, p.gaps))}")
    if record["kp"] is not None:
        _print_kp(record["kp"])
    if record["kq"] is not None:
        _print_kq(record["kq"])
    if record["findings"]:
        for f in record["findings"]:
            print(f"finding[{f['kind']}]: {f['details']}")
    else:
        print("findings: none")
    return 0


def _range_token(tok: str, d: int) -> int:
    tok = tok.strip()
    if tok == "d":
        return d
    if tok.startswith("d+"):
        return d + int(tok[2:])
    return int(tok)


def _parse_range(text: str) -> tuple[str, str]:
    if ".." in text:
        a, b = text.split("..", 1)
        return a, b
    return text, text


def _scan_instances(args) -> list[tuple]:
    d_lo, d_hi = (_range_token(t, 0) for t in _parse_range(args.d))
    if d_lo > d_hi or d_lo < 1:
        raise InvalidParameters("empty or invalid d range")
    n_lo_tok, n_hi_tok = _parse_range(args.n)
    if args.max_gap < 1:
        raise InvalidParameters("max-gap must be at least 1")
    tasks = []
    rings = tuple(sorted(_rings(args.ring)))
    for d in range(d_lo, d_hi + 1):
        n_lo = max(_range_token(n_lo_tok, d), d + 1)
        n_hi = _range_token(n_hi_tok, d)
        for n in range(n_lo, n_hi + 1):
            for gaps in product(range(1, args.max_gap + 1), repeat=n - 1):
                if tuple(reversed(gaps)) < gaps:
                    continue  # canonical deduplication
                tau = [0]
                for g in gaps:
                    tau.append(tau[-1] + g)
                tasks.append((d, tuple(tau), rings, args.oracle, args.max_degree, args.budget))
    if not tasks:
        raise InvalidParameters("scan ranges describe an empty family")
    return tasks


def cmd_scan(args) -> int:
    tasks = _scan_instances(args)
    threads = args.threads if args.threads is not None else os.cpu_count() or 1
    if threads < 1:
        raise InvalidParameters("threads must be at least 1")
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_scan_worker, tasks))
    else:
        records = [_scan_worker(t) for t in tasks]

    lines = "".join(json.dumps(r) + "\n" for r in records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(lines)
    else:
        sys.stdout.write(lines)

    all_findings = [f for r in records for f in r.get("findings", [])]
    if args.findings:
        with open(args.findings, "w", encoding="utf-8") as fh:
            for f in all_findings:
                fh.write(json.dumps(f) + "\n")
    if args.csv:
        _write_csv(args.csv, records)

    summary = {
        "instances": len(records),
        "ok": sum(r["status"] == "ok" for r in records),
        "skipped": sum(r["status"] == "skipped" for r in records),
        "kp_normal": sum(bool(r["kp"] and r["kp"]["normal"]) for r in records),
        "kp_gorenstein_theorem": sum(
            bool(r["kp"] and r["kp"]["gorenstein_theorem"]) for r in records
        ),
        "kp_gorenstein_oracle": sum(
            bool(
                r["kp"]
                and r["kp"]["gorenstein_oracle"]
                and r["kp"]["gorenstein_oracle"]["status"] == "gorenstein"
            )
            for r in records
        ),
        "kq_normal_yes": sum(bool(r["kq"] and r["kq"]["normal"] == "yes") for r in records),
        "kq_normal_no": sum(bool(r["kq"] and r["kq"]["normal"] == "no") for r in records),
        "kq_normal_unknown": sum(
            bool(r["kq"] and r["kq"]["normal"] == "unknown") for r in records
        ),
        "findings": len(all_findings),
    }
    print("scan summary: " + json.dumps(summary), file=sys.stderr)
    return 0


CSV_COLUMNS = (
    "d",
    "n",
    "gaps",
    "normal",
    "cm",
    "gorenstein_theorem",
    "gorenstein_oracle",
    "kq_case",
    "kq_normal",
    "findings_count",
)


def _write_csv(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            kp = r.get("kp") or {}
            kq = r.get("kq") or {}
            oracle = kp.get("gorenstein_oracle") or {}
            writer.writerow(
                [
                    r["d"],
                    r["n"],
                    ",".join(map(str, r["gaps"])),
                    kp.get("normal", ""),
                    kp.get("cohen_macaulay", ""),
                    kp.get("gorenstein_theorem", ""),
                    oracle.get("status", ""),
                    kq.get("case", ""),
                    kq.get("normal", ""),
                    len(r.get("findings", [])),
                ]
            )


def cmd_witness_r1(args) -> int:
    p = _params(args)
    facet = tuple(sorted(_parse_index_list(args.facet)))
    facet_hyperplane(facet, p)  # validates; raises NotAFacet otherwise
    apexes = [args.apex] if args.apex is not None else [
        k for k in range(1, p.n + 1) if k not in facet
    ]
    sf = support_form(facet, p)
    idx = facet_lattice_index(facet, p)
    print(f"facet {facet}: lattice slice index = {idx}")
    all_ok = idx == 1
    for k in apexes:
        if k in facet:
            raise InvalidParameters("apex must lie outside the facet")
        x = r1_witness(facet, k, p)
        value = sf.value_on(x)
        coeffs = cone_coefficients(x, sorted(facet + (k,)), p)
        in_cone = all(c >= 0 for c in coeffs)
        ok = value == 1 and in_cone
        all_ok = all_ok and ok
        print(
            f"apex {k}: x={x} sigma={value} in_cone={str(in_cone).lower()} "
            f"coefficients={[str(c) for c in coeffs]} {'PASS' if ok else 'FAIL'}"
        )
    print("PASS" if all_ok else "FAIL")
    return 0


def cmd_witness_gorenstein(args) -> int:
    p = _params(args)
    rep = gorenstein_witnesses(p)  # raises NoWitnessExpected on the Gorenstein family
    if rep.oracle_needed:
        oracle = gorenstein_oracle(p, budget=args.budget)
        print("no constructive witness pair for this family; exact route adjudicates")
        print(f"oracle: {oracle.status} generator={oracle.generator}")
        return 0
    print(
        f"sub-simplex tau={','.join(map(str, rep.params_used.tau))} "
        f"subset={rep.subset} reversed={str(rep.reversed_params).lower()}"
    )
    for pt, slack in zip(rep.points, rep.slacks):
        ok = all(s > 0 for s in slack)
        print(
            f"point {pt}: slacks={list(slack)} "
            f"{'strictly interior PASS' if ok else 'not interior FAIL'}"
        )
    oracle = gorenstein_oracle(p, budget=args.budget)
    agree = oracle.status == "not_gorenstein"
    print(f"oracle: {oracle.status} {'PASS' if agree else 'FAIL'}")
    print("PASS" if rep.verified and agree else "FAIL")
    return 0


def _show_facets(p: CycloParams, args) -> tuple[dict, Iterable[str]]:
    sets = facets(p)
    payload = {"d": p.d, "n": p.n, "facets": [list(w) for w in sets]}
    if not args.normals:
        return payload, [",".join(map(str, w)) for w in sets]
    normals = Instance(p).normals
    payload["normals"] = [list(a) for a in normals]
    return payload, [f"{','.join(map(str, w))}  normal={a}" for w, a in zip(sets, normals)]


def _show_bvec(p: CycloParams, args) -> tuple[dict, Iterable[str]]:
    s = _parse_index_list(args.set)
    v = bvec(s, p)
    return {"set": sorted(set(s)), "vector": list(v)}, [" ".join(map(str, v))]


def _show_kernel(p: CycloParams, args) -> tuple[dict, Iterable[str]]:
    kb = kernel_binomial(p)
    u, v = kb.monomials()
    return kb.to_dict(), [
        f"c = {list(kb.c)}",
        f"binomial: {u} - {v}   degree {kb.degree}",
        f"u_squarefree={kb.u_squarefree} v_squarefree={kb.v_squarefree}",
    ]


def _show_hstar(p: CycloParams, args) -> tuple[dict, Iterable[str]]:
    h = h_star(p, budget=args.budget)
    vol, pal = h.normalized_volume, h.is_palindromic()
    payload = {"h_star": list(h.h), "normalized_volume": vol, "palindromic": pal}
    return payload, [f"h* = {list(h.h)}  volume={vol} palindromic={str(pal).lower()}"]


def _show_points(p: CycloParams, args) -> tuple[dict, Iterable[str]]:
    pts = enumerate_points(p, args.k, args.interior, frame=args.frame, budget=args.budget)
    # tuples encode as JSON arrays; text lines are made only when printed
    return {"k": args.k, "points": pts}, (" ".join(map(str, z)) for z in pts)


def cmd_print(args) -> int:
    """The printer commands: one JSON object with --json, else the text lines."""
    payload, lines = args.show(_params(args), args)
    if args.json:
        print(json.dumps({"schema": SCHEMA_VERSION, **payload}))
    else:
        for line in lines:
            print(line)
    return 0


def _add_instance_args(sub) -> None:
    sub.add_argument("--d", type=int, required=True, help="polytope dimension")
    sub.add_argument("--tau", required=True, help="comma-separated increasing integers")


def _add_budget_arg(sub) -> None:
    sub.add_argument(
        "--budget",
        type=int,
        default=None,
        help="enumeration bounding-box budget (default 10^8; env CYCLOTORIC_BUDGET)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclotoric",
        description="Exact classification of toric rings of integral cyclic polytopes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sc = subs.add_parser("classify", help="classify one instance")
    _add_instance_args(sc)
    sc.add_argument("--ring", choices=("kp", "kq", "both"), default="both")
    sc.add_argument("--oracle", action="store_true", help="run the exact cross-check routes")
    sc.add_argument("--max-degree", type=int, default=None)
    _add_budget_arg(sc)
    sc.add_argument("--json", action="store_true")
    sc.set_defaults(func=cmd_classify)

    ss = subs.add_parser("scan", help="scan a parameter family, one JSON record per line")
    ss.add_argument("--d", required=True, help="dimension range, e.g. 2..4")
    ss.add_argument("--n", required=True, help="vertex-count range, e.g. 3..6 or d+1..d+2")
    ss.add_argument("--max-gap", type=int, required=True)
    ss.add_argument("--ring", choices=("kp", "kq", "both"), default="both")
    ss.add_argument("--oracle", action="store_true")
    ss.add_argument("--max-degree", type=int, default=None)
    _add_budget_arg(ss)
    ss.add_argument("--threads", type=int, default=None)
    ss.add_argument("--out", default=None, help="JSONL output path (default stdout)")
    ss.add_argument("--findings", default=None, help="findings JSONL output path")
    ss.add_argument("--csv", default=None, help="CSV summary output path")
    ss.set_defaults(func=cmd_scan)

    sw = subs.add_parser("witness", help="print constructed witness points with evidence")
    wsubs = sw.add_subparsers(dest="witness_kind", required=True)
    wr = wsubs.add_parser("r1", help="value-1 cone point for a facet")
    _add_instance_args(wr)
    wr.add_argument("--facet", required=True, help="comma-separated facet indices")
    wr.add_argument("--apex", type=int, default=None)
    wr.set_defaults(func=cmd_witness_r1)
    wg = wsubs.add_parser("gorenstein", help="interior point pair for non-Gorenstein cases")
    _add_instance_args(wg)
    _add_budget_arg(wg)
    wg.set_defaults(func=cmd_witness_gorenstein)

    for name, show, extra in (
        ("facets", _show_facets, "normals"),
        ("bvec", _show_bvec, "set"),
        ("kernel", _show_kernel, None),
        ("hstar", _show_hstar, "budget"),
        ("points", _show_points, "points"),
    ):
        sp = subs.add_parser(name, help=f"print {name} data")
        _add_instance_args(sp)
        if extra == "normals":
            sp.add_argument("--normals", action="store_true")
        elif extra == "set":
            sp.add_argument("--set", required=True, help="comma-separated index set")
        elif extra == "budget":
            _add_budget_arg(sp)
        elif extra == "points":
            sp.add_argument("--k", type=int, required=True)
            sp.add_argument("--interior", action="store_true")
            sp.add_argument("--frame", choices=("moment", "transformed"), default="transformed")
            _add_budget_arg(sp)
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(func=cmd_print, show=show)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolve_budget()  # a malformed CYCLOTORIC_BUDGET is a usage error for every command
        return args.func(args)
    except (InvalidParameters, NotAFacet, NoWitnessExpected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
