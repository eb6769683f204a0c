"""Command-line interface: classify one instance, scan families, print witnesses.

Every one-instance command prints through one path, `cmd_print`: its builder
returns the payload that --json prints and the text lines otherwise.  Scans
classify the gap tuples up to a cap, one per canonical form, and write each
instance's JSON record, findings and CSV row as it finishes, in canonical order
whatever the worker count: runs are byte-identical, and a scan stopped or
killed partway leaves whole lines up to the stop and no summary.  Findings
(theorem/oracle disagreements, failed witness verifications, unknown or
complete-intersection instances) are data: they never change the exit code.

Exit codes: 0 success, 2 usage, validation or io error (such as an output
its reader closed), 3 enumeration budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
from collections.abc import Iterable
from contextlib import ExitStack, closing
from itertools import accumulate, product

from .core import CycloParams, InvalidParameters, build_params, canonical_form
from .divdiff import bvec
from .faces import NotAFacet, facet_normals, facets
from .kp import (
    NoWitnessExpected,
    RingReportKP,
    classify_kp,
    gorenstein_oracle,
    gorenstein_witnesses,
    r1_certificate,
)
from .kq import RingReportKQ, classify_kq, kernel_binomial
from .lattice import BudgetExceeded, enumerate_points, h_star, resolve_budget

SCHEMA_VERSION = 1


def derive_findings(
    p: CycloParams, kp: RingReportKP | None, kq: RingReportKQ | None
) -> list[dict]:
    """Collect reportable findings from the per-ring reports of one instance, as records."""
    found = [] if kp is None else kp.findings  # (kind, details) pairs
    if kq is not None:
        if kq.evidence["kind"] == "bruteforce_exhaustive":
            found.append((
                "conjecture45_counterexample",
                "vertex semigroup proven normal by exhaustive search to degree max(1, d-1) "
                "where the divisibility criterion is silent",
            ))
        if kq.normal == "unknown":
            found.append((
                "conjecture45_unknown_instance",
                "vertex-semigroup normality undecided by every implemented route",
            ))
        if kq.case == "principal_d2":
            found.append((
                "conjecture48_ci_instance",
                "complete intersection (hence Cohen-Macaulay) with a non-normal "
                "vertex semigroup",
            ))
    canon = canonical_form(p)
    return [
        {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "params": {"d": canon.d, "tau": list(canon.tau)},
            "details": details,
        }
        for kind, details in found
    ]


def _int_list(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidParameters(f"{name} must be a comma-separated integer list: {exc}") from None


def _params(args) -> CycloParams:
    return build_params(args.d, _int_list(args.tau, "tau"))


def _options(args) -> tuple:
    """What `_classify_instance` takes after the instance: rings, oracle, max degree, budget."""
    rings = {"kp", "kq"} if args.ring == "both" else {args.ring}
    return rings, args.oracle, args.max_degree, args.budget


def _record(p: CycloParams, status: str, **fields) -> dict:
    return {"schema": SCHEMA_VERSION, "d": p.d, "n": p.n, "tau": list(p.tau),
            "gaps": list(p.gaps), "status": status, **fields}


def _classify_instance(
    p: CycloParams, rings: set[str], oracle: bool, max_degree: int | None, budget: int | None
) -> dict:
    kp = (classify_kp(p, oracle=oracle, max_degree=max_degree, budget=budget)
          if "kp" in rings else None)
    kq = (classify_kq(p, use_bruteforce=oracle, max_degree=max_degree, budget=budget)
          if "kq" in rings else None)
    return _record(p, "ok", kp=kp and kp.to_dict(), kq=kq and kq.to_dict(),
                   findings=derive_findings(p, kp, kq))


def _scan_worker(task) -> dict:
    p, options = task
    try:
        return _classify_instance(p, *options)
    except BudgetExceeded:  # a scan records the instance and goes on
        return _record(p, "skipped", reason="enumeration budget exhausted",
                       kp=None, kq=None, findings=[])


# classify's text after the instance line: (ring, template filled from that ring's
# report, the key whose value must be set for the line to show, or None)
CLASSIFY_TEXT = (
    ("kp", "K[P]: normal={normal} cohen_macaulay={cohen_macaulay} s2={s2} r1={r1} "
           "seminormal={seminormal}", None),
    ("kp", "      gorenstein_theorem={gorenstein_theorem} oracle={oracle}", None),
    ("kp", "      h_star={h_star} interior_k1={interior_k1} "
           "nonnormal_witness={nonnormal_witness}", None),
    ("kp", "      discrepancy: {discrepancy}", "discrepancy"),
    ("kq", "K[Q]: case={case} normal={normal} complete_intersection={complete_intersection} "
           "evidence={evidence}", None),
    ("kq", "      kernel={kernel}", "kernel"),
)
ORACLE_TEXT = "{status} generator={generator} h_star_palindromic={h_star_palindromic}"


def _show_classify(p: CycloParams, args) -> tuple[dict, Iterable[str]]:
    record = _classify_instance(p, *_options(args))  # starts with "schema", as --json prints it
    kp = record["kp"]
    # the text reads a copy of each ring's report, the K[P] one with its oracle as text
    shown = {"kp": kp and {**kp, "oracle": "none" if kp["gorenstein_oracle"] is None
                           else ORACLE_TEXT.format_map(kp["gorenstein_oracle"])},
             "kq": record["kq"]}
    lines = [f"d={p.d} n={p.n} tau={','.join(map(str, p.tau))} gaps={','.join(map(str, p.gaps))}"]
    lines += [text.format_map(shown[ring]) for ring, text, shown_if in CLASSIFY_TEXT
              if shown[ring] is not None and (shown_if is None or shown[ring][shown_if])]
    findings = [f"finding[{f['kind']}]: {f['details']}" for f in record["findings"]]
    return record, lines + (findings or ["findings: none"])


def _range_token(tok: str, d: int) -> int:
    tok = tok.strip()
    if tok == "d":
        return d
    base, num = (d, tok[2:]) if tok.startswith("d+") else (0, tok)
    try:
        return base + int(num)
    except ValueError:
        raise InvalidParameters(f"a range bound is an integer, d or d+<integer>: {tok!r}") from None


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
    options = _options(args)
    for d in range(d_lo, d_hi + 1):
        n_lo = max(_range_token(n_lo_tok, d), d + 1)
        n_hi = _range_token(n_hi_tok, d)
        for n in range(n_lo, n_hi + 1):
            for gaps in product(range(1, args.max_gap + 1), repeat=n - 1):
                if tuple(reversed(gaps)) < gaps:
                    continue  # canonical deduplication
                tasks.append((CycloParams(d, tuple(accumulate(gaps, initial=0))), options))
    if not tasks:
        raise InvalidParameters("scan ranges describe an empty family")
    return tasks


def _at(*path):
    """A getter for record[path[0]][path[1]]...: None, an empty cell, past an absent ring."""
    def get(record):
        for key in path:
            record = None if record is None else record[key]
        return record
    return get


# the CSV columns, in order, and what each reads from a record
COLUMNS = {
    "d": _at("d"),
    "n": _at("n"),
    "gaps": lambda r: ",".join(map(str, r["gaps"])),
    "normal": _at("kp", "normal"),
    "cm": _at("kp", "cohen_macaulay"),
    "gorenstein_theorem": _at("kp", "gorenstein_theorem"),
    "gorenstein_oracle": _at("kp", "gorenstein_oracle", "status"),
    "kq_case": _at("kq", "case"),
    "kq_normal": _at("kq", "normal"),
    "findings_count": lambda r: len(r["findings"]),
}
# the scan summary: its counts, in order, and what each record adds to each
SUMMARY = {
    "instances": lambda r: 1,
    "ok": lambda r: r["status"] == "ok",
    "skipped": lambda r: r["status"] == "skipped",
    "kp_normal": lambda r: COLUMNS["normal"](r) is True,
    "kp_gorenstein_theorem": lambda r: COLUMNS["gorenstein_theorem"](r) is True,
    "kp_gorenstein_oracle": lambda r: COLUMNS["gorenstein_oracle"](r) == "gorenstein",
    "kq_normal_yes": lambda r: COLUMNS["kq_normal"](r) == "yes",
    "kq_normal_no": lambda r: COLUMNS["kq_normal"](r) == "no",
    "kq_normal_unknown": lambda r: COLUMNS["kq_normal"](r) == "unknown",
    "findings": COLUMNS["findings_count"],
}


def cmd_scan(args) -> int:
    tasks = _scan_instances(args)
    cores = os.cpu_count() or 1
    threads = cores if args.threads is None else args.threads
    if threads < 1:
        raise InvalidParameters("threads must be at least 1")
    summary = dict.fromkeys(SUMMARY, 0)
    with ExitStack() as stack:

        def output(path, newline=None):
            # line-buffered, so every record written is whole on disk, even after a kill
            return path and stack.enter_context(
                open(path, "w", buffering=1, encoding="utf-8", newline=newline)
            )

        # every output opens before the first instance, so a bad path costs no scan
        out, findings = output(args.out) or sys.stdout, output(args.findings)
        rows = args.csv and csv.writer(output(args.csv, ""))
        if rows:
            rows.writerow(COLUMNS)
        records = map(_scan_worker, tasks)
        # the fork start method forks every worker at the first submit, so size the pool
        workers = min(threads, len(tasks), cores)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # only a pool pays for its import

            # after the outputs, so it shuts down first; its map last, so an error cancels the rest
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            records = stack.enter_context(closing(pool.map(_scan_worker, tasks)))
        for record in records:  # in task order, each written as it arrives
            out.write(json.dumps(record) + "\n")
            if findings:
                findings.writelines(json.dumps(f) + "\n" for f in record["findings"])
            if rows:
                rows.writerow([get(record) for get in COLUMNS.values()])
            for key, count in SUMMARY.items():
                summary[key] += count(record)
    print("scan summary: " + json.dumps(summary), file=sys.stderr)
    return 0


def _show_facets(p: CycloParams, args) -> tuple[dict, Iterable[str]]:
    sets = facets(p)
    payload = {"d": p.d, "n": p.n, "facets": [list(w) for w in sets]}
    if not args.normals:
        return payload, [",".join(map(str, w)) for w in sets]
    normals = facet_normals(p)
    payload["normals"] = [list(a) for a in normals]
    return payload, [f"{','.join(map(str, w))}  normal={a}" for w, a in zip(sets, normals)]


def _show_bvec(p: CycloParams, args) -> tuple[dict, Iterable[str]]:
    s = _int_list(args.set, "set")
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
    pts = enumerate_points(p, args.k, args.interior, budget=args.budget)
    # points are built only as printed: JSON lists the slice, text streams its lines
    return {"k": args.k, "points": pts}, (" ".join(map(str, z)) for z in pts)


def _show_r1(p: CycloParams, args) -> tuple[None, list[str]]:
    facet = tuple(sorted(_int_list(args.facet, "facet")))
    # a bad facet or apex raises before any line is built, so none is printed
    idx, rows = r1_certificate(facet, p, None if args.apex is None else [args.apex])
    passed = [value == 1 and in_cone for _, _, value, _, in_cone in rows]
    lines = [f"facet {facet}: lattice slice index = {idx}"]
    lines += [f"apex {k}: x={x} sigma={value} in_cone={str(in_cone).lower()} "
              f"coefficients={[str(c) for c in coeffs]} {'PASS' if ok else 'FAIL'}"
              for (k, x, value, coeffs, in_cone), ok in zip(rows, passed)]
    return None, lines + ["PASS" if idx == 1 and all(passed) else "FAIL"]


def _show_gorenstein(p: CycloParams, args) -> tuple[None, list[str]]:
    rep = gorenstein_witnesses(p)  # raises NoWitnessExpected on the Gorenstein family
    oracle = gorenstein_oracle(p, budget=args.budget)
    if rep.oracle_needed:
        return None, ["no constructive witness pair for this family; exact route adjudicates",
                      f"oracle: {oracle.status} generator={oracle.generator}"]
    agree = oracle.status == "not_gorenstein"
    return None, [
        f"sub-simplex tau={','.join(map(str, rep.params_used.tau))} "
        f"subset={rep.subset} reversed={str(rep.reversed_params).lower()}",
        *(f"point {pt}: slacks={list(slack)} "
          f"{'strictly interior PASS' if ok else 'not interior FAIL'}"
          for pt, slack, ok in zip(rep.points, rep.slacks, rep.interior)),
        f"oracle: {oracle.status} {'PASS' if agree else 'FAIL'}",
        "PASS" if rep.verified and agree else "FAIL",
    ]


def cmd_print(args) -> int:
    """Every one-instance command: one JSON object with --json, else the text lines."""
    payload, lines = args.show(_params(args), args)
    if args.json:
        print(json.dumps({"schema": SCHEMA_VERSION, **payload}, default=list))
    else:
        for line in lines:
            print(line)
    return 0


def _max_degree(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return int(text)


FLAG = {"action": "store_true"}
INSTANCE = (
    ("--d", {"type": int, "required": True, "help": "polytope dimension"}),
    ("--tau", {"required": True, "help": "comma-separated increasing integers"}),
)
RING = ("--ring", {"choices": ("kp", "kq", "both"), "default": "both"})
MAX_DEGREE = ("--max-degree", {"type": _max_degree})
BUDGET = ("--budget", {
    "type": int,
    "help": "cap on the nodes each slice scan visits (default 10^6; env CYCLOTORIC_BUDGET)",
})
JSON = ("--json", FLAG)
# the printer commands: name, payload builder, options besides the instance and --json
PRINTERS = (
    ("facets", _show_facets, (("--normals", FLAG),)),
    ("bvec", _show_bvec, (("--set", {"required": True, "help": "comma-separated index set"}),)),
    ("kernel", _show_kernel, ()),
    ("hstar", _show_hstar, (BUDGET,)),
    ("points", _show_points, (("--k", {"type": int, "required": True}), ("--interior", FLAG),
                              BUDGET)),
)


def _command(subs, name: str, about: str, options, **defaults) -> None:
    sub = subs.add_parser(name, help=about)
    for flag, spec in options:
        sub.add_argument(flag, **spec)
    sub.set_defaults(**defaults)


@functools.cache  # one tree per process, however often `main` runs
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclotoric",
        description="Exact classification of toric rings of integral cyclic polytopes",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _command(subs, "classify", "classify one instance", (
        *INSTANCE, RING, ("--oracle", {**FLAG, "help": "run the exact cross-check routes"}),
        MAX_DEGREE, BUDGET, JSON,
    ), func=cmd_print, show=_show_classify)
    _command(subs, "scan", "scan a parameter family, one JSON record per line", (
        ("--d", {"required": True, "help": "dimension range, e.g. 2..4"}),
        ("--n", {"required": True, "help": "vertex-count range, e.g. 3..6 or d+1..d+2"}),
        ("--max-gap", {"type": int, "required": True}),
        RING, ("--oracle", FLAG), MAX_DEGREE, BUDGET,
        ("--threads", {"type": int}),
        ("--out", {"help": "JSONL output path (default stdout)"}),
        ("--findings", {"help": "findings JSONL output path"}),
        ("--csv", {"help": "CSV summary output path"}),
    ), func=cmd_scan)
    witness = subs.add_parser("witness", help="print constructed witness points with evidence")
    wsubs = witness.add_subparsers(dest="witness_kind", required=True)
    _command(wsubs, "r1", "value-1 cone point for a facet", (
        *INSTANCE, ("--facet", {"required": True, "help": "comma-separated facet indices"}),
        ("--apex", {"type": int}),
    ), func=cmd_print, show=_show_r1, json=False)  # the witness commands print text only
    _command(wsubs, "gorenstein", "interior point pair for non-Gorenstein cases",
             (*INSTANCE, BUDGET), func=cmd_print, show=_show_gorenstein, json=False)
    for name, show, options in PRINTERS:
        _command(subs, name, f"print {name} data", (*INSTANCE, *options, JSON),
                 func=cmd_print, show=show)
    return parser


def _join_negative_tau(argv: list[str]) -> list[str]:
    """`--tau -3,-1,0` as `--tau=-3,-1,0`.

    argparse reads a value that starts with '-' and is not a single
    number as an option, so a parameter list starting with a negative
    number would otherwise need the `=` form.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--tau" and re.match(r"-\d", arg):
            out[-1] = f"--tau={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_tau(sys.argv[1:] if argv is None else list(argv)))
    try:
        # a malformed or negative budget is a usage error for every command
        resolve_budget()
        resolve_budget(getattr(args, "budget", None))
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
