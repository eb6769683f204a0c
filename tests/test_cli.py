"""End-to-end command-line behaviour: output shapes, exit codes, determinism."""

import contextlib
import csv
import io
import json
import signal
import subprocess
import sys
import textwrap
import traceback
from itertools import accumulate, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclotoric.cli import build_parser, main
from cyclotoric.core import build_params
from cyclotoric.faces import facets
from cyclotoric.kp import r1_issues

BASE = [sys.executable, "-m", "cyclotoric"]


def run_cli(*args, env=None):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env, timeout=300
    )


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # records are NamedTuples or plain classes, so starting a command generates no code
    code = "import sys, cyclotoric.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_classify_kp_json():
    res = run_cli(
        "classify", "--d", "2", "--tau", "0,1,3", "--ring", "kp", "--oracle", "--json"
    )
    assert res.returncode == 0
    rec = json.loads(res.stdout)
    assert rec["schema"] == 1
    assert rec["kp"]["normal"] is True
    assert rec["kp"]["gorenstein_theorem"] is True
    assert rec["kp"]["gorenstein_oracle"]["status"] == "gorenstein"
    assert rec["kp"]["gorenstein_oracle"]["generator"] == [1, 1, 2]
    assert rec["kq"] is None


def test_classify_kq_json():
    res = run_cli("classify", "--d", "2", "--tau", "0,1,2,3", "--ring", "kq", "--json")
    assert res.returncode == 0
    rec = json.loads(res.stdout)
    assert rec["kq"]["case"] == "principal_d2"
    assert rec["kq"]["normal"] == "no"
    assert rec["kq"]["kernel"] == [1, -3, 3, -1]
    assert rec["kp"] is None


def test_classify_validation_error():
    res = run_cli("classify", "--d", "2", "--tau", "0,0,3")
    assert res.returncode == 2
    assert "tau must be strictly increasing" in res.stderr


def test_slices_past_sys_maxsize_points_are_counted():
    # len() of a slice overflows past sys.maxsize points; the counts must not
    res = run_cli("classify", "--d", "1", "--tau", "0,99999999999999999999")
    assert res.returncode == 0, res.stderr
    assert "h_star=[1, 99999999999999999998]" in res.stdout
    res = run_cli("hstar", "--d", "1", "--tau", "0,9223372036854775808")
    assert res.returncode == 0, res.stderr
    assert "h* = [1, 9223372036854775807]" in res.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--d", "3", "--tau", "0,2,4,6,8", "--ring", "kp", "--max-degree", "-1"),
        ("scan", "--d", "2..2", "--n", "3..3", "--max-gap", "2", "--ring", "kp",
         "--threads", "1", "--max-degree", "-5"),
    ],
)
def test_negative_max_degree_is_a_usage_error(argv):
    code, out = _main_output(argv)
    assert code == 2 and out == ""


def test_classify_budget_exhaustion():
    res = run_cli(
        "classify", "--d", "2", "--tau", "0,7,20", "--ring", "kp", "--budget", "5"
    )
    assert res.returncode == 3
    assert "budget" in res.stderr.lower()


def test_max_degree_above_the_bound_is_the_proven_verdict():
    # degrees past max(1, d-1) add no generator, so they are not enumerated:
    # at degree 6 the bounding box alone is past the default budget
    argv = ["classify", "--d", "3", "--tau", "0,3,6,9,12", "--ring", "kp", "--json"]
    code, out = _main_output(argv + ["--max-degree", "6"])
    assert code == 0 and json.loads(out)["kp"]["normal"] is True
    assert (code, out) == _main_output(argv)


def test_classify_human_readable():
    res = run_cli("classify", "--d", "2", "--tau", "0,1,3", "--oracle")
    assert res.returncode == 0
    assert "K[P]:" in res.stdout and "K[Q]:" in res.stdout
    assert "findings: none" in res.stdout


@pytest.mark.parametrize(
    "argv,lines",
    [
        (["--d", "2", "--tau", "0,1,2", "--oracle"], [
            "d=2 n=3 tau=0,1,2 gaps=1,1",
            "K[P]: normal=True cohen_macaulay=True s2=True r1=True seminormal=True",
            "      gorenstein_theorem=False oracle=gorenstein generator=[2, 2, 3] "
            "h_star_palindromic=True",
            "      h_star=[1, 1, 0] interior_k1=0 nonnormal_witness=None",
            "      discrepancy: theorem_oracle_discrepancy: closed-form predicate says False "
            "but exact route says gorenstein",
            "K[Q]: case=simplex_regular normal=yes complete_intersection=False "
            "evidence={'kind': 'regularity'}",
            "finding[theorem_oracle_discrepancy]: theorem_oracle_discrepancy: closed-form "
            "predicate says False but exact route says gorenstein",
        ]),
        (["--d", "2", "--tau", "0,1,2,3", "--oracle"], [
            "d=2 n=4 tau=0,1,2,3 gaps=1,1,1",
            "K[P]: normal=True cohen_macaulay=True s2=True r1=True seminormal=True",
            "      gorenstein_theorem=False oracle=not_gorenstein generator=None "
            "h_star_palindromic=False",
            "      h_star=[1, 5, 2] interior_k1=2 nonnormal_witness=None",
            "K[Q]: case=principal_d2 normal=no complete_intersection=True "
            "evidence={'kind': 'kernel_binomial', 'u_squarefree': False, 'v_squarefree': False}",
            "      kernel=[1, -3, 3, -1]",
            "finding[conjecture48_ci_instance]: complete intersection (hence Cohen-Macaulay) "
            "with a non-normal vertex semigroup",
        ]),
        (["--d", "2", "--tau", "0,1,3", "--ring", "kp", "--max-degree", "0"], [
            "d=2 n=3 tau=0,1,3 gaps=1,2",
            "K[P]: normal=None cohen_macaulay=None s2=None r1=True seminormal=None",
            "      gorenstein_theorem=True oracle=none",
            "      h_star=[1, 4, 1] interior_k1=1 nonnormal_witness=None",
            "findings: none",
        ]),
    ],
)
def test_classify_text_lines(argv, lines):
    # every optional line once: a discrepancy and its finding, a kernel, no
    # oracle, unproven flags and no findings
    assert _main_output(["classify", *argv]) == (0, "\n".join(lines) + "\n")


def test_bare_assertion_case_exits_zero_with_findings():
    res = run_cli(
        "classify", "--d", "2", "--tau", "0,1,2", "--ring", "kp", "--oracle", "--json"
    )
    assert res.returncode == 0
    rec = json.loads(res.stdout)
    oracle_says = rec["kp"]["gorenstein_oracle"]["status"] == "gorenstein"
    has_finding = any(
        f["kind"] == "theorem_oracle_discrepancy" for f in rec["findings"]
    )
    assert has_finding == (rec["kp"]["gorenstein_theorem"] != oracle_says)


class TestScan:
    def test_triangle_family(self):
        res = run_cli(
            "scan", "--d", "2..2", "--n", "3..3", "--max-gap", "2",
            "--ring", "kp", "--oracle",
        )
        assert res.returncode == 0
        records = [json.loads(line) for line in res.stdout.splitlines()]
        assert [tuple(r["gaps"]) for r in records] == [(1, 1), (1, 2), (2, 2)]
        theorem_flags = {tuple(r["gaps"]): r["kp"]["gorenstein_theorem"] for r in records}
        assert theorem_flags == {(1, 1): False, (1, 2): True, (2, 2): False}
        assert "scan summary" in res.stderr

    def test_principal_family_never_normal(self):
        res = run_cli(
            "scan", "--d", "2..4", "--n", "d+2..d+2", "--max-gap", "2", "--ring", "kq"
        )
        assert res.returncode == 0
        records = [json.loads(line) for line in res.stdout.splitlines()]
        assert records
        assert all(r["kq"]["normal"] == "no" for r in records)
        assert all(r["kq"]["complete_intersection"] for r in records)

    def test_curve_family_equal_gaps(self):
        res = run_cli(
            "scan", "--d", "1..1", "--n", "3..4", "--max-gap", "3", "--ring", "kq"
        )
        assert res.returncode == 0
        for line in res.stdout.splitlines():
            r = json.loads(line)
            equal = len(set(r["gaps"])) == 1
            assert (r["kq"]["normal"] == "yes") == equal

    def test_round_trip(self):
        res = run_cli(
            "scan", "--d", "2..2", "--n", "3..4", "--max-gap", "2",
            "--ring", "both", "--oracle",
        )
        assert res.returncode == 0
        for line in res.stdout.splitlines():
            rec = json.loads(line)
            again = run_cli(
                "classify",
                "--d", str(rec["d"]),
                "--tau", ",".join(map(str, rec["tau"])),
                "--ring", "both", "--oracle", "--json",
            )
            assert json.loads(again.stdout) == rec

    def test_outputs_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        findings = tmp_path / "findings.jsonl"
        summary_csv = tmp_path / "summary.csv"
        args = [
            "scan", "--d", "2..2", "--n", "3..4", "--max-gap", "2",
            "--ring", "both", "--oracle",
        ]
        r1 = run_cli(*args, "--threads", "1", "--out", str(out1),
                     "--findings", str(findings), "--csv", str(summary_csv))
        r2 = run_cli(*args, "--threads", "8", "--out", str(out2))
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = summary_csv.read_text().splitlines()[0]
        assert header == "d,n,gaps,normal,cm,gorenstein_theorem,gorenstein_oracle,kq_case,kq_normal,findings_count"
        for line in findings.read_text().splitlines():
            f = json.loads(line)
            assert f["kind"] in {
                "theorem_oracle_discrepancy",
                "witness_verification_failure",
                "conjecture45_unknown_instance",
                "conjecture48_ci_instance",
            }

    def test_wide_family_unknowns_without_bruteforce(self):
        res = run_cli(
            "scan", "--d", "2..2", "--n", "5..5", "--max-gap", "2", "--ring", "kq"
        )
        assert res.returncode == 0
        records = [json.loads(line) for line in res.stdout.splitlines()]
        unknowns = [r for r in records if r["kq"]["normal"] == "unknown"]
        assert unknowns  # divisibility is silent on part of this family
        for r in unknowns:
            kinds = {f["kind"] for f in r["findings"]}
            assert "conjecture45_unknown_instance" in kinds

    def test_wide_family_resolved_with_bruteforce(self):
        res = run_cli(
            "scan", "--d", "2..2", "--n", "5..5", "--max-gap", "2",
            "--ring", "kq", "--oracle",
        )
        assert res.returncode == 0
        records = [json.loads(line) for line in res.stdout.splitlines()]
        assert records and all(r["kq"]["normal"] == "no" for r in records)

    def test_empty_family_is_a_usage_error(self):
        res = run_cli("scan", "--d", "3..3", "--n", "2..3", "--max-gap", "2")
        assert res.returncode == 2
        res = run_cli("scan", "--d", "2..2", "--n", "3..3", "--max-gap", "2",
                      "--threads", "0")
        assert res.returncode == 2

    def test_budget_skips_instances(self):
        res = run_cli(
            "scan", "--d", "2..2", "--n", "3..3", "--max-gap", "9",
            "--ring", "kp", "--budget", "10",
        )
        # the scans of these triangles visit 4 to 20 nodes
        assert res.returncode == 0
        records = [json.loads(line) for line in res.stdout.splitlines()]
        assert any(r["status"] == "skipped" for r in records)
        assert any(r["status"] == "ok" for r in records)
        for r in records:
            if r["status"] == "skipped":
                assert "budget" in r["reason"]

    @pytest.mark.parametrize(
        "family",
        [
            ("--d", "2..2", "--n", "3..4", "--max-gap", "2", "--ring", "both", "--oracle"),
            # the kp cells stay empty, and divisibility leaves some K[Q] unknown
            ("--d", "2..3", "--n", "d+1..d+3", "--max-gap", "2", "--ring", "kq"),
            # 4 of these 60 instances pass the budget, and their ring cells stay empty
            ("--d", "1..2", "--n", "d+1..d+4", "--max-gap", "2", "--ring", "both", "--oracle",
             "--budget", "10"),
        ],
    )
    def test_csv_rows_and_summary_follow_the_records(self, tmp_path, family):
        out, table = tmp_path / "out.jsonl", tmp_path / "summary.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["scan", *family, "--threads", "1", "--out", str(out), "--csv", str(table)])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        statuses = [r["status"] for r in records]
        assert set(statuses) == ({"ok", "skipped"} if "--budget" in family else {"ok"})
        assert any(r["kp"] for r in records) == ("kq" not in family)

        def cell(value):
            return "" if value is None else str(value)

        rows = [["d", "n", "gaps", "normal", "cm", "gorenstein_theorem", "gorenstein_oracle",
                 "kq_case", "kq_normal", "findings_count"]]
        for r in records:
            kp, kq = r["kp"] or {}, r["kq"] or {}
            rows.append([
                str(r["d"]), str(r["n"]), ",".join(map(str, r["gaps"])),
                *(cell(kp.get(key)) for key in ("normal", "cohen_macaulay", "gorenstein_theorem")),
                cell((kp.get("gorenstein_oracle") or {}).get("status")),
                cell(kq.get("case")), cell(kq.get("normal")), str(len(r["findings"])),
            ])
        with table.open(newline="") as fh:
            assert list(csv.reader(fh)) == rows

        kps = [r["kp"] for r in records if r["kp"]]
        kq_normal = [r["kq"]["normal"] for r in records if r["kq"]]
        summary = {
            "instances": len(records),
            "ok": statuses.count("ok"),
            "skipped": statuses.count("skipped"),
            "kp_normal": sum(kp["normal"] is True for kp in kps),
            "kp_gorenstein_theorem": sum(kp["gorenstein_theorem"] is True for kp in kps),
            "kp_gorenstein_oracle": sum(
                (kp["gorenstein_oracle"] or {}).get("status") == "gorenstein" for kp in kps
            ),
            "kq_normal_yes": kq_normal.count("yes"),
            "kq_normal_no": kq_normal.count("no"),
            "kq_normal_unknown": kq_normal.count("unknown"),
            "findings": sum(len(r["findings"]) for r in records),
        }
        assert err.getvalue() == f"scan summary: {json.dumps(summary)}\n"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_stopped_scan_leaves_the_records_before_the_stop(
        self, monkeypatch, tmp_path, threads
    ):
        import cyclotoric.cli as cli_mod

        scan = ["scan", "--d", "2..2", "--n", "3..4", "--max-gap", "2", "--ring", "both",
                "--oracle", "--threads", threads]

        def outputs(name):
            (tmp_path / name).mkdir()
            return {flag: tmp_path / name / flag[2:] for flag in ("--out", "--findings", "--csv")}

        full, stopped = outputs("full"), outputs("stopped")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main([*scan, *(str(a) for pair in full.items() for a in pair)]) == 0
        records = [json.loads(line) for line in full["--out"].read_text().splitlines()]
        m = 5  # the 6th of these 9 records has findings, and so have some before it
        assert len(records) == 9 and records[m]["findings"]
        stop = (records[m]["d"], tuple(records[m]["tau"]))
        classify = cli_mod._classify_instance

        def classify_until_the_stop(p, *options):
            if (p.d, p.tau) == stop:
                raise RuntimeError("stopped")
            return classify(p, *options)

        # the workers a pool forks inherit the patch
        monkeypatch.setattr(cli_mod, "_classify_instance", classify_until_the_stop)
        err = io.StringIO()
        with pytest.raises(RuntimeError, match="stopped"), contextlib.redirect_stderr(err):
            main([*scan, *(str(a) for pair in stopped.items() for a in pair)])
        assert err.getvalue() == ""  # no summary line

        def lines(path):
            return path.read_text().splitlines(keepends=True)

        found = sum(len(r["findings"]) for r in records[:m])
        assert lines(stopped["--out"]) == lines(full["--out"])[:m]
        assert lines(stopped["--findings"]) == lines(full["--findings"])[:found]
        assert lines(stopped["--csv"]) == lines(full["--csv"])[:m + 1]  # the header, m rows

    def test_a_killed_scan_leaves_whole_records(self, tmp_path):
        # a driver that kills its own process, with no clean-up, at the 4th instance
        driver = textwrap.dedent("""
            import os, signal, sys
            import cyclotoric.cli as cli
            classify, calls = cli._classify_instance, []
            def classify_or_kill(*args):
                calls.append(args)
                if len(calls) == 4:
                    os.kill(os.getpid(), signal.SIGKILL)
                return classify(*args)
            cli._classify_instance = classify_or_kill
            sys.exit(cli.main(sys.argv[1:]))
        """)
        out, findings, table = (tmp_path / name for name in ("out", "findings", "csv"))
        res = subprocess.run(
            [sys.executable, "-c", driver, "scan", "--d", "2..2", "--n", "3..4",
             "--max-gap", "2", "--ring", "both", "--oracle", "--threads", "1",
             "--out", str(out), "--findings", str(findings), "--csv", str(table)],
            capture_output=True, text=True, timeout=300,
        )
        assert res.returncode == -signal.SIGKILL and res.stderr == ""
        assert out.read_text().endswith("\n")
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 3
        assert [json.loads(line) for line in findings.read_text().splitlines()] == [
            f for r in records for f in r["findings"]
        ]
        assert len(table.read_text().splitlines()) == 4  # the header and 3 rows


class TestWitnessCommands:
    def test_r1_witness(self):
        res = run_cli(
            "witness", "r1", "--d", "2", "--tau", "0,1,3", "--facet", "2,3",
            "--apex", "1",
        )
        assert res.returncode == 0
        assert "x=(1, 1, 2)" in res.stdout
        assert "sigma=1" in res.stdout
        assert "in_cone=true" in res.stdout
        assert "coefficients=['1/3', '1/2', '1/6']" in res.stdout
        assert res.stdout.strip().endswith("PASS")

    def test_r1_all_apexes(self):
        res = run_cli("witness", "r1", "--d", "2", "--tau", "0,1,2,3", "--facet", "2,3")
        assert res.returncode == 0
        assert res.stdout.count("apex") == 2

    def test_r1_rejects_non_facet(self):
        res = run_cli("witness", "r1", "--d", "2", "--tau", "0,1,2,3", "--facet", "1,3")
        assert res.returncode == 2

    def test_r1_rejects_apex_in_facet(self):
        res = run_cli(
            "witness", "r1", "--d", "2", "--tau", "0,1,3", "--facet", "2,3",
            "--apex", "2",
        )
        assert res.returncode == 2

    @pytest.mark.parametrize("apex", ["1", "4", "0"])
    def test_r1_checks_the_apex_before_any_output(self, apex):
        code, out = _main_output(
            ["witness", "r1", "--d", "2", "--tau", "0,1,3", "--facet", "1,2", "--apex", apex]
        )
        assert (code, out) == (2, "")

    @pytest.mark.parametrize(
        "d,tau,facet", [("1", "0,1", "1,1"), ("2", "0,1,3", "2,3,3")]
    )
    def test_r1_rejects_repeated_facet_indices(self, d, tau, facet):
        res = run_cli("witness", "r1", "--d", d, "--tau", tau, "--facet", facet)
        assert res.returncode == 2
        assert "not a facet" in res.stderr
        assert "Traceback" not in res.stderr

    def test_r1_passes_exactly_where_r1_issues_is_silent(self):
        # both read one certificate per facet: d <= 4, n <= 7, gaps <= 2; the
        # parser is built once, since building it costs more than a facet
        parser = build_parser()
        for d in range(1, 5):
            for n in range(d + 1, 8):
                for gaps in product((1, 2), repeat=n - 1):
                    tau = list(accumulate(gaps, initial=0))
                    p = build_params(d, tau)
                    issues = r1_issues(p)
                    for w in facets(p):
                        args = parser.parse_args(
                            ["witness", "r1", f"--d={d}", f"--tau={','.join(map(str, tau))}",
                             f"--facet={','.join(map(str, w))}"]
                        )
                        out = io.StringIO()
                        with contextlib.redirect_stdout(out):
                            assert args.func(args) == 0
                        clean = not any(msg.startswith(f"facet {w}") for msg in issues)
                        assert out.getvalue().splitlines()[-1] == ("PASS" if clean else "FAIL")

    def test_gorenstein_witness_pair(self):
        res = run_cli("witness", "gorenstein", "--d", "2", "--tau", "0,2,4")
        assert res.returncode == 0
        assert "point (1, 1, 1): slacks=[5, 1, 1]" in res.stdout
        assert "point (1, 2, 2)" in res.stdout
        assert "not_gorenstein" in res.stdout
        assert res.stdout.strip().endswith("PASS")

    def test_gorenstein_witness_rejected_on_gorenstein_family(self):
        res = run_cli("witness", "gorenstein", "--d", "2", "--tau", "0,1,3")
        assert res.returncode == 2
        assert "no witness expected" in res.stderr

    def test_gorenstein_witness_oracle_needed(self):
        res = run_cli("witness", "gorenstein", "--d", "2", "--tau", "0,1,2")
        assert res.returncode == 0
        assert "exact route adjudicates" in res.stdout

    @pytest.mark.parametrize(
        "argv,lines",
        [
            (["r1", "--d", "2", "--tau", "0,1,2,3", "--facet", "2,3"], [
                "facet (2, 3): lattice slice index = 1",
                "apex 1: x=(1, 1, 2) sigma=1 in_cone=true coefficients=['1/2', '0', '1/2'] PASS",
                "apex 4: x=(1, 2, 5) sigma=1 in_cone=true coefficients=['1/2', '0', '1/2'] PASS",
                "PASS",
            ]),
            (["gorenstein", "--d", "2", "--tau", "0,2,4"], [
                "sub-simplex tau=0,2,4 subset=(1, 2, 3) reversed=false",
                "point (1, 1, 1): slacks=[5, 1, 1] strictly interior PASS",
                "point (1, 2, 2): slacks=[2, 2, 2] strictly interior PASS",
                "oracle: not_gorenstein PASS",
                "PASS",
            ]),
            (["gorenstein", "--d", "4", "--tau", "0,1,2,3,4,6,9"], [
                "sub-simplex tau=0,1,2,3,4 subset=(1, 2, 3, 4, 5) reversed=false",
                "point (1, 2, 3, 3, 1): slacks=[1, 2, 1, 2, 1] strictly interior PASS",
                "point (1, 2, 3, 3, 2): slacks=[2, 1, 2, 1, 2] strictly interior PASS",
                "oracle: not_gorenstein PASS",
                "PASS",
            ]),
            (["gorenstein", "--d", "2", "--tau", "0,1,2"], [
                "no constructive witness pair for this family; exact route adjudicates",
                "oracle: gorenstein generator=(2, 2, 3)",
            ]),
        ],
    )
    def test_witness_text_lines(self, argv, lines):
        # two apexes; a pair in the simplex itself and in a sub-simplex of d = 4;
        # a family only the exact route settles
        assert _main_output(["witness", *argv]) == (0, "\n".join(lines) + "\n")


class TestPrinters:
    def test_facets(self):
        res = run_cli("facets", "--d", "2", "--tau", "0,1,2,3", "--json")
        assert json.loads(res.stdout)["facets"] == [[1, 2], [1, 4], [2, 3], [3, 4]]

    def test_facets_with_normals(self):
        res = run_cli("facets", "--d", "2", "--tau", "0,1,3", "--normals")
        assert res.returncode == 0
        assert "normal=" in res.stdout

    def test_bvec(self):
        res = run_cli("bvec", "--d", "2", "--tau", "0,1,3", "--set", "1,2,3")
        assert res.stdout.split() == ["0", "0", "1"]

    def test_kernel(self):
        res = run_cli("kernel", "--d", "2", "--tau", "0,1,2,3", "--json")
        rec = json.loads(res.stdout)
        assert rec["c"] == [1, -3, 3, -1]
        assert rec["u"] == "x1*x3^3" and rec["v"] == "x2^3*x4"

    def test_kernel_requires_principal_case(self):
        res = run_cli("kernel", "--d", "2", "--tau", "0,1,3")
        assert res.returncode == 2

    def test_hstar(self):
        res = run_cli("hstar", "--d", "2", "--tau", "0,1,3", "--json")
        rec = json.loads(res.stdout)
        assert rec["h_star"] == [1, 4, 1]
        assert rec["normalized_volume"] == 6
        assert rec["palindromic"] is True

    def test_points(self):
        res = run_cli("points", "--d", "2", "--tau", "0,1,3", "--k", "1", "--interior")
        assert res.stdout.split() == ["1", "1", "2"]


def test_env_budget_override():
    import os

    env = dict(os.environ)
    env["CYCLOTORIC_BUDGET"] = "4"  # the degree-1 scan visits 5 nodes
    res = run_cli("classify", "--d", "2", "--tau", "0,1,3", "--ring", "kp", env=env)
    assert res.returncode == 3


def test_negative_budget_flag_is_a_usage_error():
    res = run_cli("classify", "--d", "2", "--tau", "0,1,3", "--ring", "kp", "--budget", "-1")
    assert res.returncode == 2
    assert "budget must be nonnegative" in res.stderr
    assert "Traceback" not in res.stderr


def test_env_budget_negative_is_a_usage_error():
    import os

    env = dict(os.environ)
    env["CYCLOTORIC_BUDGET"] = "-1"
    res = run_cli("classify", "--d", "2", "--tau", "0,1,3", "--ring", "kp", env=env)
    assert res.returncode == 2
    assert "CYCLOTORIC_BUDGET must be nonnegative" in res.stderr
    assert "Traceback" not in res.stderr


def test_env_budget_malformed_is_a_usage_error():
    import os

    env = dict(os.environ)
    env["CYCLOTORIC_BUDGET"] = "abc"
    direct = run_cli("hstar", "--d", "2", "--tau", "0,1,2", env=env)
    # the same error raised inside a scan worker process
    scanned = run_cli(
        "scan", "--d", "2..2", "--n", "3..3", "--max-gap", "2", "--ring", "kp",
        "--threads", "2", env=env,
    )
    # commands that never enumerate a slice
    kq_scan = run_cli(
        "scan", "--d", "2..2", "--n", "3..3", "--max-gap", "2", "--ring", "kq",
        "--oracle", env=env,
    )
    no_slices = run_cli("facets", "--d", "2", "--tau", "0,1,3", env=env)
    kq_classify = run_cli("classify", "--d", "2", "--tau", "0,1,3", "--ring", "kq", env=env)
    for res in (direct, scanned, kq_scan, no_slices, kq_classify):
        assert res.returncode == 2
        assert "CYCLOTORIC_BUDGET" in res.stderr
        assert "Traceback" not in res.stderr



JUNK = st.sampled_from(["", "x", ",", "1,,2", "1.5", "-", "--json"])
SMALL = st.integers(-1, 3)
RANGE_JUNK = st.sampled_from(["", "x", "d+", "d+x", "1.5", "d-1"])


def _range(draw, lows, highs) -> str:
    """A scan range `lo..hi` or one bound; one bound in six is junk."""
    lo, hi = (draw(RANGE_JUNK if draw(st.integers(0, 5)) == 0 else s) for s in (lows, highs))
    return f"{lo}..{hi}" if draw(st.booleans()) else lo


def _int_list(draw, lo: int, hi: int, min_size: int = 0) -> str:
    """Mostly an increasing list, which makes a valid tau or index set; else any order."""
    if draw(st.integers(0, 3)):
        xs = sorted(draw(st.sets(st.integers(lo, hi), min_size=min_size,
                                 max_size=min_size + 3)))
    else:
        xs = draw(st.lists(st.integers(lo, hi), max_size=7))
    return ",".join(map(str, xs))


@st.composite
def cli_argv(draw):
    """A small command line of every subcommand, some of them mangled.

    Options are written `--name=value`, so a value that starts with "-" is not
    read as an option.  A scan stays serial, over d <= 2, n <= d+2 and gaps
    <= 2, so it starts no worker process and explores no large family.
    """
    command = draw(st.sampled_from(
        ["classify", "facets", "bvec", "kernel", "hstar", "points", "witness r1",
         "witness gorenstein", "scan"]
    ))
    d = draw(st.integers(0, 3))
    opts = {"d": d, "tau": _int_list(draw, -3, 6, min_size=d + 1)}
    flags = []
    if command in ("classify", "hstar", "points", "witness gorenstein", "scan"):
        opts["budget"] = draw(st.integers(-1, 10**5))
    if command == "scan":
        opts = {"d": _range(draw, st.sampled_from(["1", "2"]), st.sampled_from(["1", "2"])),
                "n": _range(draw, st.sampled_from(["d", "d+1", "2", "3"]),
                            st.sampled_from(["d+1", "d+2", "3"])),
                "max-gap": draw(st.integers(1, 2)),
                "ring": draw(st.sampled_from(["kp", "kq", "both"])),
                "budget": opts["budget"]}
        if draw(st.booleans()):
            opts["max-degree"] = draw(SMALL)
        flags += draw(st.lists(st.just("--oracle"), max_size=1))
    elif command == "classify":
        opts["ring"] = draw(st.sampled_from(["kp", "kq", "both"]))
        if draw(st.booleans()):
            opts["max-degree"] = draw(SMALL)
        flags += draw(st.lists(st.sampled_from(["--oracle", "--json"]), unique=True))
    elif command == "facets":
        flags += draw(st.lists(st.sampled_from(["--normals", "--json"]), unique=True))
    elif command == "bvec":
        opts["set"] = _int_list(draw, -1, 8)
    elif command == "points":
        opts["k"] = draw(SMALL)
        flags += draw(st.lists(st.sampled_from(["--interior", "--json"]), unique=True))
    elif command == "witness r1":
        opts["facet"] = _int_list(draw, 0, 8, min_size=d)
        if draw(st.booleans()):
            opts["apex"] = draw(st.integers(-1, 8))
    if command in ("bvec", "kernel", "hstar") and draw(st.booleans()):
        flags.append("--json")
    argv = command.split() + [f"--{k}={v}" for k, v in opts.items()] + flags
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(argv) - 1))
        name = argv[i].split("=", 1)[0]
        junk = draw(JUNK)
        argv[i] = f"{name}={junk}" if name.startswith("--") and draw(st.booleans()) else junk
    if command == "scan":
        argv.append("--threads=1")  # after the mangling, which must not unset it
    return argv


def _main_output(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class ClosedAfter(io.StringIO):
    """A stdout whose reader goes away after `lines` lines."""

    def __init__(self, lines: int):
        super().__init__()
        self.lines = lines

    def write(self, text):
        if self.getvalue().count("\n") >= self.lines:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.fixture
def stand_in_pool(monkeypatch):
    """A serial stand-in for the process pool; logs each pool's size and map.

    `cmd_scan` imports the executor only when it starts one, so it is
    patched at its source.
    """
    import concurrent.futures

    log = {"sizes": [], "maps": []}

    class StandIn:
        def __init__(self, max_workers):
            log["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            log["maps"].append(fn(task) for task in tasks)  # lazy, as an executor's map
            return log["maps"][-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StandIn)
    return log


def test_scan_pool_is_sized_by_its_inputs(monkeypatch, stand_in_pool):
    # the fork start method forks every worker at the first submit, so the
    # pool must not ask for more processes than tasks or cores
    import cyclotoric.cli as cli_mod

    argv = ["scan", "--d", "1", "--n", "2", "--max-gap", "2", "--ring", "kq"]
    for cores, expected in ((4, [2]), (1, [])):
        stand_in_pool["sizes"].clear()
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: cores)
        code, out = _main_output(argv + ["--threads", "100000"])
        assert code == 0 and len(out.splitlines()) == 2
        assert stand_in_pool["sizes"] == expected, cores


def test_a_failed_output_closes_the_pool_map(monkeypatch, stand_in_pool):
    # a write that raises ends the scan: the pool's map is closed before the
    # pool shuts down, which cancels the instances still queued
    import inspect

    import cyclotoric.cli as cli_mod

    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 2)
    argv = ["scan", "--d", "2..2", "--n", "3..4", "--max-gap", "2", "--threads", "2"]
    err = io.StringIO()
    with contextlib.redirect_stdout(ClosedAfter(1)), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2 and err.getvalue().startswith("io error: ")
    assert stand_in_pool["sizes"] == [2]
    assert [inspect.getgeneratorstate(m) for m in stand_in_pool["maps"]] == ["GEN_CLOSED"]


def test_points_text_is_built_as_it_is_printed(monkeypatch):
    # text mode builds no point list: a reader that goes away after 3 of the
    # 7,651 lines ends the command with exit 2 once a 4th point is built
    import cyclotoric.lattice as lattice_mod

    built = []
    points = lattice_mod.Slice.__iter__

    def counting(self):
        for z in points(self):
            built.append(z)
            yield z

    monkeypatch.setattr(lattice_mod.Slice, "__iter__", counting)
    argv = ["points", "--d", "2", "--tau", "0,1,3", "--k", "50"]
    err = io.StringIO()
    with contextlib.redirect_stdout(ClosedAfter(3)), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2 and err.getvalue().startswith("io error: ")
    assert len(built) == 4


@pytest.mark.parametrize("output", ["--out", "--findings", "--csv"])
def test_bad_output_path_fails_before_any_instance(monkeypatch, tmp_path, output):
    import cyclotoric.cli as cli_mod

    calls = []
    classify = cli_mod._classify_instance
    monkeypatch.setattr(cli_mod, "_classify_instance", lambda *a: calls.append(a) or classify(*a))
    argv = ["scan", "--d", "2..2", "--n", "3..4", "--max-gap", "2", "--threads", "1",
            output, str(tmp_path / "missing" / "out")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, calls) == (2, [])
    assert err.getvalue().startswith("io error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--d", "2", "--oracle", "--json"),
        ("facets", "--d", "2", "--normals"),
        ("hstar", "--d", "2"),
        ("points", "--d", "2", "--k", "2"),
        ("witness", "r1", "--d", "2", "--facet", "1,2"),
        ("witness", "gorenstein", "--d", "2"),
    ],
)
def test_negative_parameters_take_the_spaced_form(argv):
    spaced = _main_output(list(argv) + ["--tau", "-4,-1,0"])
    joined = _main_output(list(argv) + ["--tau=-4,-1,0"])
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1]


class TestExitCodes:
    @given(cli_argv())
    @example(["witness", "r1", "--d=1", "--tau=0,1", "--facet=1,1"])
    @settings(max_examples=300, deadline=None)
    def test_exit_code_is_documented(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse reports usage errors this way
                code = exc.code
            except Exception:
                code = traceback.format_exc()
        assert code in (0, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
