"""End-to-end command-line behaviour: output shapes, exit codes, determinism."""

import json
import subprocess
import sys

BASE = [sys.executable, "-m", "cyclotoric"]


def run_cli(*args, env=None):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env, timeout=300
    )


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


def test_classify_budget_exhaustion():
    res = run_cli(
        "classify", "--d", "2", "--tau", "0,7,20", "--ring", "kp", "--budget", "5"
    )
    assert res.returncode == 3
    assert "budget" in res.stderr.lower()


def test_classify_human_readable():
    res = run_cli("classify", "--d", "2", "--tau", "0,1,3", "--oracle")
    assert res.returncode == 0
    assert "K[P]:" in res.stdout and "K[Q]:" in res.stdout
    assert "findings: none" in res.stdout


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
            "--ring", "kp", "--budget", "50",
        )
        assert res.returncode == 0
        records = [json.loads(line) for line in res.stdout.splitlines()]
        assert any(r["status"] == "skipped" for r in records)
        for r in records:
            if r["status"] == "skipped":
                assert "budget" in r["reason"]


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

    def test_gorenstein_witness_pair(self):
        res = run_cli("witness", "gorenstein", "--d", "2", "--tau", "0,2,4")
        assert res.returncode == 0
        assert "point (1, 1, 1)" in res.stdout
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

    def test_points_frames_agree(self):
        a = run_cli("points", "--d", "2", "--tau", "0,2,5", "--k", "2",
                    "--frame", "moment", "--json")
        b = run_cli("points", "--d", "2", "--tau", "0,2,5", "--k", "2",
                    "--frame", "transformed", "--json")
        assert json.loads(a.stdout) == json.loads(b.stdout)


def test_env_budget_override():
    import os

    env = dict(os.environ)
    env["CYCLOTORIC_BUDGET"] = "5"
    res = run_cli("classify", "--d", "2", "--tau", "0,1,3", "--ring", "kp", env=env)
    assert res.returncode == 3


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
