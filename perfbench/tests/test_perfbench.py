"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from layers import Span  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_tail_has_ten_samples_beyond_it():
    pct, value = layers.tail(range(1, 101))
    assert (pct, value) == (90.0, 90)
    assert sum(x > value for x in range(1, 101)) == 10


def test_tail_counts_ties_as_not_beyond():
    samples = [1] * 50 + [2] * 5 + [3] * 10
    pct, value = layers.tail(samples)
    assert value == 2 and sum(x > value for x in samples) == 10
    assert pct == pytest.approx(100 * 55 / 65)
    assert layers.tail([1] * 50 + [2] * 9) == (None, 2)  # only nine beyond any value


def test_tail_without_ten_beyond_is_the_maximum():
    assert layers.tail([3, 1, 2]) == (None, 3)
    assert layers.tail([5] * 30) == (None, 5)


def nested():
    # root [0,100] > a [10,40] > a's child [20,30]; root > b [50,90]
    return [Span("root", 0, 100, -1, {}), Span("a", 10, 40, 0, {}),
            Span("a", 20, 30, 1, {}), Span("b", 50, 90, 0, {})]


def test_self_time_subtracts_direct_children_only():
    spans = nested()
    assert layers.self_times(spans) == [30, 20, 10, 40]
    assert sum(layers.self_times(spans)) == spans[0].dur


def test_covered_counts_nested_same_name_once():
    spans = nested()
    assert layers.covered(spans, {"a"}) == 30
    assert layers.covered(spans, {"a", "b"}) == 70
    assert layers.covered(spans, {"root", "b"}) == 100


def test_child_outside_parent_is_rejected():
    spans = [Span("root", 0, 10, -1, {}), Span("c", 5, 11, 0, {})]
    with pytest.raises(layers.TraceError):
        layers.self_times(spans)
    overlap = [Span("root", 0, 10, -1, {}), Span("c", 0, 8, 0, {}), Span("c", 2, 9, 0, {})]
    with pytest.raises(layers.TraceError):
        layers.self_times(overlap)


def synthetic_trace():
    enum = "lattice.enumerate_points"
    attrs = {"d": 2, "tau": [0, 1, 3], "interior": False}
    spans = [
        Span("cli.main", 0, 1000, -1, {}),
        Span("cli.instance", 10, 900, 0, {}),
        Span("kp.classify_kp", 20, 800, 1, {}),
        Span("kp.is_normal_kp", 30, 500, 2, {}),
        Span(enum, 40, 60, 3, {**attrs, "k": 1, "points": 4, "box": 20}),
        Span(enum, 70, 200, 3, {**attrs, "k": 2, "points": 9, "box": 30}),
        Span(enum, 600, 700, 2, {**attrs, "k": 2, "points": 9, "box": 30}),
        Span(enum, 710, 720, 2, {**attrs, "k": 9, "error": "BudgetExceeded"}),
    ]
    return spans, {"kp.membership_probes": 27}


def test_every_ratio_is_reported_with_its_base():
    spans, counts = synthetic_trace()
    metrics, ratios = layers.layer_metrics(spans, counts, workers=2, untraced_wall=2e-6,
                                           untraced_serial_wall=1e-6, traced_wall=1.5e-6)
    by_name = {r.name: r for r in ratios}
    ratio_metrics = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "ratio"}
    assert set(by_name) == ratio_metrics
    assert (by_name["kp.probes_per_point"].num, by_name["kp.probes_per_point"].base) == (27, 9)
    assert (by_name["lattice.points_per_box"].num, by_name["lattice.points_per_box"].base) == (22, 80)
    assert by_name["cli.parallel_efficiency"].base == pytest.approx(4e-6)
    assert by_name["cli.parallel_efficiency"].num == pytest.approx(890e-9)
    assert by_name["trace.overhead_share"].value == pytest.approx(0.5)
    for r in ratios:
        assert metrics[r.name] == r.value == r.num / r.base
    assert layers.Ratio("x", 3, 0).value == 0.0
    assert metrics["lattice.slice_repeats"] == 1
    assert metrics["lattice.budget_refusals"] == 1
    assert metrics["lattice.enumerate_points.calls"] == 4
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)


def test_benchmark_json_names_the_defined_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names and set(names) <= set(run.WORKLOADS)


def test_command_key_drops_format_and_workers():
    argv = ("scan", "--d", "2", "--threads", "2", "--out", "{out}")
    assert checks.command_key(argv) == checks.command_key(run.with_workers(argv, 1))
    assert checks.command_key(("points", "--k", "2", "--json")) == "points --k 2"


def test_vandermonde_matches_the_ladder_simplices():
    assert checks.vandermonde([0, 1, 2, 3, 5]) == 1440
    assert checks.vandermonde([0, 1, 3, 4, 6]) == 12960


def test_scan_check_separates_wrong_unsettled_and_newly_settled():
    ref = {"instances": {"3:0,1,2,3,4,5": {"kq_normal": "unknown"},
                         "3:0,1,2,3,4,6": {"kq_normal": "no"},
                         "3:0,1,2,3,4,7": {"kq_normal": "no"},
                         "3:0,1,2,3,4,8": {"kq_normal": "no"}}}

    def rec(last, normal, status="ok"):
        return json.dumps({"d": 3, "tau": [0, 1, 2, 3, 4, last], "status": status, "kp": None,
                           "kq": {"normal": normal} if status == "ok" else None})

    stream = "\n".join([rec(5, "no"), rec(6, "unknown"), rec(7, "yes"), rec(8, None, "skipped")])
    t = checks.check_scan(stream, ref)
    assert (t.attempted, t.settled, t.wrong, t.newly_settled) == (4, 1, 1, 1)


TINY = ("scan", "--d", "2..2", "--n", "3..4", "--max-gap", "2", "--ring", "both", "--oracle",
        "--threads", "2", "--out", "{out}")


def test_smoke_tiny_family(tmp_path):
    runner = run.Runner(tmp_path)
    run.preflight(runner)
    out = runner.path("stream.jsonl")
    assert runner.cli(TINY, out).returncode == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    reference = {"instances": {checks.instance_key(r["d"], r["tau"]): checks.reference_entry(r)
                               for r in records}}
    untraced = run.run_pass(runner, [TINY], reference)
    serial_cmd = run.with_workers(TINY, 1)
    traced, spans, counts = run.run_traced(runner, [serial_cmd], reference, seed=7)
    for p in (untraced, traced):
        assert p.tally.wrong == 0 and p.tally.attempted == p.tally.settled == len(records)
    assert traced.outputs == untraced.outputs  # permuted, traced, then re-sorted
    assert sum(s.name == "cli.instance" for s in spans) == len(records)
    metrics, _ = layers.layer_metrics(spans, counts, workers=2, untraced_wall=untraced.wall_s,
                                      untraced_serial_wall=untraced.wall_s,
                                      traced_wall=traced.wall_s)
    assert metrics["kp.membership_probes"] > 0
    assert metrics["lattice.enumerate_points.calls"] > 0
    assert metrics["kp.is_normal_kp.self_s"] > 0


def test_permuted_order_depends_on_seed(tmp_path):
    runner = run.Runner(tmp_path)
    order = []
    for seed in (1, 2):
        out, dump = runner.path("s.jsonl"), runner.path("t.json")
        proc = runner.run([sys.executable, str(BENCH / "tracer.py"), str(dump), str(seed), "--",
                           *run.fill(run.with_workers(TINY, 1), out)])
        assert proc.returncode == 0
        order.append([json.loads(line)["tau"] for line in out.read_text().splitlines()])
    assert order[0] != order[1] and sorted(order[0]) == sorted(order[1])


def test_fails_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copy(BENCH.parent / "BENCHMARK.json", root)
        shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kp-scan-d3",
                              "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=root,
                             capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
