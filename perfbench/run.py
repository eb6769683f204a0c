"""Benchmark of the cyclotoric toolkit on pinned workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass runs the `cyclotoric` CLI (python -m cyclotoric, from ./src) in
fresh processes, so the lru caches in core, faces and divdiff start cold
as they do for a user.  Every output is checked against the pinned
reference in perfbench/reference and against checks that need no pinned
data.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 runs the entry command on a trivial input several times
(setup_s), then repeats timed passes for about --seconds (at least
MIN_PASSES) and reports the end-to-end metrics as medians over the passes.

--trace 1 runs one untraced pass, one untraced one-worker pass and one
traced one-worker pass in which tracer.py wraps every layer's public
functions, and reports the per-layer metrics.  The record streams of the
three passes must be byte-identical.  The seed permutes the instance
order of the traced pass (and the command order of a ladder).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS, Workload, with_workers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

MIN_PASSES = 3
SETUP_REPEATS = 11
PROCESS_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, unusable interpreter)."""


@dataclass(frozen=True)
class Proc:
    returncode: int
    wall_s: float
    cpu_s: float  # user + sys of the process and every child it waited for
    maxrss_mb: float  # largest resident set of the process or any such child
    stdout: str
    stderr: str


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Kill what is left of a finished process group and wait until it is gone."""
    _kill_group(pgid)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Runner:
    """Starts each command as a fresh process in its own group and waits for all of it."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "CYCLOTORIC_BUDGET"}
        self.env["PYTHONPATH"] = str(SRC)
        self._n = 0

    def path(self, stem: str) -> Path:
        self._n += 1
        return self.work / f"{self._n:05d}-{stem}"

    def run(self, argv: list[str]) -> Proc:
        out_path, err_path = self.path("stdout"), self.path("stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT, start_new_session=True)
            timer = threading.Timer(PROCESS_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                timer.cancel()
                _reap_group(proc.pid)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024, out_path.read_text(), err_path.read_text())

    def cli(self, argv, out: Path | None = None) -> Proc:
        return self.run([sys.executable, "-m", "cyclotoric", *fill(argv, out)])


def fill(argv, out: Path | None) -> list[str]:
    """The command line with its output path filled in."""
    return [a.replace("{out}", str(out)) for a in argv] if out is not None else list(argv)


def preflight(runner: Runner) -> None:
    if not (SRC / "cyclotoric" / "cli.py").is_file():
        raise BenchError(f"no cyclotoric sources under {SRC}")
    probe = runner.run([sys.executable, "-c", "import cyclotoric; print(cyclotoric.__file__)"])
    found = Path(probe.stdout.strip()).resolve() if probe.returncode == 0 else None
    if found is None or SRC not in found.parents:
        raise BenchError(f"cyclotoric does not import from {SRC}: {probe.stderr.strip()[-200:]}")


def load_reference(wl: Workload) -> dict:
    return json.loads((REFERENCE_DIR / f"{wl.name}.json").read_text())


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0
    tally: checks.Tally = field(default_factory=checks.Tally)
    outputs: dict[str, str] = field(default_factory=dict)  # command key -> stdout or stream

    def add(self, proc: Proc) -> None:
        self.wall_s += proc.wall_s
        self.cpu_s += proc.cpu_s
        self.maxrss_mb = max(self.maxrss_mb, proc.maxrss_mb)


def check_command(argv, proc: Proc, out: Path | None, reference: dict, p: Pass) -> None:
    """Check one command's exit code and output; add the result to the pass."""
    key = checks.command_key(argv)
    if argv[0] == "scan":
        expected = len(reference["instances"])
        if proc.returncode != 0 or not out.exists():
            p.tally.attempted += expected
            p.tally.fail(f"scan exited {proc.returncode}: {proc.stderr.strip()[-300:]}", expected)
            return
        stream = out.read_text()
        p.outputs[key] = stream
        try:
            p.tally.add(checks.check_scan(stream, reference))
        except (ValueError, KeyError) as exc:
            p.tally.attempted += expected
            p.tally.fail(f"unreadable scan stream: {exc}", expected)
    elif proc.returncode == 3:  # documented budget refusal: unsettled, not wrong
        p.tally.attempted += 1
    elif proc.returncode != 0:
        p.tally.attempted += 1
        p.tally.fail(f"{key} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    else:
        p.outputs[key] = proc.stdout
        p.tally.add(checks.check_ladder_command(argv, proc.stdout, reference))


def run_pass(runner: Runner, commands, reference: dict) -> Pass:
    p = Pass()
    for argv in commands:
        out = runner.path("stream.jsonl") if argv[0] == "scan" else None
        proc = runner.cli(argv, out)
        p.add(proc)
        check_command(argv, proc, out, reference, p)
    return p


def run_traced(runner: Runner, commands, reference: dict, seed: int) -> tuple[Pass, list, dict]:
    """The traced one-worker pass; returns it with the joined spans and summed counters."""
    p = Pass()
    spans: list = []
    counts: dict[str, int] = {}
    for argv in commands:
        out = runner.path("stream.jsonl") if argv[0] == "scan" else None
        dump = runner.path("trace.json")
        proc = runner.run([sys.executable, str(HERE / "tracer.py"), str(dump), str(seed), "--",
                           *fill(argv, out)])
        p.add(proc)
        if out is not None and out.exists():
            # The traced scan ran its instances in permuted order; restore canonical order.
            out.write_text(canonical_order(out.read_text()))
        check_command(argv, proc, out, reference, p)
        if dump.exists():
            trace = json.loads(dump.read_text())
            spans.extend(layers.load_spans(trace["spans"], offset=len(spans)))
            for k, v in trace["counts"].items():
                counts[k] = counts.get(k, 0) + v
    return p, spans, counts


def canonical_order(stream: str) -> str:
    """Scan records sorted into the order the scan enumerates instances in."""
    def key(line: str):
        rec = json.loads(line)
        return rec["d"], rec["n"], rec["gaps"]

    return "".join(sorted(stream.splitlines(keepends=True), key=key))


def same_streams(a: Pass, b: Pass, label: str, tally: checks.Tally) -> None:
    for key, text in a.outputs.items():
        if b.outputs.get(key) != text:
            tally.fail(f"{label}: output of `{key}` differs")


def ordered(commands, seed: int) -> list:
    cmds = list(commands)
    random.Random(seed).shuffle(cmds)
    return cmds


def measure(wl: Workload, runner: Runner, reference: dict, seed: int, seconds: float):
    tally = checks.Tally()
    setups = []
    for _ in range(SETUP_REPEATS):
        proc = runner.cli(wl.setup, runner.path("setup.jsonl"))
        if proc.returncode != 0:
            tally.fail(f"setup command exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        setups.append(proc.wall_s)

    rng = random.Random(seed)
    passes: list[Pass] = []
    start = time.perf_counter()
    # Start another pass only if a typical pass still fits in the measuring time.
    while len(passes) < MIN_PASSES or (time.perf_counter() - start
                                       + statistics.median(p.wall_s for p in passes) <= seconds):
        passes.append(run_pass(runner, ordered(wl.commands, rng.randrange(2**32)), reference))
    for p in passes:
        tally.add(p.tally)

    per_pass = [p.tally for p in passes]
    metrics = {
        "settled_per_s": statistics.median(t.settled / p.wall_s for t, p in zip(per_pass, passes)),
        "settled_share": statistics.median(t.settled / t.attempted for t in per_pass),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": statistics.median(p.maxrss_mb for p in passes),
        "setup_s": statistics.median(setups),
    }
    attempted = sum(t.attempted for t in per_pass)
    unsettled = attempted - sum(t.settled for t in per_pass) - sum(t.wrong for t in per_pass)
    report = [
        f"passes: {len(passes)}, {wl.workers} worker(s)",
        f"settled_per_s    {metrics['settled_per_s']:.4f} 1/s (median over passes)",
        f"unsettled_share  {unsettled / attempted:.4f} ratio ({unsettled} of {attempted})",
        f"wrong_verdicts   {tally.wrong} count",
        f"cpu_s            {metrics['cpu_s']:.3f} s (median over passes)",
        f"peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB (median over passes)",
        f"setup_s          {metrics['setup_s']:.4f} s (median of {SETUP_REPEATS})",
        f"newly settled against the reference: {tally.newly_settled}",
        "pass wall_s: " + " ".join(f"{p.wall_s:.4f}" for p in passes),
        "pass cpu_s: " + " ".join(f"{p.cpu_s:.4f}" for p in passes),
        "pass peak_rss_mb: " + " ".join(f"{p.maxrss_mb:.2f}" for p in passes),
        "setup wall_s: " + " ".join(f"{s:.4f}" for s in setups),
    ]
    return tally, metrics, report


def measure_traced(wl: Workload, runner: Runner, reference: dict, seed: int):
    tally = checks.Tally()
    commands = ordered(wl.commands, seed)
    untraced = run_pass(runner, commands, reference)
    serial_cmds = [with_workers(a, 1) for a in commands] if wl.is_scan else commands
    serial = run_pass(runner, serial_cmds, reference) if wl.is_scan else untraced
    traced, spans, counts = run_traced(runner, serial_cmds, reference, seed)
    for p in (untraced, serial, traced) if wl.is_scan else (untraced, traced):
        tally.add(p.tally)
    if wl.is_scan:
        same_streams(untraced, serial, "1-worker vs 2-worker scan", tally)
    same_streams(untraced, traced, "traced vs untraced", tally)
    if not spans:
        raise BenchError("the traced pass recorded no spans")
    metrics, ratios = layers.layer_metrics(
        spans, counts, workers=wl.workers, untraced_wall=untraced.wall_s,
        untraced_serial_wall=serial.wall_s, traced_wall=traced.wall_s)
    report = [f"traced pass: {len(spans)} spans; untraced {untraced.wall_s:.3f} s, "
              f"untraced 1-worker {serial.wall_s:.3f} s, traced {traced.wall_s:.3f} s"]
    report += [f"ratio {r.name} = {r.num:.6g} / {r.base:.6g} = {r.value:.6g}" for r in ratios]
    report += [f"self time {name}: {s:.3f} s" for name, s in layers.largest_self_times(spans)]
    return tally, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer" if args.trace else "end_to_end"]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        try:
            preflight(runner)
            reference = load_reference(wl)
            if args.trace:
                tally, metrics, report = measure_traced(wl, runner, reference, args.seed)
            else:
                tally, metrics, report = measure(wl, runner, reference, args.seed, args.seconds)
        except (BenchError, layers.TraceError, OSError) as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    for line in report + tally.problems[:20]:
        print(line)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.wrong,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
