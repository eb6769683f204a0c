"""The pinned workloads: the exact command lines each pass runs.

Why each workload was chosen is recorded in BENCHMARK.json and METRICS.md.

Every command is a `cyclotoric` command line (run as `python -m cyclotoric`).
`{out}` is replaced by a path inside the run's scratch directory.  Scans
write their record stream there; the other commands print to stdout.
"""

from __future__ import annotations

from dataclasses import dataclass

LIFTED_BUDGET = "1000000000000"


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]  # one pass runs these in order
    setup: tuple[str, ...]  # the entry command on a trivial input
    workers: int  # processes one pass keeps busy (the scan's --threads)

    @property
    def is_scan(self) -> bool:
        return self.commands[0][0] == "scan"


def scan(family: tuple[str, ...], ring: str, workers: int) -> tuple[str, ...]:
    return ("scan", *family, "--ring", ring, "--oracle",
            "--threads", str(workers), "--out", "{out}")


def with_workers(argv: tuple[str, ...], workers: int) -> tuple[str, ...]:
    """The same scan command line with another --threads value."""
    i = argv.index("--threads")
    return argv[: i + 1] + (str(workers),) + argv[i + 2:]


TRIVIAL_FAMILY = ("--d", "1..1", "--n", "2..2", "--max-gap", "1")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="kp-scan-d3",
            commands=(scan(("--d", "2..3", "--n", "d+1..d+2", "--max-gap", "2"), "both", 2),),
            setup=scan(TRIVIAL_FAMILY, "both", 2),
            workers=2,
        ),
        Workload(
            name="kq-scan-wide",
            commands=(scan(("--d", "3..4", "--n", "d+3..d+4", "--max-gap", "3"), "kq", 2),),
            setup=scan(TRIVIAL_FAMILY, "kq", 2),
            workers=2,
        ),
        Workload(
            name="lattice-ladder",
            commands=(
                ("hstar", "--d", "3", "--tau", "0,3,6,9,12", "--budget", LIFTED_BUDGET),
                ("hstar", "--d", "4", "--tau", "0,1,2,3,5", "--budget", LIFTED_BUDGET),
                ("hstar", "--d", "4", "--tau", "0,1,3,4,6", "--budget", LIFTED_BUDGET),
                ("points", "--d", "5", "--tau", "0,1,2,3,4,5", "--k", "2", "--json",
                 "--budget", LIFTED_BUDGET),
            ),
            setup=("hstar", "--d", "1", "--tau", "0,1", "--budget", LIFTED_BUDGET),
            workers=1,
        ),
    )
}
