"""Per-layer metrics from the spans and counters a traced pass recorded.

A span's self time is its duration minus the durations of its direct
children; spans of one process never overlap their siblings, so this is
the part of the interval no child covers.  A layer's time (".s") counts
each interval once: nested spans of the same layer add nothing.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from dataclasses import dataclass


class TraceError(ValueError):
    """The recorded spans do not nest."""


@dataclass(frozen=True)
class Span:
    name: str
    start: int  # ns
    end: int  # ns
    parent: int  # index into the same list, -1 for a root
    attrs: dict

    @property
    def dur(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Ratio:
    name: str
    num: float
    base: float

    @property
    def value(self) -> float:
        return self.num / self.base if self.base else 0.0


def load_spans(raw: list[list], offset: int = 0) -> list[Span]:
    """Spans as tracer.py writes them; `offset` shifts parent links when lists are joined."""
    return [Span(n, s, e, p + offset if p >= 0 else -1, a or {}) for n, s, e, p, a in raw]


def self_times(spans: list[Span]) -> list[int]:
    """Self time of every span, after checking that each child lies inside its parent."""
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s.end < s.start:
            raise TraceError(f"span {i} ({s.name}) ends before it starts")
        if s.parent >= 0:
            par = spans[s.parent]
            if s.start < par.start or s.end > par.end:
                raise TraceError(f"span {i} ({s.name}) leaves its parent {par.name}")
            child[s.parent] += s.dur
    out = [s.dur - c for s, c in zip(spans, child)]
    if any(x < 0 for x in out):
        raise TraceError("children overlap inside a parent span")
    return out


def covered(spans: list[Span], names: set[str]) -> int:
    """Nanoseconds inside spans named in `names`, each interval counted once."""
    total = 0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.dur
    return total


def tail(samples) -> tuple[float | None, float]:
    """(percentile, value) of the highest percentile with at least ten samples beyond it.

    "Beyond" means strictly greater.  With too few samples for any
    percentile to qualify, the percentile is None and the value is the
    maximum.
    """
    xs = sorted(samples)
    n = len(xs)
    for i in range(n - 11, -1, -1):
        rank = bisect_right(xs, xs[i])
        if n - rank >= 10:
            return 100.0 * rank / n, xs[i]
    return None, xs[-1]


def layer_metrics(spans: list[Span], counts: dict[str, int], *, workers: int,
                  untraced_wall: float, untraced_serial_wall: float,
                  traced_wall: float) -> tuple[dict[str, float], list[Ratio]]:
    """Every per-layer metric by name, plus each ratio with its numerator and base.

    untraced_wall is the wall time of an untraced pass with `workers`
    workers, untraced_serial_wall that of an untraced one-worker pass, and
    traced_wall that of the traced (one-worker) pass.
    """
    selfs = self_times(spans)
    if sum(selfs) != sum(s.dur for s in spans if s.parent < 0):
        raise TraceError("self times do not add up to the root spans")

    def secs(*names: str) -> float:
        return covered(spans, set(names)) / 1e9

    def self_s(name: str) -> float:
        return sum(x for s, x in zip(spans, selfs) if s.name == name) / 1e9

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    enum = [s for s in spans if s.name == "lattice.enumerate_points"]
    done = [s for s in enum if "error" not in s.attrs]
    normal_points = sum(s.attrs["points"] for s in done if s.attrs["k"] >= 2
                        and s.parent >= 0 and spans[s.parent].name == "kp.is_normal_kp")
    seen: set[tuple] = set()
    repeats = 0
    for s in done:
        key = (s.attrs["d"], tuple(s.attrs["tau"]), s.attrs["k"], s.attrs["interior"])
        repeats += key in seen
        seen.add(key)
    routes = [s.attrs for s in spans if s.name == "kq.classify_kq" and "route" in s.attrs]
    instances = [s.dur / 1e9 for s in spans if s.name == "cli.instance"] or [
        s.dur / 1e9 for s in spans if s.name == "cli.main"]

    points = sum(s.attrs["points"] for s in done)
    ratios = [
        Ratio("kp.probes_per_point", counts.get("kp.membership_probes", 0), normal_points),
        Ratio("lattice.points_per_box", points, sum(s.attrs["box"] for s in done)),
        Ratio("cli.parallel_efficiency", sum(instances), workers * untraced_wall),
        Ratio("trace.overhead_share", traced_wall - untraced_serial_wall, untraced_serial_wall),
    ]
    m: dict[str, float] = {
        "kp.classify_kp.s": secs("kp.classify_kp"),
        "kp.is_normal_kp.self_s": self_s("kp.is_normal_kp"),
        "kp.membership_probes": counts.get("kp.membership_probes", 0),
        "kp.r1_issues.s": secs("kp.r1_issues"),
        "kp.gorenstein_oracle.s": secs("kp.gorenstein_oracle"),
        "kp.gorenstein_witnesses.s": secs("kp.gorenstein_witnesses"),
        "kq.classify_kq.s": secs("kq.classify_kq"),
        "kq.is_normal_kq_bruteforce.self_s": self_s("kq.is_normal_kq_bruteforce"),
        "kq.generator_lattice.s": secs("kq.generator_lattice"),
        "kq.divisibility_test.s": secs("kq.divisibility_test"),
        "kq.lattice_probes": counts.get("kq.lattice_probes", 0),
        "kq.route.divisibility_witness": sum(r["route"] == "divisibility_witness" for r in routes),
        "kq.route.bruteforce_witness": sum(r["route"] == "bruteforce_witness" for r in routes),
        "kq.route.none": sum(r["route"] == "none" for r in routes),
        "kq.inconclusive": sum(r["normal"] == "unknown" for r in routes),
        "lattice.enumerate_points.self_s": self_s("lattice.enumerate_points"),
        "lattice.enumerate_points.calls": len(enum),
        **{f"lattice.enumerate_points.k{k}.s": sum(s.dur for s in enum if s.attrs["k"] == k) / 1e9
           for k in range(1, 6)},
        "lattice.points_emitted": points,
        "lattice.box_candidates": sum(s.attrs["box"] for s in done),
        "lattice.slice_repeats": repeats,
        "lattice.budget_refusals": sum(s.attrs.get("error") == "BudgetExceeded" for s in enum),
        "lattice.h_star.s": secs("lattice.h_star"),
        "lattice.interior_count.s": secs("lattice.interior_count"),
        "faces.facets.calls": counts.get("faces.facets.calls", 0),
        "faces.facet_hyperplane.calls": calls("faces.facet_hyperplane"),
        "faces.facet_hyperplane.s": secs("faces.facet_hyperplane"),
        "core.transform.calls": counts.get("core.transform.calls", 0),
        "core.canonical_form.s": secs("core.canonical_form"),
        "divdiff.s": secs("divdiff.r1_witness", "divdiff.facet_lattice_index",
                          "divdiff.support_form", "divdiff.cone_coefficients"),
        "divdiff.r1_witness.calls": calls("divdiff.r1_witness"),
        "intlinalg.hnf.s": secs("intlinalg.hnf"),
        "intlinalg.solve_exact.s": secs("intlinalg.solve_exact"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.instance_s.p50": statistics.median(instances),
        "cli.instance_s.tail": tail(instances)[1],
    }
    m.update({r.name: r.value for r in ratios})
    return m, ratios


def largest_self_times(spans: list[Span], top: int = 5) -> list[tuple[str, float]]:
    """The span names with the most self time, in seconds, largest first."""
    selfs = self_times(spans)
    by_name: dict[str, int] = {}
    for s, x in zip(spans, selfs):
        by_name[s.name] = by_name.get(s.name, 0) + x
    ranked = sorted(by_name.items(), key=lambda kv: -kv[1])[:top]
    return [(name, ns / 1e9) for name, ns in ranked]
