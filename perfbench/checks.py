"""Output checks: pinned reference verdicts plus checks that need no pinned data.

The reference holds only mathematically determined fields: K[P]
normality, h*, the Gorenstein oracle status and the K[Q] verdict.  A
settled verdict that differs from it is wrong.  An instance the reference
left unknown and that now settles counts as newly settled, not as wrong;
one that was settled and is now unknown or skipped counts as unsettled.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from math import prod


@dataclass
class Tally:
    attempted: int = 0
    settled: int = 0
    wrong: int = 0
    newly_settled: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.settled += other.settled
        self.wrong += other.wrong
        self.newly_settled += other.newly_settled
        self.problems.extend(other.problems)

    def fail(self, message: str, count: int = 1) -> None:
        self.wrong += count
        self.problems.append(message)


def instance_key(d: int, tau) -> str:
    return f"{d}:{','.join(map(str, tau))}"


def reference_entry(record: dict) -> dict:
    """The pinned fields of one scan record."""
    entry = {}
    if record.get("kp") is not None:
        kp = record["kp"]
        entry["kp_normal"] = kp["normal"]
        entry["h_star"] = kp["h_star"]
        entry["oracle"] = (kp["gorenstein_oracle"] or {}).get("status")
    if record.get("kq") is not None:
        entry["kq_normal"] = record["kq"]["normal"]
    return entry


def h_star_problems(h: list[int]) -> list[str]:
    out = []
    if not h or h[0] != 1:
        out.append(f"h*_0 is not 1 in {h}")
    if any(x < 0 for x in h):
        out.append(f"negative h* entry in {h}")
    return out


def vandermonde(tau) -> int:
    """Normalised volume of the cyclic simplex on tau: the difference product."""
    return prod(b - a for i, a in enumerate(tau) for b in tau[i + 1:])


def check_scan(stream: str, reference: dict) -> Tally:
    """Compare one scan's record stream with the reference for its family."""
    t = Tally()
    expected = reference["instances"]
    seen = set()
    for line in stream.splitlines():
        rec = json.loads(line)
        key = instance_key(rec["d"], rec["tau"])
        t.attempted += 1
        if key not in expected or key in seen:
            t.fail(f"{key}: not in the reference family or repeated")
            continue
        seen.add(key)
        ref = expected[key]
        if rec["status"] != "ok":
            continue  # skipped: unsettled, never wrong
        cur = reference_entry(rec)
        bad = [f for f in ("kp_normal", "h_star", "oracle") if f in ref and cur.get(f) != ref[f]]
        if "h_star" in cur:
            bad += h_star_problems(cur["h_star"])
        kq_now, kq_ref = cur.get("kq_normal"), ref.get("kq_normal")
        if kq_now in ("yes", "no") and kq_ref in ("yes", "no") and kq_now != kq_ref:
            bad.append(f"kq_normal {kq_now} != {kq_ref}")
        if bad:
            t.fail(f"{key}: {'; '.join(map(str, bad))}")
            continue
        if kq_now == "unknown":
            continue
        t.settled += 1
        t.newly_settled += kq_ref == "unknown"
    missing = len(expected) - len(seen)
    if missing:
        t.attempted += missing
        t.fail(f"{missing} reference instances missing from the stream", missing)
    return t


HSTAR_LINE = re.compile(r"^h\* = \[([0-9, -]*)\]")


def command_key(argv) -> str:
    """A command line without its output format and worker count."""
    out, skip = [], False
    for a in argv:
        if skip or a == "--json":
            skip = False
            continue
        skip = a == "--threads"
        if not skip:
            out.append(a)
    return " ".join(out)


def ladder_entry(argv, stdout: str) -> dict:
    """The pinned fields of one ladder command's output."""
    if argv[0] == "hstar":
        m = HSTAR_LINE.match(stdout)
        if m is None:
            raise ValueError(f"unparsable hstar output: {stdout[:80]!r}")
        return {"h_star": [int(x) for x in m.group(1).split(",")]}
    points = json.loads(stdout)["points"]
    blob = json.dumps(points, separators=(",", ":")).encode()
    return {"count": len(points), "sha256": hashlib.sha256(blob).hexdigest()}


def check_ladder_command(argv, stdout: str, reference: dict) -> Tally:
    """Check one hstar or points command against its reference and its own invariants."""
    t = Tally(attempted=1)
    key = command_key(argv)
    try:
        cur = ladder_entry(argv, stdout)
    except (ValueError, KeyError) as exc:
        t.fail(f"{key}: {exc}")
        return t
    bad = [f"{f} differs" for f, v in reference["commands"][key].items() if cur.get(f) != v]
    flags = [a for a in argv[1:] if a != "--json"]
    opts = dict(zip(flags[::2], flags[1::2]))
    if argv[0] == "hstar":
        h = cur["h_star"]
        bad += h_star_problems(h)
        tau = [int(x) for x in opts["--tau"].split(",")]
        if len(tau) == int(opts["--d"]) + 1 and sum(h) != vandermonde(tau):
            bad.append(f"sum h* = {sum(h)} != Vandermonde product {vandermonde(tau)}")
    else:
        points = json.loads(stdout)["points"]
        k = int(opts["--k"])
        if any(z[0] != k for z in points) or any(a >= b for a, b in zip(points, points[1:])):
            bad.append("points off the degree-k slice, unsorted or repeated")
    if bad:
        t.fail(f"{key}: {'; '.join(bad)}")
    else:
        t.settled = 1
    return t
