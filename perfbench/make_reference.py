"""Pin the reference outputs of every workload from the current sources.

Usage (from the root of a checkout):  python3 perfbench/make_reference.py

Runs each workload's commands once and writes perfbench/reference/<name>.json
with only the mathematically determined fields (see checks.py).  The
committed files were pinned from the unmodified seed sources; regenerate
them only when the workloads themselves change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
from run import REFERENCE_DIR, ROOT, Runner, preflight
from workloads import WORKLOADS


def dump(ref: dict) -> str:
    """JSON with one instance or command per line, so a re-pin diffs line by line."""
    def block(entries: dict) -> str:
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                           for k, v in sorted(entries.items()))
        return "{\n" + rows + "\n }" if rows else "{}"

    return (f'{{"workload": {json.dumps(ref["workload"])},\n'
            f' "commands": {block(ref["commands"])},\n'
            f' "instances": {block(ref["instances"])}}}\n')


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        preflight(runner)
        for wl in WORKLOADS.values():
            ref: dict = {"workload": wl.name, "commands": {}, "instances": {}}
            for argv in wl.commands:
                out = runner.path("stream.jsonl")
                proc = runner.cli(argv, out)
                if proc.returncode != 0:
                    print(f"{wl.name}: {' '.join(argv)} exited {proc.returncode}", file=sys.stderr)
                    return 1
                if argv[0] == "scan":
                    for line in out.read_text().splitlines():
                        rec = json.loads(line)
                        key = checks.instance_key(rec["d"], rec["tau"])
                        ref["instances"][key] = checks.reference_entry(rec)
                else:
                    ref["commands"][checks.command_key(argv)] = checks.ladder_entry(argv, proc.stdout)
            path = REFERENCE_DIR / f"{wl.name}.json"
            path.write_text(dump(ref))
            print(f"{path.relative_to(ROOT)}: {len(ref['instances'])} instances, "
                  f"{len(ref['commands'])} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
