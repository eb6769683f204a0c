"""Traced pass: run one `cyclotoric` command line in this process with the
public functions of every layer wrapped, then write spans and counters.

Usage:  python perfbench/tracer.py OUT.json SEED -- <cyclotoric arguments>

`cyclotoric` must be importable (PYTHONPATH=src).  A wrapped name is
rebound in every `cyclotoric` module that holds the function, because
`kp`, `kq`, `cli` and the package itself import with `from .x import f`;
patching only the defining module would miss those calls.  The wrappers
exist only inside this process.  Scans must run with `--threads 1`: spans
recorded in forked workers would be lost.  SEED permutes the order in
which a scan classifies its instances; the record stream it writes stays
in that permuted order.

Each span is [name, start_ns, end_ns, parent_index, attrs]; spans stay in
memory and are written once, when the command returns.
"""

from __future__ import annotations

import inspect
import json
import random
import sys
import time

# Defining module -> public functions recorded as spans.
SPANS = {
    "cli": ("main", "_classify_instance"),
    "kp": ("classify_kp", "is_normal_kp", "r1_issues", "gorenstein_oracle",
           "gorenstein_witnesses"),
    "kq": ("classify_kq", "is_normal_kq_bruteforce", "generator_lattice",
           "divisibility_test"),
    "lattice": ("enumerate_points", "h_star", "interior_count"),
    "faces": ("facet_hyperplane",),
    "core": ("canonical_form",),
    "divdiff": ("r1_witness", "facet_lattice_index", "support_form", "cone_coefficients"),
    "intlinalg": ("hnf", "solve_exact"),
}
# Span names that differ from "module.function".
SPAN_NAMES = {("cli", "_classify_instance"): "cli.instance"}
# Hot functions that are only counted: (defining module, function) -> counter.
COUNTED = {("faces", "facets"): "faces.facets.calls",
           ("core", "transform"): "core.transform.calls"}
# Functions counted only where one module calls them: (caller, function) -> counter.
COUNTED_IN = {("kp", "vec_sub"): "kp.membership_probes",
              ("kq", "lattice_contains"): "kq.lattice_probes"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def span(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapped(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            result = error = None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if observe is not None:
                    rec[4] = observe(args, kwargs, result, error)
                elif error is not None:
                    rec[4] = {"error": type(error).__name__}

        return wrapped

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _observe_enumerate(enumerate_points, transform, vertex):
    sig = inspect.signature(enumerate_points)

    def observe(args, kwargs, result, error):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        p, k = a["p"], a["k"]
        attrs = {"d": p.d, "tau": list(p.tau), "k": k, "interior": bool(a["interior_only"])}
        if error is not None:
            attrs["error"] = type(error).__name__
            return attrs
        # The bounding box enumerate_points brackets its scan with.
        if a["frame"] == "moment":
            cols = [vertex(p, i) for i in range(1, p.n + 1)]
        else:
            tm = transform(p)
            cols = [tm.column(i) for i in range(1, p.n + 1)]
        box = 1
        for t in range(1, p.d + 1):
            box *= k * max(c[t] for c in cols) - k * min(c[t] for c in cols) + 1
        attrs["points"] = len(result)
        attrs["box"] = box
        return attrs

    return observe


def _observe_classify_kq(args, kwargs, result, error):
    if error is not None:
        return {"error": type(error).__name__}
    return {"route": result.evidence.get("kind"), "normal": result.normal}


def install(tracer: Tracer, seed: int) -> list[tuple[object, str, object]]:
    """Wrap every traced function; return (module, name, original) to undo it."""
    import cyclotoric.cli  # noqa: F401  (imports every layer)

    modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
               if name == "cyclotoric" or name.startswith("cyclotoric.")}
    undo = []

    def rebind(original, wrapper, where) -> None:
        for mod in where:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    core = modules["core"]
    observers = {
        "lattice.enumerate_points": _observe_enumerate(
            modules["lattice"].enumerate_points, core.transform, core.vertex),
        "kq.classify_kq": _observe_classify_kq,
    }
    for mod_name, funcs in SPANS.items():
        for func in funcs:
            name = SPAN_NAMES.get((mod_name, func), f"{mod_name}.{func}")
            original = getattr(modules[mod_name], func)
            rebind(original, tracer.span(name, original, observers.get(name)),
                   modules.values())
    for (mod_name, func), name in COUNTED.items():
        original = getattr(modules[mod_name], func)
        rebind(original, tracer.counter(name, original), modules.values())
    for (mod_name, func), name in COUNTED_IN.items():
        original = getattr(modules[mod_name], func)
        rebind(original, tracer.counter(name, original), [modules[mod_name]])

    cli = modules["cli"]
    scan_instances = cli._scan_instances

    def permuted_instances(args):
        tasks = scan_instances(args)
        random.Random(seed).shuffle(tasks)
        return tasks

    undo.append((cli, "_scan_instances", scan_instances))
    cli._scan_instances = permuted_instances
    return undo


def uninstall(undo) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py OUT.json SEED -- <cyclotoric arguments>", file=sys.stderr)
        return 2
    out_path, seed, cli_argv = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer()
    undo = install(tracer, seed)
    import cyclotoric.cli

    code = None
    try:
        code = cyclotoric.cli.main(cli_argv)
    finally:
        uninstall(undo)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"exit": code, "seed": seed, **tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
