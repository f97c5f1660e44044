"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py STATS TRACE ops         < ops.json
    python3 bench/worker.py STATS TRACE cli ARGV...
    python3 bench/worker.py STATS - ready

``ops`` runs a list of library calls read from stdin; ``cli`` runs
``coprime_lab.cli.main(ARGV)`` as the console script does, with the command's
stdout going to this process's stdout; ``ready`` only imports, to sample the
set-up time once more.  Each mode writes a JSON file STATS holding the clock
readings (``time.monotonic``, which on Linux all processes share), per-call
results and the peak resident set size.  TRACE is a path for the span file of
a traced pass, or ``-`` for an untraced one.

run.py starts this script with the checkout's ``src`` directory as PYTHONPATH;
the script refuses to run against any other copy of the package.
"""

import time

import json
import os
import resource
import sys
from fractions import Fraction

import coprime_lab
import coprime_lab.cli
from coprime_lab import counting
from coprime_lab.constraints import Box, CoprimeTo, DivisibleBy, Residue, TupleConstraint

# set-up ends here: interpreter, numpy and the whole package are loaded
READY = time.monotonic()

SIDES = {"coprime": CoprimeTo, "divisible": DivisibleBy, "residue": Residue}


def constraint_of(spec: dict) -> TupleConstraint:
    sides = tuple(None if s is None else SIDES[s[0]](*s[1:]) for s in spec.get("sides", ()))
    return TupleConstraint(r=spec["r"], kind=spec["kind"], k=spec.get("k"), sides=sides)


def run_op(op: dict):
    """One library call; module attributes are looked up per call so the
    traced pass's wrappers are the ones invoked."""
    fn = op["fn"]
    if fn in ("weighted_sum_gcd", "weighted_sum_lcm"):
        alpha = tuple(Fraction(a) for a in op["alpha"])
        return getattr(counting, fn)(op["n"], alpha)
    box = Box(bounds=tuple(op["bounds"]), n=max(op["bounds"]))
    constraint = constraint_of(op["constraint"])
    if fn == "count_mobius":
        return counting.count_mobius(box, constraint).count
    if fn == "count_box":
        return counting.count_box(box, constraint, method=op["method"]).count
    raise ValueError(f"unknown operation {fn!r}")


def run_ops(ops: list[dict]) -> dict:
    results, starts, ends = [], [], []
    for op in ops:
        starts.append(time.monotonic())
        try:
            results.append({"value": run_op(op)})
        except Exception as exc:  # a failed call is a result the parent counts
            results.append({"error": f"{type(exc).__name__}: {exc}"})
        ends.append(time.monotonic())
    return {"results": results, "starts": starts, "ends": ends}


def run_cli(argv: list[str], recorder) -> dict:
    start = time.monotonic()
    if recorder is not None:
        span = recorder.open("cli.main")
    try:
        code = coprime_lab.cli.main(argv)
    finally:
        if recorder is not None:
            recorder.close(span)
    sys.stdout.flush()
    end = time.monotonic()
    return {"results": [{"value": code}], "starts": [start], "ends": [end]}


def main() -> int:
    stats_path, trace_path, mode, *rest = sys.argv[1:]
    src = os.path.realpath(os.environ["BENCH_SRC"])
    here = os.path.realpath(os.path.dirname(coprime_lab.__file__))
    if os.path.dirname(here) != src:
        print(f"coprime_lab imported from {here}, expected under {src}", file=sys.stderr)
        return 2
    recorder = None
    if trace_path != "-":
        import spans

        recorder = spans.Recorder()
        recorder.install(coprime_lab)
    if mode == "ops":
        out = run_ops(json.load(sys.stdin))
    elif mode == "cli":
        out = run_cli(rest, recorder)
    elif mode == "ready":
        out = {}
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    out["ready"] = READY
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        recorder.dump(trace_path)
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
