"""coprime-lab benchmark: cold-process passes over four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                      # every workload, one line each

Each pass starts fresh worker processes (bench/worker.py), because the
program caches sieve tables, constants and assignment tables for the life of
a process and a user of the CLI pays the cold cost on every call.  A run does
whole passes until the next one would end after S seconds (at least two, or
one traced round), checks every output, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
(medians over passes), or with ``--trace 1`` the per-layer metrics of traced
passes and the tracing overhead against untraced passes run alongside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
WORKER_TIMEOUT_S = 120

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("first_result_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark could not measure: a worker crashed or hung."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["BENCH_SRC"] = str(SRC)
    # The brute-force kernels use COPRIME_LAB_THREADS threads; BLAS gets one,
    # so no worker runs more compute threads than the CPUs it may use.
    env["COPRIME_LAB_THREADS"] = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_job(kind: str, spec, trace_path: Path | None, env: dict, tag: str) -> dict:
    """Start one worker, wait for it, and return its stats (plus CLI output)."""
    stats_path = OUT / f"{tag}.stats.json"
    stats_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(WORKER), str(stats_path), str(trace_path or "-"), kind]
    stdin = None
    if kind == "ops":
        stdin = json.dumps(spec).encode()
    elif kind == "cli":
        cmd += spec
    launched = time.monotonic()
    pipe = subprocess.PIPE
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=pipe, stdout=pipe, stderr=pipe)
    try:
        stdout, stderr = proc.communicate(stdin, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} did not finish within {WORKER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not stats_path.exists():
        raise BenchError(f"worker {tag} exited {proc.returncode}: {stderr.decode()[-2000:]}")
    stats = json.loads(stats_path.read_text())
    stats_path.unlink()
    stats["setup_s"] = stats["ready"] - launched
    if kind == "cli":
        stats["results"][0]["stdout"] = stdout.decode()
        stats["results"][0]["stderr"] = stderr.decode()
    return stats


def run_pass(wl, traced: bool, env: dict, tag: str) -> dict:
    """All jobs of one pass, each in a fresh process, and its metrics."""
    jobs, trace_spans = [], []
    for j, (kind, spec) in enumerate(wl.jobs):
        trace_path = OUT / f"trace-{tag}-job{j}.jsonl" if traced else None
        jobs.append(run_job(kind, spec, trace_path, env, f"{tag}-job{j}"))
        if traced:
            # renumber so the spans of all jobs form one forest
            offset = len(trace_spans)
            for s in spans.load(trace_path):
                s["id"] += offset
                if s["parent"] is not None:
                    s["parent"] += offset
                trace_spans.append(s)
    # One more fresh process after the pass, which only imports, adds a
    # set-up sample.
    probe = run_job("ready", None, None, env, f"{tag}-probe")
    return {
        "outs": [r for job in jobs for r in job["results"]],
        # wall time of each operation, in operation order
        "op_s": [e - s for job in jobs for s, e in zip(job["starts"], job["ends"])],
        "setups": [job["setup_s"] for job in jobs + [probe]],
        "peak_rss_mb": max(job["maxrss_kb"] for job in jobs) / 1024,
        "layers": spans.layer_metrics(trace_spans) if traced else None,
    }


def pass_wall(passes: list[dict]) -> float:
    """Wall time of a typical pass: the sum over operations of each one's
    median over the passes.  A burst of load on the machine then shifts the
    samples of the operations it overlapped, not the whole pass."""
    return sum(statistics.median(ts) for ts in zip(*(p["op_s"] for p in passes)))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name](seed)
    wl.prepare()
    env = worker_env()
    faults = wl.faults()
    attempted = failed = 0
    correct = True
    passes: list[dict] = []
    rounds = 0
    longest = 0.0
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        modes = (False, True) if trace else (False,)
        for traced in modes:
            tag = f"{name}-seed{seed}-pass{len(passes)}"
            p = run_pass(wl, traced, env, tag)
            p["traced"] = traced
            passes.append(p)
            bad = wl.check(p["outs"])
            attempted += len(p["outs"])
            failed += len(bad)
            for i, why in sorted(bad.items()):
                if i not in faults:
                    correct = False
                    print(f"{tag} op {i}: {why}", file=sys.stderr)
        rounds += 1
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if rounds >= (1 if trace else 2) and elapsed + longest > seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    wall = pass_wall(plain)
    if trace:
        traced = [p for p in passes if p["traced"]]
        layer = spans.median_metrics([p["layers"] for p in traced])
        metrics = {m: {"value": layer[m], "unit": unit} for m, unit in spans.PER_LAYER}
        overhead = pass_wall(traced) - wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(s for p in plain for s in p["setups"]),
            "first_result_s": statistics.median(p["op_s"][0] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coprime_lab" / "__init__.py").is_file():
        print(f"no coprime_lab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the brute-force references computed here
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            if len(names) > 1:
                print(f"# {name}")
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
