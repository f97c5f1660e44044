"""The store of kept results, and the bench tracer's view of what it keeps."""

import contextvars
import json
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from coprime_lab import store
from coprime_lab.constants import zeta

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_kept_results_are_keyed_by_their_arguments():
    calls = []

    @store.kept
    def square(x, power=2):
        calls.append((x, power))
        if x < 0:
            raise ValueError(x)
        return x**power

    with store.fresh() as kept:
        assert [square(3), square(3), square(3, power=3), square(3, power=3)] == [9, 9, 27, 27]
        assert calls == [(3, 2), (3, 3)] and len(kept.entries) == 2
        for _ in range(2):  # a refusal is not kept: it is raised every time
            with pytest.raises(ValueError):
                square(-1)
        assert len(calls) == 4 and len(kept.entries) == 2
    with store.fresh() as other:  # a fresh store starts cold
        assert square(3) == 9 and len(calls) == 5 and len(other.entries) == 1
    assert square.__wrapped__(4) == 16


def test_fresh_store_leaves_the_outer_one_alone():
    with store.fresh() as outer:
        value = zeta(5)
        with store.fresh() as inner:
            assert zeta(5) == value and len(inner.entries) == 1
        assert list(outer.entries) == [(zeta.__wrapped__, (5,))]
        assert outer.kept_bytes == 0  # an Interval holds no array


def test_threads_sharing_a_store_keep_its_byte_count(monkeypatch):
    # a lost update would leave kept_bytes apart from the entries' sum, or
    # the budget passed; threads start from an empty context, so each runs
    # in a copy of this one to share the fresh store
    monkeypatch.setattr(store, "BUDGET_BYTES", 40 * 8)
    table = store.kept(lambda n: np.zeros(n))
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(2000):
                n = rng.randint(1, 12)
                assert len(table(n)) == n
        except Exception as exc:  # reported below, with the thread's seed
            errors.append((seed, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with store.fresh() as kept:
            threads = [
                threading.Thread(target=contextvars.copy_context().run, args=(work, seed))
                for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert kept.kept_bytes == sum(size for _, size, _ in kept.entries.values()) <= 40 * 8


_TRACED_COUNT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import coprime_lab, spans
from coprime_lab import cli

recorder = spans.Recorder()
recorder.install(coprime_lab)
missing = [
    f"{module}.{name}"
    for module, names in spans.WRAPPED.items()
    for name in names
    if not callable(getattr(getattr(coprime_lab, module), name, None))
]
argv = ["count", "--class", "pairwise", "-r", "3", "-n", "300", "--method", "mobius"]
passes = []
for _ in range(2):
    start = len(recorder.spans)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    names = {s["id"]: s["name"] for s in recorder.spans}
    builds = [
        names.get(s["parent"]) for s in recorder.spans[start:] if s["name"] == "arith.build_tables"
    ]
    passes.append({"code": code, "build_parents": builds})
print(json.dumps({"missing": missing, "passes": passes}))
"""


def test_bench_tracer_sees_each_sieve_build_once(child_env):
    # the bench tracer wraps module attributes such as arith.build_tables; a
    # store that bound build_tables at import would hide every sieve build
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_COUNT, str(BENCH)],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["missing"] == []
    first, second = out["passes"]
    assert first == {"code": 0, "build_parents": ["counting.count_mobius"]}
    assert second == {"code": 0, "build_parents": []}  # the kept sieve
