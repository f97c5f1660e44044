"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints exactly one PASS/FAIL line and asserts the same
condition, so ``pytest tests/test_acceptance.py -s`` doubles as a
human-readable checklist.  Tolerances are stated inline; the frozen
regression bounds live in tests/data/calibration.json and were produced
by ``python3 -m coprime_lab.cli calibrate``.
"""

import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from math import gcd, log, prod
from pathlib import Path

from coprime_lab import cli
from coprime_lab.constants import (
    correction_factor,
    density,
    kwise_constant,
    pairwise_constant,
    zeta_reciprocal,
)
from coprime_lab.constraints import Box, CoprimeTo, DivisibleBy, Residue, TupleConstraint
from coprime_lab.counting import (
    PatternMatrix,
    count_box_bruteforce,
    count_mobius,
    count_toth,
    pattern_count,
    weighted_sum_gcd,
    weighted_sum_lcm,
)
from coprime_lab.discrepancy import build_grid, measure_cdf_error, rate_scan
from coprime_lab.montecarlo import estimate

from closed_forms import (
    coprime_to_factor,
    divisible_factor,
    grouping_factor,
    pairwise_coprime_vectors,
    residue_factor,
    toth_factor,
)

CALIBRATION = Path(__file__).parent / "data" / "calibration.json"


def _verdict(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} [{label}] {detail}")
    assert ok, f"{label}: {detail}"


def _overlaps(a, b) -> bool:
    return not (a.hi < b.lo or b.hi < a.lo)


def test_1_mutual_density_exact_counts():
    d2 = count_mobius(Box.cube(10_000, 2), TupleConstraint.mutual(2)).count / 10_000**2
    d3 = count_mobius(Box.cube(1000, 3), TupleConstraint.mutual(3)).count / 1000**3
    e2 = abs(d2 - zeta_reciprocal(2).mid)
    e3 = abs(d3 - zeta_reciprocal(3).mid)
    _verdict(
        e2 <= 1e-3 and e3 <= 3e-3,
        "mutual density",
        f"r=2 n=1e4 err {e2:.2e} (tol 1e-3); r=3 n=1000 err {e3:.2e} (tol 3e-3)",
    )


def test_2_pairwise_density_bruteforce():
    t3 = pairwise_constant(3, prime_cutoff=10**6)
    d = count_box_bruteforce(Box.cube(1500, 3), TupleConstraint.pairwise(3)).count / 1500**3
    err = abs(d - t3.mid)
    _verdict(
        err <= 2e-3 and t3.width <= 1e-5,
        "pairwise density",
        f"r=3 n=1500 brute err {err:.2e} (tol 2e-3); interval width {t3.width:.2e} (cap 1e-5)",
    )


def test_3_kwise_density_bruteforce_and_identity():
    iv = kwise_constant(4, 3)
    d = count_box_bruteforce(Box.cube(300, 4), TupleConstraint.kwise(4, 3)).count / 300**4
    err = abs(d - iv.mid)
    ident = all(_overlaps(kwise_constant(r, r), zeta_reciprocal(r)) for r in range(2, 7))
    _verdict(
        err <= 5e-3 and ident,
        "k-wise density",
        f"(r,k)=(4,3) n=300 brute err {err:.2e} (tol 5e-3); k=r identity overlap r=2..6: {ident}",
    )


def test_4_side_condition_formulas_and_collapses():
    n = 5040
    worst = 0.0
    cases = 0
    for r in (2, 3):
        vol = n**r
        mod10 = pairwise_coprime_vectors(r, 10)
        assert len(mod10) == {2: 63, 3: 280}[r]
        mod6 = pairwise_coprime_vectors(r, 6)
        instances = [
            tuple(make(ai) if ai > 1 else None for ai in a)
            for make in (CoprimeTo, DivisibleBy)
            for a in mod10
        ]
        instances += [
            tuple(Residue(ai, bi) if ai > 1 else None for ai, bi in zip(a, b))
            for a in mod6
            for b in product(*[range(ai) for ai in a])
        ]
        assert len(instances) == 2 * len(mod10) + {2: 227, 3: 1159}[r]
        for kind in ("mutual", "pairwise"):
            for sides in instances:
                c = getattr(TupleConstraint, kind)(r, sides if any(sides) else None)
                dev = abs(count_mobius(Box.cube(n, r), c).count / vol - density(c).mid)
                worst = max(worst, dev)
                cases += 1

    # exact-rational collapse identities, zero tolerance
    exact_ok = True
    for r in (2, 3):
        singles = tuple((i,) for i in range(r))
        whole = (tuple(range(r)),)
        for kind in ("mutual", "pairwise"):
            for a in pairwise_coprime_vectors(r, 6):
                exact_ok &= residue_factor(kind, r, a, (0,) * r) == divisible_factor(
                    kind, r, prod(a)
                )
            for a in pairwise_coprime_vectors(r, 10):
                exact_ok &= grouping_factor(kind, r, singles, a) == coprime_to_factor(
                    kind, r, prod(a)
                )
        for u in range(1, 11):
            exact_ok &= grouping_factor("pairwise", r, whole, (u,)) == toth_factor(r, u)
            exact_ok &= correction_factor(
                TupleConstraint.pairwise(r, (CoprimeTo(u),) * r)
            ) == toth_factor(r, u)

    _verdict(
        worst <= 1e-2 and exact_ok,
        "side-condition formulas",
        f"{cases} instances at n={n}, worst |empirical - formula| {worst:.2e} "
        f"(tol 1e-2); exact collapses hold: {exact_ok}",
    )


def test_5_counter_equivalence_zero_tolerance():
    bad = 0
    boxes = 0
    for r, n_max in ((2, 128), (3, 40)):
        c = TupleConstraint.mutual(r)
        grid = build_grid(n_max, c)
        for bounds in product(range(n_max + 1), repeat=r):
            got = count_mobius(Box(bounds=bounds, n=n_max), c).count
            bad += got != int(grid.cumulative[bounds])
            boxes += 1

    toth_checks = 0
    for u in (1, 2, 6, 30):
        run = 0
        for n in range(1, 101):
            run += gcd(n, u) == 1
            bad += count_toth((n,), u).count != run
            toth_checks += 1
        for r in (2, 3, 4):
            c = TupleConstraint.pairwise(r, (CoprimeTo(u),) * r)
            grid = build_grid(100, c)
            for n in range(1, 101):
                bad += count_toth((n,) * r, u).count != int(grid.cumulative[(n,) * r])
                toth_checks += 1

    _verdict(
        bad == 0,
        "counter equivalence",
        f"{boxes} boxes (r=2 n<=128, r=3 n<=40) + {toth_checks} coprime-to-u cubes "
        f"(n<=100, r<=4, u in 1/2/6/30): {bad} mismatches",
    )


def test_6_discrepancy_rate_bounds_and_witness():
    data = json.loads(CALIBRATION.read_text())
    ok = True
    worst_margin = 0.0
    for key, kind, r in (
        ("rate_mutual_r2", "mutual", 2),
        ("rate_mutual_r3", "mutual", 3),
        ("rate_pairwise_r2", "pairwise", 2),
    ):
        c = getattr(TupleConstraint, kind)(r)
        reports = rate_scan(tuple(data[key]["ns"]), c)
        for rep, frozen in zip(reports, data[key]["ratios"]):
            ok &= rep.rate_ratio <= frozen * 1.5
            worst_margin = max(worst_margin, rep.rate_ratio / (frozen * 1.5))
            # corner witness: the left limit at bounds (0, n, ..., n) is
            # exactly 1/n (no points, volume 1/n), so the sup clears 1/(2n)
            ok &= rep.value >= 1.0 / rep.n - 1e-15
            ok &= 1.0 / rep.n > 1.0 / (2 * rep.n)
    _verdict(
        ok,
        "discrepancy rates",
        f"3 families vs frozen ratios x1.5, worst fraction of bound {worst_margin:.3f}; "
        f"corner witness > 1/(2n) at every scanned n",
    )


def test_7_gcd_lcm_measure_envelopes():
    data = json.loads(CALIBRATION.read_text())
    ok = True

    g = data["gcd_sum_normalized"]
    band = 1.5 * max(abs(v - g["target"]) for v in g["values"])
    gdevs = [
        abs(weighted_sum_gcd(n, (1, 1)) / (n * n * log(n)) - g["target"]) for n in g["ns"]
    ]
    ok &= all(dev <= band for dev in gdevs)

    l = data["lcm_sum_deviation"]
    lcap = 1.5 * max(l["values"])
    ldevs = [
        abs(weighted_sum_lcm(n, (1, 1)) / n**4 - l["target"]) * n / log(n) for n in l["ns"]
    ]
    ok &= all(dev <= lcap for dev in ldevs)

    cg = data["cdf_gcd_times_log"]
    cg_cap = 1.5 * max(cg["values"])
    ok &= all(
        measure_cdf_error("gcd", n, cg["step"]) * log(n) <= cg_cap for n in cg["ns"]
    )
    cl = data["cdf_lcm_times_n_over_log"]
    cl_cap = 1.5 * max(cl["values"])
    ok &= all(
        measure_cdf_error("lcm", n, cl["step"]) * n / log(n) <= cl_cap for n in cl["ns"]
    )

    _verdict(
        ok,
        "gcd/lcm measures",
        f"gcd sum band {band:.3f} devs {[f'{d:.3f}' for d in gdevs]}; "
        f"lcm deviation cap {lcap:.3f} devs {[f'{d:.3f}' for d in ldevs]}; "
        f"CDF envelopes held at n={cg['ns']}",
    )


def test_8_pattern_frequencies_match_bernoulli():
    n = 10_000
    primes = (2, 3)
    worst = Fraction(0)
    for bits in product((0, 1), repeat=4):
        entries = (bits[0:2], bits[2:4])
        cnt = pattern_count(n, PatternMatrix(primes, entries), (1, 1)).count
        target = Fraction(1)
        for p, row in zip(primes, entries):
            for e in row:
                target *= Fraction(1, p) if e else Fraction(p - 1, p)
        worst = max(worst, abs(Fraction(cnt, n * n) - target))
    _verdict(
        worst <= Fraction(10, n),
        "pattern frequencies",
        f"16 patterns, primes (2,3), n={n}: worst exact deviation "
        f"{float(worst):.2e} (tol {10 / n:.0e})",
    )


def _run_builtin_suite() -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify", "--suite", "paper"])
    return code, buf.getvalue()


def test_9_verify_determinism_and_mc_coverage():
    code1, first = _run_builtin_suite()
    code2, second = _run_builtin_suite()
    deterministic = code1 == 0 and code2 == 0 and first == second and first

    truth = density(TupleConstraint.mutual(2)).mid
    seeds = 200
    hits = 0
    for seed in range(seeds):
        est = estimate(
            TupleConstraint.mutual(2), n=10**6, samples=2000, seed=seed, confidence=0.95
        )
        hits += abs(est.mean - truth) <= est.half_width
    coverage = hits / seeds

    _verdict(
        bool(deterministic) and coverage >= 0.95 - 0.05,
        "determinism + coverage",
        f"two suite runs byte-identical: {bool(deterministic)}; "
        f"MC coverage {hits}/{seeds} = {coverage:.3f} (floor 0.90)",
    )
