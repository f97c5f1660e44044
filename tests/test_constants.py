"""Interval enclosures for density constants and the exact rational
correction factors for side conditions."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest

from coprime_lab import arith
from coprime_lab.constants import (
    Interval,
    _euler_factors,
    _exact_sum,
    _one_minus,
    _tail,
    _tail_error,
    _zeta_terms,
    base_constant,
    correction_factor,
    density,
    kwise_constant,
    pairwise_constant,
    zeta,
    zeta_reciprocal,
)
from coprime_lab.constraints import MAX_R, Box, CoprimeTo, DivisibleBy, Residue, TupleConstraint
from coprime_lab.counting import count_box

from closed_forms import (
    closed_form_factor,
    grouping_factor,
    pairwise_coprime_vectors,
    toth_factor,
)
from euler_reference import kwise_endpoints, primes_up_to

mpmath.mp.dps = 40


# -- interval plumbing -------------------------------------------------------


def test_interval_basics():
    iv = Interval(1.0, 2.0)
    assert iv.mid == 1.5 and iv.width == 1.0
    assert iv.contains(1.0) and iv.contains(2.0) and not iv.contains(2.1)
    assert iv.intersects(Interval(1.9, 3.0))
    assert not iv.intersects(Interval(2.5, 3.0))
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_interval_times_fraction_is_outward():
    iv = Interval(1.0, 1.0 + 1e-15).times_fraction(Fraction(1, 3))
    assert iv.lo <= 1 / 3 <= iv.hi
    with pytest.raises(ValueError):
        Interval(0.5, 0.6).times_fraction(Fraction(-1))


def test_interval_from_fraction_and_reciprocal():
    iv = Interval.from_fraction(Fraction(1, 3))
    assert iv.width < 1e-15 and iv.lo <= 1 / 3 <= iv.hi
    rec = Interval(2.0, 4.0).reciprocal()
    assert rec.lo <= 0.25 and rec.hi >= 0.5


# -- zeta ---------------------------------------------------------------------


def test_zeta_contains_true_value():
    for r in range(2, 8):
        true = float(mpmath.zeta(r))
        iv = zeta(r)
        assert iv.lo <= true <= iv.hi, r
        assert iv.width < 1e-10


def test_zeta_quoted_decimals():
    # quoted prints are truncations of pi^2/6 = 1.6449340668..., so compare
    # midpoints at the quoted precision instead of asserting containment
    assert abs(zeta(2).mid - 1.644934066) < 1e-8
    assert abs(zeta(3).mid - 1.202056903) < 1e-8


def test_zeta_reciprocal_brackets():
    iv = zeta_reciprocal(2)
    assert 0.6079 <= iv.lo and iv.hi <= 0.6080
    assert abs(zeta_reciprocal(3).mid - 0.831907) < 1e-6


def test_exact_sum_equals_fsum_on_zeta_terms():
    for r in range(2, 65):
        chunks = list(_zeta_terms(r))
        assert _exact_sum(chunks) == math.fsum(np.concatenate(chunks).tolist()), r


def test_exact_sum_equals_fsum_on_random_and_half_way_inputs():
    rng = random.Random(9)
    for trial in range(200):
        size = rng.choice((1, 2, 3, 17, 1000, 5000))
        scale = rng.choice((1e-250, 1e-20, 1.0, 1e20, 1e300 / size))
        if trial % 2:  # many equal exponents
            values = [scale * (1 + rng.random()) for _ in range(size)]
        else:  # exponents spread over a wide range, into the subnormals
            values = [scale * 2.0 ** rng.uniform(-200, 0) for _ in range(size)]
        values.sort(reverse=True)
        assert _exact_sum([np.array(values)]) == math.fsum(values), trial
    # ties: exactly half an ulp rounds to even, a hair more rounds up
    for values in (
        [1.0, 2**-53],
        [1.0, 2**-53, 2**-106],
        [1.0 + 2**-52, 2**-53],
        [2.0**60, 1.0],
        [1.0] * 3 + [2**-52] * 3,
        [5e-324] * 7,
    ):
        assert _exact_sum([np.array(values)]) == math.fsum(values), values


def test_exact_sum_equals_fsum_when_runs_straddle_chunks():
    rng = random.Random(21)
    for trial in range(100):
        size = rng.choice((2, 5, 40, 300))
        # few distinct exponents, so the runs are long and cross the cuts
        values = [2.0 ** -rng.randrange(4) * (1 + rng.random()) for _ in range(size)]
        values.sort(reverse=True)
        cuts = sorted(rng.sample(range(1, size), rng.randint(1, size - 1)))
        chunks = [np.array(values[a:b]) for a, b in zip([0] + cuts, cuts + [size])]
        assert _exact_sum(chunks) == math.fsum(values), trial
    values = [1.0] * 3 + [2**-52] * 3  # one term a chunk
    assert _exact_sum([np.array([v]) for v in values]) == math.fsum(values)


def test_zeta_traced_peak_stays_small():
    # the whole 2e6 terms of zeta(2) at once took 72 MB of traced memory
    tracemalloc.start()
    try:
        iv = zeta.__wrapped__(2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert iv == zeta(2)
    assert peak < 8 * 2**20


# -- Euler products -----------------------------------------------------------


def _mp_pairwise(r: int, cutoff: int = 200000) -> float:
    out = mpmath.mpf(1)
    for p in primes_up_to(cutoff):
        q = mpmath.mpf(1) / p
        out *= (1 - q) ** r + r * q * (1 - q) ** (r - 1)
    return float(out)


def test_pairwise_constant_known_values():
    t2 = pairwise_constant(2)
    assert t2.intersects(zeta_reciprocal(2))  # T_2 = 1/zeta(2)
    t3 = pairwise_constant(3)
    assert abs(t3.mid - 0.28674705661674627) < 1e-9
    assert t3.lo <= 0.28674705661674627 <= t3.hi
    assert t3.width <= 1e-5  # rigorous tail at the default cutoff
    # every finite partial product sits above the limit, within the tail scale
    partial = _mp_pairwise(3)
    assert t3.lo <= partial
    assert partial - t3.hi <= 5e-6


def test_pairwise_constant_cutoff_narrows():
    wide = pairwise_constant(3, prime_cutoff=10**4)
    narrow = pairwise_constant(3, prime_cutoff=10**6)
    assert narrow.width < wide.width
    assert narrow.lo >= wide.lo - 1e-12 and narrow.hi <= wide.hi + 1e-12


def test_kwise_identity_with_mutual():
    # k = r leaves one prime allowed to divide all but one coordinate short
    # of everything, which is exactly the mutual class
    for r in range(2, 7):
        assert kwise_constant(r, r).intersects(zeta_reciprocal(r)), r


def test_kwise_known_value():
    assert abs(kwise_constant(4, 3).mid - 0.5842806722593925) < 1e-9
    assert kwise_constant(3, 2).intersects(pairwise_constant(3))


def test_kwise_constant_monotone_in_k():
    assert kwise_constant(4, 2).hi < kwise_constant(4, 3).lo < kwise_constant(4, 4).hi


# -- correction factors -------------------------------------------------------


def test_lehmer_divisible_factor():
    # r=2, first coordinate divisible by a: factor (1/a) prod_{p|a} p/(p+1)
    for a in (2, 3, 4, 6, 9, 10):
        expected = Fraction(1, a)
        for p in arith.prime_divisors(a):
            expected *= Fraction(p, p + 1)
        c = TupleConstraint.mutual(2, (DivisibleBy(a), None))
        assert correction_factor(c) == expected, a


def test_divisible_factor_worked_instance():
    c = TupleConstraint.mutual(2, (DivisibleBy(2), DivisibleBy(3)))
    assert correction_factor(c) == Fraction(1, 12)
    iv = density(c)
    true = float(mpmath.mpf(6) / mpmath.pi**2 / 12)
    assert iv.lo <= true <= iv.hi
    assert abs(iv.mid - 0.0506606) < 1e-6


def test_residue_factor_worked_instance():
    c = TupleConstraint.mutual(2, (Residue(4, 2), None))
    iv = density(c)
    assert abs(iv.mid - 0.10132) < 1e-5


def test_residue_collapse_onto_divisible():
    """All-zero residues mean plain divisibility, so the factors agree exactly."""
    cases = [
        ("mutual", 2, (2, 3)),
        ("pairwise", 2, (4, 9)),
        ("mutual", 3, (2, 3, 5)),
        ("pairwise", 3, (2, 9, 5)),
    ]
    for kind, r, mods in cases:
        res = TupleConstraint(r=r, kind=kind, sides=tuple(Residue(a, 0) for a in mods))
        div = TupleConstraint(r=r, kind=kind, sides=tuple(DivisibleBy(a) for a in mods))
        assert correction_factor(res) == correction_factor(div), (kind, r, mods)


def test_grouping_collapse_single_coordinate_blocks():
    # one block per coordinate is the same as per-coordinate CoprimeTo sides
    for kind in ("mutual", "pairwise"):
        s = TupleConstraint(
            r=3, kind=kind, sides=(CoprimeTo(2), CoprimeTo(3), CoprimeTo(5))
        )
        assert correction_factor(s) == grouping_factor(kind, 3, ((0,), (1,), (2,)), (2, 3, 5))


def test_grouping_collapse_single_block():
    # every coordinate coprime to u is the uniform coprime-to-u thinning
    c = TupleConstraint.pairwise(3, (CoprimeTo(6),) * 3)
    assert correction_factor(c) == toth_factor(3, 6)


def test_zero_local_factor_gives_an_exact_zero_interval():
    # 2 divides both coordinates, so no tuple is coprime: the factor is 0
    for c in (
        TupleConstraint.mutual(2, (DivisibleBy(4), DivisibleBy(6))),
        TupleConstraint.kwise(3, 2, (Residue(6, 2), None, DivisibleBy(10))),
    ):
        assert correction_factor(c) == 0
        iv = density(c)
        assert (iv.lo, iv.hi) == (0.0, 0.0)
        assert count_box(Box.cube(60, c.r), c).count == 0


def test_coprime_to_factor_positive_and_bounded():
    for kind in ("mutual", "pairwise"):
        c = TupleConstraint(r=3, kind=kind, sides=(CoprimeTo(4), CoprimeTo(9), None))
        f = correction_factor(c)
        assert 0 < f < 1


def test_density_multiplies_base_and_factor():
    c = TupleConstraint.mutual(2, (DivisibleBy(2), DivisibleBy(3)))
    iv = density(c)
    base = base_constant(c)
    assert iv.lo >= base.lo * float(Fraction(1, 12)) - 1e-15
    assert iv.hi <= base.hi * float(Fraction(1, 12)) + 1e-15


def _set_partitions(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + ((first,) + part[i],) + part[i + 1 :]
        yield ((first,),) + part


def test_local_factor_equals_closed_forms():
    """The per-prime local factor reproduces every hand-derived family exactly:
    CoprimeTo and DivisibleBy sides with moduli <= 10 (<= 6 at r = 4), every
    residue tuple with moduli <= 6 (<= 4 at r = 4), every class and k, and
    every grouping with one block modulus u <= 30 or several moduli <= 6."""
    cases = 0
    for r in (2, 3, 4):
        side_sets = [
            tuple(make(a) if a > 1 else None for a in vec)
            for make in (CoprimeTo, DivisibleBy)
            for vec in pairwise_coprime_vectors(r, 10 if r < 4 else 6)
        ]
        side_sets += [
            tuple(Residue(a, b) if a > 1 else None for a, b in zip(vec, res))
            for vec in pairwise_coprime_vectors(r, 6 if r < 4 else 4)
            for res in product(*[range(a) for a in vec])
        ]
        classes = [("mutual", None), ("pairwise", None)]
        classes += [("kwise", k) for k in range(2, r + 1)]
        constraints = [
            TupleConstraint(r=r, kind=kind, k=k, sides=sides)
            for kind, k in classes
            for sides in side_sets
        ]
        # every grouping: the coordinates of block j share the side CoprimeTo(a_j)
        for blocks in _set_partitions(tuple(range(r))):
            limit = 30 if len(blocks) == 1 else 6
            for moduli in pairwise_coprime_vectors(len(blocks), limit):
                sides = [None] * r
                for blk, a in zip(blocks, moduli):
                    for i in blk:
                        sides[i] = CoprimeTo(a) if a > 1 else None
                for kind in ("mutual", "pairwise"):
                    c = TupleConstraint(r=r, kind=kind, sides=tuple(sides))
                    want = grouping_factor(kind, r, blocks, moduli)
                    assert correction_factor(c) == closed_form_factor(c) == want, c.describe()
                    cases += 1
        for c in constraints:
            want = closed_form_factor(c)
            if want is not None:
                assert correction_factor(c) == want, c.describe()
                cases += 1
    assert cases > 10_000


def _deviations(c: TupleConstraint, ns: tuple[int, ...]) -> list[float]:
    mid = density(c).mid
    return [abs(count_box(Box.cube(n, c.r), c).count / n**c.r - mid) for n in ns]


def test_kwise_coprime_to_density_matches_counts():
    c = TupleConstraint.kwise(3, 2, (CoprimeTo(5), None, None))
    small, large = _deviations(c, (500, 2000))
    assert large < small and large < 1e-3


def test_mutual_mixed_sides_density_matches_counts():
    c = TupleConstraint.mutual(2, (CoprimeTo(5), DivisibleBy(3)))
    small, large = _deviations(c, (10**4, 10**5))
    assert large < small and large < 1e-6


def test_kwise_mixed_sides_density_matches_counts():
    c = TupleConstraint.kwise(4, 3, (CoprimeTo(2), DivisibleBy(3), None, None))
    small, large = _deviations(c, (40, 80))
    assert large < small and large < 2e-3


def test_trivial_sides_do_not_change_the_constant():
    plain = density(TupleConstraint.pairwise(3))
    dressed = density(TupleConstraint.pairwise(3, (None, None, None)))
    assert plain.lo == dressed.lo and plain.hi == dressed.hi


def test_constant_endpoints_frozen():
    # each Euler factor is one correctly rounded int division; the endpoints
    # are frozen bit for bit at the values of the exact-rational conversion
    k43 = kwise_constant(4, 3)
    assert (k43.lo.hex(), k43.hi.hex()) == ("0x1.2b26d6165acfbp-1", "0x1.2b26d616a2568p-1")
    p3 = pairwise_constant(3)
    assert (p3.lo.hex(), p3.hi.hex()) == ("0x1.25a0e85c074afp-2", "0x1.25a122171df3ap-2")


def test_zeta_and_product_endpoints_frozen():
    # the partial sums and Euler products are formed term by term exactly as
    # their loop forms do, so the endpoints stay the same bit for bit
    zetas = {
        2: ("0x1.a51a66253059cp+0", "0x1.a51a662530a0ap+0"),
        3: ("0x1.33ba004f003ebp+0", "0x1.33ba004f00859p+0"),
        4: ("0x1.151322ac7d612p+0", "0x1.151322ac7da7ep+0"),
        5: ("0x1.097418eca7a9ap+0", "0x1.097418eca7effp+0"),
        6: ("0x1.0470984c0900ap+0", "0x1.0470984c09477p+0"),
    }
    for r, ends in zetas.items():
        z = zeta(r)
        assert (z.lo.hex(), z.hi.hex()) == ends, r
    products = {
        (2, 2): ("0x1.37422595623b1p-1", "0x1.374239fbadcb8p-1"),
        (3, 2): ("0x1.25a0e85c074afp-2", "0x1.25a122171df3ap-2"),
        (4, 2): ("0x1.d68ffa44285b7p-4", "0x1.d690b34d17b69p-4"),
        (5, 3): ("0x1.6e40a54434e1cp-2", "0x1.6e40a5448184bp-2"),
        (8, 5): ("0x1.256d8bbeac303p-1", "0x1.256d8bbef8b9cp-1"),
        (12, 2): ("0x1.45eb468228fbcp-18", "0x1.45f0c85329cc5p-18"),
    }
    for (r, k), ends in products.items():
        c = kwise_constant(r, k)
        assert (c.lo.hex(), c.hi.hex()) == ends, (r, k)


def test_kwise_factor_tiers_equal_the_per_prime_form():
    # at cutoff 10^4 the float tails decide most factors, and the exact
    # division takes the small primes and those near a rounding midpoint
    for r in range(2, 13):
        for k in range(2, r + 1):
            iv = kwise_constant(r, k, 10**4)
            assert (iv.lo, iv.hi) == kwise_endpoints(r, k, 10**4), (r, k)


def test_kwise_constant_equals_the_per_prime_form_at_large_cutoffs():
    # the suite's constants at the default cutoff, and at 10^5 a middle k, a
    # long tail polynomial (k = 2) and tails that underflow (k = r - 1)
    for r, k, cutoff in (
        (2, 2, 10**6),
        (3, 2, 10**6),
        (4, 2, 10**6),
        (4, 3, 10**6),
        (20, 10, 10**5),
        (64, 2, 10**5),
        (64, 63, 10**5),
    ):
        iv = kwise_constant(r, k, cutoff)
        assert (iv.lo, iv.hi) == kwise_endpoints(r, k, cutoff), (r, k, cutoff)


def _stated_tail_error(r: int, k: int) -> float:
    # n roundings per term as counted in the docstring of _tail_error
    return (2 * r + 3 * (r - k) + 1) * 2.0**-53


def test_tail_error_bound_covers_every_counted_rounding():
    for r in range(2, MAX_R + 1):
        for k in range(2, r + 1):
            assert _tail_error(r, k) >= _stated_tail_error(r, k), (r, k)


def test_tail_stays_inside_its_error_bound():
    primes = primes_up_to(2000)
    for r, k in ((2, 2), (4, 3), (12, 2), (12, 7), (40, 20), (64, 63)):
        eps = _tail_error(r, k)
        got = _tail(np.array(primes, dtype=np.float64), r, k).tolist()
        for p, t in zip(primes, got):
            true = Fraction(sum(math.comb(r, j) * (p - 1) ** (r - j) for j in range(k, r + 1)), p**r)
            assert abs(Fraction(t) - true) <= eps * Fraction(t) + Fraction(2) ** -1000, (r, k, p)


def _correctly_rounded_one_minus(t: Fraction) -> float:
    return float(1 - t)  # Fraction -> float rounds to nearest, ties to even


def test_one_minus_falls_back_at_and_near_every_midpoint():
    eps = _stated_tail_error(4, 3)
    spacing = Fraction(1, 2**54)
    midpoints = [float((2 * m + 1) * spacing) for m in (0, 1, 2, 7, 1000, 2**20 + 3)]
    midpoints += [0.125 + 2.0**-54, 0.25 - 2.0**-54]
    ts = []
    for mid in midpoints:
        ts += [mid, math.nextafter(mid, 0.0), math.nextafter(mid, 1.0)]
        # half the stated bound away: a bound 4x too small would decide here
        ts += [mid * (1 + eps / 2), mid * (1 - eps / 2)]
    ts += [0.25, math.nextafter(0.25, 1.0), 0.3, 1.0]
    _, undecided = _one_minus(np.array(ts), _tail_error(4, 3))
    assert undecided.all(), [t for t, u in zip(ts, undecided) if not u]


def test_one_minus_decides_only_what_it_rounds_correctly():
    eps = _tail_error(4, 3)
    rng = random.Random(7)
    ts = [2.0**-60, 2.0**-55, 1e-300, 5e-324, 0.0, 2.0**-54 * (1 - 4 * eps)]
    for _ in range(3000):
        mid = (2 * rng.randrange(1, 2**20) + 1) * 2.0**-54
        ts.append(mid * (1 + rng.choice((-1, 1)) * rng.uniform(0.5, 20) * eps))
        ts.append(rng.uniform(0.0, 0.25) * 2.0 ** -rng.randrange(0, 40))
    y, undecided = _one_minus(np.array(ts), eps)
    assert 0 < np.count_nonzero(undecided) < len(ts) // 2
    for t, yi, u in zip(ts, y.tolist(), undecided.tolist()):
        if u:
            continue
        slack = Fraction(eps) * Fraction(t) + Fraction(2) ** -1000
        for true in (Fraction(t) - slack, Fraction(t) + slack):
            assert yi == _correctly_rounded_one_minus(true), t


def test_euler_factor_fallbacks_stay_few():
    # the exact division is the slow path: a correct factor routine that sends
    # most primes there must fail here
    primes = arith.primes_up_to(10**6)
    for r in range(2, 13):
        for k in range(2, r + 1):
            _, fallbacks = _euler_factors(primes, r, k)
            assert fallbacks <= 200, (r, k, fallbacks)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_kwise_constant_at_large_cutoff_keeps_memory_bounded(child_env):
    # the factors and their product run _CHUNK primes at a time; an older
    # Python-int tier that divided every prime at once took the peak past 200 MB.
    # The CLI process reports its own peak (VmHWM): a child's ru_maxrss starts
    # at its parent's high-water mark, so from inside pytest it would measure
    # pytest.
    script = (
        "import sys; from coprime_lab import cli, constants; code = cli.main(sys.argv[1:]); "
        "iv = constants.kwise_constant(4, 3, 10**7); print(repr(iv.lo), repr(iv.hi)); "
        "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')).split()[1]); "
        "sys.exit(code)"
    )
    argv = ["constant", "--class", "kwise", "-r", "4", "-k", "3", "--cutoff", "10000000"]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    row, ends, peak_kb = proc.stdout.strip().split("\n")
    assert ends == "0.5842806721626325 0.5842806724542744"
    assert '"lo":0.584280672162632,"hi":0.584280672454274' in row
    assert int(peak_kb) <= 150 * 1024
