"""Counting paths: brute force, subset-Möbius engine, recursive pairwise
counter, divisibility patterns, and weighted gcd/lcm sums."""

import random
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, product
from math import comb, gcd, isqrt, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprime_lab import counting
from coprime_lab.constants import density
from coprime_lab.constraints import (
    Box,
    CoprimeTo,
    DivisibleBy,
    Residue,
    TupleConstraint,
)
from coprime_lab.counting import (
    PatternMatrix,
    count_box,
    count_box_bruteforce,
    count_mobius,
    count_toth,
    member,
    member_bulk,
    pattern_count,
    weighted_sum_gcd,
    weighted_sum_lcm,
)
from coprime_lab.errors import CapacityError, UnsupportedError

from closed_forms import euler_phi, mobius_of
from run_sum_reference import run_sum


def oracle_count(box: Box, constraint: TupleConstraint) -> int:
    """Reference count by direct enumeration; keep the boxes tiny."""
    return sum(
        1
        for x in product(*(range(1, b + 1) for b in box.bounds))
        if member(x, constraint)
    )


# -- membership ---------------------------------------------------------------


def test_member_bulk_matches_scalar():
    rng = random.Random(7)
    for constraint in (
        TupleConstraint.mutual(3),
        TupleConstraint.pairwise(3),
        TupleConstraint.kwise(4, 3),
        TupleConstraint.pairwise(2, (DivisibleBy(4), Residue(3, 2))),
        TupleConstraint.pairwise(3, (CoprimeTo(6), CoprimeTo(6), CoprimeTo(5))),
    ):
        cols = [
            np.array([rng.randint(1, 60) for _ in range(400)], dtype=np.int64)
            for _ in range(constraint.r)
        ]
        bulk = member_bulk(cols, constraint)
        for row in range(400):
            x = tuple(int(col[row]) for col in cols)
            assert bool(bulk[row]) == member(x, constraint), x


# member factors k-wise coordinates by trial division, so the constructed
# values are powers of at most two small primes times at most one prime past
# 10**6: quick to factor up to 2**62
_SMALL = (2, 3, 5, 7, 11, 13)
_BIG = (1_000_003, 1_000_033)


def _constructed_value(rng: random.Random, n: int, avoid: int, big: bool = True) -> int:
    """A value in [1, n] not divisible by the prime ``avoid``, with a prime
    past 10**6 now and then if ``big``."""
    v = 1
    if big and rng.random() < 0.3:
        v = rng.choice([q for q in _BIG if q != avoid and q <= n] or [1])
    for q in rng.sample([q for q in _SMALL if q != avoid], rng.randint(0, 2)):
        top = 0
        while v * q ** (top + 1) <= n:
            top += 1
        v *= q ** rng.randint(0, top)
    return v


def _constructed_rows(rng: random.Random, r: int, k: int, n: int, rows: int) -> list[tuple]:
    """Rows in which a prime p divides exactly k - 1 or exactly k
    coordinates, for p = 2, 3, 5 (the primes member_bulk strikes out first),
    7 and a prime past 10**6, with values up to n."""
    out = []
    for _ in range(rows):
        p = rng.choice([q for q in (2, 3, 5, 7) + _BIG if q <= n])
        shared = set(rng.sample(range(r), rng.choice((k - 1, k))))
        out.append(
            tuple(
                p * _constructed_value(rng, n // p, p, p not in _BIG)
                if i in shared
                else _constructed_value(rng, n, p)
                for i in range(r)
            )
        )
    return out


def test_member_bulk_matches_member_on_constructed_rows():
    rng = random.Random(2026)
    side_kinds = (
        lambda: CoprimeTo(rng.choice((2, 6, 35))),
        lambda: DivisibleBy(rng.choice((2, 3, 7))),
        lambda: Residue(5, rng.randrange(5)),
        lambda: Residue(4, rng.choice((0, 1, 3))),
    )
    for r in range(2, 7):
        for k in range(2, r + 1):
            for n in (30, 10**6, 10**12, 2**62):
                for with_sides in (False, True):
                    sides = None
                    if with_sides:
                        sides = tuple(rng.choice(side_kinds)() if rng.random() < 0.4 else None for _ in range(r))
                    if k == 2:
                        c = TupleConstraint.pairwise(r, sides)
                    elif k == r:
                        c = TupleConstraint.mutual(r, sides)
                    else:
                        c = TupleConstraint.kwise(r, k, sides)
                    rows = _constructed_rows(rng, r, k, n, 40)
                    cols = [np.array(col, dtype=np.int64) for col in zip(*rows)]
                    bulk = member_bulk(cols, c).tolist()
                    assert bulk == [member(x, c) for x in rows], (c.describe(), n)


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=3, max_size=3))
@settings(max_examples=150)
def test_member_kwise_equals_prime_multiplicity(xs):
    # k-wise coprime iff no prime divides k of the coordinates
    x = tuple(xs)
    for k in (2, 3):
        expected = True
        for p in set(p for v in x for p, _ in counting.arith.factor_small(v)):
            if sum(1 for v in x if v % p == 0) >= k:
                expected = False
        assert member(x, TupleConstraint.kwise(3, k)) == expected


# -- exact frozen counts ------------------------------------------------------


def test_frozen_small_counts():
    mut2 = TupleConstraint.mutual(2)
    assert count_box(Box.cube(4, 2), mut2).count == 11
    assert count_box(Box.cube(3, 3), TupleConstraint.pairwise(3)).count == 13
    assert count_box(Box.cube(3, 3), TupleConstraint.mutual(3)).count == 25
    assert count_box(Box(bounds=(0, 4), n=4), mut2).count == 0
    assert count_box(Box.cube(1, 2), mut2).count == 1


def test_methods_agree_on_medium_cube():
    c = TupleConstraint.pairwise(3)
    box = Box.cube(50, 3)
    reference = count_box_bruteforce(box, c).count
    assert count_mobius(box, c).count == reference
    assert count_box(box, c, method="toth").count == reference


def test_count_result_carries_method_names():
    box = Box.cube(10, 2)
    c = TupleConstraint.mutual(2)
    assert count_box(box, c).method == "Mobius"
    assert count_box_bruteforce(box, c).method == "BruteForce"
    with pytest.raises(ValueError):
        count_box(box, c, method="divination")


# -- engine == brute force across classes and sides ---------------------------


SIDE_POOLS = (
    None,
    CoprimeTo(6),
    CoprimeTo(5),
    DivisibleBy(2),
    DivisibleBy(3),
    Residue(4, 1),
    Residue(5, 0),
    Residue(3, 2),
)


def _random_constraint(rng: random.Random) -> TupleConstraint:
    r = rng.randint(2, 4)
    kind = rng.choice(("mutual", "pairwise", "kwise"))
    k = rng.randint(2, r) if kind == "kwise" else None
    return _random_sides(rng, kind, r, k)


def _random_sides(rng: random.Random, kind: str, r: int, k=None) -> TupleConstraint:
    sides = tuple(rng.choice(SIDE_POOLS) for _ in range(r))
    return TupleConstraint(r=r, kind=kind, k=k, sides=sides)


def test_mobius_equals_bruteforce_randomized():
    rng = random.Random(20260816)
    for trial in range(40):
        constraint = _random_constraint(rng)
        bounds = tuple(rng.randint(0, 28) for _ in range(constraint.r))
        box = Box(bounds=bounds, n=28)
        got = count_mobius(box, constraint).count
        want = count_box_bruteforce(box, constraint).count
        assert got == want, (trial, constraint, bounds)


def test_mobius_equals_oracle_on_ragged_boxes():
    rng = random.Random(11)
    for _ in range(12):
        constraint = _random_constraint(rng)
        bounds = tuple(rng.randint(0, 9) for _ in range(constraint.r))
        box = Box(bounds=bounds, n=9)
        assert count_mobius(box, constraint).count == oracle_count(box, constraint)


def test_grouped_constraints_count_like_their_sides():
    # coordinates 1 and 2 both coprime to 6, coordinate 3 coprime to 5
    rng = random.Random(5)
    for _ in range(10):
        kind = rng.choice(("mutual", "pairwise"))
        g = TupleConstraint(r=3, kind=kind, sides=(CoprimeTo(6), CoprimeTo(6), CoprimeTo(5)))
        bounds = tuple(rng.randint(1, 25) for _ in range(3))
        box = Box(bounds=bounds, n=25)
        assert count_mobius(box, g).count == count_box_bruteforce(box, g).count


SHARED_MODULI = (2, 3, 4, 6, 8, 9, 10, 12)


def _shared_prime_constraint(rng: random.Random, r: int) -> TupleConstraint:
    """A random class and sides whose moduli, drawn from SHARED_MODULI, share
    a prime between at least two coordinates."""
    kind = rng.choice(("mutual", "pairwise", "kwise"))
    k = rng.randint(2, r) if kind == "kwise" else None
    while True:
        sides = []
        for _ in range(r):
            a = rng.choice(SHARED_MODULI)
            sides.append(
                rng.choice((None, CoprimeTo(a), DivisibleBy(a), Residue(a, rng.randrange(a))))
            )
        moduli = [s.modulus for s in sides if s is not None]
        if any(gcd(a, b) > 1 for i, a in enumerate(moduli) for b in moduli[i + 1 :]):
            return TupleConstraint(r=r, kind=kind, k=k, sides=tuple(sides))


def test_shared_prime_moduli_engines_and_density():
    rng = random.Random(2002)
    caps = {2: 60, 3: 30, 4: 16}
    for trial in range(60):
        r = rng.randint(2, 4)
        c = _shared_prime_constraint(rng, r)
        n = caps[r]
        bounds = tuple(rng.randint(n // 2, n) for _ in range(r))
        box = Box(bounds=bounds, n=n)
        want = count_box_bruteforce(box, c).count
        assert count_mobius(box, c).count == want, (trial, c.describe(), bounds)
        assert count_box(box, c).count == want, (trial, c.describe(), bounds)
        if c.effective_k == 2:
            assert count_box(box, c, method="toth").count == want, (trial, c.describe())
            assert count_toth(bounds, sides=c.sides).count == want, (trial, c.describe())
    # the density against exact counts, at acceptance test 4's tolerance
    for trial in range(16):
        r = 2 + trial % 2
        c = _shared_prime_constraint(rng, r)
        n = (5040, 720)[r - 2]
        empirical = count_box(Box.cube(n, r), c).count / n**r
        assert abs(empirical - density(c).mid) <= 1e-2, (trial, c.describe())


def _class_of_subset_size(rng: random.Random, r: int, k: int) -> tuple[str, int | None]:
    """A (kind, k) pair whose constrained subsets are the k-subsets."""
    if k == r and rng.random() < 0.5:
        return "mutual", None
    if k == 2 and rng.random() < 0.5:
        return "pairwise", None
    return "kwise", k


def test_mobius_rows_equal_bruteforce_for_every_subset_size():
    # r = 2..6 and k = 2..r, moduli that share primes, ragged and zero bounds
    rng = random.Random(20261018)
    caps = {2: 60, 3: 40, 4: 20, 5: 9, 6: 6}
    kinds_seen = set()
    for trial in range(150):
        r = 2 + trial % 5
        k = rng.randint(2, r)
        kind, kk = _class_of_subset_size(rng, r, k)
        sides = []
        for _ in range(r):
            a = rng.choice(SHARED_MODULI)
            sides.append(
                rng.choice((None, CoprimeTo(a), DivisibleBy(a), Residue(a, rng.randrange(a))))
            )
        kinds_seen.update(type(s).__name__ for s in sides if s is not None)
        c = TupleConstraint(r=r, kind=kind, k=kk, sides=tuple(sides))
        n = caps[r]
        bounds = tuple(rng.choice((0, rng.randint(1, n), n, n)) for _ in range(r))
        box = Box(bounds=bounds, n=n)
        want = count_box_bruteforce(box, c).count
        assert count_mobius(box, c).count == want, (trial, c.describe(), bounds)
    assert kinds_seen == {"CoprimeTo", "DivisibleBy", "Residue"}


def test_pattern_coefficient_equals_subset_lattice_inclusion_exclusion():
    # c(m): (-1)^|F| summed over the families F of k-subsets of an m-set that
    # cover it.  A family inside T exists for every T, and those families sum
    # to [|T| < k] (the empty family alone when T has no k-subset, else zero),
    # so Möbius inversion over the union gives sum_T (-1)^(m - |T|) [|T| < k].
    for r in range(2, 8):
        for k in range(2, r + 1):
            for m in range(r + 1):
                lattice = sum(
                    (-1) ** (m - t) for t in range(min(m, k - 1) + 1) for _ in combinations(range(m), t)
                )
                got = counting._pattern_coefficient(m, k)
                assert got == lattice, (r, k, m)
                ksubsets = list(combinations(range(m), k))
                if len(ksubsets) <= 10:
                    direct = 0
                    for bits in range(1 << len(ksubsets)):
                        family = [S for j, S in enumerate(ksubsets) if bits >> j & 1]
                        if {i for S in family for i in S} == set(range(m)):
                            direct += (-1) ** len(family)
                    assert got == direct, (r, k, m)


def _mobius_rows_by_definition(bounds, k) -> list[tuple[tuple[int, ...], int]]:
    """The rows (L, c(L)) from their definition: every assignment of a
    squarefree d_S to each k-subset S, grouped by L_i = lcm of the d_S with
    i in S (kept while every L_i <= B_i), c(L) the sum of prod_S mu(d_S),
    zero sums dropped."""
    r = len(bounds)
    subsets = list(combinations(range(r), k))
    sums = {}

    def assign(j, L, sign):
        if j == len(subsets):
            sums[L] = sums.get(L, 0) + sign
            return
        S = subsets[j]
        for d in range(1, min(bounds[i] for i in S) + 1):
            mu = mobius_of(d)
            L_d = tuple(lcm(v, d) if i in S else v for i, v in enumerate(L))
            if mu and all(v <= b for v, b in zip(L_d, bounds)):
                assign(j + 1, L_d, sign * mu)

    assign(0, (1,) * r, 1)
    return sorted((L, c) for L, c in sums.items() if c)


@pytest.mark.parametrize("batch", (counting._MOBIUS_BATCH, 3))
def test_mobius_table_rows_equal_their_definition(monkeypatch, batch):
    # batches of about 3 rows cut every frontier and every slice of the table
    monkeypatch.setattr(counting, "_MOBIUS_BATCH", batch)
    counting._mobius_table.cache_clear()
    rng = random.Random(17)
    for r in range(2, 5):
        for k in range(2, r + 1):
            shapes = [(10,) * r, (1,) + (10,) * (r - 1)]
            shapes += [tuple(rng.randint(1, 10) for _ in range(r)) for _ in range(3)]
            for bounds in shapes:
                A, W, wmax = counting._mobius_table(bounds, k)
                rows = sorted(zip(map(tuple, A.T.tolist()), W.tolist()))
                assert rows == _mobius_rows_by_definition(bounds, k), (bounds, k)
                assert wmax == max(abs(c) for _, c in rows)


def test_row_dtype_scales_with_the_largest_coefficient():
    # 3-wise r = 6 rows carry coefficients up to 100 in size; the slice sums
    # fit in int64 only when volume * _ROW_SLICE * max |c(L)| is below 2**63
    _, W, wmax = counting._mobius_table((20,) * 6, 3)
    assert wmax == int(np.abs(W).max()) == 100
    volume = (2**63 - 1) // counting._ROW_SLICE
    assert counting._row_dtype(volume, 1) is np.int64
    assert counting._row_dtype(volume, wmax) is object
    assert counting._row_dtype(volume // wmax, wmax) is np.int64
    assert counting._row_dtype(volume // wmax + 1, wmax) is object


def test_mobius_row_budget_refuses(monkeypatch):
    box, c = Box.cube(22, 4), TupleConstraint.pairwise(4)
    want = count_box_bruteforce(box, c).count
    monkeypatch.setattr(counting, "_MOBIUS_ROWS_MAX", 2069)  # this table's size
    assert count_mobius(box, c).count == want
    monkeypatch.setattr(counting, "_MOBIUS_ROWS_MAX", 2068)
    with pytest.raises(CapacityError):
        count_mobius(box, c)  # the cached table is refused as a new one is


def test_mobius_tables_are_replayed_read_only():
    box = Box.cube(24, 4)
    counting._mobius_table.cache_clear()
    for sides in ((), (CoprimeTo(6),) * 4, (DivisibleBy(2), None, Residue(3, 1), None)):
        c = TupleConstraint.pairwise(4, sides)
        assert count_mobius(box, c).count == count_box_bruteforce(box, c).count
    info = counting._mobius_table.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    A, W, _ = counting._mobius_table(box.bounds, 2)
    assert not A.flags.writeable and not W.flags.writeable


def _residue_sweep(moduli=(2, 3, 5)) -> list[tuple]:
    """Every residue tuple mod ``moduli``, then the CoprimeTo and DivisibleBy
    sides of the same moduli."""
    sweep = [
        tuple(Residue(m, b) for m, b in zip(moduli, res))
        for res in product(*(range(m) for m in moduli))
    ]
    return sweep + [tuple(make(m) for m in moduli) for make in (CoprimeTo, DivisibleBy)]


def test_side_tables_are_shared_read_only():
    box = Box(bounds=(30, 24, 20), n=30)
    counting._side_table.cache_clear()

    def sweep(kind, engine, cold):
        out = []
        for sides in _residue_sweep():
            if cold:
                counting._side_table.cache_clear()
            c = getattr(TupleConstraint, kind)(3, sides)
            out.append(engine(box, c))
        return out

    engines = {
        "mutual": (lambda b, c: count_mobius(b, c).count,),
        # the peeling counter reads no side table; count_mobius sweeps last
        "pairwise": (
            lambda b, c: count_toth(b.bounds, sides=c.sides).count,
            lambda b, c: count_mobius(b, c).count,
        ),
    }
    for kind, fns in engines.items():
        want = sweep(kind, lambda b, c: count_box_bruteforce(b, c).count, False)
        for fn in fns:
            assert sweep(kind, fn, True) == want, kind
            assert sweep(kind, fn, False) == want, kind  # the kept tables
    info = counting._side_table.cache_info()
    assert info.hits > 0 and info.currsize <= 2 + 3 + 5 + 2 * 3  # distinct (bound, side)
    table = counting._side_table(24, Residue(3, 1))
    with pytest.raises(ValueError):
        table[1] = 0
    # a bound past the caching limit fills a table per call and keeps none
    kept = counting._side_table.cache_info().currsize
    big = counting._SIDE_TABLE_BOUND_MAX + 1
    N = counting._side_counts(big, CoprimeTo(6))
    assert N(1) == counting._value_count(big, CoprimeTo(6))
    assert counting._side_table.cache_info().currsize == kept


def test_kept_side_tables_stay_under_their_memory_ceiling():
    bound = counting._SIDE_TABLE_BOUND_MAX
    counting._side_table.cache_clear()
    tracemalloc.start()
    try:
        for m in range(2, counting._SIDE_TABLES_MAX + 8):
            counting._side_counts(bound, DivisibleBy(m))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert counting._side_table.cache_info().currsize == counting._SIDE_TABLES_MAX
    assert kept <= 33 * 2**20, kept  # 64 tables of 2**17 + 1 int32 entries: 32 MB
    counting._side_table.cache_clear()


def test_residue_sweep_fills_each_side_table_once():
    # 30 residue tuples mod (2, 3, 5) on one cube share 2 + 3 + 5 side tables;
    # filling them per call would take 90
    box = Box.cube(1008, 3)
    counting._side_table.cache_clear()
    for sides in _residue_sweep()[:30]:
        count_mobius(box, TupleConstraint.pairwise(3, sides))
    assert counting._side_table.cache_info().misses == 10


def test_count_mutual_mobius_with_sides_matches_brute_up_to_128():
    # divisibility / residue side conditions with moduli <= 10, ragged boxes
    rng = random.Random(128)
    side_pool = [
        None,
        DivisibleBy(2),
        DivisibleBy(3),
        DivisibleBy(6),
        DivisibleBy(10),
        Residue(4, 1),
        Residue(5, 3),
        Residue(7, 0),
        Residue(9, 2),
    ]
    for _ in range(24):
        r = rng.choice((2, 2, 3))
        sides = tuple(rng.choice(side_pool) for _ in range(r))
        c = TupleConstraint.mutual(r, sides if any(sides) else None)
        hi = 128 if r == 2 else 64
        box = Box(bounds=tuple(rng.randint(0, hi) for _ in range(r)), n=hi)
        got = count_mobius(box, c).count
        want = count_box_bruteforce(box, c).count
        assert got == want, (c.describe(), box.bounds)


def test_count_is_monotone_in_bounds():
    c = TupleConstraint.pairwise(3)
    prev = -1
    for b in range(0, 30, 3):
        cur = count_mobius(Box(bounds=(b, 25, 17), n=30), c).count
        assert cur >= prev
        prev = cur


def test_class_nesting():
    # pairwise implies k-wise implies mutual, so counts are ordered
    box = Box.cube(40, 4)
    pc = count_box(box, TupleConstraint.pairwise(4)).count
    k3 = count_box(box, TupleConstraint.kwise(4, 3)).count
    c = count_box(box, TupleConstraint.mutual(4)).count
    assert pc <= k3 <= c
    assert count_box(box, TupleConstraint.kwise(4, 2)).count == pc
    assert count_box(box, TupleConstraint.kwise(4, 4)).count == c
    # the auto route sends pairwise r = 4 to the peeling counter
    assert count_mobius(box, TupleConstraint.pairwise(4)).count == pc


class _GcdCounter:
    """Stands in for numpy in the counting module and counts the gcd cells
    that its kernels take."""

    def __init__(self):
        self.cells = 0
        counter = self

        class Gcd:
            def __call__(self, a, b):
                out = np.gcd(a, b)
                counter.cells += np.size(out)
                return out

            def outer(self, a, b):
                out = np.gcd.outer(a, b)
                counter.cells += out.size
                return out

        self.gcd = Gcd()

    def __getattr__(self, name):
        return getattr(np, name)


def test_brute_cell_estimate_bounds_the_gcds_taken(monkeypatch):
    rng = random.Random(11)
    counter = _GcdCounter()
    monkeypatch.setattr(counting, "np", counter)
    caps = {2: 300, 3: 40, 4: 16, 5: 9, 6: 7}
    for trial in range(200):
        r = 2 + trial % 5
        bounds = [rng.randint(1, caps[r]) for _ in range(r)]
        sides = _two_shared_sides(rng, r)
        counts = [counting._value_count(b, s) for b, s in zip(bounds, sides)]
        vals = [counting._allowed_values(b, s) for b, s in zip(bounds, sides)]
        assert counts == [len(v) for v in vals]
        if 0 in counts:
            continue
        for k in range(2, r + 1):  # pairwise, k-wise, and mutual at k = r
            kernel, gcds, _ = counting._brute_plan(counts, bounds, k)
            counter.cells = 0
            kernel(vals)
            assert counter.cells <= gcds, (bounds, sides, k)


def test_bruteforce_refuses_past_the_cell_cap_before_building_arrays(monkeypatch):
    # 10**10 gcds of a 10**5 x 10**5 coprimality matrix: about 11 minutes
    monkeypatch.setattr(counting, "_allowed_values", None)
    start = time.perf_counter()
    box = Box(bounds=(10**5, 10**5, 2), n=10**5)
    with pytest.raises(CapacityError, match="gcds"):
        count_box_bruteforce(box, TupleConstraint.pairwise(3))
    with pytest.raises(CapacityError, match="gcds"):
        count_box_bruteforce(Box.cube(150_000, 2), TupleConstraint.mutual(2))
    # 10**8 choices of the two wide coordinates, each a few numpy calls
    with pytest.raises(CapacityError, match="gcds"):
        count_box_bruteforce(Box(bounds=(10**4, 10**4, 1, 1, 1), n=10**4), TupleConstraint.pairwise(5))
    # 2.5e10 and 1e10 gcds of the k-wise kernel: minutes
    with pytest.raises(CapacityError, match="gcds"):
        count_box_bruteforce(Box(bounds=(5000, 5000, 1000, 1), n=5000), TupleConstraint.kwise(4, 3))
    with pytest.raises(CapacityError, match="gcds"):
        count_box_bruteforce(Box.cube(100, 5), TupleConstraint.kwise(5, 4))
    # 10**8 values of the widest coordinate, each a few numpy calls, though few gcds
    with pytest.raises(CapacityError, match="gcds"):
        count_box_bruteforce(Box(bounds=(10**8, 1, 1, 1), n=10**8), TupleConstraint.kwise(4, 3))
    assert time.perf_counter() - start < 2


def test_kwise_bruteforce_counts_what_the_prefix_enumeration_could_not():
    # the plain prefix enumeration refused (5, 3) at n = 60 (1.2e8 steps) and
    # took 39 s and 5.7 s on the other two; the bit-cube kernel takes about
    # 0.9, 0.25 and 0.25 s on 2 vCPUs
    for r, k, n in ((5, 3, 60), (5, 3, 40), (8, 4, 5)):
        box, c = Box.cube(n, r), TupleConstraint.kwise(r, k)
        start = time.perf_counter()
        got = count_box_bruteforce(box, c).count
        assert time.perf_counter() - start < 5, (r, k, n)
        assert got == count_mobius(box, c).count, (r, k, n)


def test_bruteforce_skips_empty_coordinates_before_building_arrays(monkeypatch):
    monkeypatch.setattr(counting, "_allowed_values", None)
    box = Box(bounds=(10**8, 200, 1), n=10**8)
    c = TupleConstraint.mutual(3, (None, None, DivisibleBy(2)))
    assert count_box_bruteforce(box, c).count == 0


def test_bruteforce_cell_cap_admits_the_certified_boxes():
    # the acceptance boxes, the thin mutual box, and the largest brute-force
    # references of the benchmark workloads stay under the cap
    for bounds, k in (
        ((1500,) * 3, 2),
        ((10**5, 10**5, 2), 3),
        ((3000, 3000, 1), 2),
        ((160,) * 4, 2),
        ((320, 240, 180), 2),
        ((1012,) * 3, 2),
        ((1012,) * 3, 3),
        # k-wise (4, 3) of the multi-subset workload and of acceptance test 3
        ((100,) * 4, 3),
        ((300,) * 4, 3),
    ):
        assert counting._brute_plan(list(bounds), bounds, k)[2] <= counting.BRUTE_CELL_CAP, bounds


def test_bruteforce_volume_cap():
    with pytest.raises(CapacityError):
        count_box_bruteforce(Box.cube(200_000, 2), TupleConstraint.mutual(2))


# -- brute-force kernels --------------------------------------------------------


def _two_shared_sides(rng: random.Random, r: int) -> tuple:
    """Random sides of every kind, moduli from SHARED_MODULI, on two random
    coordinates (sides on more make most small-box counts zero)."""
    sides = [None] * r
    for i in rng.sample(range(r), 2):
        a = rng.choice(SHARED_MODULI)
        sides[i] = rng.choice((CoprimeTo(a), DivisibleBy(a), Residue(a, rng.randrange(a))))
    return tuple(sides)


# the plain prefix enumeration that every brute-force kernel is checked
# against: each value of every coordinate but the last, one at a time, and a
# gcd mask over the last
def _brute_generic(vals, subsets) -> int:
    r = len(vals)
    last = r - 1
    with_last = [S for S in subsets if last in S]
    closers = {
        d: [S for S in subsets if last not in S and max(S) == d] for d in range(r)
    }
    vlast = vals[last]
    total = 0
    chosen = [0] * (r - 1)

    def rec(depth: int) -> None:
        nonlocal total
        if depth == last:
            mask = np.ones(len(vlast), dtype=bool)
            for S in with_last:
                g = 0
                for i in S:
                    if i != last:
                        g = gcd(g, chosen[i])
                mask &= np.gcd(g, vlast) == 1
            total += int(np.count_nonzero(mask))
            return
        for x in vals[depth]:
            chosen[depth] = int(x)
            ok = True
            for S in closers[depth]:
                g = 0
                for i in S:
                    g = gcd(g, chosen[i])
                if g != 1:
                    ok = False
                    break
            if ok:
                rec(depth + 1)

    rec(0)
    return total


def test_brute_kernels_equal_the_generic_enumeration():
    # r = 2..6, every subset size, moduli that share primes, ragged and zero
    # bounds; the 7-cell block runs the block loops that the default block
    # size skips here
    rng = random.Random(20261019)
    caps = {2: 60, 3: 30, 4: 16, 5: 10, 6: 8}
    kinds_seen = set()
    for trial in range(150):
        r = 2 + trial % 5
        sides = _two_shared_sides(rng, r)
        kinds_seen.update(type(s).__name__ for s in sides if s is not None)
        n = caps[r]
        bounds = [rng.randint(n // 2, n) for _ in range(r)]
        if trial % 7 == 0:
            bounds[rng.randrange(r)] = 0
        vals = [counting._allowed_values(b, side) for b, side in zip(bounds, sides)]
        kernels = [(r, counting._brute_mutual)]
        if r >= 3:
            kernels.append((2, counting._brute_pairwise))
        for k in range(3, r):
            kernels.append((k, lambda vals, block, k=k: counting._brute_kwise(vals, k, block)))
        for k, kernel in kernels:
            want = _brute_generic(vals, tuple(combinations(range(r), k)))
            for block in (counting._BRUTE_BLOCK, 7):
                assert kernel(vals, block) == want, (trial, k, bounds, sides, block)
    assert kinds_seen == {"CoprimeTo", "DivisibleBy", "Residue"}


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.sampled_from(("mutual", "pairwise", "kwise")),
            st.integers(2, r),
            st.lists(st.integers(0, {2: 40, 3: 16, 4: 9, 5: 6, 6: 5}[r]), min_size=r, max_size=r),
            st.lists(
                st.one_of(
                    st.none(),
                    st.sampled_from(SHARED_MODULI).map(CoprimeTo),
                    st.sampled_from(SHARED_MODULI).map(DivisibleBy),
                    st.sampled_from(SHARED_MODULI).flatmap(
                        lambda a: st.integers(0, a - 1).map(lambda b: Residue(a, b))
                    ),
                ),
                min_size=r,
                max_size=r,
            ),
        )
    )
)
def test_bruteforce_equals_mobius_on_random_boxes(case):
    # every class and every k-wise k, so every brute-force kernel, with random
    # sides of every kind on every coordinate, zero bounds included
    r, kind, k, bounds, sides = case
    c = TupleConstraint(r=r, kind=kind, k=k if kind == "kwise" else None, sides=tuple(sides))
    box = Box(bounds=tuple(bounds), n=max(max(bounds), 1))
    assert count_box_bruteforce(box, c).count == count_mobius(box, c).count


def test_engines_equal_bruteforce_up_to_r8():
    # k = 2 and k = r at r = 5..8, ragged bounds, sides of every kind
    rng = random.Random(58)
    caps = {5: 14, 6: 10, 7: 8, 8: 7}
    for trial in range(16):
        r = 5 + trial % 4
        n = caps[r]
        bounds = tuple(rng.randint(n - 3, n) for _ in range(r))
        box = Box(bounds=bounds, n=n)
        for k in (2, r):
            c = TupleConstraint.kwise(r, k, _two_shared_sides(rng, r))
            want = count_box_bruteforce(box, c).count
            assert count_mobius(box, c).count == want, (trial, c.describe(), bounds)
            assert count_box(box, c).count == want, (trial, c.describe(), bounds)
            if k == 2:
                assert count_toth(bounds, sides=c.sides).count == want, (trial, c.describe())


def test_mutual_bruteforce_on_a_thin_box_is_fast():
    # the widest coordinate meets only the distinct gcds of the others:
    # 4 * 10**5 gcds, not 2 * 10**10
    box, c = Box(bounds=(10**5, 10**5, 2), n=10**5), TupleConstraint.mutual(3)
    start = time.perf_counter()
    got = count_box_bruteforce(box, c).count
    assert time.perf_counter() - start < 1
    assert got == count_mobius(box, c).count


def test_pairwise_bruteforce_memory_stays_below_the_product_of_two_bounds():
    # one 3000 x 3000 coprimality matrix is 72 MB of int64 gcds alone; the
    # kernel takes its rows in blocks
    box = Box(bounds=(3000, 3000, 1), n=3000)
    tracemalloc.start()
    try:
        got = count_box_bruteforce(box, TupleConstraint.pairwise(3)).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert got == count_mobius(Box.cube(3000, 2), TupleConstraint.mutual(2)).count


# -- side-condition tables and exact accumulation -----------------------------


@pytest.mark.parametrize(
    "side",
    (None, CoprimeTo(1), CoprimeTo(6), CoprimeTo(35), DivisibleBy(4), Residue(5, 3), Residue(7, 0)),
)
def test_side_counts_match_enumeration(side):
    # bounds s^2 - 1, s^2, s^2 + 1 move the sqrt split of the table fill
    for s in (1, 3, 7, 10):
        for bound in (s * s - 1, s * s, s * s + 1):
            if bound < 1:
                continue
            N = counting._side_counts(bound, side)
            want = [
                sum(1 for x in range(L, bound + 1, L) if side is None or side.admits(x))
                for L in range(1, bound + 1)
            ]
            assert [int(N(L)) for L in range(1, bound + 1)] == want, (bound, side)
            assert N(np.arange(1, bound + 1)).tolist() == want, (bound, side)


def _mutual_reference(bounds: tuple[int, ...]) -> int:
    """sum_d mu(d) prod_i floor(B_i / d) in Python integers."""
    mu = counting.arith.build_tables(min(bounds)).mobius.tolist()
    return sum(mu[d] * prod(b // d for b in bounds) for d in range(1, min(bounds) + 1) if mu[d])


@pytest.mark.parametrize(
    "n, r, count",
    (
        (50_000, 4, 5774627950244730431),
        (60_000, 4, 11974243246502789823),
        (3_000_000, 3, 22461499405572175591),
    ),
)
def test_mobius_sums_past_int64_exactly(n, r, count):
    # row products reach 6.25e18 < 2^63 at the first size and pass 2^63 at
    # the other two, where the counts themselves do
    assert count_mobius(Box.cube(n, r), TupleConstraint.mutual(r)).count == count
    assert _mutual_reference((n,) * r) == count


@pytest.mark.parametrize("n, r", ((50_000, 4), (60_000, 4)))
def test_mobius_sums_with_sides_past_int64_exactly(n, r):
    # one subset with sides, an odd first coordinate: volume * 2**16 passes 2**63
    # at the first size and the volume itself at the second
    c = TupleConstraint.mutual(r, (CoprimeTo(2),) + (None,) * (r - 1))
    mu = counting.arith.build_tables(n).mobius.tolist()
    want = sum(
        mu[d] * ((n // d + 1) // 2) * (n // d) ** (r - 1) for d in range(1, n + 1, 2) if mu[d]
    )
    assert count_mobius(Box.cube(n, r), c).count == want


def test_mutual_route_equals_bruteforce_randomized():
    # one subset over every coordinate: mutual r=2..5 and k-wise with k = r
    rng = random.Random(20261018)
    for trial in range(60):
        r = rng.randint(2, 5)
        c = rng.choice((TupleConstraint.mutual(r), TupleConstraint.kwise(r, r)))
        hi = (60, 30, 14, 9)[r - 2]
        bounds = tuple(rng.randint(0, hi) for _ in range(r))
        box = Box(bounds=bounds, n=hi)
        got = count_mobius(box, c).count
        assert got == count_box_bruteforce(box, c).count, (trial, c.describe(), bounds)


@lru_cache(maxsize=1)
def _python_sieves(limit: int) -> tuple[list[int], list[int]]:
    """phi(m) and J(m) = m prod_{p | m} (1 - p) for m <= limit as Python ints,
    sieved in int64, which |J(m)| <= m**2 < 2**63 allows."""
    phi = np.arange(limit + 1, dtype=np.int64)
    J, rest = phi.copy(), phi.copy()
    for p in range(2, isqrt(limit) + 1):
        if rest[p] == p:  # no smaller prime divides p
            phi[p::p] -= phi[p::p] // p
            J[p::p] *= 1 - p
            power = p
            while power <= limit:
                rest[power::power] //= p
                power *= p
    # what is left of m > 1 is its one prime factor above isqrt(limit)
    m = np.flatnonzero(rest > 1)
    p = rest[m]
    phi[m] -= phi[m] // p
    J[m] *= 1 - p
    return phi.tolist(), J.tolist()


def _at_points(F):
    """A running sum (xs, values), as ``_summatory`` gives it, as a callable
    on its points."""
    xs, values = F
    return dict(zip(xs.tolist(), values.tolist())).__getitem__


def test_summatory_matches_python_sieves():
    limit = 1 << 22
    for kind, f in zip(("phi", "J"), _python_sieves(limit)):
        F = list(accumulate(f))
        # the table itself: sum |J| passes 2**63 at this size, so J's int64
        # table rests on slice totals summed in Python ints
        table = counting._prefix(kind, limit)
        assert not table.flags.writeable
        assert table.tolist() == F, kind
        # every quotient point, most of them past the table of their bounds
        for bounds in ((limit,), (4_000_000, 2_999_999), (10**6, 7)):
            S = _at_points(counting._summatory(bounds, kind))
            for b in bounds:
                for x in {b // k for k in range(1, isqrt(b) + 1)} | set(range(1, isqrt(b) + 1)):
                    assert S(x) == F[x], (kind, bounds, x)


def test_prefix_falls_back_to_python_ints(monkeypatch):
    # f(m) = m rad(m)**3 <= 2**56 on [0, 2**14], but its running sums pass 2**63
    size = 1 << 14
    monkeypatch.setitem(counting._CONVOLUTIONS, "quartic", (lambda p: p**4, None, None))
    rad = [1] * (size + 1)
    for p in range(2, size + 1):
        if rad[p] == 1:
            rad[p::p] = [v * p for v in rad[p::p]]
    want = list(accumulate(m * rad[m] ** 3 for m in range(size + 1)))
    assert want[-1] > 2**63
    try:
        F = counting._prefix("quartic", size)
        assert F.dtype == object and F.tolist() == want
    finally:
        counting._prefix.cache_clear()


def test_mertens_matches_published_values():
    # OEIS A084237: M(10**k) for k = 0..8
    M = _at_points(counting._summatory((10**8,), "mu"))
    want = (1, -1, 1, 2, -23, -48, 212, 1037, 1928)
    assert tuple(M(10**k) for k in range(9)) == want


def test_mutual_route_refuses_over_cap_before_sieving(monkeypatch):
    built = []
    monkeypatch.setattr(counting.arith, "build_tables", built.append)
    n = counting.MUTUAL_BOUND_CAP + 1
    with pytest.raises(CapacityError):
        count_mobius(Box(bounds=(n, 5), n=n), TupleConstraint.mutual(2))
    for weighted_sum in (weighted_sum_gcd, weighted_sum_lcm):
        with pytest.raises(CapacityError):
            weighted_sum(n, (1, 1))
    assert built == []


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("mu", "phi", "J")),
    st.sampled_from((None, counting._triangle)),
    st.lists(st.integers(0, 40) | st.integers(0, 3 * 10**6), min_size=1, max_size=4),
    st.lists(st.integers(1, 3 * 10**6), max_size=2),
)
def test_run_sum_matches_the_per_run_reference(kind, w, bounds, more):
    # F may come from more bounds than the sum's own: its points hold theirs
    F = counting._summatory(bounds + more, kind)
    assert counting._run_sum(bounds, F, w) == run_sum(bounds, _at_points(F), w)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 10**5), min_size=1, max_size=4),
    st.sampled_from((None, counting._triangle)),
    st.sampled_from((2**20, 2**61, 2**70)),
    st.integers(0, 2**32 - 1),
)
def test_run_sum_matches_the_per_run_reference_on_any_values(bounds, w, spread, seed):
    # values of every size at the points, not only running sums of mu, phi or
    # J: int64 under 2**62 in absolute value, as _summatory keeps them, and
    # Python ints past it
    xs = counting._quotient_points(bounds)
    rng = random.Random(seed)
    values = [rng.randint(-spread, spread) for _ in xs.tolist()]
    F = (xs, np.array(values, dtype=np.int64 if spread < 2**62 else object))
    assert counting._run_sum(bounds, F, w) == run_sum(bounds, _at_points(F), w)


@pytest.mark.parametrize(
    "bounds",
    [
        # mutual r = 3: the run d = 1 alone is (3e6)**3 > 2**63, summed in
        # Python ints, and the runs past the first few dozen d fit in int64
        (3_000_000,) * 3,
        # past 2**62: no bound on the whole sum admits int64
        (3_000_000, 1_700_000, 1_699_999),
        (2_100_000, 2_100_000, 2_100_000, 5),
        (60_000,) * 4,
    ],
)
def test_run_sum_past_int64_matches_the_per_run_reference(bounds):
    assert prod(bounds) > 2**62
    for kind, w in (("mu", None), ("phi", None), ("J", counting._triangle)):
        F = counting._summatory(bounds, kind)
        assert counting._run_sum(bounds, F, w) == run_sum(bounds, _at_points(F), w), kind


def test_sided_count_refuses_over_cap_before_side_tables(monkeypatch):
    # the spy raises, so a side table filled first fails the test at once
    # instead of taking 800 MB
    def spy(*args):
        raise AssertionError(f"side table filled for {args}")

    monkeypatch.setattr(counting, "_admissible", spy)
    n = 2 * counting.arith.TABLE_LIMIT_MAX
    for c in (
        TupleConstraint.mutual(2, (CoprimeTo(6), None)),
        TupleConstraint.pairwise(3, (None, DivisibleBy(2), None)),
    ):
        with pytest.raises(CapacityError):
            count_mobius(Box.cube(n, c.r), c)


def test_shared_tables_never_round_past_the_table_cap(monkeypatch):
    built = []
    monkeypatch.setattr(
        counting.arith, "build_tables", lambda limit: built.append(limit) or limit
    )
    counting._tables_of_size.cache_clear()
    try:
        assert counting.shared_tables(70_000_000) == 70_000_000
        assert counting.shared_tables(60_000_000) == 1 << 26
        assert built == [70_000_000, 1 << 26]
    finally:
        counting._tables_of_size.cache_clear()
    monkeypatch.undo()
    with pytest.raises(CapacityError, match="100000001"):
        counting.shared_tables(10**8 + 1)


def test_shared_tables_cache_by_rounded_size(monkeypatch):
    built = []
    build = counting.arith.build_tables
    monkeypatch.setattr(
        counting.arith, "build_tables", lambda limit: built.append(limit) or build(limit)
    )
    counting._tables_of_size.cache_clear()
    assert counting.shared_tables(49_000) is counting.shared_tables(60_000)
    assert built == [1 << 16]


# -- recursive pairwise counter ------------------------------------------------


def test_toth_frozen_examples():
    assert count_toth((3, 3), u=2).count == 3
    assert count_toth((10,), u=6).count == 3
    assert count_toth((4, 4)).count == 11
    assert count_toth((0, 7)).count == 0


def test_toth_result_constraint_tagging():
    assert count_toth((5, 5, 5)).constraint == TupleConstraint.pairwise(3)
    tagged = count_toth((5, 5), u=6).constraint
    assert tagged == TupleConstraint.pairwise(2, (CoprimeTo(6), CoprimeTo(6)))
    assert count_toth((9,), u=2).constraint is None


def test_toth_equals_bruteforce_spot_grid():
    for u in (1, 2, 6, 30):
        for bounds in ((17,), (13, 21), (9, 9, 9), (7, 11, 5, 9)):
            got = count_toth(bounds, u=u).count
            want = sum(
                1
                for x in product(*(range(1, b + 1) for b in bounds))
                if all(gcd(a, b2) == 1 for i, a in enumerate(x) for b2 in x[i + 1 :])
                and all(gcd(a, u) == 1 for a in x)
            )
            assert got == want, (u, bounds)


def test_toth_bound_cap():
    with pytest.raises(CapacityError):
        count_toth((counting.TOTH_BOUND_CAP + 1, 5))


def test_toth_memo_budget_is_per_call(monkeypatch):
    # the first call stores 20 entries (one per squarefree radical <= 30 and
    # the top); a budget kept across calls would then have no room for the
    # second call's 7
    monkeypatch.setattr(counting, "_TOTH_MEMO_MAX", 21)
    assert count_toth((30, 30, 30)).count == count_box_bruteforce(
        Box.cube(30, 3), TupleConstraint.pairwise(3)
    ).count
    assert count_toth((7, 7, 7), 11).count == 133


def test_toth_memo_budget_refuses(monkeypatch):
    monkeypatch.setattr(counting, "_TOTH_MEMO_MAX", 19)
    with pytest.raises(CapacityError):
        count_toth((30, 30, 30))


def test_toth_memo_budget_refuses_before_the_base_runs(monkeypatch):
    # the peeled x = 2 (mod 5) has 6 radicals, so the top and its 6 keys fit
    # a budget of 7, and a budget of 6 is refused with no base call
    sides = (Residue(2, 1), CoprimeTo(3), Residue(5, 2))
    calls = []
    real = counting._peel_base

    def spy(*args):
        calls.append(args)
        return real(*args)

    box = Box(bounds=(30, 30, 30), n=30)
    want = count_box_bruteforce(box, TupleConstraint.pairwise(3, sides)).count
    monkeypatch.setattr(counting, "_peel_base", spy)
    monkeypatch.setattr(counting, "_TOTH_MEMO_MAX", 7)
    assert count_toth((30, 30, 30), sides=sides).count == want
    assert calls
    calls.clear()
    monkeypatch.setattr(counting, "_TOTH_MEMO_MAX", 6)
    with pytest.raises(CapacityError):
        count_toth((30, 30, 30), sides=sides)
    assert calls == []


def test_toth_base_in_blocks_of_one_or_a_few_keys(monkeypatch):
    # a base block holds _ROW_SLICE mask cells: 1 gives one key a block, 64
    # and 256 a few, so the keys of every level meet block edges.  Appending
    # the coordinate x = u (bound u, divisible by u) turns "pairwise coprime
    # and coprime to u" into a pairwise class that brute force counts.
    rng = random.Random(20261020)
    caps = {1: 60, 2: 60, 3: 30, 4: 14, 5: 8}
    for trial in range(90):
        monkeypatch.setattr(counting, "_ROW_SLICE", rng.choice((1, 64, 256)))
        r = trial % 5 + 1
        n = caps[r]
        u = rng.choice((1, 6, 7, 30))
        if trial % 3 == 0:
            # equal bounds and sides on the base coordinates: Phi_1 reused
            bounds = [rng.randint(1, n)] * r
            sides = [rng.choice(SIDE_POOLS)] * r
        else:
            bounds = [0 if rng.random() < 0.1 else rng.randint(1, n) for _ in range(r)]
            sides = [rng.choice(SIDE_POOLS) if trial % 3 == 1 else None for _ in range(r)]
        box = Box(bounds=(*bounds, u), n=max(n, u))
        c = TupleConstraint.pairwise(r + 1, (*sides, DivisibleBy(u) if u > 1 else None))
        want = count_box_bruteforce(box, c).count
        got = count_toth(tuple(bounds), u, tuple(sides))
        assert got.count == want, (trial, bounds, u, sides)


def test_toth_with_sides_equals_bruteforce_randomized():
    rng = random.Random(20261018)
    caps = {2: 60, 3: 30, 4: 14, 5: 8}
    for trial in range(60):
        r = rng.randint(2, 5)
        n = caps[r]
        bounds = tuple(rng.choice((0, rng.randint(1, n), n)) for _ in range(r))
        box = Box(bounds=bounds, n=n)
        if trial % 3 == 0:
            # two blocks of coordinates, each sharing one CoprimeTo modulus
            cut = rng.randint(1, r - 1)
            a, b = rng.choice(((6, 5), (4, 1), (10, 3)))
            sides = tuple(CoprimeTo(a if i < cut else b) for i in range(r))
            c = TupleConstraint.pairwise(r, sides)
        else:
            c = _random_sides(rng, "pairwise", r)
        want = count_box_bruteforce(box, c).count
        assert count_box(box, c, method="toth").count == want, (trial, c, bounds)
        assert count_toth(bounds, sides=c.sides).count == want, (trial, c, bounds)


def test_toth_uniform_modulus_with_sides():
    # u and per-coordinate sides together: u seeds the peeled modulus
    sides = (Residue(4, 1), None, DivisibleBy(3))
    for bounds in ((13, 20, 17), (0, 5, 5), (9, 1, 30)):
        want = sum(
            1
            for x in product(*(range(1, b + 1) for b in bounds))
            if all(s is None or s.admits(v) for s, v in zip(sides, x))
            and all(gcd(v, 5) == 1 for v in x)
            and all(gcd(a, b) == 1 for i, a in enumerate(x) for b in x[i + 1 :])
        )
        got = count_toth(bounds, 5, sides)
        assert got.count == want and got.constraint is None


def test_pairwise_routes_agree_with_mobius_on_suite_sides():
    box = Box.cube(1024, 3)
    for sides in (
        (CoprimeTo(2), CoprimeTo(3), CoprimeTo(5)),
        (DivisibleBy(2), DivisibleBy(3), DivisibleBy(5)),
        (Residue(2, 1), Residue(3, 0), Residue(5, 2)),
    ):
        want = count_mobius(box, TupleConstraint.pairwise(3, sides)).count
        for c in (TupleConstraint.pairwise(3, sides), TupleConstraint.kwise(3, 2, sides)):
            auto = count_box(box, c)
            assert (auto.count, auto.method) == (want, "Toth")
            assert count_box(box, c, method="toth").count == want
            assert count_box(box, c, method="mobius").method == "Mobius"


def test_auto_route_by_subset_size_rank_and_bound():
    def route(box, c):
        return count_box(box, c).method

    assert route(Box.cube(10, 3), TupleConstraint.pairwise(3)) == "Toth"
    assert route(Box.cube(10, 4), TupleConstraint.kwise(4, 2)) == "Toth"
    assert route(Box.cube(10, 2), TupleConstraint.pairwise(2)) == "Mobius"
    assert route(Box.cube(10, 3), TupleConstraint.mutual(3)) == "Mobius"
    assert route(Box.cube(10, 4), TupleConstraint.kwise(4, 3)) == "Mobius"
    big = Box(bounds=(counting.TOTH_BOUND_CAP + 1, 2, 2), n=counting.TOTH_BOUND_CAP + 1)
    assert route(big, TupleConstraint.pairwise(3)) == "Mobius"
    # C(16, 2) = 120 subsets stay within ENGINE_MAX_SUBSETS; C(17, 2) = 136 do not
    assert route(Box.cube(2, 16), TupleConstraint.pairwise(16)) == "Toth"
    with pytest.raises(CapacityError):
        count_box(Box.cube(100, 17), TupleConstraint.pairwise(17))


def test_toth_method_refuses_subsets_above_two():
    for c in (TupleConstraint.kwise(4, 3), TupleConstraint.mutual(3)):
        with pytest.raises(UnsupportedError):
            count_box(Box.cube(5, c.r), c, method="toth")


def test_pairwise_r4_cube_at_200_is_fast():
    # the subset DFS took minutes on this box
    box = Box.cube(200, 4)
    start = time.perf_counter()
    got = count_box(box, TupleConstraint.pairwise(4))
    assert time.perf_counter() - start < 5
    assert got.count == count_box_bruteforce(box, TupleConstraint.pairwise(4)).count


# -- divisibility patterns ------------------------------------------------------


def test_pattern_matrix_validation():
    PatternMatrix((2, 3), ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        PatternMatrix((3, 2), ((1, 0), (0, 1)))  # primes out of order
    with pytest.raises(ValueError):
        PatternMatrix((2, 4), ((1, 0), (0, 1)))  # 4 is not prime
    with pytest.raises(ValueError):
        PatternMatrix((2, 3), ((1, 2), (0, 1)))  # entries must be 0/1
    with pytest.raises(ValueError):
        PatternMatrix((2, 3), ((1, 0), (0,)))  # ragged


def test_pattern_count_iff_semantics():
    # the pattern fixes exactly which listed primes divide which coordinate
    n = 48
    pattern = PatternMatrix((2, 3), ((1, 0), (0, 1)))
    res = pattern_count(n, pattern, (1, 1))
    want = sum(
        1
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if x % 2 == 0 and x % 3 != 0 and y % 2 != 0 and y % 3 == 0
    )
    assert res.count == want
    assert res.constraint is None


def test_pattern_partition_sums_to_box():
    # entries form an N x r matrix with one row per prime; summing the counts
    # over every 0/1 matrix partitions the whole box
    n, r = 50, 2
    for primes in ((2,), (2, 3)):
        total = 0
        for bits in product((0, 1), repeat=len(primes) * r):
            entries = tuple(bits[i * r : (i + 1) * r] for i in range(len(primes)))
            total += pattern_count(n, PatternMatrix(primes, entries), (1, 1)).count
        assert total == n * n, primes


def test_pattern_count_with_alpha():
    pattern = PatternMatrix((2,), ((1, 0),))
    res = pattern_count(10, pattern, (Fraction(1, 2), 1))
    want = sum(1 for x in range(1, 6) for y in range(1, 11) if x % 2 == 0 and y % 2 == 1)
    assert res.count == want


def test_pattern_family_frequency_near_binomial_product():
    # "at most h_i coordinates divisible by p_i" has limiting frequency
    # prod_i P(Bin(r, 1/p_i) <= h_i); the finite-n error decays like 1/n.
    # Worst measured dev*n over these cases is 0.445; 1.0 gives 2x headroom.
    cases = [
        ((2,), (1,), 2),
        ((3,), (1,), 3),
        ((2, 3), (1, 1), 2),
        ((2, 3), (1, 0), 2),
        ((2, 5), (1, 1), 3),
    ]
    for primes, caps, r in cases:
        target = Fraction(1)
        for p, h in zip(primes, caps):
            q = Fraction(1, p)
            target *= sum(comb(r, j) * q**j * (1 - q) ** (r - j) for j in range(h + 1))
        for n in (1000, 10000):
            total = 0
            for bits in product((0, 1), repeat=len(primes) * r):
                rows = tuple(bits[i * r : (i + 1) * r] for i in range(len(primes)))
                if all(sum(row) <= h for row, h in zip(rows, caps)):
                    total += pattern_count(n, PatternMatrix(primes, rows), (1,) * r).count
            dev = abs(Fraction(total, n**r) - target)
            assert dev <= Fraction(1, n), (primes, caps, r, n, float(dev))


# -- weighted sums ---------------------------------------------------------------


def test_weighted_sum_gcd_frozen_values():
    assert weighted_sum_gcd(2, (1, 1)) == 5
    assert weighted_sum_gcd(3, (1, 1)) == 12  # direct 3x3 table: six 1s, 2+3+1
    assert weighted_sum_gcd(2, (1, Fraction(1, 2))) == 2
    assert weighted_sum_gcd(1, (1, 1)) == 1
    assert weighted_sum_gcd(5, (0, 1)) == 0


def test_weighted_sum_lcm_frozen_values():
    assert weighted_sum_lcm(2, (1, 1)) == 7
    assert weighted_sum_lcm(1, (1, 1)) == 1
    assert weighted_sum_lcm(3, (1, 1)) == 28


def test_weighted_sums_match_direct_tables():
    for n, alpha in ((10, (1, 1)), (37, (1, 1)), (24, (Fraction(2, 3), 1)), (16, (1, Fraction(1, 4)))):
        box = Box.from_alpha(n, alpha)
        A, B = box.bounds
        direct_gcd = sum(gcd(x, y) for x in range(1, A + 1) for y in range(1, B + 1))
        direct_lcm = sum(lcm(x, y) for x in range(1, A + 1) for y in range(1, B + 1))
        assert weighted_sum_gcd(n, alpha) == direct_gcd, (n, alpha)
        assert weighted_sum_lcm(n, alpha) == direct_lcm, (n, alpha)


def test_weighted_sum_gcd_totient_identity():
    # sum gcd = sum_e phi(e) floor(A/e) floor(B/e), an independent route
    for n in (19, 64):
        direct = weighted_sum_gcd(n, (1, 1))
        via_phi = sum(
            euler_phi(e) * (n // e) * (n // e) for e in range(1, n + 1)
        )
        assert direct == via_phi


def test_weighted_sum_gcd_totient_identity_large_n():
    n, alpha = 10**5, (1, Fraction(1, 2))
    A, B = Box.from_alpha(n, alpha).bounds
    phi = list(range(A + 1))
    for p in range(2, A + 1):
        if phi[p] == p:
            for m in range(p, A + 1, p):
                phi[m] -= phi[m] // p
    assert weighted_sum_gcd(n, alpha) == sum(phi[e] * (A // e) * (B // e) for e in range(1, A + 1))


def test_weighted_sum_lcm_past_int64():
    # sum lcm is about 0.45 n**4, past int64 here
    n = 10**5
    _, J = _python_sieves(n)
    T = [q * (q + 1) // 2 for q in range(n + 1)]
    want = sum(J[m] * T[n // m] * T[n // m] for m in range(1, n + 1))
    assert want > 2**63
    assert weighted_sum_lcm(n, (1, 1)) == want


def test_weighted_sum_dimension_guard():
    with pytest.raises(ValueError):
        weighted_sum_gcd(5, (1, 1, 1))


def test_prod_of_empty_bounds_is_handled():
    # 0-bound boxes short-circuit to zero across every path
    c = TupleConstraint.pairwise(3)
    box = Box(bounds=(5, 0, 7), n=7)
    assert count_mobius(box, c).count == 0
    assert count_box_bruteforce(box, c).count == 0
    assert prod(box.bounds) == 0
