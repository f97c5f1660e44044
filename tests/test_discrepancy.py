"""Occupancy grids, exact sup-discrepancy, and weighted-measure CDF errors."""

import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd, log

import numpy as np
import pytest

from coprime_lab import discrepancy
from coprime_lab.constraints import Box, CoprimeTo, DivisibleBy, Residue, TupleConstraint
from coprime_lab.counting import count_box_bruteforce, member, weighted_sum_gcd, weighted_sum_lcm
from coprime_lab.discrepancy import (
    FLAG_AT_CORNER,
    FLAG_LEFT_LIMIT,
    GRID_CELL_CAP,
    MEASURE_STEP_CAP,
    build_grid,
    measure_cdf_error,
    rate_scan,
    sup_discrepancy,
)
from coprime_lab.errors import CapacityError


# the default slab size, and two sizes that split n = 12 grids unevenly
# (r = 2: 3 rows a slab; r = 3: 2 rows; r >= 4: 1 row)
SLAB_SIZES = (discrepancy._SLAB_CELLS, 40, 400)

GRID_CLASSES = (
    TupleConstraint.mutual(2),
    TupleConstraint.pairwise(3),
    TupleConstraint.mutual(3),
    TupleConstraint.kwise(3, 3),
    TupleConstraint.pairwise(2, (DivisibleBy(2), None)),
    TupleConstraint.kwise(4, 3),
    TupleConstraint.pairwise(4),
    TupleConstraint.mutual(3, (CoprimeTo(6), Residue(5, 2), None)),
    TupleConstraint.kwise(3, 2, (CoprimeTo(6), DivisibleBy(4), Residue(6, 3))),
)


def _membership_grid(n, constraint):
    """The prefix counts over [0,n]^r from ``member`` and ``np.cumsum``, with
    none of the slab code."""
    r = constraint.r
    grid = np.zeros((n + 1,) * r, dtype=np.int64)
    for x in product(range(1, n + 1), repeat=r):
        grid[x] = member(x, constraint)
    for axis in range(r):
        grid = np.cumsum(grid, axis=axis)
    return grid


def test_grid_cumulative_matches_membership(monkeypatch):
    n = 12
    for constraint in GRID_CLASSES:
        want = _membership_grid(n, constraint)
        for slab_cells in SLAB_SIZES:
            monkeypatch.setattr(discrepancy, "_SLAB_CELLS", slab_cells)
            grid = build_grid(n, constraint)
            assert np.array_equal(grid, want), (constraint.describe(), slab_cells)


def test_scan_of_a_membership_grid_equals_rate_scan(monkeypatch):
    # the grid is built without _prefix_slabs, which rate_scan runs on
    n = 12
    for constraint in GRID_CLASSES:
        grid = _membership_grid(n, constraint)
        for slab_cells in SLAB_SIZES:
            monkeypatch.setattr(discrepancy, "_SLAB_CELLS", slab_cells)
            want = sup_discrepancy(grid, constraint)
            assert rate_scan((n,), constraint) == [want], (constraint.describe(), slab_cells)


def test_sup_discrepancy_refuses_a_grid_that_is_not_a_cube():
    for shape in ((3, 4), (3, 3, 2), (1, 1), (1,), ()):
        with pytest.raises(ValueError, match="cube"):
            sup_discrepancy(np.ones(shape, dtype=np.int32))


def test_grid_frozen_corner():
    grid = build_grid(4, TupleConstraint.mutual(2))
    assert int(grid[4, 4]) == 11
    assert int(grid[0, 4]) == 0


def test_grid_cell_cap():
    with pytest.raises(CapacityError):
        build_grid(int(GRID_CELL_CAP ** (1 / 3)) + 10, TupleConstraint.mutual(3))


def test_sup_discrepancy_degenerate_n1():
    report = sup_discrepancy(build_grid(1, TupleConstraint.mutual(2)))
    assert report.value == 1.0
    assert report.argmax == (0, 0)
    assert report.flag == FLAG_LEFT_LIMIT
    assert report.total == 1
    assert report.rate_ratio is None


def test_sup_discrepancy_against_dense_grid():
    """Bracket the exact sup by sampling the continuous parameter on a fine
    grid: the sampled max can undershoot by at most r * step."""
    for constraint, n in ((TupleConstraint.mutual(2), 24), (TupleConstraint.pairwise(3), 8)):
        r = constraint.r
        grid = build_grid(n, constraint)
        report = sup_discrepancy(grid, constraint)
        total = report.total
        step = 1.0 / (4 * n)
        sampled = Fraction(0)
        axis = [Fraction(i, 4 * n) for i in range(0, 4 * n + 1)]
        for t in product(axis, repeat=r):
            idx = tuple(int(ti * n) for ti in t)
            emp = Fraction(int(grid[idx]), total)
            vol = Fraction(1)
            for ti in t:
                vol *= ti
            dev = abs(emp - vol)
            if dev > sampled:
                sampled = dev
        assert float(sampled) <= report.value + 1e-12
        assert report.value <= float(sampled) + r * step


def test_sup_discrepancy_attained_value_is_consistent():
    n = 16
    constraint = TupleConstraint.mutual(2)
    grid = build_grid(n, constraint)
    report = sup_discrepancy(grid, constraint)
    m = report.argmax
    emp = Fraction(int(grid[m]), report.total)
    if report.flag == FLAG_AT_CORNER:
        vol = Fraction(m[0], n) * Fraction(m[1], n)
    else:
        vol = Fraction(min(m[0] + 1, n), n) * Fraction(min(m[1] + 1, n), n)
    assert abs(float(emp - vol)) == pytest.approx(report.value, abs=1e-15)


def test_sup_discrepancy_lower_bound_witness():
    # the empty slab x1 <= 0 gives |0 - t2...tr/n| -> 1/n at the left limit,
    # so the sup is always at least 1/n > 1/(2n)
    for constraint in (TupleConstraint.mutual(2), TupleConstraint.mutual(3)):
        for n in (8, 32):
            report = sup_discrepancy(build_grid(n, constraint), constraint)
            assert report.value >= 1.0 / n - 1e-12
            assert report.value > 1.0 / (2 * n)


def test_empty_grid_raises():
    # an empty point set: nothing <= 4 is divisible by 5
    grid = build_grid(4, TupleConstraint.pairwise(2, (DivisibleBy(5), None)))
    with pytest.raises(ValueError):
        sup_discrepancy(grid)


def test_rate_scan_and_ratio_normalization():
    c2 = TupleConstraint.mutual(2)
    reports = rate_scan((16, 64), c2)
    assert [rep.n for rep in reports] == [16, 64]
    for rep in reports:
        assert rep.rate_ratio == pytest.approx(rep.value * rep.n / log(rep.n))
    c3 = TupleConstraint.mutual(3)
    rep3 = rate_scan((16,), c3)[0]
    assert rep3.rate_ratio == pytest.approx(rep3.value * 16)
    pc = TupleConstraint.pairwise(3)
    rep_pc = rate_scan((16,), pc)[0]
    assert rep_pc.rate_ratio == pytest.approx(rep_pc.value * 16 / log(16) ** 2)


def test_measure_cdf_error_small_case():
    # n=4, step 2: check the gcd variant against a direct computation
    n, step = 4, 2
    base = weighted_sum_gcd(n, (1, 1))
    worst = Fraction(0)
    for i in (1, 2):
        for j in (1, 2):
            a, b = Fraction(i, 2), Fraction(j, 2)
            got = Fraction(weighted_sum_gcd(n, (a, b)), base)
            worst = max(worst, abs(got - a * b))
    assert measure_cdf_error("gcd", n, step) == pytest.approx(float(worst))


def test_measure_cdf_error_lcm_small_case():
    n, step = 6, 3
    base = weighted_sum_lcm(n, (1, 1))
    worst = Fraction(0)
    for i in range(1, 4):
        for j in range(1, 4):
            a, b = Fraction(i, 3), Fraction(j, 3)
            got = Fraction(weighted_sum_lcm(n, (a, b)), base)
            worst = max(worst, abs(got - (a * b) ** 2))
    assert measure_cdf_error("lcm", n, step) == pytest.approx(float(worst))


def test_measure_cdf_error_gcd_rate():
    # the paper's rate: the gcd measure's CDF error decays like 1/log n
    assert measure_cdf_error("gcd", 10**5, 8) == 0.025720110252520825
    assert 0.29 <= measure_cdf_error("gcd", 10**6, 8) * log(10**6) <= 0.31


def test_measure_cdf_error_validation():
    with pytest.raises(ValueError):
        measure_cdf_error("max", 10, 2)
    with pytest.raises(ValueError):
        measure_cdf_error("gcd", 10, 0)
    with pytest.raises(CapacityError):
        measure_cdf_error("gcd", 10, MEASURE_STEP_CAP + 1)
    assert 0 < measure_cdf_error("lcm", 4, MEASURE_STEP_CAP) < 1


def test_grid_matches_bruteforce_counts():
    c = TupleConstraint.pairwise(3)
    n = 20
    grid = build_grid(n, c)
    for bounds in ((20, 20, 20), (7, 13, 20), (1, 1, 1)):
        want = count_box_bruteforce(Box(bounds=bounds, n=n), c).count
        assert int(grid[bounds]) == want


def _whole_grid_sup(grid):
    """The whole-array form of the sup scan: every corner and left-limit
    numerator at once, then the first maximizer in row-major order."""
    n, r = len(grid) - 1, grid.ndim
    total = int(grid[(-1,) * r])
    scale = n**r
    lo = np.ones((1,) * r, dtype=np.int64)
    hi = np.ones((1,) * r, dtype=np.int64)
    ax = np.arange(n + 1, dtype=np.int64)
    for j in range(r):
        shape = [1] * r
        shape[j] = n + 1
        lo = lo * ax.reshape(shape)
        hi = hi * np.minimum(ax + 1, n).reshape(shape)
    v = grid.astype(np.int64) * scale
    corner = np.abs(v - total * lo)
    left = np.abs(v - total * hi)
    ic, il = int(np.argmax(corner)), int(np.argmax(left))
    if left.flat[il] > corner.flat[ic]:
        best, flat, flag = int(left.flat[il]), il, FLAG_LEFT_LIMIT
    else:
        best, flat, flag = int(corner.flat[ic]), ic, FLAG_AT_CORNER
    argmax = tuple(int(i) for i in np.unravel_index(flat, corner.shape))
    return Fraction(best, total * scale), argmax, flag, total


def test_slab_scan_matches_whole_grid_formula(monkeypatch):
    cases = [(c, n) for c in GRID_CLASSES for n in (1, 2, 7, 12)]
    cases += [
        # maxima tied across rows (mutual r=2 at 10 and 22, 2 | x1 at 6),
        # a corner value tied with a left limit (x2 odd at 10), a corner win
        (TupleConstraint.mutual(2), 10),
        (TupleConstraint.mutual(2), 22),
        (TupleConstraint.pairwise(2, (DivisibleBy(2), None)), 6),
        (TupleConstraint.mutual(2, (None, CoprimeTo(2))), 10),
        (TupleConstraint.pairwise(2, (Residue(5, 0), Residue(4, 3))), 16),
        (TupleConstraint.kwise(5, 3), 6),
        (TupleConstraint.pairwise(2, (Residue(3, 1), CoprimeTo(10))), 29),
        (TupleConstraint.kwise(4, 3, (None, DivisibleBy(2), None, CoprimeTo(3))), 9),
    ]
    for constraint, n in cases:
        grid = build_grid(n, constraint)
        if int(grid[(-1,) * grid.ndim]) == 0:
            continue
        value, argmax, flag, total = _whole_grid_sup(grid)
        for slab_cells in SLAB_SIZES:
            monkeypatch.setattr(discrepancy, "_SLAB_CELLS", slab_cells)
            report = sup_discrepancy(grid, constraint)
            assert (report.value, report.argmax, report.flag, report.total) == (
                float(value),
                argmax,
                flag,
                total,
            ), (constraint.describe(), n, slab_cells)


def test_grid_and_scan_peak_memory():
    """The build stays near one int32 grid and the scan below one (the
    whole-array forms peaked at 1.24x and 12x the grid for this size)."""
    constraint = TupleConstraint.mutual(3)
    build_grid(2, constraint)  # warm the shared prime table outside the trace
    tracemalloc.start()
    try:
        grid = build_grid(128, constraint)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        sup_discrepancy(grid, constraint)
        _, scan_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = grid.nbytes
    assert scan_peak - base < size
    assert build_peak < 1.2 * size


def _random_class(rng, r):
    kind = rng.choice(("mutual", "pairwise", "kwise"))
    shape = rng.choice(("equal", "mixed", "absent"))

    def side():
        m = rng.choice((2, 3, 4, 6))
        return rng.choice((None, CoprimeTo(m), DivisibleBy(m), Residue(m, rng.randrange(m))))

    if shape == "equal":
        sides = (side(),) * r
    elif shape == "mixed":
        sides = tuple(side() for _ in range(r))
    else:
        sides = ()
    if kind == "kwise":
        return TupleConstraint.kwise(r, rng.randint(2, r), sides)
    return getattr(TupleConstraint, kind)(r, sides)


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_rate_scan_equals_sup_discrepancy_of_build_grid(monkeypatch):
    # symmetric classes with maxima tied across rows (mutual r=2 at 10 and
    # 22), then random ones; small slabs make the wedge skip cells
    cases = [
        (TupleConstraint.mutual(2), (22, 10, 29)),
        (TupleConstraint.pairwise(3), (12, 7)),
        (TupleConstraint.kwise(4, 3, (CoprimeTo(3),) * 4), (6, 5)),
        (TupleConstraint.mutual(3, (Residue(4, 1),) * 3), (13,)),
    ]
    rng = random.Random(13)
    top = {2: 30, 3: 12, 4: 7, 5: 5}
    for trial in range(48):
        r = 2 + trial % 4
        constraint = _random_class(rng, r)
        ns = [rng.randint(1, top[r]) for _ in range(3)]
        ns += [ns[0]] + [1] * (trial % 3 == 0)  # a repeated scale, sometimes n = 1
        rng.shuffle(ns)
        cases.append((constraint, tuple(ns)))
    for constraint, ns in cases:
        want = _outcome(
            lambda: [sup_discrepancy(build_grid(n, constraint), constraint) for n in ns]
        )
        for slab_cells in SLAB_SIZES:
            monkeypatch.setattr(discrepancy, "_SLAB_CELLS", slab_cells)
            got = _outcome(lambda: rate_scan(ns, constraint))
            assert got == want, (constraint.describe(), ns, slab_cells)


def test_rate_scan_refusals_match_the_grid():
    empty = TupleConstraint.pairwise(2, (DivisibleBy(5), None))
    with pytest.raises(ValueError, match="empty point set"):
        sup_discrepancy(build_grid(4, empty))
    with pytest.raises(ValueError, match="empty point set"):
        rate_scan((4, 9), empty)
    too_big = int(GRID_CELL_CAP ** (1 / 3)) + 10
    with pytest.raises(CapacityError) as grid_refusal:
        build_grid(too_big, TupleConstraint.mutual(3))
    with pytest.raises(CapacityError) as scan_refusal:
        rate_scan((8, too_big), TupleConstraint.mutual(3))
    assert str(scan_refusal.value) == str(grid_refusal.value)
    with pytest.raises(ValueError, match="n must be >= 1"):
        rate_scan((8, 0), TupleConstraint.mutual(2))
    assert rate_scan((), TupleConstraint.mutual(2)) == []


def test_rate_scan_peak_memory_stays_below_one_grid():
    # build_grid(256) for mutual r = 3 alone is a 68 MB int32 grid
    constraint = TupleConstraint.mutual(3)
    build_grid(2, constraint)  # warm the shared prime table outside the trace
    tracemalloc.start()
    try:
        reports = rate_scan((64, 128, 256), constraint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [rep.n for rep in reports] == [64, 128, 256]
    assert peak < 8 * 2**20
