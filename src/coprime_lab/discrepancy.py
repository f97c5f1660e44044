"""Distributional comparisons between constrained tuples and the uniform law.

The empirical distribution of a finite point set in [1,n]^r is a step
function, constant on half-open grid cells; its sup-distance from the
product-uniform CDF is therefore attained (or approached) at cell corners.
``sup_discrepancy`` scans all corners with exact integer cross-multiplication,
so the reported maximizer is deterministic and the value is the true
supremum, not a sample.

Both the prefix grid and the scan walk slabs of about ``_SLAB_CELLS`` cells
along the first axis.  ``build_grid`` fills its int32 grid in place: per slab,
membership is marked from the class's definition (for each prime p <= n and
each constrained subset S, the strided block of multiples of p on S's axes is
cleared, and the side masks are ANDed in), then summed.  ``sup_discrepancy``
scales each slab to int64 in one reused buffer and keeps a running maximum.
So the memory a grid costs is the grid itself, 4 bytes per cell, plus a few
MB for one slab: about 4 GB at ``GRID_CELL_CAP``.  Time is about 22 ns per
cell (r = 3, n = 630, a 1 GB grid: 3.8 s to build, 1.7 s to scan, peak RSS
1.0 GB on a 2-vCPU machine), so a grid at the cap takes about 20 s.

``measure_cdf_error`` does the analogous job for the limiting CDFs of the
gcd and lcm weighted sums, on a rational grid of box shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log

import numpy as np

from . import counting
from .constraints import TupleConstraint
from .errors import CapacityError

GRID_CELL_CAP = 10**9
# measure_cdf_error makes step**2 weighted sums: at this cap 1024 of them,
# 0.11 s at n = 64 and 0.23 s at n = 1024 for the gcd measure on 2 vCPUs
MEASURE_STEP_CAP = 32
_SLAB_CELLS = 1 << 18

FLAG_AT_CORNER = "AtCorner"
FLAG_LEFT_LIMIT = "LeftLimit"


@dataclass(frozen=True)
class CountGrid:
    """Cumulative counts: ``cumulative[m]`` = #points with x_j <= m_j for all j."""

    n: int
    r: int
    cumulative: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.n + 1,) * self.r
        if self.cumulative.shape != expected:
            raise ValueError(
                f"cumulative grid must have shape {expected}, got {self.cumulative.shape}"
            )


def _slabs(n: int, r: int):
    """Row ranges ``[a, b)`` of axis 0 of an ``(n+1)^r`` grid, each about
    ``_SLAB_CELLS`` cells (at least one row)."""
    rows = max(1, _SLAB_CELLS // (n + 1) ** (r - 1))
    for a in range(0, n + 1, rows):
        yield a, min(a + rows, n + 1)


def _multiples_of(p: int, axes: tuple[int, ...], ndim: int) -> tuple[slice, ...]:
    """Index of the cells whose values on ``axes`` are all multiples of p,
    in a grid whose index j holds value j + 1."""
    return tuple(slice(p - 1, None, p) if j in axes else slice(None) for j in range(ndim))


def _occupancy_slabs(n: int, constraint: TupleConstraint):
    """Membership over [1,n]^r, one ``_slabs`` row range at a time.

    Yields ``(a, b, occ)``: ``occ[i]`` is the boolean membership of the tuples
    with x_1 = a + i (x_1 = 0 holds no tuple), index j on the other axes
    holding value j + 1.  A tuple fails when some prime p <= n divides every
    coordinate of some constrained subset S, so for each p and S the strided
    block of multiples of p on S's axes is cleared, and the side masks are
    ANDed in.  Subsets without the first axis are marked once, on the tail
    grid of the other axes; a slab visits only the primes that divide one
    of its first coordinates.
    """
    r = constraint.r
    masks = [counting._admissible(n, side) for side in constraint.sides]
    primes = counting.shared_tables(n).primes
    primes = primes[: int(np.searchsorted(primes, n, side="right"))]
    tail = np.ones((n,) * (r - 1), dtype=bool)
    for axis, mask in enumerate(masks[1:]):
        tail &= mask[1:].reshape([n if j == axis else 1 for j in range(r - 1)])
    head = []  # subsets with the first axis, as axes of the tail grid
    for subset in constraint.subsets():
        axes = tuple(j - 1 for j in subset)
        if subset[0] == 0:
            head.append(axes[1:])
            continue
        for p in primes.tolist():
            tail[_multiples_of(p, axes, r - 1)] = False
    for a, b in _slabs(n, r):
        occ = tail & masks[0][a:b].reshape((b - a,) + (1,) * (r - 1))
        for p in primes[(b - 1) // primes * primes >= max(a, 1)].tolist():
            for axes in head:
                occ[(slice(-a % p, None, p),) + _multiples_of(p, axes, r - 1)] = False
        yield a, b, occ


def build_grid(n: int, constraint: TupleConstraint) -> CountGrid:
    """Prefix-count grid for all boxes with bounds <= n in each coordinate.

    Filled in place one slab of rows at a time: membership, prefix sums over
    axes 1..r-1, the finished row before the slab, then prefix sums down
    axis 0.  No full-size temporary is made beside the int32 grid.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    r = constraint.r
    if (n + 1) ** r > GRID_CELL_CAP:
        raise CapacityError(f"grid would need {(n + 1) ** r} cells, cap is {GRID_CELL_CAP}")
    cum = np.zeros((n + 1,) * r, dtype=np.int32)
    inner = (slice(None),) + (slice(1, None),) * (r - 1)
    for a, b, occ in _occupancy_slabs(n, constraint):
        block = cum[a:b]
        block[inner] = occ
        for axis in range(1, r):
            np.cumsum(block, axis=axis, dtype=np.int32, out=block)
        if a:
            block[0] += cum[a - 1]
        np.cumsum(block, axis=0, dtype=np.int32, out=block)
    return CountGrid(n=n, r=r, cumulative=cum)


@dataclass(frozen=True)
class DiscrepancyReport:
    """Exact sup-distance between the empirical and product-uniform CDFs."""

    n: int
    value: float
    argmax: tuple[int, ...]
    flag: str  # AtCorner: attained at argmax/n; LeftLimit: approached from below
    total: int
    rate_ratio: float | None


def sup_discrepancy(
    grid: CountGrid, constraint: TupleConstraint | None = None
) -> DiscrepancyReport:
    """Exact sup over t in [0,1]^r of |empirical CDF - prod t_j|.

    The empirical CDF is constant on cells, so per corner index m the two
    candidates are the attained value at t = m/n and the left limit toward
    the cell's upper corner; both are compared by integer cross-multiplication
    (numerators over the common denominator total * n^r).  The argmax is the
    first maximizer in row-major order, corner candidates preferred.
    """
    n, r = grid.n, grid.r
    total = int(grid.cumulative[(-1,) * r])
    if total == 0:
        raise ValueError("discrepancy is undefined for an empty point set")
    scale = n**r
    ax = np.arange(n + 1, dtype=np.int64)
    ax_cap = np.minimum(ax + 1, n)
    # total * prod m_j and total * prod min(m_j + 1, n) over the axes j >= 1
    tail_lo = np.full((1,) * (r - 1), total, dtype=np.int64)
    tail_hi = tail_lo
    for j in range(r - 1):
        shape = [1] * (r - 1)
        shape[j] = n + 1
        tail_lo = tail_lo * ax.reshape(shape)
        tail_hi = tail_hi * ax_cap.reshape(shape)
    row_cells = (n + 1) ** (r - 1)
    # two int64 slabs, reused: the scaled counts and one deviation at a time
    buf = np.empty((2, next(_slabs(n, r))[1]) + (n + 1,) * (r - 1), dtype=np.int64)
    # running (numerator, flat index) per candidate kind; a slab replaces it
    # only when it is strictly larger, so the first maximizer is kept
    top = [(-1, 0), (-1, 0)]
    for a, b in _slabs(n, r):
        v, dev = buf[:, : b - a]
        np.multiply(grid.cumulative[a:b], scale, out=v, dtype=np.int64)
        rows = (b - a,) + (1,) * (r - 1)
        for kind, (head, tail) in enumerate(((ax, tail_lo), (ax_cap, tail_hi))):
            np.multiply(head[a:b].reshape(rows), tail, out=dev)
            np.subtract(v, dev, out=dev)
            np.abs(dev, out=dev)
            i = int(np.argmax(dev))
            if dev.flat[i] > top[kind][0]:
                top[kind] = (int(dev.flat[i]), a * row_cells + i)
    (best_c, flat_c), (best_l, flat_l) = top
    if best_l > best_c:
        best, flat, flag = best_l, flat_l, FLAG_LEFT_LIMIT
    else:
        best, flat, flag = best_c, flat_c, FLAG_AT_CORNER
    argmax = tuple(int(v) for v in np.unravel_index(flat, grid.cumulative.shape))
    value = float(Fraction(best, total * scale))
    return DiscrepancyReport(
        n=n,
        value=value,
        argmax=argmax,
        flag=flag,
        total=total,
        rate_ratio=_rate_ratio(value, n, constraint),
    )


def _rate_ratio(value: float, n: int, constraint: TupleConstraint | None) -> float | None:
    """value * n, normalized by the class's expected logarithmic factor."""
    if n <= 1:
        return None
    if constraint is not None and constraint.effective_k == 2:
        return value * n / log(n) ** (constraint.r - 1)
    return value * n


def rate_scan(
    ns: tuple[int, ...], constraint: TupleConstraint
) -> list[DiscrepancyReport]:
    """Sup-discrepancy reports across scales, for convergence-rate checks."""
    out = []
    for n in ns:
        grid = build_grid(n, constraint)
        out.append(sup_discrepancy(grid, constraint))
    return out


def measure_cdf_error(kind: str, n: int, grid_step: int) -> float:
    """Sup over a rational (a,b) grid of |S_n(a,b)/S_n(1,1) - limit CDF|.

    kind "gcd": S is the gcd-weighted sum, limit a*b.
    kind "lcm": S is the lcm-weighted sum, limit (a*b)^2.
    Evaluated exactly in rationals before the final float conversion.
    ``grid_step`` may be at most ``MEASURE_STEP_CAP``, and the step**2 + 1
    sums, each costing about n**(2/3), may do at most the work of two sums
    at ``counting.MUTUAL_BOUND_CAP``.
    """
    if kind not in ("gcd", "lcm"):
        raise ValueError(f"kind must be 'gcd' or 'lcm', got {kind!r}")
    if grid_step < 1:
        raise ValueError(f"grid_step must be >= 1, got {grid_step}")
    if grid_step > MEASURE_STEP_CAP:
        raise CapacityError(f"grid_step {grid_step} exceeds the cap {MEASURE_STEP_CAP}")
    # (step**2 + 1) n**(2/3) > 2 cap**(2/3), cubed to stay in integers
    if (grid_step**2 + 1) ** 3 * n**2 > 8 * counting.MUTUAL_BOUND_CAP**2:
        raise CapacityError(
            f"{grid_step**2 + 1} weighted sums at n = {n} exceed the work of two "
            f"sums at the cap {counting.MUTUAL_BOUND_CAP}"
        )
    fn = counting.weighted_sum_gcd if kind == "gcd" else counting.weighted_sum_lcm
    base = fn(n, (1, 1))
    worst = Fraction(0)
    for i in range(1, grid_step + 1):
        a = Fraction(i, grid_step)
        for j in range(1, grid_step + 1):
            b = Fraction(j, grid_step)
            limit = a * b if kind == "gcd" else (a * b) ** 2
            err = abs(Fraction(fn(n, (a, b)), base) - limit)
            if err > worst:
                worst = err
    return float(worst)
