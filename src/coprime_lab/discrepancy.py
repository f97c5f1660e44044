"""Distributional comparisons between constrained tuples and the uniform law.

The empirical distribution of a finite point set in [1,n]^r is a step
function, constant on half-open grid cells; its sup-distance from the
product-uniform CDF is therefore attained (or approached) at cell corners.
``sup_discrepancy`` scans all corners with exact integer cross-multiplication,
so the reported maximizer is deterministic and the value is the true
supremum, not a sample.

``measure_cdf_error`` does the analogous job for the limiting CDFs of the
gcd and lcm weighted sums, on a rational grid of box shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log

import numpy as np

from . import counting
from .constraints import Box, CountResult, METHOD_PREFIX_GRID, TupleConstraint
from .errors import CapacityError

GRID_CELL_CAP = 10**9

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

    def count(self, bounds: tuple[int, ...]) -> CountResult:
        box = Box(bounds=bounds, n=self.n)
        return CountResult(
            count=int(self.cumulative[tuple(bounds)]),
            constraint=None,
            box=box,
            method=METHOD_PREFIX_GRID,
        )


def _occupancy(n: int, constraint: TupleConstraint) -> np.ndarray:
    """Boolean membership grid over [1,n]^r (index j holds value j+1)."""
    r = constraint.r
    idx = np.arange(1, n + 1, dtype=np.int64)
    masks = [counting._admissible(n, side)[1:] for side in constraint.effective_sides()]
    k = constraint.effective_k
    if r == 2:
        occ = np.gcd.outer(idx, idx) == 1
        occ &= masks[0][:, None]
        occ &= masks[1][None, :]
        return occ
    if r == 3 and k == 2:
        c01 = np.gcd.outer(idx, idx) == 1
        occ = c01[:, :, None] & c01[:, None, :] & c01[None, :, :]
        occ &= masks[0][:, None, None]
        occ &= masks[1][None, :, None]
        occ &= masks[2][None, None, :]
        return occ
    if r == 3 and k == 3:
        occ = np.empty((n, n, n), dtype=bool)
        for x1 in range(1, n + 1):
            occ[x1 - 1] = np.gcd.outer(np.gcd(x1, idx), idx) == 1
        occ &= masks[0][:, None, None]
        occ &= masks[1][None, :, None]
        occ &= masks[2][None, None, :]
        return occ
    # generic: vectorized membership over one x1-slab at a time
    tail = np.meshgrid(*([idx] * (r - 1)), indexing="ij")
    tail_cols = [t.reshape(-1) for t in tail]
    occ = np.empty((n,) * r, dtype=bool)
    for x1 in range(1, n + 1):
        cols = [np.full(len(tail_cols[0]), x1, dtype=np.int64)] + tail_cols
        occ[x1 - 1] = counting.member_bulk(cols, constraint).reshape((n,) * (r - 1))
    return occ


def build_grid(n: int, constraint: TupleConstraint) -> CountGrid:
    """Prefix-count grid for all boxes with bounds <= n in each coordinate."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    r = constraint.r
    if n**r > GRID_CELL_CAP:
        raise CapacityError(f"grid would need {n**r} cells, cap is {GRID_CELL_CAP}")
    occ = _occupancy(n, constraint)
    cum = np.zeros((n + 1,) * r, dtype=np.int32)
    cum[(slice(1, None),) * r] = occ
    for axis in range(r):
        np.cumsum(cum, axis=axis, out=cum)
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
    V = grid.cumulative.astype(np.int64)
    scale = n**r
    lo = np.ones((1,) * r, dtype=np.int64)
    hi = np.ones((1,) * r, dtype=np.int64)
    ax = np.arange(n + 1, dtype=np.int64)
    ax_cap = np.minimum(ax + 1, n)
    for j in range(r):
        shape = [1] * r
        shape[j] = n + 1
        lo = lo * ax.reshape(shape)
        hi = hi * ax_cap.reshape(shape)
    corner = np.abs(V * scale - total * lo)
    left = np.abs(V * scale - total * hi)
    ic = int(np.argmax(corner))
    il = int(np.argmax(left))
    best_c = int(corner.reshape(-1)[ic])
    best_l = int(left.reshape(-1)[il])
    if best_l > best_c:
        flat, flag = il, FLAG_LEFT_LIMIT
        best = best_l
    else:
        flat, flag = ic, FLAG_AT_CORNER
        best = best_c
    argmax = tuple(int(v) for v in np.unravel_index(flat, corner.shape))
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
    """
    if kind not in ("gcd", "lcm"):
        raise ValueError(f"kind must be 'gcd' or 'lcm', got {kind!r}")
    if grid_step < 1:
        raise ValueError(f"grid_step must be >= 1, got {grid_step}")
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
