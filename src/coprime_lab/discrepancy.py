"""Distributional comparisons between constrained tuples and the uniform law.

The empirical distribution of a finite point set in [1,n]^r is a step
function, constant on half-open grid cells; its sup-distance from the
product-uniform CDF is therefore attained (or approached) at cell corners.
``sup_discrepancy`` scans all corners with exact integer cross-multiplication,
so the reported maximizer is deterministic and the value is the true
supremum, not a sample.

Everything walks slabs of about ``_SLAB_CELLS`` cells along the first axis.
Membership is marked per slab from the class's definition (for each prime
p <= n and each constrained subset S, the strided block of multiples of p on
S's axes is cleared, and the side masks are ANDed in).  The prefix counts of
a slab take one cumulative sum per inner axis and a running add of the row
before along the first axis.  The scan keeps a running maximum over the
slabs in two reused int64 buffers.

Only ``build_grid`` holds (n+1)^r cells: it returns the prefix counts as an
int32 array of 4 bytes a cell, which ``sup_discrepancy`` scans.
``rate_scan`` stores no grid: the grid at a smaller scale is a corner of the
grid at the largest, so one membership pass counts every scale's total and
one prefix sweep over a reused slab buffer feeds every scale's scan.  Its
memory is a few slabs and rows of the largest grid, and ``GRID_CELL_CAP`` on
the (n+1)^r cells of the largest scale bounds its time.  On a 2-vCPU
machine, scans just under the cap took 1.1 s (mutual r = 3, n = 478) to
3.4 s (mutual r = 5, n = 39, unequal sides) as cold processes, at
37-200 MB.

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

# above 101**4, the r = 4, n = 100 grid; scans just under it took 1.1-3.4 s cold on 2 vCPUs
GRID_CELL_CAP = 110_000_000
# measure_cdf_error makes step**2 + 1 weighted sums on one summatory: at this
# cap 1025 of them, 0.04 s at n = 64 and at n = 1024 on 2 vCPUs
MEASURE_STEP_CAP = 32
_SLAB_CELLS = 1 << 18

FLAG_AT_CORNER = "AtCorner"
FLAG_LEFT_LIMIT = "LeftLimit"


def _check_scale(n: int, r: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if (n + 1) ** r > GRID_CELL_CAP:
        raise CapacityError(f"grid would need {(n + 1) ** r} cells, cap is {GRID_CELL_CAP}")


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
    counting._check_subset_cap(constraint)
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


def _prefix_slabs(n: int, constraint: TupleConstraint):
    """Prefix counts over [0,n]^r, one ``_slabs`` row range at a time.

    Yields ``(a, b, block)``: ``block[i]`` is the int32 row a + i of the
    cumulative grid, in one buffer that the next slab reuses, so a caller is
    done with ``block`` before it asks for the next one.  The membership is
    copied in and each inner axis takes one ``cumsum`` in place (a ``cumsum``
    that casts the booleans itself took up to three times as long); along
    axis 0 each row adds the finished row before it, which costs far less
    than a ``cumsum`` down that axis.
    """
    r = constraint.r
    inner = (slice(None),) + (slice(1, None),) * (r - 1)
    # row 0 of the buffer carries the last row of the slab before
    buf = np.zeros((next(_slabs(n, r))[1] + 1,) + (n + 1,) * (r - 1), dtype=np.int32)
    for a, b, occ in _occupancy_slabs(n, constraint):
        block = buf[1 : 1 + b - a]
        block[inner] = occ
        for axis in range(1, r):
            np.cumsum(block, axis=axis, out=block)
        for i in range(1, 1 + b - a):
            buf[i] += buf[i - 1]
        yield a, b, block
        buf[0] = block[-1]


def build_grid(n: int, constraint: TupleConstraint) -> np.ndarray:
    """Prefix counts for all boxes with bounds <= n in each coordinate, as an
    int32 (n+1)^r array: ``cum[m]`` = #points with x_j <= m_j for all j.

    Each slab of ``_prefix_slabs`` is copied in, so the build holds one grid
    and one slab.
    """
    _check_scale(n, constraint.r)
    cum = np.empty((n + 1,) * constraint.r, dtype=np.int32)
    for a, b, block in _prefix_slabs(n, constraint):
        cum[a:b] = block
    return cum


@dataclass(frozen=True)
class DiscrepancyReport:
    """Exact sup-distance between the empirical and product-uniform CDFs."""

    n: int
    value: float
    argmax: tuple[int, ...]
    flag: str  # AtCorner: attained at argmax/n; LeftLimit: approached from below
    total: int
    rate_ratio: float | None


class _SupScan:
    """The running sup of one scale's corners, fed prefix slabs in row order.

    Per corner index m the two candidates are the attained value at t = m/n
    and the left limit toward the cell's upper corner; both are compared by
    integer cross-multiplication, as numerators |cum[m] n^r - total prod h_j|
    over the common denominator total * n^r, with h_j = m_j for the corner
    and min(m_j + 1, n) for the left limit.  Each candidate kind keeps its
    first maximizer in row-major order: a slab replaces it only when strictly
    larger.  With ``wedge``, the caller vouches that the grid is symmetric in
    its axes; then the first maximizer is sorted ascending, so the slab that
    starts at row a is scanned only at inner indices >= a.
    """

    def __init__(self, n: int, r: int, total: int, wedge: bool) -> None:
        if total == 0:
            raise ValueError("discrepancy is undefined for an empty point set")
        self.n, self.r, self.total, self.wedge = n, r, total, wedge
        self.scale = n**r
        ax = np.arange(n + 1, dtype=np.int64)
        self.heads = (ax, np.minimum(ax + 1, n))
        # total * prod h_j over the axes j >= 1, per kind
        self.tails = []
        for head in self.heads:
            tail = np.full((1,) * (r - 1), total, dtype=np.int64)
            for j in range(r - 1):
                shape = [1] * (r - 1)
                shape[j] = n + 1
                tail = tail * head.reshape(shape)
            self.tails.append(tail)
        self.top = [(-1, ()), (-1, ())]

    def feed(self, a: int, block: np.ndarray, buf: np.ndarray) -> None:
        """Scan the rows of ``block`` (cumulative rows a, a+1, ...) that lie
        in this scale's grid, at inner indices <= n.  ``buf`` holds two int64
        arrays of at least ``block.size`` cells each."""
        n, r = self.n, self.r
        lo = a if self.wedge else 0
        rows = min(len(block), n + 1 - a)
        view = block[(slice(rows),) + (slice(lo, n + 1),) * (r - 1)]
        v, dev = (flat[: view.size].reshape(view.shape) for flat in buf)
        np.multiply(view, self.scale, out=v, dtype=np.int64)
        for kind, (head, tail) in enumerate(zip(self.heads, self.tails)):
            head = head[a : a + rows].reshape((rows,) + (1,) * (r - 1))
            np.multiply(head, tail[(slice(lo, None),) * (r - 1)], out=dev)
            np.subtract(v, dev, out=dev)
            np.abs(dev, out=dev)
            i = int(np.argmax(dev))
            if dev.flat[i] > self.top[kind][0]:
                at = [int(j) for j in np.unravel_index(i, dev.shape)]
                self.top[kind] = (int(dev.flat[i]), (a + at[0],) + tuple(lo + j for j in at[1:]))

    def report(self, constraint: TupleConstraint | None) -> DiscrepancyReport:
        (best_c, at_c), (best_l, at_l) = self.top
        if best_l > best_c:
            best, argmax, flag = best_l, at_l, FLAG_LEFT_LIMIT
        else:
            best, argmax, flag = best_c, at_c, FLAG_AT_CORNER
        value = float(Fraction(best, self.total * self.scale))
        return DiscrepancyReport(
            n=self.n,
            value=value,
            argmax=argmax,
            flag=flag,
            total=self.total,
            rate_ratio=_rate_ratio(value, self.n, constraint),
        )


def _scan_buffer(n: int, r: int) -> np.ndarray:
    """Two int64 slabs of an (n+1)^r grid: the scaled counts and one
    deviation at a time."""
    return np.empty((2, next(_slabs(n, r))[1] * (n + 1) ** (r - 1)), dtype=np.int64)


def sup_discrepancy(
    cumulative: np.ndarray, constraint: TupleConstraint | None = None
) -> DiscrepancyReport:
    """Exact sup over t in [0,1]^r of |empirical CDF - prod t_j|, for the
    prefix counts ``cumulative`` of ``build_grid``, an (n+1)^r cube with n >= 1.

    Scans every corner of the grid (``_SupScan``), since nothing here says
    the grid is symmetric.  The argmax is the first maximizer in row-major
    order, corner candidates preferred; ``constraint`` only normalizes the
    rate ratio.
    """
    shape = cumulative.shape
    if not shape or shape != (shape[0],) * len(shape) or shape[0] < 2:
        raise ValueError(f"cumulative grid must be a cube with sides >= 2, got shape {shape}")
    n, r = shape[0] - 1, len(shape)
    scan = _SupScan(n, r, int(cumulative[(-1,) * r]), wedge=False)
    buf = _scan_buffer(n, r)
    for a, b in _slabs(n, r):
        scan.feed(a, cumulative[a:b], buf)
    return scan.report(constraint)


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
    """Sup-discrepancy reports across scales, for convergence-rate checks.

    Each report equals ``sup_discrepancy(build_grid(n, constraint),
    constraint)``, but no grid is stored: the grid at n is the corner
    [0,n]^r of the grid at N = max(ns).  One membership pass at N counts
    every scale's total, then one prefix sweep at N feeds every scale's
    scan.  When every side is the same the class is symmetric in its
    coordinates, so the scans skip the cells off the wedge (``_SupScan``).
    """
    r = constraint.r
    for n in ns:
        _check_scale(n, r)
    if not ns:
        return []
    top_n = max(ns)
    totals = dict.fromkeys(ns, 0)
    for a, _, occ in _occupancy_slabs(top_n, constraint):
        for n in totals:
            if a <= n:
                corner = (slice(n + 1 - a),) + (slice(n),) * (r - 1)
                totals[n] += int(np.count_nonzero(occ[corner]))
    wedge = len(set(constraint.sides)) == 1
    scans = [_SupScan(n, r, total, wedge) for n, total in totals.items()]
    buf = _scan_buffer(top_n, r)
    for a, _, block in _prefix_slabs(top_n, constraint):
        for scan in scans:
            if a <= scan.n:
                scan.feed(a, block, buf)
    reports = {scan.n: scan.report(constraint) for scan in scans}
    return [reports[n] for n in ns]


def measure_cdf_error(kind: str, n: int, grid_step: int) -> float:
    """Sup over a rational (a,b) grid of |S_n(a,b)/S_n(1,1) - limit CDF|.

    kind "gcd": S is the gcd-weighted sum, limit a*b.
    kind "lcm": S is the lcm-weighted sum, limit (a*b)^2.
    Evaluated exactly in rationals before the final float conversion.
    The step**2 + 1 sums run on one summatory over their bounds
    floor(n i / step).  ``grid_step`` may be at most ``MEASURE_STEP_CAP``,
    and the sums, each counted at about n**(2/3), may do at most the work of
    two sums at ``counting.MUTUAL_BOUND_CAP``.
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
    steps = [Fraction(i, grid_step) for i in range(1, grid_step + 1)]
    grid = [(a, b) for a in steps for b in steps]
    base, *sums = counting.weighted_sums(kind, n, [(1, 1), *grid])
    worst = Fraction(0)
    for (a, b), S in zip(grid, sums):
        limit = a * b if kind == "gcd" else (a * b) ** 2
        err = abs(Fraction(S, base) - limit)
        if err > worst:
            worst = err
    return float(worst)
