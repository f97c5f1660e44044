"""Density constants as validated float enclosures.

Every constant here is produced as an ``Interval`` [lo, hi] that provably
contains the true real number: truncated sums/products carry an explicit tail
bracket, and every float operation at the interval boundary is rounded
outward (one ulp past the correctly rounded value, via ``math.nextafter``).
The correctly rounded Euler factors of ``kwise_constant`` come from Ziv's
rounding test (ACM TOMS 17, 1991): a float64 evaluation with a proven error
bound decides almost every prime, and the few it cannot decide take one
exact integer division.

The three base constants are

* ``zeta(r)`` and its reciprocal — the mutual-coprimality density is 1/zeta(r);
* ``pairwise_constant(r)`` — the Euler product
  prod_p ((1-1/p)^r + (r/p)(1-1/p)^(r-1));
* ``kwise_constant(r, k)`` — prod_p P(Binomial(r, 1/p) <= k-1), which
  specializes to the two above at k = r and k = 2.

``density`` composes a base constant with an exact rational correction factor
for the side conditions (per-coordinate coprimality, divisibility, and
residue classes, with any moduli), in every class: the sides change the Euler
factor only at the primes of their moduli, so the factor is a finite product
of exact local-factor ratios and the enclosure width only scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import arith
from .constraints import MAX_R, CoprimeTo, Residue, TupleConstraint
from .errors import CapacityError

DEFAULT_PRIME_CUTOFF = 10**6
# array length of one chunk of zeta terms, and of the primes whose Euler
# factors kwise_constant forms at once, to bound their memory
_CHUNK = 2**16


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _dn(x: float) -> float:
    return math.nextafter(x, -math.inf)


@dataclass(frozen=True)
class Interval:
    """A closed float interval [lo, hi] guaranteed to contain the true value."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval ends must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval ends out of order: [{self.lo}, {self.hi}]")

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Interval":
        v = float(f)  # correctly rounded, so one ulp outward encloses
        return cls(_dn(v), _up(v))

    @property
    def mid(self) -> float:
        return self.lo + (self.hi - self.lo) / 2

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return max(self.lo, other.lo) <= min(self.hi, other.hi)

    def times_fraction(self, f: Fraction) -> "Interval":
        """Scale by an exact nonnegative rational, rounding outward."""
        if f < 0:
            raise ValueError("only nonnegative scale factors are meaningful here")
        if f == 0:
            return Interval(0.0, 0.0)
        lo = _dn(float(Fraction(self.lo) * f))
        hi = _up(float(Fraction(self.hi) * f))
        return Interval(lo, hi)

    def reciprocal(self) -> "Interval":
        if self.lo <= 0:
            raise ValueError("reciprocal requires a strictly positive interval")
        lo = _dn(float(1 / Fraction(self.hi)))
        hi = _up(float(1 / Fraction(self.lo)))
        return Interval(lo, hi)


def _exact_sum(chunks) -> float:
    """The correctly rounded sum of positive, nonincreasing float64 terms,
    given as an iterable of nonempty arrays; it equals ``math.fsum`` of all
    the terms bit for bit.

    Each term is m * 2**(e - 53) with a 53-bit integer mantissa m.  The terms
    are nonincreasing, so their exponents e are too, and the terms of one
    exponent form one contiguous run, which may go on into the next chunk.
    Within a chunk the mantissas are split into a 27-bit high and a 26-bit
    low half and each half is summed per run in int64, which stays exact
    while a chunk has fewer than 2**36 terms.  The runs join into one Python
    int N, shifted left as the exponent falls, and N / 2**E is rounded once,
    correctly, by int division.
    """
    total, low_exp = 0, 0
    for terms in chunks:
        frac, exp = np.frexp(terms)
        mant = (frac * 2.0**53).astype(np.int64)  # exact: frac has 53 bits
        starts = np.flatnonzero(np.diff(exp, prepend=exp[0] + 1))
        highs = np.add.reduceat(mant >> 26, starts).tolist()
        lows = np.add.reduceat(mant & (2**26 - 1), starts).tolist()
        for h, lo, e in zip(highs, lows, exp[starts].tolist()):
            # total is 0 only before the first run, where low_exp means nothing
            total = (total << (low_exp - e) if total else 0) + (h << 26) + lo
            low_exp = e
    shift = 53 - low_exp
    return total / (1 << shift) if shift >= 0 else float(total << -shift)


def _zeta_cutoff(r: int) -> int:
    """M = max(64, ceil((4e12)^(1/r))), so M^-r <= 2.5e-13 keeps the tail
    bracket width comfortably under 1e-12."""
    return max(64, math.ceil((4 * 10**12) ** (1.0 / r)))


def _zeta_terms(r: int):
    """The terms 1/m^r, m = 1..M, of zeta(r)'s partial sum, each correctly
    rounded, in arrays of ``_CHUNK`` terms."""
    m_terms = _zeta_cutoff(r)
    # while every m**r is exact in int64 and in float64, each term is the
    # same correctly rounded quotient as 1.0 / (m**r) in Python
    exact = m_terms**r < 2**53
    for start in range(1, m_terms + 1, _CHUNK):
        m = np.arange(start, min(start + _CHUNK, m_terms + 1), dtype=np.int64)
        if exact:
            yield 1.0 / (m**r).astype(np.float64)
        else:
            yield np.array([1.0 / (v**r) for v in m.tolist()])


@lru_cache(maxsize=None)
def zeta(r: int) -> Interval:
    """Enclosure of zeta(r) for 2 <= r <= 64, width well under 1e-12.

    Partial sum of M exact terms (``_zeta_cutoff``), made and summed
    ``_CHUNK`` terms at a time so that memory stays a few MB; ``_exact_sum``
    keeps the summation correctly rounded.  Plus the integral tail bracket
    [M^(1-r)/(r-1) - M^(-r), M^(1-r)/(r-1)]; ends nudged outward a few ulps
    to cover the per-term rounding.
    """
    if not 2 <= r <= MAX_R:
        raise ValueError(f"r must be in [2, {MAX_R}], got {r}")
    m_terms = _zeta_cutoff(r)
    partial = _exact_sum(_zeta_terms(r))
    tail_hi = m_terms ** (1 - r) / (r - 1)
    tail_lo = tail_hi - m_terms ** (-r)
    lo = partial + tail_lo
    hi = partial + tail_hi
    for _ in range(4):  # per-term division + the sum + the two adds above
        lo, hi = _dn(lo), _up(hi)
    return Interval(lo, hi)


def zeta_reciprocal(r: int) -> Interval:
    return zeta(r).reciprocal()


@lru_cache(maxsize=8)
def _primes_up_to(cutoff: int) -> np.ndarray:
    return arith.primes_up_to(cutoff)


# Each Euler factor is f = P(Bin(r, 1/p) <= k-1) = 1 - t with the tail
# t = P(Bin(r, 1/p) >= k).  ``_tail`` evaluates t in float64; for primes where
# that cannot decide the rounding of 1 - t, f = N / p^r is one Python-int
# true division, N = sum_{j<k} C(r,j) (p-1)^(r-j), which rounds correctly.
_HALF_SPACING = 2.0**-54  # half the float spacing on [1/2, 1)
# the two additions of the decision round down by at most (1 - 2^-53)^2,
# and the limit below is more than that inside the half spacing
_DECIDE_BELOW = _HALF_SPACING * (1 - 2.0**-51)
# underflow: each rounding to a subnormal errs by at most 2^-1075, and at
# most a few hundred of them, scaled by at most sum_j C(r,j) <= 2^64, stay
# under 2^-1000
_UNDERFLOW = 2.0**-1000
_TAIL_MAX = 0.25  # for t above it y = 1 - t leaves [3/4, 1]


def _tail_error(r: int, k: int) -> float:
    """A float eps with |t_float - t| <= eps * t_float + 2^-1000.

    ``_tail`` stacks at most n = 2r + 3d + 1 roundings on one term: 1/p and
    its k-th power 2k - 1, (p-1)/p and its d-th power 2d - 1 (d = r - k),
    their product 1, the Horner sum 3d + 1 (1/(p-1) to the m-th power, the
    coefficient, and 2 per step), and the last product 1.  So |t_float - t|
    <= gamma_n t, gamma_n = n u / (1 - n u), u = 2^-53, and with t <= t_float
    + |t_float - t| that is n u t_float / (1 - 2 n u).  The factor 1 + 2^-50
    covers the rounding of eps * t_float in ``_one_minus``.
    """
    n = 2 * r + 3 * (r - k) + 1
    eps = Fraction(n, 2**53 - 2 * n) * (1 + Fraction(1, 2**50))
    return _up(float(eps))


def _tail(p: np.ndarray, r: int, k: int) -> np.ndarray:
    """t = P(Bin(r, 1/p) >= k) = x^k u^d sum_{m<=d} C(r, k+m) rho^m in
    float64, for x = 1/p, u = (p-1)/p, rho = 1/(p-1) and d = r - k: every
    term is positive, so the relative error is at most the roundings that
    ``_tail_error`` counts."""
    d = r - k
    x, u, rho = 1.0 / p, (p - 1.0) / p, 1.0 / (p - 1.0)
    horner = np.full_like(p, float(math.comb(r, r)))
    for j in range(r - 1, k - 1, -1):
        horner = horner * rho + float(math.comb(r, j))
    scale = x
    for _ in range(k - 1):
        scale = scale * x
    if d:
        ud = u
        for _ in range(d - 1):
            ud = ud * u
        scale = scale * ud
    return scale * horner


def _one_minus(t: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """y = 1 - t rounded, and the mask of the entries where y may not be the
    correctly rounded 1 - t_true for a t_true with |t - t_true| <= eps * t +
    2^-1000.

    For t <= 1/4, y lies in [3/4, 1] and the residual e = (1 - y) - t is
    exact (Sterbenz), so 1 - t_true = y + e - (t_true - t).  y is correctly
    rounded when that offset stays under the half spacing 2^-54, that is
    when no midpoint 1 - (2m+1) 2^-54 lies within the bound of 1 - t.
    """
    y = 1.0 - t
    e = (1.0 - y) - t
    undecided = (t > _TAIL_MAX) | (np.abs(e) + (eps * t + _UNDERFLOW) >= _DECIDE_BELOW)
    return y, undecided


def _euler_factors(primes: np.ndarray, r: int, k: int) -> tuple[np.ndarray, int]:
    """Each P(Bin(r, 1/p) <= k-1) = N / p^r correctly rounded, and how many
    primes fell back to the exact division."""
    y, undecided = _one_minus(_tail(primes.astype(np.float64), r, k), _tail_error(r, k))
    fallback = np.flatnonzero(undecided)
    for i, p in zip(fallback.tolist(), primes[fallback].tolist()):
        y[i] = sum(math.comb(r, j) * (p - 1) ** (r - j) for j in range(k)) / p**r
    return y, len(fallback)


@lru_cache(maxsize=None)
def kwise_constant(r: int, k: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> Interval:
    """Enclosure of prod_p P(Binomial(r, 1/p) <= k-1), the k-wise density.

    Upper end: the finite product over primes <= prime_cutoff (each factor is
    an exact rational, correctly rounded, then rounded outward).  Lower end:
    the finite product times 1 - sum_{p > cutoff} P(Bin >= k), bounded via
    P(Bin(r,1/p) >= k) <= C(r,k) p^-k and sum_{p > P} p^-k <= P^(1-k)/(k-1).
    """
    if not 2 <= r <= MAX_R:
        raise ValueError(f"r must be in [2, {MAX_R}], got {r}")
    if not 2 <= k <= r:
        raise ValueError(f"k must lie in [2, r={r}], got {k}")
    if prime_cutoff < 5:
        raise ValueError(f"prime_cutoff must be >= 5, got {prime_cutoff}")
    if prime_cutoff > arith.TABLE_LIMIT_MAX:
        raise CapacityError(
            f"prime_cutoff {prime_cutoff} exceeds the sieve cap {arith.TABLE_LIMIT_MAX}"
        )

    # factors come _CHUNK primes at a time; each is rounded outward once, and
    # the partial products are formed sequentially, in prime order, each
    # rounded outward
    primes = _primes_up_to(prime_cutoff)
    nextafter, inf = math.nextafter, math.inf
    lo_acc, hi_acc = 1.0, 1.0
    for start in range(0, len(primes), _CHUNK):
        factors, _ = _euler_factors(primes[start : start + _CHUNK], r, k)
        for f_lo, f_hi in zip(
            np.nextafter(factors, -inf).tolist(), np.nextafter(factors, inf).tolist()
        ):
            lo_acc = nextafter(lo_acc * f_lo, -inf)
            hi_acc = nextafter(hi_acc * f_hi, inf)

    tail = _up(_up(math.comb(r, k) / (k - 1)) * _up(prime_cutoff ** (1 - k)))
    lo = max(0.0, _dn(lo_acc * _dn(1.0 - tail)))
    hi = min(1.0, hi_acc)  # every factor is <= 1, so the true product is too
    return Interval(lo, hi)


def pairwise_constant(r: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> Interval:
    """Enclosure of the pairwise-coprimality density (the k = 2 product)."""
    return kwise_constant(r, 2, prime_cutoff)


# ---------------------------------------------------------------------------
# side conditions: one local factor per prime of the moduli


def _at_prime(side, p: int) -> tuple[int, int, int]:
    """(n+, n-, d): x meets the side condition and p divides x with local
    density q+ = n+/d, and meets it with p not dividing x with q- = n-/d."""
    m, e = (1 if side is None else side.modulus), 0
    while m % p == 0:
        m, e = m // p, e + 1
    if e == 0:
        return 1, p - 1, p
    if isinstance(side, CoprimeTo):
        return 0, p - 1, p
    if isinstance(side, Residue) and side.residue % p:
        return 0, 1, p**e
    return 1, 0, p**e


def _local_factor(k: int, local: list[tuple[int, int, int]]) -> Fraction:
    """f_p = sum_{j<k} [t^j] prod_i (q-_i + q+_i t): the local density at p of
    "fewer than k coordinates are multiples of p", jointly with the sides."""
    poly = [1]
    for plus, minus, _ in local:
        poly = [a * minus + b * plus for a, b in zip(poly + [0], [0] + poly)][:k]
    return Fraction(sum(poly), math.prod(d for _, _, d in local))


def correction_factor(constraint: TupleConstraint) -> Fraction:
    """The exact rational multiplier the side conditions apply to the base
    density constant: prod over the primes p of the side moduli of
    f_p(sides) / f_p(no sides); 1 when there are no nontrivial sides.

    The sides change the Euler factor only at the primes of their moduli, and
    without sides f_p is P(Binomial(r, 1/p) <= k-1), the factor of
    ``kwise_constant`` (Hu, Int. J. Number Theory 9, 2013).
    """
    sides, k = constraint.sides, constraint.effective_k
    moduli = {s.modulus for s in sides if s is not None}
    factor = Fraction(1)
    for p in {p for a in moduli for p in arith.prime_divisors(a)}:
        with_sides = _local_factor(k, [_at_prime(s, p) for s in sides])
        factor *= with_sides / _local_factor(k, [_at_prime(None, p)] * constraint.r)
    return factor


def base_constant(constraint: TupleConstraint, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> Interval:
    """The unconditioned density constant for the constraint's class."""
    if constraint.kind == "mutual":
        return zeta_reciprocal(constraint.r)
    if constraint.kind == "pairwise":
        return pairwise_constant(constraint.r, prime_cutoff)
    return kwise_constant(constraint.r, constraint.k, prime_cutoff)


def density(constraint: TupleConstraint, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> Interval:
    """Enclosure of the asymptotic density of the constrained tuple set."""
    factor = correction_factor(constraint)
    base = base_constant(constraint, prime_cutoff)
    if factor == 1:
        return base
    return base.times_fraction(factor)
