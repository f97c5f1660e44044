"""Density constants as validated float enclosures.

Every constant here is produced as an ``Interval`` [lo, hi] that provably
contains the true real number: truncated sums/products carry an explicit tail
bracket, and every float operation at the interval boundary is rounded
outward (one ulp past the correctly rounded value, via ``math.nextafter``).

The three base constants are

* ``zeta(r)`` and its reciprocal — the mutual-coprimality density is 1/zeta(r);
* ``pairwise_constant(r)`` — the Euler product
  prod_p ((1-1/p)^r + (r/p)(1-1/p)^(r-1));
* ``kwise_constant(r, k)`` — prod_p P(Binomial(r, 1/p) <= k-1), which
  specializes to the two above at k = r and k = 2.

``density`` composes a base constant with an exact rational correction factor
for the supported side conditions (per-coordinate coprimality, divisibility,
residue classes, and block grouping); the factor is computed in exact
arithmetic so the enclosure width only scales.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np

from . import arith
from .constraints import MAX_R, CoprimeTo, DivisibleBy, Residue, TupleConstraint
from .errors import CapacityError, UnsupportedError

DEFAULT_PRIME_CUTOFF = 10**6


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
        lo = _dn(float(Fraction(self.lo) * f))
        hi = _up(float(Fraction(self.hi) * f))
        return Interval(lo, hi)

    def reciprocal(self) -> "Interval":
        if self.lo <= 0:
            raise ValueError("reciprocal requires a strictly positive interval")
        lo = _dn(float(1 / Fraction(self.hi)))
        hi = _up(float(1 / Fraction(self.lo)))
        return Interval(lo, hi)


@lru_cache(maxsize=None)
def zeta(r: int) -> Interval:
    """Enclosure of zeta(r) for 2 <= r <= 64, width well under 1e-12.

    Partial sum of M exact terms (fsum keeps the summation correctly
    rounded), plus the integral tail bracket
    [M^(1-r)/(r-1) - M^(-r), M^(1-r)/(r-1)]; ends nudged outward a few ulps
    to cover the per-term rounding.
    """
    if not 2 <= r <= MAX_R:
        raise ValueError(f"r must be in [2, {MAX_R}], got {r}")
    # M^-r <= 2.5e-13 keeps the bracket width comfortably under 1e-12.
    target = 4 * 10**12
    m_terms = max(64, math.ceil(target ** (1.0 / r)))
    if m_terms**r < 2**53:
        # every m**r is exact in int64 and in float64, so each term is the
        # same correctly rounded quotient as 1.0 / (m**r) in Python; blocks
        # of 2**16 keep the float list small
        blocks = (
            np.arange(lo, min(lo + 2**16, m_terms + 1), dtype=np.int64) ** r
            for lo in range(1, m_terms + 1, 2**16)
        )
        terms = chain.from_iterable((1.0 / b.astype(np.float64)).tolist() for b in blocks)
    else:
        terms = (1.0 / (m**r) for m in range(1, m_terms + 1))
    partial = math.fsum(terms)
    tail_hi = m_terms ** (1 - r) / (r - 1) if r > 1 else math.inf
    tail_lo = tail_hi - m_terms ** (-r)
    lo = partial + tail_lo
    hi = partial + tail_hi
    for _ in range(4):  # per-term division + fsum + the two adds above
        lo, hi = _dn(lo), _up(hi)
    return Interval(lo, hi)


def zeta_reciprocal(r: int) -> Interval:
    return zeta(r).reciprocal()


def binomial_cdf(r: int, p_inv: Fraction, h: int) -> Fraction:
    """Exact P(Binomial(r, p_inv) <= h) as a rational."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if not 0 <= h <= r:
        raise ValueError(f"h must lie in [0, r={r}], got {h}")
    q = Fraction(p_inv)
    if not 0 <= q <= 1:
        raise ValueError(f"p_inv must lie in [0, 1], got {p_inv!r}")
    return sum(
        Fraction(math.comb(r, j)) * q**j * (1 - q) ** (r - j) for j in range(h + 1)
    )


@lru_cache(maxsize=8)
def _primes_up_to(cutoff: int):
    return arith.build_tables(cutoff).primes


@lru_cache(maxsize=None)
def kwise_constant(r: int, k: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> Interval:
    """Enclosure of prod_p P(Binomial(r, 1/p) <= k-1), the k-wise density.

    Upper end: the finite product over primes <= prime_cutoff (each factor is
    an exact rational, converted outward).  Lower end: the finite product
    times 1 - sum_{p > cutoff} P(Bin >= k), bounded via
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

    # factor = P(Bin(r, 1/p) <= k-1) = sum_{j<k} C(r,j) (p-1)^(r-j) / p^r,
    # rounded to nearest by int true division.  While p^r < 2^53 numerator
    # and denominator are exact in int64 and float64, so numpy's division
    # rounds to the same float.
    binomials = [(math.comb(r, j), r - j) for j in range(k)]
    primes = _primes_up_to(prime_cutoff).tolist()
    split = bisect_left(primes, True, key=lambda p: p**r >= 2**53)
    q = np.array(primes[:split], dtype=np.int64) - 1
    factors = (sum(c * q**e for c, e in binomials) / (q + 1) ** r).tolist()
    factors += [sum([c * (p - 1) ** e for c, e in binomials]) / p**r for p in primes[split:]]
    lo_acc, hi_acc = 1.0, 1.0
    for f in factors:
        lo_acc = _dn(lo_acc * _dn(f))
        hi_acc = _up(hi_acc * _up(f))

    tail = _up(_up(math.comb(r, k) / (k - 1)) * _up(prime_cutoff ** (1 - k)))
    lo = max(0.0, _dn(lo_acc * _dn(1.0 - tail)))
    hi = min(1.0, hi_acc)  # every factor is <= 1, so the true product is too
    return Interval(lo, hi)


def pairwise_constant(r: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> Interval:
    """Enclosure of the pairwise-coprimality density (the k = 2 product)."""
    return kwise_constant(r, 2, prime_cutoff)


# ---------------------------------------------------------------------------
# closed-form corrections for side conditions


def _coprime_to_factor(kind: str, r: int, big_a: int) -> Fraction:
    """Density ratio for "coordinate i coprime to a_i", a pairwise coprime."""
    if kind == "pairwise":
        return Fraction(arith.psi(r - 2, big_a), arith.psi(r - 1, big_a))
    return Fraction(
        arith.euler_phi(big_a) * big_a ** (r - 1), arith.jordan_totient(r, big_a)
    )


def _divisible_factor(kind: str, r: int, big_a: int) -> Fraction:
    """Density ratio for "a_i divides coordinate i", a pairwise coprime."""
    if kind == "pairwise":
        return Fraction(1, arith.psi(r - 1, big_a))
    return Fraction(arith.jordan_totient(r - 1, big_a), arith.jordan_totient(r, big_a))


def _residue_factor(kind: str, r: int, moduli, residues) -> Fraction:
    """Density ratio for "coordinate i lies in residue b_i mod a_i".

    Uses the convention gcd(a, 0) = a, under which b = 0 reduces exactly to
    ``_divisible_factor`` (kept separate so the collapse is testable).
    """
    big_a = math.prod(moduli)
    gs = [math.gcd(a, b) for a, b in zip(moduli, residues)]
    if kind == "pairwise":
        factor = Fraction(arith.psi(r - 2, big_a), arith.psi(r - 1, big_a))
        factor /= arith.euler_phi(big_a)
        for g in gs:
            factor *= Fraction(arith.euler_phi(g), arith.psi(r - 2, g))
        return factor
    factor = Fraction(big_a**r, big_a * arith.jordan_totient(r, big_a))
    for g in gs:
        factor *= Fraction(arith.jordan_totient(r - 1, g), g ** (r - 1))
    return factor


def _grouping_factor(kind: str, r: int, blocks, moduli) -> Fraction:
    """Density ratio for block grouping: all coordinates in block i coprime
    to a_i, the a_i pairwise coprime."""
    big_a = math.prod(moduli)
    if kind == "pairwise":
        factor = Fraction(1, arith.psi(r - 1, big_a))
        for blk, a in zip(blocks, moduli):
            factor *= arith.psi(r - len(blk) - 1, a)
        return factor
    factor = Fraction(big_a**r, arith.jordan_totient(r, big_a))
    for blk, a in zip(blocks, moduli):
        factor *= Fraction(arith.euler_phi(a), a) ** len(blk)
    return factor


def correction_factor(constraint: TupleConstraint) -> Fraction:
    """The exact rational multiplier the side conditions apply to the base
    density constant; 1 when there are no (nontrivial) side conditions.

    Raises UnsupportedError for combinations without a closed form:
    any side condition on the kwise class, and mixtures of CoprimeTo with
    DivisibleBy/Residue conditions.
    """
    if constraint.blocks is not None:
        return _grouping_factor(
            constraint.kind, constraint.r, constraint.blocks, constraint.block_moduli
        )

    coprime_present = any(isinstance(s, CoprimeTo) for s in constraint.sides)
    residue_present = any(isinstance(s, (DivisibleBy, Residue)) for s in constraint.sides)
    nontrivial = any(
        s is not None and s.modulus > 1 for s in constraint.sides
    )
    if not nontrivial:
        return Fraction(1)
    if constraint.kind == "kwise":
        raise UnsupportedError(
            "no closed-form density for k-wise coprimality with side conditions; "
            "use the Monte Carlo estimator instead"
        )
    if coprime_present and residue_present:
        raise UnsupportedError(
            "no closed-form density for mixed CoprimeTo and DivisibleBy/Residue "
            "side conditions"
        )

    if coprime_present:
        big_a = math.prod(
            s.modulus if s is not None else 1 for s in constraint.sides
        )
        return _coprime_to_factor(constraint.kind, constraint.r, big_a)

    moduli = [s.modulus if s is not None else 1 for s in constraint.sides]
    residues = [s.residue if isinstance(s, Residue) else 0 for s in constraint.sides]
    if all(b == 0 for b in residues):
        return _divisible_factor(constraint.kind, constraint.r, math.prod(moduli))
    return _residue_factor(constraint.kind, constraint.r, moduli, residues)


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
