"""The k-wise Euler product in its plain per-prime form, kept as a test oracle.

``kwise_constant`` forms its factors as 1 - t from a float64 tail t with a
proven error bound, and divides exactly only where that bound cannot decide
the rounding.  This module forms each factor the simplest way, one Python-int
quotient per prime, and rounds the product outward prime by prime, so the
two routes must give the same endpoints bit for bit.
"""

import math


def _dn(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def primes_up_to(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(limit + 1) if sieve[i]]


def kwise_endpoints(r: int, k: int, cutoff: int) -> tuple[float, float]:
    """(lo, hi) of prod_{p <= cutoff} P(Bin(r, 1/p) <= k-1), with the
    enclosure's tail bound on the lower end."""
    binomials = [(math.comb(r, j), r - j) for j in range(k)]
    lo_acc, hi_acc = 1.0, 1.0
    for p in primes_up_to(cutoff):
        f = sum([c * (p - 1) ** e for c, e in binomials]) / p**r
        lo_acc = _dn(lo_acc * _dn(f))
        hi_acc = _up(hi_acc * _up(f))
    tail = _up(_up(math.comb(r, k) / (k - 1)) * _up(cutoff ** (1 - k)))
    return max(0.0, _dn(lo_acc * _dn(1.0 - tail))), min(1.0, hi_acc)
