"""Reference values computed without coprime_lab.

The benchmark checks the program's outputs against these.  Every sieve here
is the benchmark's own, and every sum that can exceed 64 bits is taken in
Python integers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def primes_up_to(n: int) -> np.ndarray:
    """Ascending primes <= n (Eratosthenes over a boolean array)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def mobius_table(n: int) -> np.ndarray:
    """mu(0..n) as int8, sieving only by the primes <= sqrt(n).

    A squarefree m keeps, after one division by each small prime factor, a
    cofactor that is 1 or a single prime > sqrt(n); that prime flips the sign.
    """
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    rest = np.arange(n + 1, dtype=np.int64)
    for p in primes_up_to(math.isqrt(n)).tolist():
        mu[p::p] = -mu[p::p]
        mu[p * p :: p * p] = 0
        rest[p::p] //= p
    big = rest > 1
    mu[big] = -mu[big]
    return mu


def mertens_table(n: int) -> np.ndarray:
    """M(0..n), the running sums of mu, as int64."""
    return np.cumsum(mobius_table(n), dtype=np.int64)


def mutual_count(bounds: tuple[int, ...], mertens: np.ndarray) -> int:
    """sum over d of mu(d) * prod floor(B_i / d), in Python ints.

    The sum runs over blocks of d on which every quotient is constant, so it
    takes O(sqrt(max B)) steps and one Mertens difference per block.
    """
    total = 0
    d = 1
    top = min(bounds)
    while d <= top:
        last = min(b // (b // d) for b in bounds)
        weight = int(mertens[last]) - int(mertens[d - 1])
        total += weight * math.prod(b // d for b in bounds)
        d = last + 1
    return total


def totient_table(n: int) -> np.ndarray:
    """phi(0..n) as int64."""
    phi = np.arange(n + 1, dtype=np.int64)
    for p in primes_up_to(n).tolist():
        phi[p::p] -= phi[p::p] // p
    return phi


def gcd_sum(a: int, b: int, phi: np.ndarray) -> int:
    """sum over x <= a, y <= b of gcd(x, y), as sum_e phi(e) floor(a/e) floor(b/e).

    Each term is at most a*b/e, so for a, b <= 10**6 the int64 sum is exact.
    """
    e = np.arange(1, min(a, b) + 1, dtype=np.int64)
    return int(np.sum(phi[1 : min(a, b) + 1] * (a // e) * (b // e)))


def lcm_sum_direct(a: int, b: int) -> int:
    """sum over x <= a, y <= b of lcm(x, y), term by term (small a, b only)."""
    x = np.arange(1, a + 1, dtype=np.int64)
    y = np.arange(1, b + 1, dtype=np.int64)
    return int(np.lcm.outer(x, y).sum(dtype=np.int64))


def pairwise_count_python(bounds: tuple[int, ...]) -> int:
    """Pairwise-coprime tuples in the box, by plain enumeration."""
    r = len(bounds)
    pairs = list(itertools.combinations(range(r), 2))
    return sum(
        all(math.gcd(x[i], x[j]) == 1 for i, j in pairs)
        for x in itertools.product(*(range(1, b + 1) for b in bounds))
    )
