"""Prime tables: a primes-only sieve, the smallest-prime-factor and Moebius
sieve, factorization, and signed products of distinct primes."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import CapacityError

TABLE_LIMIT_MAX = 10**8


@dataclass(frozen=True)
class ArithTables:
    """Sieve output on ``[0, limit]``: smallest prime factors, Moebius, primes.

    ``spf[m]`` is the smallest prime factor of ``m`` for ``2 <= m <= limit``
    (``spf[0] = spf[1] = 0``).  ``mobius[m]`` is mu(m) as int8.  ``primes`` is
    the ascending array of primes ``<= limit``.
    """

    limit: int
    spf: np.ndarray
    mobius: np.ndarray
    primes: np.ndarray

    def squarefree_up_to(self, bound: int) -> np.ndarray:
        """Ascending int64 array of squarefree integers in ``[1, bound]``."""
        if bound > self.limit:
            raise ValueError(f"bound {bound} exceeds table limit {self.limit}")
        return np.flatnonzero(self.mobius[: bound + 1]).astype(np.int64)


def primes_up_to(limit: int) -> np.ndarray:
    """Ascending int64 array of the primes ``<= limit``, by a bool sieve of
    Eratosthenes (one byte per integer), for ``limit`` in ``[2, 10**8]``."""
    if not isinstance(limit, int) or limit < 2:
        raise ValueError(f"limit must be an integer >= 2, got {limit!r}")
    if limit > TABLE_LIMIT_MAX:
        raise CapacityError(f"limit {limit} exceeds the table cap {TABLE_LIMIT_MAX}")
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def build_tables(limit: int) -> ArithTables:
    """Sieve smallest prime factors and Moebius values up to ``limit``.

    ``limit`` must lie in ``[2, 10**8]``; the upper cap exists because the
    tables are dense arrays (spf alone is 4 bytes per entry).
    """
    primes = primes_up_to(limit)
    s = isqrt(limit)
    n_small = int(np.searchsorted(primes, s, side="right"))
    spf = np.zeros(limit + 1, dtype=np.int32)
    mobius = np.ones(limit + 1, dtype=np.int8)
    mobius[0] = 0
    for p in primes[:n_small].tolist():
        seg = spf[p::p]
        seg[seg == 0] = p
        mobius[p::p] *= -1
        mobius[p * p :: p * p] = 0
    # A prime p > s divides m <= limit only as m = p * j with j <= limit // p
    # <= s, so it is the largest prime factor of m, the only one above s and
    # not repeated: spf is already set unless j = 1, and mu flips once.
    big = primes[n_small:]
    spf[big] = big
    for j in range(1, limit // (s + 1) + 1):
        mobius[big[: int(np.searchsorted(big, limit // j, side="right"))] * j] *= -1

    return ArithTables(limit=limit, spf=spf, mobius=mobius, primes=primes)


def factorize(m: int, tables: ArithTables) -> tuple[tuple[int, int], ...]:
    """Prime factorization of ``m`` as ``((p1, e1), ...)``, using the spf table.

    Requires ``1 <= m <= tables.limit``.  ``factorize(1) == ()``.
    """
    if not 1 <= m <= tables.limit:
        raise ValueError(f"m must be in [1, {tables.limit}], got {m}")
    out: list[tuple[int, int]] = []
    spf = tables.spf
    while m > 1:
        p = int(spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return tuple(out)


def factor_small(m: int) -> tuple[tuple[int, int], ...]:
    """Trial-division factorization for table-free use on small arguments."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def prime_divisors(m: int) -> tuple[int, ...]:
    """Distinct primes dividing ``m`` (empty for ``m = 1``)."""
    return tuple(p for p, _ in factor_small(m))


def signed_subset_products(primes, cap: int | None = None) -> tuple[tuple[int, int], ...]:
    """All ``(d, mu(d))`` with ``d`` a product of distinct entries of ``primes``.

    With ``cap``, only the products ``d <= cap`` are listed.  The order is
    fixed: each prime appends the signed products of the list so far.
    """
    pairs = [(1, 1)]
    for p in primes:
        pairs += [(d * p, -s) for d, s in pairs if cap is None or d * p <= cap]
    return tuple(pairs)

