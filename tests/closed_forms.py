"""Closed-form side-condition density factors, kept as test oracles.

Each family below was derived by hand for one kind of side condition in the
mutual and pairwise classes, with pairwise-coprime moduli; the grouping
family is Tóth's setting (Fibonacci Quart. 40, 2002), several coordinates
coprime to one modulus.  The library computes every factor from one
per-prime local factor instead; these independent formulas certify it, as
brute force certifies the counters.

The multiplicative functions the formulas are written in come first:

* ``jordan_totient(r, a)`` is ``a**r * prod(1 - p**-r)`` over primes ``p | a``;
  ``r = 1`` is Euler's phi.  Always an integer.
* ``psi(s, a)`` is the multiplicative function with ``psi(s, p**n) =
  p**n * (1 + s/p)``, i.e. ``a * prod(1 + s/p)`` over ``p | a``.  ``s = 0`` is
  the identity map, ``s = -1`` is Euler's phi, ``s = 1`` is the classical
  Dedekind psi.  Integer-valued for integer ``s >= -1``.
* ``toth_factor(r, u)`` is the rational ``prod((p - 1) / (p + r - 1))`` over
  ``p | u``, which equals ``phi(u) / psi(r - 1, u)``.
"""

import math
from fractions import Fraction
from itertools import product

from coprime_lab.arith import factor_small, prime_divisors
from coprime_lab.constraints import CoprimeTo, DivisibleBy, Residue, TupleConstraint


def radical(m: int) -> int:
    """Product of the distinct primes dividing ``m``; ``radical(1) == 1``."""
    out = 1
    for p in prime_divisors(m):
        out *= p
    return out


def mobius_of(m: int) -> int:
    """mu(m) by trial division (use the table for bulk work)."""
    fac = factor_small(m)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(a: int) -> int:
    """Euler's totient."""
    return jordan_totient(1, a)


def jordan_totient(r: int, a: int) -> int:
    """Jordan totient ``a**r * prod(1 - p**-r)`` over ``p | a``.

    ``r >= 1``, ``a >= 1``.  Multiplicative; on prime powers equals
    ``p**(r*e) - p**(r*(e-1))``.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    out = 1
    for p, e in factor_small(a):
        out *= p ** (r * (e - 1)) * (p**r - 1)
    return out


def psi(s: int, a: int) -> int:
    """The multiplicative function with ``psi(s, p**n) = p**n * (1 + s/p)``.

    ``s`` must be an integer ``>= -1`` (so values stay nonnegative integers);
    ``a >= 1``.  ``psi(0, a) = a``; ``psi(-1, a) = phi(a)``.
    """
    if not isinstance(s, int) or s < -1:
        raise ValueError(f"s must be an integer >= -1, got {s!r}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    out = 1
    for p, e in factor_small(a):
        out *= p ** (e - 1) * (p + s)
    return out


def squarefree_divisor_count(u: int) -> int:
    """Number of squarefree divisors of ``u``, i.e. ``2**omega(u)``."""
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    return 1 << len(factor_small(u))


def toth_factor(r: int, u: int) -> Fraction:
    """Exact ``prod((p - 1) / (p + r - 1))`` over the primes ``p | u``.

    equals ``Fraction(euler_phi(u), psi(r - 1, u))`` in lowest terms; kept as
    its own product so the identity can be tested rather than assumed.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    out = Fraction(1)
    for p in prime_divisors(u):
        out *= Fraction(p - 1, p + r - 1)
    return out


def pairwise_coprime_vectors(r: int, limit: int) -> list[tuple[int, ...]]:
    """Every modulus vector in [1, limit]^r whose entries are pairwise coprime."""
    return [
        a
        for a in product(range(1, limit + 1), repeat=r)
        if all(math.gcd(a[i], a[j]) == 1 for i in range(r) for j in range(i + 1, r))
    ]


def coprime_to_factor(kind: str, r: int, big_a: int) -> Fraction:
    """Density ratio for "coordinate i coprime to a_i", a pairwise coprime."""
    if kind == "pairwise":
        return Fraction(psi(r - 2, big_a), psi(r - 1, big_a))
    return Fraction(
        euler_phi(big_a) * big_a ** (r - 1), jordan_totient(r, big_a)
    )


def divisible_factor(kind: str, r: int, big_a: int) -> Fraction:
    """Density ratio for "a_i divides coordinate i", a pairwise coprime."""
    if kind == "pairwise":
        return Fraction(1, psi(r - 1, big_a))
    return Fraction(jordan_totient(r - 1, big_a), jordan_totient(r, big_a))


def residue_factor(kind: str, r: int, moduli, residues) -> Fraction:
    """Density ratio for "coordinate i lies in residue b_i mod a_i".

    Uses the convention gcd(a, 0) = a, under which b = 0 reduces exactly to
    ``divisible_factor``.
    """
    big_a = math.prod(moduli)
    gs = [math.gcd(a, b) for a, b in zip(moduli, residues)]
    if kind == "pairwise":
        factor = Fraction(psi(r - 2, big_a), psi(r - 1, big_a))
        factor /= euler_phi(big_a)
        for g in gs:
            factor *= Fraction(euler_phi(g), psi(r - 2, g))
        return factor
    factor = Fraction(big_a**r, big_a * jordan_totient(r, big_a))
    for g in gs:
        factor *= Fraction(jordan_totient(r - 1, g), g ** (r - 1))
    return factor


def grouping_factor(kind: str, r: int, blocks, moduli) -> Fraction:
    """Density ratio for block grouping: all coordinates in block i coprime
    to a_i, the a_i pairwise coprime."""
    big_a = math.prod(moduli)
    if kind == "pairwise":
        factor = Fraction(1, psi(r - 1, big_a))
        for blk, a in zip(blocks, moduli):
            factor *= psi(r - len(blk) - 1, a)
        return factor
    factor = Fraction(big_a**r, jordan_totient(r, big_a))
    for blk, a in zip(blocks, moduli):
        factor *= Fraction(euler_phi(a), a) ** len(blk)
    return factor


def closed_form_factor(constraint: TupleConstraint) -> Fraction | None:
    """The factor from the family that covers ``constraint``, or None when no
    family does: sides in a k-wise class with 2 < k < r, CoprimeTo mixed with
    DivisibleBy/Residue, or nontrivial moduli that share a prime.  The one
    exception is a CoprimeTo modulus repeated on several coordinates, read as
    one block of ``grouping_factor`` when the distinct moduli are pairwise
    coprime.  k-wise with k = 2 or k = r is read as the pairwise or the
    mutual class."""
    kind = constraint.kind
    if kind == "kwise":
        kind = {2: "pairwise", constraint.r: "mutual"}.get(constraint.k)
    r = constraint.r
    sides = [s for s in constraint.sides if s is not None and s.modulus > 1]
    if not sides:
        return Fraction(1)
    coprime = [s for s in sides if isinstance(s, CoprimeTo)]
    if kind is None or 0 < len(coprime) < len(sides):
        return None
    moduli = sorted({s.modulus for s in sides})
    if any(math.gcd(a, b) > 1 for i, a in enumerate(moduli) for b in moduli[i + 1 :]):
        return None
    if len(moduli) < len(sides):
        if not coprime:
            return None
        blocks = [
            [i for i, s in enumerate(constraint.sides) if s is not None and s.modulus == a]
            for a in moduli
        ]
        return grouping_factor(kind, r, blocks, moduli)
    big_a = math.prod(moduli)
    if coprime:
        return coprime_to_factor(kind, r, big_a)
    if all(isinstance(s, DivisibleBy) or s.residue == 0 for s in sides):
        return divisible_factor(kind, r, big_a)
    residues = [s.residue if isinstance(s, Residue) else 0 for s in sides]
    return residue_factor(kind, r, [s.modulus for s in sides], residues)
