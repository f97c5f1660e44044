"""Constraint and box types shared by the constants, counting, and CLI layers.

A ``TupleConstraint`` describes a set of positive r-tuples by

* a coprimality class — ``mutual`` (gcd of all coordinates is 1), ``pairwise``
  (every pair has gcd 1), or ``kwise`` (every k of them have gcd 1;
  ``k = 2`` is pairwise, ``k = r`` is mutual), and
* one optional side condition per coordinate: coprime to a fixed modulus,
  divisible by it, or congruent to a fixed residue mod it.  The moduli of
  different coordinates may share primes; "several coordinates coprime to
  the same u" is the same ``CoprimeTo(u)`` on each of them.

The product of the distinct nontrivial side moduli may not exceed
``MODULUS_PRODUCT_CAP``; this is checked at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import gcd, prod

from .errors import CapacityError

MAX_R = 64
# The density factor finds the primes of each modulus by trial division
# (at most 10**6 steps under this cap), and the counting kernels evaluate
# residues and gcds against each modulus in int64.
MODULUS_PRODUCT_CAP = 10**12


@dataclass(frozen=True)
class CoprimeTo:
    """Coordinate must be coprime to ``modulus``."""

    modulus: int

    def admits(self, x: int) -> bool:
        return gcd(x, self.modulus) == 1


@dataclass(frozen=True)
class DivisibleBy:
    """Coordinate must be divisible by ``modulus``."""

    modulus: int

    def admits(self, x: int) -> bool:
        return x % self.modulus == 0


@dataclass(frozen=True)
class Residue:
    """Coordinate must be congruent to ``residue`` mod ``modulus``."""

    modulus: int
    residue: int

    def admits(self, x: int) -> bool:
        return x % self.modulus == self.residue


Side = CoprimeTo | DivisibleBy | Residue | None


@dataclass(frozen=True)
class TupleConstraint:
    """An r-tuple coprimality class plus per-coordinate side conditions."""

    r: int
    kind: str  # "mutual" | "pairwise" | "kwise"
    k: int | None = None
    sides: tuple[Side, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.r, int) or not 2 <= self.r <= MAX_R:
            raise ValueError(f"r must be an integer in [2, {MAX_R}], got {self.r!r}")
        if self.kind not in ("mutual", "pairwise", "kwise"):
            raise ValueError(f"unknown coprimality class {self.kind!r}")
        if self.kind == "kwise":
            if self.k is None or not 2 <= self.k <= self.r:
                raise ValueError(f"kwise requires 2 <= k <= r, got k={self.k!r}")
        elif self.k is not None:
            raise ValueError(f"k is only meaningful for kwise, got k={self.k!r}")

        if not self.sides:
            object.__setattr__(self, "sides", (None,) * self.r)
        if len(self.sides) != self.r:
            raise ValueError(f"need {self.r} side conditions, got {len(self.sides)}")
        for side in self.sides:
            if side is None:
                continue
            if not isinstance(side, (CoprimeTo, DivisibleBy, Residue)):
                raise ValueError(f"bad side condition {side!r}")
            if side.modulus < 1:
                raise ValueError(f"side modulus must be >= 1, got {side.modulus}")
            if isinstance(side, Residue) and not 0 <= side.residue < side.modulus:
                raise ValueError(
                    f"residue must lie in [0, modulus), got {side.residue} mod {side.modulus}"
                )
        moduli = prod({s.modulus for s in self.sides if s is not None})
        if moduli > MODULUS_PRODUCT_CAP:
            raise CapacityError(
                f"product of the distinct side moduli {moduli} exceeds the cap "
                f"{MODULUS_PRODUCT_CAP}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def mutual(cls, r: int, sides: tuple[Side, ...] = ()) -> "TupleConstraint":
        return cls(r=r, kind="mutual", sides=sides)

    @classmethod
    def pairwise(cls, r: int, sides: tuple[Side, ...] = ()) -> "TupleConstraint":
        return cls(r=r, kind="pairwise", sides=sides)

    @classmethod
    def kwise(cls, r: int, k: int, sides: tuple[Side, ...] = ()) -> "TupleConstraint":
        return cls(r=r, kind="kwise", k=k, sides=sides)

    # -- derived views ------------------------------------------------------

    @property
    def effective_k(self) -> int:
        """The subset size whose gcds must all be 1."""
        if self.kind == "mutual":
            return self.r
        if self.kind == "pairwise":
            return 2
        return self.k  # type: ignore[return-value]

    def subsets(self) -> tuple[tuple[int, ...], ...]:
        """The coordinate subsets S with gcd(x_S) = 1 required; membership in
        the class is exactly the conjunction over these subsets."""
        return tuple(combinations(range(self.r), self.effective_k))

    def describe(self) -> str:
        """Compact one-line rendering for CLI output and error messages."""
        name = self.kind if self.kind != "kwise" else f"kwise(k={self.k})"
        parts = [f"{name} r={self.r}"]
        for i, side in enumerate(self.sides):
            if side is None:
                continue
            if isinstance(side, CoprimeTo):
                parts.append(f"x{i + 1}⊥{side.modulus}")
            elif isinstance(side, DivisibleBy):
                parts.append(f"{side.modulus}|x{i + 1}")
            else:
                parts.append(f"x{i + 1}≡{side.residue}({side.modulus})")
        return " ".join(parts)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box of positive integer tuples: ``1 <= x_j <= bounds[j]``.

    ``n`` is the ambient scale so that ``bounds[j] = floor(n * alpha_j)`` for
    some alpha in [0,1]^r; each bound must lie in [0, n].
    """

    bounds: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"scale n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "bounds", tuple(int(b) for b in self.bounds))
        if not self.bounds:
            raise ValueError("bounds must be nonempty")
        for b in self.bounds:
            if not 0 <= b <= self.n:
                raise ValueError(f"bounds must lie in [0, n={self.n}], got {self.bounds}")

    @classmethod
    def cube(cls, n: int, r: int) -> "Box":
        return cls(bounds=(n,) * r, n=n)

    @classmethod
    def from_alpha(cls, n: int, alpha) -> "Box":
        """Box with bounds ``floor(n * alpha_j)``; alpha entries may be
        Fractions, ints, or floats (floats are taken at face value)."""
        from fractions import Fraction

        bounds = []
        for a in alpha:
            af = Fraction(a)
            if not 0 <= af <= 1:
                raise ValueError(f"alpha components must lie in [0,1], got {a!r}")
            bounds.append(int(af * n))  # floor for nonnegative values
        return cls(bounds=tuple(bounds), n=n)

    @property
    def r(self) -> int:
        return len(self.bounds)

    def volume(self) -> int:
        return prod(self.bounds)


METHOD_BRUTEFORCE = "BruteForce"
METHOD_MOBIUS = "Mobius"
METHOD_TOTH = "Toth"


@dataclass(frozen=True)
class CountResult:
    """An exact tuple count over a box, tagged with the method that made it."""

    count: int
    constraint: TupleConstraint | None
    box: Box
    method: str

    def __post_init__(self) -> None:
        if self.count < 0 or self.count > self.box.volume():
            raise ValueError(
                f"count {self.count} outside [0, volume={self.box.volume()}]"
            )
        if self.method not in (METHOD_BRUTEFORCE, METHOD_MOBIUS, METHOD_TOTH):
            raise ValueError(f"unknown method tag {self.method!r}")
