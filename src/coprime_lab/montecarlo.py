"""Monte Carlo estimation of membership densities.

Sampling is counter-based: draw j of a run is splitmix64(seed, j), so any
sample can be regenerated independently of the others and results are
bit-identical across platforms, chunk sizes, and thread counts.  Coordinate i
of tuple s consumes counter s*r + i.  Values map to [1, n] by reduction mod n,
whose bias (< n / 2^64) is far below every tolerance used here.  Sampled
coordinates are int64, so ``estimate`` refuses n above 2^63 - 1.

The half-width is Hoeffding's distribution-free bound, so the reported
interval is conservative: coverage exceeds the nominal confidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from . import counting
from .constraints import TupleConstraint
from .errors import CapacityError

_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1


def splitmix64(seed: int, index: int) -> int:
    """Scalar reference generator: the index-th draw of the stream."""
    z = (seed + (index + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


def _draws(seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized draws for an array of draw indices; matches splitmix64."""
    return _mix(np.uint64(seed & _MASK) + (indices + np.uint64(1)) * np.uint64(_GAMMA))


def sample_stream(seed: int, start: int, count: int) -> np.ndarray:
    """Draws start .. start+count-1 as a uint64 array; matches splitmix64."""
    return _draws(seed, np.arange(start, start + count, dtype=np.uint64))


@dataclass(frozen=True)
class McEstimate:
    """Estimated density with a distribution-free confidence half-width."""

    mean: float
    half_width: float
    samples: int
    seed: int
    confidence: float


def hoeffding_half_width(samples: int, confidence: float) -> float:
    return sqrt(log(2.0 / (1.0 - confidence)) / (2.0 * samples))


def estimate(
    constraint: TupleConstraint,
    n: int,
    samples: int = 10_000,
    seed: int = 0,
    confidence: float = 0.95,
) -> McEstimate:
    """Fraction of uniform tuples in [1,n]^r that satisfy the constraint."""
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0,1), got {confidence}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _INT64_MAX:
        raise CapacityError(f"samples are int64 tuples, so n may be at most 2**63 - 1, got {n}")
    r = constraint.r
    hits = 0
    chunk = 1 << 16
    for s0 in range(0, samples, chunk):
        m = min(chunk, samples - s0)
        # coordinate i of sample s consumes draw index s*r + i
        base = np.arange(s0, s0 + m, dtype=np.uint64) * np.uint64(r)
        cols = [
            (_draws(seed, base + np.uint64(i)) % np.uint64(n)).astype(np.int64) + 1
            for i in range(r)
        ]
        hits += int(np.count_nonzero(counting.member_bulk(cols, constraint)))
    return McEstimate(
        mean=hits / samples,
        half_width=hoeffding_half_width(samples, confidence),
        samples=samples,
        seed=seed,
        confidence=confidence,
    )
