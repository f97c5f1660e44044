"""Densities, exact counts, and discrepancy measures for coprime tuples.

Tuples of positive integers can be required to be coprime as a whole
(mutual), in every pair (pairwise), or in every k-subset (k-wise), with
optional per-coordinate side conditions: coprimality to a fixed modulus,
divisibility, or a residue class.  This package computes

* the asymptotic density of such tuples, as a rigorously rounded interval
  (`density`, `pairwise_constant`, `kwise_constant`, `zeta_reciprocal`);
* exact counts in finite boxes by several independent methods
  (`count_box_bruteforce`, `count_mobius`, `count_toth`, `pattern_count`,
  plus gcd/lcm weighted sums);
* the exact sup-discrepancy between the empirical distribution of the
  tuples and the uniform law, over one prefix-count array (`build_grid`,
  `sup_discrepancy`) or streamed across scales (`rate_scan`);
* reproducible Monte Carlo estimates (`estimate`).

The command-line interface (``coprime-lab``) exposes the same four areas.
"""

from .arith import (
    ArithTables,
    build_tables,
    factor_small,
    factorize,
)
from .constants import (
    Interval,
    base_constant,
    correction_factor,
    density,
    kwise_constant,
    pairwise_constant,
    zeta,
    zeta_reciprocal,
)
from .constraints import (
    Box,
    CoprimeTo,
    CountResult,
    DivisibleBy,
    Residue,
    TupleConstraint,
)
from .counting import (
    PatternMatrix,
    count_box,
    count_box_bruteforce,
    count_mobius,
    count_toth,
    member,
    member_bulk,
    pattern_count,
    weighted_sum_gcd,
    weighted_sum_lcm,
)
from .discrepancy import (
    DiscrepancyReport,
    build_grid,
    measure_cdf_error,
    rate_scan,
    sup_discrepancy,
)
from .errors import CapacityError, CoprimeLabError, UnsupportedError
from .montecarlo import McEstimate, estimate, sample_stream, splitmix64

__version__ = "0.1.0"

__all__ = [
    "ArithTables",
    "Box",
    "CapacityError",
    "CoprimeLabError",
    "CoprimeTo",
    "CountResult",
    "DiscrepancyReport",
    "DivisibleBy",
    "Interval",
    "McEstimate",
    "PatternMatrix",
    "Residue",
    "TupleConstraint",
    "UnsupportedError",
    "base_constant",
    "build_grid",
    "build_tables",
    "correction_factor",
    "count_box",
    "count_box_bruteforce",
    "count_mobius",
    "count_toth",
    "density",
    "estimate",
    "factor_small",
    "factorize",
    "kwise_constant",
    "measure_cdf_error",
    "member",
    "member_bulk",
    "pairwise_constant",
    "pattern_count",
    "rate_scan",
    "sample_stream",
    "splitmix64",
    "sup_discrepancy",
    "weighted_sum_gcd",
    "weighted_sum_lcm",
    "zeta",
    "zeta_reciprocal",
]
