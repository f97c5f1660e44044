"""Exact counting of constrained tuples in boxes.

Three counting routes, all integer-exact:

* brute force (``count_box_bruteforce``) — enumeration in numpy blocks: a
  histogram of running gcds when one subset covers every coordinate, 0/1
  coprimality matrix products for pairwise classes, and for the other k-wise
  classes a bit cube over the three coordinates with the fewest values per
  choice of the others; each kernel's time is estimated before any array is
  built and held to one cap.  The oracle everything else is checked against;
* Möbius inclusion-exclusion (``count_mobius``) —
  one squarefree summation variable d_S per constrained coordinate subset S
  (the full index set for mutual, all pairs for pairwise, all k-subsets for
  k-wise).  Since membership in each class is exactly "gcd(x_S) = 1 for every
  such S", expanding each indicator as sum_{d | gcd} mu(d) gives

      count = sum over assignments (d_S) of prod_S mu(d_S) * prod_i N_i(L_i),

  where L_i = lcm of the d_S over subsets containing coordinate i and N_i(L)
  counts the x <= B_i divisible by L that satisfy coordinate i's side
  condition.  Without a side condition N_i(L) = B_i // L; with one, N_i is a
  table over L <= B_i summed from the admissible values, so every side kind
  is counted from its definition.  The table is filled once per (bound, side)
  while the ``store`` keeps it, under the one byte budget that it shares with
  the sieve, Möbius and prefix tables.
  When one subset covers every coordinate (mutual, or k-wise with k = r)
  every L_i is one d, and without side conditions the count is
  sum_d mu(d) prod_i (B_i // d), one case of the quotient-set kernel below.
  Otherwise the assignments are grouped by L, whose coefficient c(L) is a
  product over primes of a factor that depends only on how many L_i the
  prime divides; a breadth-first search over primes, one level per prime in
  numpy batches, lists the rows (L, c(L)), counting them before it makes
  them, so a table past its row budget is refused before it takes memory (or
  a cached table replays them), and one row evaluator sums the products
  exactly, in int64 when the volume and the largest |c(L)| allow and in
  Python integers otherwise; the tests certify it against brute force.
* the recursive pairwise counter (``count_toth``) — peels one coordinate per
  level in a forward pass, grouping its admissible values by radical and
  carrying the ways to reach each set of accumulated coprimality primes that
  can still divide a remaining coordinate, down to a two-coordinate Möbius
  sum that runs once over every set, in blocks of rows of a coprimality
  mask: a row-wise prefix sum, or a per-divisor sum over the admissible
  multiples for a coordinate with a side condition.  ``count_box`` sends
  pairwise-type classes (subset size 2) with r >= 3, at most
  ``ENGINE_MAX_SUBSETS`` subsets and bounds up to ``TOTH_BOUND_CAP`` here and
  everything else to ``count_mobius``.

The quotient-set kernel sums f(d) prod_i w(B_i // d) over the O(sqrt(B)) runs
of d with constant quotients.  F = sum f comes as arrays at the sorted points
B // k and k <= sqrt(B), from a sieve to about B^(2/3) and the Deléglise-Rivat
recursion, so bounds up to 10**10 need no full sieve; the runs are then summed
in a few numpy calls, in int64 where a bound on each term allows and in Python
integers otherwise.  f = mu with w = id is the mutual count, f = phi with
w = id the gcd-weighted sum, and f = J with w(q) = q(q+1)/2 the lcm-weighted
sum, whose boxes on one grid share one F.  Also here: divisibility patterns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, combinations, islice
from math import ceil, comb, gcd, isqrt, lcm, prod

import numpy as np

from . import arith
from .constraints import (
    METHOD_BRUTEFORCE,
    METHOD_MOBIUS,
    METHOD_TOTH,
    Box,
    CoprimeTo,
    CountResult,
    DivisibleBy,
    TupleConstraint,
)
from .errors import CapacityError, UnsupportedError
from .store import kept

BRUTE_VOLUME_CAP = 25_000_000_000
# the brute-force work cap, in units of one gcd of the pairwise kernel: 58-64
# ns on 2 vCPUs, so 30-35 s (a 2e4 x 2e4 x 2 box, 4e8 gcds, took 26 s)
BRUTE_CELL_CAP = 500_000_000
MUTUAL_BOUND_CAP = 10**10  # cold there, 2 vCPUs: r=2 count 0.9 s, gcd sum 2.4 s, lcm sum 5.6 s
ENGINE_MAX_SUBSETS = 128


def shared_tables(limit: int) -> arith.ArithTables:
    """Sieve tables rounded up to a power of two, shared across counters.

    Where the power of two would pass ``arith.TABLE_LIMIT_MAX`` the table is
    built to ``limit`` itself, so the cap in force is the documented one and a
    refusal names the caller's limit.
    """
    size = max(2048, 1 << (limit - 1).bit_length())
    return _tables_of_size(size if size <= arith.TABLE_LIMIT_MAX else limit)


@kept
def _tables_of_size(size: int) -> arith.ArithTables:
    return arith.build_tables(size)


# ---------------------------------------------------------------------------
# membership


def member(x: tuple[int, ...], constraint: TupleConstraint) -> bool:
    """Does the tuple satisfy the class condition and all side conditions?

    The k-wise test uses the prime-multiplicity characterization (each prime
    may divide at most k-1 coordinates), which costs one factorization per
    coordinate instead of C(r,k) gcds.
    """
    if len(x) != constraint.r:
        raise ValueError(f"expected {constraint.r} coordinates, got {len(x)}")
    if any(v < 1 for v in x):
        raise ValueError(f"coordinates must be positive, got {x}")
    for v, side in zip(x, constraint.sides):
        if side is not None and not side.admits(v):
            return False
    if constraint.kind == "mutual":
        g = 0
        for v in x:
            g = gcd(g, v)
        return g == 1
    if constraint.kind == "pairwise":
        return all(
            gcd(x[i], x[j]) == 1 for i in range(len(x)) for j in range(i + 1, len(x))
        )
    k = constraint.k
    counts: dict[int, int] = {}
    for v in x:
        for p, _ in arith.factor_small(v):
            counts[p] = counts.get(p, 0) + 1
            if counts[p] > k - 1:
                return False
    return True


def member_bulk(cols: list[np.ndarray], constraint: TupleConstraint) -> np.ndarray:
    """Vectorized membership over column arrays (one array per coordinate).

    Evaluates the subset-gcd form of the class condition (equivalent to
    `member`, which the tests pin down) so batches stay in numpy.  Before any
    gcd, a row fails when one of ``_SMALL_PRIMES`` divides k or more of its
    coordinates (k = 2 for pairwise, r for mutual), as in `member`; the gcds
    then run on the rows left, one pair gcd per ``_pair_cover`` pair, shared
    by every subset that contains the pair.
    """
    _check_subset_cap(constraint)
    mask = np.ones(len(cols[0]), dtype=bool)
    for col, side in zip(cols, constraint.sides):
        if side is not None:
            mask &= _side_mask(col, side)
    r, k = constraint.r, constraint.effective_k
    if k < r:  # at k = r a prime must divide every coordinate: too rare to pay
        hits = np.empty(len(mask), dtype=np.uint8)
        for p in _SMALL_PRIMES:
            hits[:] = 0
            for col in cols:
                hits += _multiples_of(col, p)
            mask &= hits < k
    rows = np.flatnonzero(mask)
    cols = [col[rows] for col in cols]
    ok = np.ones(len(rows), dtype=bool)
    for (a, b), rests in _pair_cover(r, k):
        pair = np.gcd(cols[a], cols[b])
        for rest in rests:
            g = pair
            for i in rest:
                g = np.gcd(g, cols[i])
            ok &= g == 1
    mask[rows] = ok
    return mask


# member_bulk per 500k rows of the pairwise r = 4 / k-wise (4, 3) Monte Carlo
# rows at n = 1024, 2 vCPUs: no filter 164 / 138 ms, 2 alone 64 / 63, 2 and 3
# 39 / 57, 2, 3 and 5 35 / 58; adding 7 gave 38 / 61.
_SMALL_PRIMES = (2, 3, 5)


def _multiples_of(col: np.ndarray, p: int) -> np.ndarray:
    """Which entries of the positive int64 array ``col`` are multiples of the
    prime p: the low bit for p = 2; for odd p, x * p^-1 mod 2^64 permutes the
    residues and maps exactly the multiples of p to [0, (2^64 - 1) // p]."""
    if p == 2:
        return (col & 1) == 0
    inverse = np.uint64(pow(p, -1, 1 << 64))
    return col.view(np.uint64) * inverse <= np.uint64(((1 << 64) - 1) // p)


def _pair_cover(r: int, k: int) -> tuple:
    """The k-subsets of range(r), grouped as (pair, rests): each subset is a
    pair plus a rest.  The coordinates fall into k - 1 consecutive groups of
    balanced size, so every k-subset has two coordinates in one group, and
    its first such pair is the one it is filed under.  The pairs are the
    fewest that meet every k-subset (Turán): for k-wise (4, 3) {0,1} and
    {2,3}, two pair gcds instead of four triple gcds."""
    size, extra = divmod(r, k - 1)
    group = [g for g in range(k - 1) for _ in range(size + (g < extra))]
    cover: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for subset in combinations(range(r), k):
        a, b = next((a, b) for a, b in zip(subset, subset[1:]) if group[a] == group[b])
        cover.setdefault((a, b), []).append(tuple(i for i in subset if i not in (a, b)))
    return tuple((pair, tuple(rests)) for pair, rests in cover.items())


# ---------------------------------------------------------------------------
# side conditions per coordinate


def _side_mask(values: np.ndarray, side) -> np.ndarray:
    """Which entries of the int64 array ``values`` meet the side condition."""
    if side is None:
        return np.ones(len(values), dtype=bool)
    if isinstance(side, CoprimeTo):
        return np.gcd(values, side.modulus) == 1
    if isinstance(side, DivisibleBy):
        return values % side.modulus == 0
    return values % side.modulus == side.residue


def _admissible(bound: int, side) -> np.ndarray:
    """Boolean mask over [0, bound]: entry x says whether x >= 1 meets the side."""
    mask = _side_mask(np.arange(bound + 1, dtype=np.int64), side)
    mask[0] = False
    return mask


def _allowed_values(bound: int, side) -> np.ndarray:
    """All admissible coordinate values in [1, bound] as an int64 array."""
    return np.flatnonzero(_admissible(bound, side)).astype(np.int64, copy=False)


def _side_counts(bound: int, side):
    """N(L) = #{x <= bound : L | x, x meets the side} for 1 <= L <= bound.

    Returns N as a callable on an int or an integer array of L values: bound // L
    without a side condition, else a lookup in the kept ``_side_table`` of
    (bound, side), so a sweep over the sides of one box fills each table once.
    """
    if side is None:
        return lambda L: bound // L
    return partial(np.take, _side_table(bound, side))  # a third faster than indexing


@kept
def _side_table(bound: int, side) -> np.ndarray:
    """The read-only int32 table of N(L), 0 <= L <= bound, for ``_side_counts``,
    kept in the store, filled from the admissible values with a sqrt split: a
    strided count for each L <= s = isqrt(bound), then for each multiplier
    m <= bound // (s + 1) a strided add of the admissibility of m * L to every
    L in (s, bound // m].  That is O(bound log bound) element work in about
    2 sqrt(bound) numpy calls, whatever the modulus.
    """
    admissible = _admissible(bound, side)
    s = isqrt(bound)
    table = np.zeros(bound + 1, dtype=np.int32)  # N(L) <= bound <= the 10**8 sieve cap
    for L in range(1, s + 1):
        table[L] = np.count_nonzero(admissible[L::L])
    for m in range(1, bound // (s + 1) + 1):
        top = bound // m
        table[s + 1 : top + 1] += admissible[m * (s + 1) : m * top + 1 : m]
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# brute force


def count_box_bruteforce(box: Box, constraint: TupleConstraint) -> CountResult:
    """Exact count by enumeration; the oracle for every other method.

    ``_brute_plan`` picks the kernel by subset size: ``_brute_mutual`` when
    one subset covers every coordinate (mutual, k-wise with k = r, and r = 2),
    ``_brute_pairwise`` for subsets of size 2 with r >= 3, and ``_brute_kwise``
    for every k-wise class with 3 <= k < r.  Volume capped at 2.5e10, each
    coordinate bound at ``arith.TABLE_LIMIT_MAX``, and the kernel's time, as
    its plan estimates it before any array is built, at ``BRUTE_CELL_CAP``
    gcds of the pairwise kernel, about 30-35 s.
    """
    if box.r != constraint.r:
        raise ValueError(f"box is {box.r}-dimensional, constraint wants {constraint.r}")
    if box.volume() > BRUTE_VOLUME_CAP:
        raise CapacityError(
            f"box volume {box.volume()} exceeds the brute-force cap {BRUTE_VOLUME_CAP}"
        )
    # each coordinate's admissible values are an array over its whole bound
    if max(box.bounds) > arith.TABLE_LIMIT_MAX:
        raise CapacityError(
            f"coordinate bound {max(box.bounds)} exceeds the brute-force cap "
            f"{arith.TABLE_LIMIT_MAX} on one coordinate"
        )
    _check_subset_cap(constraint)
    counts = [_value_count(b, side) for b, side in zip(box.bounds, constraint.sides)]
    if 0 in counts:
        return CountResult(count=0, constraint=constraint, box=box, method=METHOD_BRUTEFORCE)
    kernel, _, work = _brute_plan(counts, box.bounds, constraint.effective_k)
    if work > BRUTE_CELL_CAP:
        raise CapacityError(
            f"brute force would take the time of about {work} gcds, past the cap {BRUTE_CELL_CAP}"
        )
    vals = [_allowed_values(b, side) for b, side in zip(box.bounds, constraint.sides)]
    count = kernel(vals)
    return CountResult(count=count, constraint=constraint, box=box, method=METHOD_BRUTEFORCE)


_BRUTE_BLOCK = 1 << 20  # gcd cells per numpy call: 8 MB of int64
# brute-force time in units of one pairwise gcd, fitted on 2 vCPUs.  A
# choice of the fixed values in _brute_pairwise: 0.3-12 us, most of it the
# product of its masks ((10**5, 3, 3, 3) to (60,) * 5).  In _brute_kwise,
# where no choice repeats another's test results: a test, 5-8 us of numpy
# calls on small tails; a cell of a gcd grid, at most a gcd and a gather,
# 3-4 ns; a byte of the cube or of a gathered index, about 0.1 ns.  At 60 ns
# a unit, k-wise estimates against times without and with the repeats
# looked up (min of 1-3 runs):
#   (300,) * 4, k = 3         0.87 s   0.45-0.8 s   0.27 s
#   (398,) * 4, k = 3         2.4 s    1.4 s        0.78 s
#   (100,) * 5, k = 3         2.7 s    1.2 s        0.62 s
#   (10**5, 5, 5, 5), k = 3   2.6 s    2.4 s        0.75 s
#   (3000, 3000, 60, 60), 3   6.7 s    3.0 s        0.41 s
#   (30, 30, 30, 500, 500), 3 16 s     11 s         4.0 s
#   (20,) * 7, k = 4          19 s     6.5 s        2.9 s
#   (60,) * 5, k = 4          4.0 s    0.16 s       0.06 s (few distinct gcds)
_CHOICE_UNITS = 150
_TEST_UNITS = 100
_KWISE_GCDS_PER_UNIT = 16
_CUBE_BYTES_PER_UNIT = 512


def _value_count(bound: int, side) -> int:
    """#{1 <= x <= bound : x meets the side}, without listing the values."""
    if side is None:
        return bound
    if isinstance(side, CoprimeTo):
        pairs = arith.signed_subset_products(arith.prime_divisors(side.modulus))
        return sum(mu * (bound // d) for d, mu in pairs)
    if isinstance(side, DivisibleBy):
        return bound // side.modulus
    return (bound - side.residue) // side.modulus + (side.residue > 0)


def _brute_plan(counts: list[int], bounds, k: int):
    """(kernel, gcds, work) for subsets of size k on arrays of ``counts``
    values: the brute-force kernel, an upper bound on the gcds it takes, in
    the order it sorts the arrays, and its time in units of one pairwise gcd.

    Mutual: each fold meets the distinct running gcds, at most the values of
    the first coordinate and at most its bound.  Pairwise: the three
    matrices, then per choice of the fixed values, one gcd with every value
    of the tails and of the fixed arrays still to come, plus the numpy calls
    of each choice.  K-wise: the gcd grids of the tail axes, once, then per
    choice of the fixed values one test on each set of tail axes that a
    k-subset can hold, at most a gcd per grid cell, plus the numpy calls of
    the tests, their gathers and the passes over the bit cube.
    """
    r = len(counts)
    if k == r:
        first, *rest = sorted(range(r), key=counts.__getitem__)
        distinct, gcds = counts[first], 0
        for i in rest:
            gcds += distinct * counts[i]
            distinct = min(distinct * counts[i], bounds[first])
        return _brute_mutual, gcds, gcds
    *fixed, z, y, x = sorted(counts, reverse=True)
    choices = prod(fixed) if fixed else 0
    if k == 2:
        # the masks of the two narrower tails are taken again for each block
        # of the widest one's rows
        blocks = -(-z // max(1, _BRUTE_BLOCK // y))
        gcds, prefixes = y * x + z * (y + x), 1
        for j, size in enumerate(fixed):
            prefixes *= size
            gcds += prefixes * (z + blocks * (y + x + sum(fixed[j + 1 :])))
        return _brute_pairwise, gcds, gcds + _CHOICE_UNITS * choices
    # the tail sizes j that a k-subset with a fixed coordinate can hold.  The
    # gcd grids of the tail axes are taken once; per choice a test on a grid
    # takes at most a gcd per cell and gathers an int64 index per cell, z
    # padded to whole words, and each test with z is a pass over the cube
    sizes = [j for j in (1, 2, 3) if 1 <= k - j <= len(fixed)]
    zw, pairs = 64 * -(-z // 64), x * y + x * z + y * z
    once = {1: 0, 2: pairs, 3: x * y + x * y * z}
    each = {1: x + y + z, 2: pairs, 3: x * y * z}
    cells = {1: x + y + zw, 2: x * y + (x + y) * zw, 3: x * y * zw}
    gcds = (k == 3) * once[3] + sum(once[j] + choices * each[j] for j in sizes)
    tests, masks = sum(comb(3, j) for j in sizes), sum(comb(2, j - 1) for j in sizes)
    cube_bytes = (1 + masks) * x * y * zw // 8 + 8 * sum(cells[j] for j in sizes)
    per_choice = _TEST_UNITS * (1 + tests) + comb(r, k) * k + cube_bytes // _CUBE_BYTES_PER_UNIT
    work = gcds // _KWISE_GCDS_PER_UNIT + choices * per_choice
    return partial(_brute_kwise, k=k), gcds, work


def _row_blocks(n_rows: int, width: int, block: int):
    """Row slices of an n_rows x width array, at most ``block`` cells each."""
    step = max(1, block // max(1, width))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _brute_mutual(vals, block: int = _BRUTE_BLOCK) -> int:
    # cnt[g] = #prefixes (x_1..x_j) with gcd g; each coordinate folds in by
    # gcd, and the last one adds sum_g cnt[g] #{x_r coprime to g}.  Taken in
    # increasing order of value count, so the widest coordinate meets only
    # the distinct gcds.  Every cnt is at most the volume, 2.5e10 < 2^53, so
    # the float64 weighted bincount is exact.
    *head, last = sorted(vals, key=len)
    cnt = np.bincount(head[0])
    for v in head[1:]:
        g = np.flatnonzero(cnt)
        weight = cnt[g].astype(np.float64)
        new = np.zeros(len(cnt), dtype=np.int64)
        for rows in _row_blocks(len(g), len(v), block):
            cells = np.gcd.outer(g[rows], v).ravel()
            new += np.bincount(cells, np.repeat(weight[rows], len(v)), len(cnt)).astype(np.int64)
        cnt = new
    g = np.flatnonzero(cnt)
    return sum(
        int(np.count_nonzero(np.gcd.outer(g[rows], last) == 1, axis=1) @ cnt[g[rows]])
        for rows in _row_blocks(len(g), len(last), block)
    )


def _brute_pairwise(vals, block: int = _BRUTE_BLOCK) -> int:
    # coordinates by decreasing value count: the first r - 3 are fixed one at
    # a time, and the last three, a, b, c, keep masks of the values coprime
    # to every fixed one.  With 0/1 matrices A = coprime(a, b),
    # B = coprime(b, c), C = coprime(a, c), each choice of the fixed ones adds
    # sum(C * (A @ B)) over the masked rows and columns; the rows of A and C
    # come in blocks, and the choices with one mask are summed once.  A row
    # of C * (A @ B) sums to at most len(b) len(c) <= volume^(2/3) < 2^24,
    # exact in float32, and the rows to at most the volume, exact in float64.
    # Where it takes fewer gcds than the three matrices, and at most 16 MB,
    # every 0/1 entry is gathered from one table over the distinct values.
    *fixed, a, b, c = sorted(vals, key=len, reverse=True)
    union = np.unique(np.concatenate(vals))
    cells = len(union) ** 2
    if cells < len(a) * len(b) + len(c) * (len(a) + len(b)) and cells <= _BRUTE_BLOCK << 4:
        table = np.empty((len(union), len(union)), dtype=bool)
        for rows in _row_blocks(len(union), len(union), block):
            table[rows, rows.start :] = np.gcd.outer(union[rows], union[rows.start :]) == 1
            table[rows.start :, rows] = table[rows, rows.start :].T
        *fixed, a, b, c = (np.searchsorted(union, v) for v in (*fixed, a, b, c))

        def coprime(p, q):
            return table[p[:, None], q]
    else:

        def coprime(p, q):
            return np.gcd.outer(p, q) == 1

    B = coprime(b, c).astype(np.float32)
    total = 0
    for rows in _row_blocks(len(a), len(b), block):
        A = coprime(a[rows], b).astype(np.float32)
        C = coprime(a[rows], c).astype(np.float32)
        cuts = (len(A), len(A) + len(b))
        for mask, times in _coprime_masks(fixed, np.concatenate((a[rows], b, c)), coprime, block):
            ma, mb, mc = np.split(mask, cuts) if fixed else (slice(None),) * 3
            AB = A[ma][:, mb] @ B[mb][:, mc]
            total += times * int(np.einsum("ij,ij->i", AB, C[ma][:, mc]).sum(dtype=np.float64))
    return total


def _coprime_masks(fixed, tails, coprime, block, mask=None):
    """For the pairwise coprime choices of one value per array in ``fixed``,
    the distinct masks of the values in ``tails`` coprime to all of them, each
    with the number of choices that give it (a mask can come more than once);
    one (None, 1) when ``fixed`` is empty.  ``coprime(p, q)`` is the 0/1
    matrix of p against q."""
    if not fixed:
        yield None, 1
        return
    head, *rest = fixed
    if rest:
        for i in range(len(head)):
            x = head[i : i + 1]
            keep = coprime(x, tails)[0]
            yield from _coprime_masks(
                [v[coprime(x, v)[0]] for v in rest],
                tails,
                coprime,
                block,
                keep if mask is None else keep & mask,
            )
        return
    for rows in _row_blocks(len(head), len(tails), block):
        ok = coprime(head[rows], tails)
        if mask is not None:
            ok &= mask
        packed = np.packbits(ok, axis=1)
        keys = packed.view(f"V{packed.shape[1]}").ravel()
        _, first, times = np.unique(keys, return_index=True, return_counts=True)
        yield from zip(ok[first], times.tolist())


# _brute_kwise takes its gcd grids and its cube 2**17 cells at a time, 1 MB
# of int64 indices or uint64 words: (4, 3) peaks at 0.9 MB traced at
# n = 100, and at 9.2 MB at n = 300, where the cube alone is 3.6 MB
def _brute_kwise(vals, k: int, block: int = _BRUTE_BLOCK >> 3) -> int:
    # every k of the r coordinates coprime, 3 <= k < r.  By decreasing value
    # count the first r - 3 are fixed one value at a time, and a prefix is
    # dropped once a k-subset inside it shares a factor.  The last three,
    # z, y, x (axes 2, 1, 0 of the tail, z the widest), are counted as a
    # cube of bits along z, uint64 words laid out (words, x, y).  A k-subset
    # S with tail axes Q holds iff gcd(g, the values on Q) = 1, g the gcd of
    # S's fixed values.  The g of the subsets on Q merge into one modulus,
    # their lcm, which divides the product of the fixed values, at most the
    # volume; a modulus of 1 tests nothing.  The gcd grid of each Q is taken
    # once, so a test takes one gcd per distinct value of the grid and
    # gathers the rest: a weight on the popcounts of the (x, y) cells when Q
    # misses z, words ANDed into the cube when it holds z.  At k = 3 the
    # subset of the tail alone gives the cube every prefix starts from.
    if not all(map(len, vals)):
        return 0
    r = len(vals)
    *fixed, z, y, x = sorted(vals, key=len, reverse=True)
    f = len(fixed)
    words = -(-len(z) // 64)

    def gcd_grid(rows, cols, width):
        """The distinct gcds of ``rows`` against ``cols``, and the index into
        them of each cell as a (rows, width) array, 0 past ``cols``; taken
        in blocks of rows."""
        index = np.zeros((len(rows), width), dtype=np.intp)
        blocks = _row_blocks(len(rows), width, block)
        for b in blocks:
            index[b, : len(cols)] = np.gcd.outer(rows[b], cols)
        distinct = np.unique(np.concatenate([np.unique(index[b, : len(cols)]) for b in blocks]))
        for b in blocks:
            index[b] = np.searchsorted(distinct, index[b])
        return distinct, index

    @cache
    def grid(Q):
        """(distinct, index, at) for the gcds of the tail values on the axes
        Q.  Without z, index maps each (x, y) cell, broadcast along an axis
        Q misses, into distinct, and at is None.  With z, index is a
        (rows, 64 words) grid over the distinct values of Q's other axes
        (any index past z, where the cube's bits are 0), and at maps each
        (x, y) cell to its row."""
        if Q == (0,):
            return x, np.arange(len(x))[:, None], None
        if Q == (1,):
            return y, np.arange(len(y))[None, :], None
        if Q == (2,):
            return z, np.minimum(np.arange(64 * words), len(z) - 1)[None, :], np.zeros((1, 1), dtype=np.intp)
        if Q == (0, 1):
            return (*gcd_grid(x, y, len(y)), None)
        rows, at, _ = grid(Q[:-1])
        return (*gcd_grid(rows, z, 64 * words), at)

    def test(Q, ok):
        """The cells of Q's grid whose distinct gcd is ``ok``: bools over the
        (x, y) cells, or, with z, (words, rows) uint64 and the row of each
        (x, y) cell."""
        _, index, at = grid(Q)
        ok = ok[index]
        return (ok, None) if at is None else (np.packbits(ok, axis=-1).view(np.uint64).T, at)

    # each k-subset by its fixed part P and its tail axes Q
    closers = [[] for _ in range(f)]
    with_tail: dict[tuple, list[tuple]] = {}
    for S in combinations(range(r), k):
        P = tuple(i for i in S if i < f)
        Q = tuple(sorted(r - 1 - i for i in S if i >= f))
        if not Q:
            closers[P[-1]].append(P)
        elif P:
            with_tail.setdefault(P, []).append(Q)
    tested = {Q for Qs in with_tail.values() for Q in Qs}
    for Q in tested:
        grid(Q)  # before the cube, so their sorts do not add to its memory
    ones = np.packbits(np.arange(64 * words) < len(z)).view(np.uint64)[:, None, None]
    if k == 3:
        base = np.take(*test((0, 1, 2), grid((0, 1, 2))[0] == 1), axis=1)
        base &= ones
    else:
        base = np.broadcast_to(ones, (words, len(x), len(y)))
    per_cell = np.bitwise_count(base).sum(axis=0, dtype=np.uint32)
    blocks = _row_blocks(len(x), words * len(y), block)
    all_cells = np.ones((1, 1), dtype=bool)
    buf = np.empty((words, blocks[0].stop, len(y)), dtype=np.uint64)
    chosen = [0] * f
    # a choice's count depends only on its tests' results on the distinct
    # gcds, so a choice that repeats them is looked up; the results kept,
    # each under 1 KB of objects and a byte per distinct gcd, stay under
    # about 1 MB
    seen: dict[tuple, int] = {}
    room = _BRUTE_BLOCK // (1024 + sum(len(grid(Q)[0]) for Q in tested))

    def count(d: int) -> int:
        if d < f:
            total = 0
            for v in fixed[d].tolist():
                chosen[d] = v
                if all(gcd(*[chosen[i] for i in P]) == 1 for P in closers[d]):
                    total += count(d + 1)
            return total
        moduli: dict[tuple, int] = {}
        for P, Qs in with_tail.items():
            g = gcd(*[chosen[i] for i in P])
            if g > 1:
                for Q in Qs:
                    moduli[Q] = lcm(moduli.get(Q, 1), g)
        oks = {Q: np.gcd(m, grid(Q)[0]) == 1 for Q, m in moduli.items()}
        key = tuple((Q, ok.tobytes()) for Q, ok in oks.items())
        if key not in seen:
            if len(seen) >= room:
                seen.clear()
            seen[key] = leaf(oks)
        return seen[key]

    def leaf(oks) -> int:
        weight, masks = all_cells, []
        for Q, ok in oks.items():
            ok, at = test(Q, ok)
            if at is None:
                weight = weight & ok
            else:
                masks.append((ok, at))
        if not masks:
            return int((per_cell * weight).sum())
        total = 0
        for rows in blocks:
            cube, src = buf[:, : rows.stop - rows.start], base[:, rows]
            for ok, at in masks:
                src = np.bitwise_and(src, ok.take(at[rows] if len(at) > 1 else at, axis=1), out=cube)
            w = weight[rows] if len(weight) > 1 else weight
            total += int((np.bitwise_count(cube).sum(axis=0, dtype=np.uint32) * w).sum())
        return total

    return count(0)


# ---------------------------------------------------------------------------
# the Möbius engine


def _pattern_coefficient(m: int, k: int) -> int:
    """sum of (-1)^|F| over the families F of k-subsets of an m-set whose union
    is the whole set: 1 at m = 0, 0 for 0 < m < k, and (-1)^(m-k+1) C(m-1, k-1)
    from m = k on (Hu, Int. J. Number Theory 9, 2013)."""
    if m < k:
        return int(m == 0)
    return (-1) ** (m - k + 1) * comb(m - 1, k - 1)


def _check_subset_cap(constraint: TupleConstraint) -> None:
    """Refuse more constrained subsets than ENGINE_MAX_SUBSETS before any is
    listed: listing the C(40, 20) of k-wise r = 40, k = 20 would not end."""
    subsets = comb(constraint.r, constraint.effective_k)
    if subsets > ENGINE_MAX_SUBSETS:
        raise CapacityError(
            f"{subsets} constrained subsets exceed the engine cap {ENGINE_MAX_SUBSETS}"
        )


_MOBIUS_ROWS_MAX = 2_000_000  # pairwise r = 7, n = 20 is refused in 0.9 s, under 100 MB, on 2 vCPUs
_MOBIUS_BATCH = 1 << 16  # rows made at once: a batch of frontier nodes, a slice of the table


@kept
def _mobius_table(bounds: tuple[int, ...], k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The rows (L, c(L)) of count = sum_L c(L) prod_i N_i(L_i) for the class
    whose constrained subsets are all k-subsets of the coordinates, as an
    (r, rows) int32 matrix of L values and an int64 coefficient vector, both
    read-only, and the largest |c(L)|.  The store keeps the table, so the
    side-condition variants of one box shape replay it instead of searching
    again.

    c(L) sums prod_S mu(d_S) over the assignments of squarefree d_S with lcm
    vector L, so it is a product over primes p of ``_pattern_coefficient`` of
    the number of L_i that p divides.  Only L with L_i <= B_i are listed; they
    need primes up to the k-th largest bound.  The primes are taken in
    increasing order, one level of the search per prime, breadth-first.  A
    level's frontier is numpy arrays of nodes (L, c(L), index of the first
    prime left), searched in batches; each pattern I of at least k coordinates
    gives a node one chunk of rows, "one more prime p on I" for every p from
    its first prime left up to min_{i in I} B_i // L_i, and the next level's
    frontier is the rows after whose p k coordinates still have room for a
    larger prime.  A batch keeps only its chunks, and rows are made from
    chunks already counted: the frontier batch by batch, the table once the
    search ends.  So a table past ``_MOBIUS_ROWS_MAX`` rows is refused before
    its rows take memory.
    """
    r = len(bounds)
    tables = shared_tables(max(bounds))
    primes = tables.primes[: int(np.searchsorted(tables.primes, sorted(bounds)[-k], side="right"))]
    primes = primes.astype(np.int32)  # every L_i <= B_i <= 10**8 fits in int32
    patterns = [list(I) for m in range(k, r + 1) for I in combinations(range(r), m)]
    on = np.array([[i in I for I in patterns] for i in range(r)])
    coefficient = np.array([_pattern_coefficient(len(I), k) for I in patterns])
    B = np.array(bounds, dtype=np.int32)[:, None]

    def extend(L, c, node, pattern, start, end):
        """The rows "prime t on pattern" of every chunk (node, pattern) and
        start <= t < end: their L, c(L) and index t + 1 of the first prime left."""
        lengths = np.maximum(end - start, 0)
        chunk = np.repeat(np.arange(len(node)), lengths)
        t = np.arange(len(chunk)) + np.repeat(start - np.cumsum(lengths) + lengths, lengths)
        p, owner, pattern = primes[t], node[chunk], pattern[chunk]
        A, on_row = L[:, owner], on[:, pattern]
        for i in range(r):
            np.multiply(A[i], p, out=A[i], where=on_row[i])
        return A, c[owner] * coefficient[pattern], (t + 1).astype(np.int32)

    def batches(L, c, node, pattern, start, end):
        """``extend``'s arguments cut into runs of about _MOBIUS_BATCH rows."""
        ends = np.cumsum(np.maximum(end - start, 0))
        cuts = np.searchsorted(ends, np.arange(_MOBIUS_BATCH, ends[-1], _MOBIUS_BATCH), side="right")
        cuts = list(dict.fromkeys([0, *cuts.tolist(), len(node)]))
        for lo, hi in zip(cuts, cuts[1:]):
            yield L, c, node[lo:hi], pattern[lo:hi], start[lo:hi], end[lo:hi]

    root = np.ones((r, 1), dtype=np.int32), np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int32)
    queue = deque([lambda: root])  # frontier batches, made when they are searched
    chunks, rows = [], 1  # row 0 is L = (1, ..., 1)
    while queue:
        L, c, first = queue.popleft()()
        room = B // L
        # p on i leaves room for a larger prime while p (p + 1) <= room_i (the
        # float root of an int below 2**31 is exact to the floor), off i while
        # p < room_i; a child needs k such coordinates
        square, below = ((np.sqrt(4.0 * room + 1) - 1) // 2).astype(np.int32), room - 1
        nodes, pattern, ends, stops = [], [], [], []
        for j, I in enumerate(patterns):
            end = np.searchsorted(primes, room[I].min(axis=0), side="right")
            node = np.flatnonzero(end > first)
            if len(node):
                end = end[node]
                rows += int(end.sum() - first[node].sum())
                if rows > _MOBIUS_ROWS_MAX:
                    raise CapacityError(f"the Möbius table passes {_MOBIUS_ROWS_MAX} rows")
                lim = np.where(on[:, j, None], square[:, node], below[:, node])
                lim = np.partition(lim, r - k, axis=0)[r - k]
                nodes.append(node)
                pattern.append(np.full(len(node), j))
                ends.append(end)
                stops.append(np.searchsorted(primes, lim, side="right"))
        if not nodes:
            continue
        node, pattern, end, stop = (np.concatenate(a, dtype=np.int32) for a in (nodes, pattern, ends, stops))
        start, stop = first[node], np.minimum(stop, end)
        chunks.append((L, c, node, pattern, start, end))
        if (stop > start).any():
            queue.extend(partial(extend, *b) for b in batches(L, c, node, pattern, start, stop))

    A = np.ones((r, rows), dtype=np.int32)
    W = np.ones(rows, dtype=np.int64)
    lo = 1
    for chunk in chunks:
        for batch in batches(*chunk):
            a, w, _ = extend(*batch)
            A[:, lo : lo + len(w)] = a
            W[lo : lo + len(w)] = w
            lo += len(w)
    A.flags.writeable = W.flags.writeable = False
    return A, W, int(np.abs(W).max())


def _triangle(n):
    return n * (n + 1) // 2


# f -> (h, G, H): f(m) = m prod_{p | m} h(p) / p (mu comes from the sieve
# table), and sum_{k <= x} g(k) F(x // k) = H(x) with F and G the running sums
# of f and g, as mu * 1 = [m = 1], phi * 1 = id and J * id^2 = id
_CONVOLUTIONS = {
    "mu": (None, lambda n: n, lambda x: 1),
    "phi": (lambda p: p - 1, lambda n: n, _triangle),
    "J": (lambda p: p - p * p, lambda n: n * (n + 1) * (2 * n + 1) // 6, _triangle),
}


@kept
def _prefix(kind: str, size: int) -> np.ndarray:
    """F(x) = sum_{m <= x} f(m) for 0 <= x <= size, read-only, f sieved on
    ``shared_tables(size)``: int64 where the slice totals, summed in Python
    integers, show that every value fits, Python integers otherwise."""
    h = _CONVOLUTIONS[kind][0]
    tables = shared_tables(size)
    f = tables.mobius
    if h is not None:
        # f(m) = f(m / p) times p if p = spf(m) divides m / p, else times h(p);
        # m / p <= m / 2, so each slice of m needs only the slices before it
        f = np.zeros(size + 1, dtype=np.int64)
        f[1] = lo = 1
        while lo < size:
            m = np.arange(lo + 1, min(2 * lo, lo + _ROW_SLICE, size) + 1)
            p = tables.spf[m].astype(np.int64)
            f[m] = f[m // p] * np.where(m // p % p == 0, p, h(p))
            lo = int(m[-1])
    # each slice sum is at most 2**62 in absolute value; while the totals before
    # the slices are too, every running sum fits in int64
    step = 2**62 // max(1, int(f.max()), -int(f.min()))
    totals = accumulate(np.add.reduceat(f, np.arange(0, len(f), step), dtype=np.int64).tolist())
    if max(map(abs, totals)) < 2**62:
        F = np.cumsum(f, dtype=np.int64)
    else:
        F = np.cumsum(f.astype(object))
    F.flags.writeable = False
    return F


def _quotient_points(bounds) -> np.ndarray:
    """The sorted int64 union, over B in ``bounds``, of B // k and k for
    1 <= k <= isqrt(B): every nonzero value of B // d, d >= 1.  So the points
    up to min(bounds) hold every end of a run of d on which each B // d is
    constant."""
    parts = [np.arange(1, isqrt(max(bounds)) + 1, dtype=np.int64)]
    parts += [b // np.arange(1, isqrt(b) + 1, dtype=np.int64) for b in bounds]
    xs = np.sort(np.concatenate(parts))
    new = np.ones(len(xs), dtype=bool)
    np.not_equal(xs[1:], xs[:-1], out=new[1:])
    return xs[new]  # not np.unique, which imports numpy.ma


def _summatory(bounds, kind: str):
    """F(x) = sum_{m <= x} f(m), f = ``kind``, at the points x of
    ``_quotient_points(bounds)``, with bounds at most MUTUAL_BOUND_CAP, as the
    arrays (xs, values): values in int64 when every |F(x)| < 2**62, so that
    differences of F fit too, and in Python integers otherwise.

    Values up to the limit y of one sieve table, y >= max(bounds)**(2/3), are
    ``_prefix`` entries.  Each larger x (at most B // y of them per B) takes,
    in increasing order, F(x) = H(x) - sum_{k >= 2} g(k) F(x // k): the k
    with x // k = q <= s = isqrt(x) in one dot product of F(q) with their
    weights G(x // q) - G(x // (q + 1)), the other k with x // k <= y in one
    dot product of table entries, and the k <= x // (y + 1), whose x // k are
    larger points found before x, in one gather and dot (Deléglise & Rivat,
    Exp. Math. 5, 1996)."""
    if max(bounds) > MUTUAL_BOUND_CAP:
        raise CapacityError(f"bound {max(bounds)} exceeds the cap {MUTUAL_BOUND_CAP}")
    _, G, H = _CONVOLUTIONS[kind]
    y = shared_tables(ceil(max(bounds) ** (2 / 3))).limit
    small = _prefix(kind, y)
    xs = _quotient_points(bounds)
    cut = int(np.searchsorted(xs, y, side="right"))
    large = xs[cut:]
    found = np.empty(len(large), dtype=object)
    top = max(int(small.max()), -int(small.min()))
    for i, x in enumerate(large.tolist()):
        s = isqrt(x)
        big = x // (y + 1)
        ends = x // np.arange(1, s + 2, dtype=np.int64)
        k = np.arange(big, x // (s + 1) + 1, dtype=np.int64)
        Fq, Fk = small[1 : s + 1], small[x // k[1:]]
        # the weights sum to at most G(x), and G's own products stay below
        # 6 G(x): int64 holds every partial sum when 6 top G(x) < 2**63
        if 6 * top * G(x) >= 2**63:
            ends, k, Fq, Fk = (a.astype(object) for a in (ends, k, Fq, Fk))
        Ge, Gk = G(ends), G(k)
        total = int(np.dot(Fq, Ge[:-1] - Ge[1:])) + int(np.dot(Fk, Gk[1:] - Gk[:-1]))
        if big > 1:
            j = np.arange(1, big + 1, dtype=np.int64)
            Gj = G(j)
            total += np.dot(found[np.searchsorted(large, x // j[1:])], Gj[1:] - Gj[:-1])
        found[i] = H(x) - total
    fits = top < 2**62 and all(-(2**62) < v < 2**62 for v in found)
    dtype = np.int64 if fits else object
    return xs, np.concatenate([small[xs[:cut]].astype(dtype), found.astype(dtype)])


def _run_sum(bounds, F, w=None) -> int:
    """sum_{d <= min(bounds)} f(d) prod_i w(B_i // d) (w = None: the identity),
    with F = (xs, values) the running sum of f at sorted points that hold the
    bounds' quotient points, such as ``_summatory`` of the bounds or of more
    bounds.  Each run (e', e] of d on which every B_i // d is constant gives
    one term (F(e) - F(e')) prod_i w(B_i // e), all of them in a few numpy
    calls: in int64 where a float64 bound on the term, inflated for rounding,
    is under 2**62 / runs, so that no product or partial sum overflows, and in
    Python integers otherwise."""
    if min(bounds) == 0:
        return 0
    xs, values = F
    ends = _quotient_points(bounds)
    ends = ends[: np.searchsorted(ends, min(bounds), side="right")]
    Fe = values[np.searchsorted(xs, ends)]
    dF = Fe.copy()
    dF[1:] -= Fe[:-1]
    qs = [b // ends for b in bounds]
    w = w or (lambda q: q)
    limit = 2**62 // len(ends)

    def terms(runs, dtype) -> int:
        acc = dF[runs].astype(dtype)
        for q in qs:
            acc *= w(q[runs].astype(dtype))
        return int(acc.sum())

    # a term's bound max(1, |F(e) - F(e')|) prod_i w(B_i // e) holds every
    # partial product, as w(q) >= 1, and w's own q (q + 1) is twice w(q)
    size = np.maximum(np.abs(dF.astype(float)), 1)
    with np.errstate(over="ignore"):  # an infinite bound goes to Python ints
        for q in qs:
            size *= w(q.astype(float))
    # 2r + 1 roundings in the bound and two in the test, each off by at most
    # 2**-53 of the value
    fits = size * (1 + (len(bounds) + 1) * 2.0**-51) < limit
    return terms(fits, np.int64) + terms(~fits, object)


_ROW_SLICE = 1 << 13


def _row_dtype(volume: int, wmax: int):
    """int64 when it holds every slice sum: a row's |w| prod_i N_i(L_i) is at
    most wmax * volume, so a slice of _ROW_SLICE rows sums to at most
    wmax * volume * _ROW_SLICE; Python integers otherwise."""
    return np.int64 if wmax * volume * _ROW_SLICE < 2**63 else object


def count_mobius(box: Box, constraint: TupleConstraint) -> CountResult:
    """Exact count via Möbius inclusion-exclusion over the constrained subsets.

    Handles every class and side-condition combination.  A single subset over
    every coordinate is summed over squarefree d: without side conditions by
    the quotient-set kernel with f = mu (bounds up to MUTUAL_BOUND_CAP), with
    them as one vectorized sum of mu(d) prod_i N_i(d).  Every other class sums
    the rows of ``_mobius_table``, whose sieve caps bounds at 10**8; systems
    of more than ENGINE_MAX_SUBSETS subsets are refused.
    """
    if box.r != constraint.r:
        raise ValueError(f"box is {box.r}-dimensional, constraint wants {constraint.r}")
    _check_subset_cap(constraint)
    if min(box.bounds) == 0:
        return CountResult(count=0, constraint=constraint, box=box, method=METHOD_MOBIUS)
    one_subset = constraint.effective_k == constraint.r
    if one_subset and all(s is None for s in constraint.sides):
        count = _run_sum(box.bounds, _summatory(box.bounds, "mu"))
        return CountResult(count=count, constraint=constraint, box=box, method=METHOD_MOBIUS)
    # the sieve or the Möbius table refuses a bound past its cap before any
    # side table is filled
    if one_subset:
        tables = shared_tables(max(box.bounds))
        sq = tables.squarefree_up_to(min(box.bounds))
        A = np.broadcast_to(sq, (box.r, len(sq)))
        W = tables.mobius[sq].astype(np.int64)
        wmax = 1
    else:
        A, W, wmax = _mobius_table(box.bounds, constraint.effective_k)
    counts = [_side_counts(b, side) for b, side in zip(box.bounds, constraint.sides)]
    dtype = _row_dtype(box.volume(), wmax)
    total = 0
    for lo in range(0, len(W), _ROW_SLICE):
        rows = slice(lo, lo + _ROW_SLICE)
        acc = W[rows].astype(dtype)
        for L, N in zip(A, counts):
            acc *= N(L[rows])
        total += int(acc.sum())
    return CountResult(count=total, constraint=constraint, box=box, method=METHOD_MOBIUS)


def count_box(box: Box, constraint: TupleConstraint, method: str | None = None) -> CountResult:
    """Count with the requested method, or with the engine suited to the input.

    ``auto`` (or None) sends pairwise-type classes (subset size 2) with r >= 3,
    at most ENGINE_MAX_SUBSETS subsets and bounds up to TOTH_BOUND_CAP to the
    peeling counter ``count_toth``, whose cost grows with the radicals of the
    values rather than with the C(r, 2) subset variables, and everything else
    to ``count_mobius``, which refuses more subsets than ENGINE_MAX_SUBSETS.
    """
    if method in (None, "auto"):
        pairwise_type = (
            constraint.effective_k == 2
            and constraint.r >= 3
            and comb(constraint.r, 2) <= ENGINE_MAX_SUBSETS
        )
        method = "toth" if pairwise_type and max(box.bounds) <= TOTH_BOUND_CAP else "mobius"
    if method == "mobius":
        return count_mobius(box, constraint)
    if method == "bruteforce":
        return count_box_bruteforce(box, constraint)
    if method == "toth":
        if box.r != constraint.r:
            raise ValueError(f"box is {box.r}-dimensional, constraint wants {constraint.r}")
        if constraint.effective_k != 2:
            raise UnsupportedError(
                "the recursive counter handles the pairwise class (subset size 2) only"
            )
        res = count_toth(box.bounds, sides=constraint.sides)
        return CountResult(count=res.count, constraint=constraint, box=box, method=METHOD_TOTH)
    raise ValueError(f"unknown counting method {method!r}")


# ---------------------------------------------------------------------------
# recursive pairwise counter: radical peeling

_TOTH_MEMO_MAX = 4_000_000
TOTH_BOUND_CAP = 100_000


def count_toth(bounds: tuple[int, ...], u: int = 1, sides=None) -> CountResult:
    """Pairwise-coprime tuples in the box, every coordinate coprime to u and
    coordinate i meeting ``sides[i]`` (None: no side conditions).

    Coordinates are peeled one at a time (Tóth, Fibonacci Quart. 40, 2002):
    with P_d(u) the count over the first d coordinates coprime to u,

        P_d(u) = sum over radicals rho of admissible x_d, (rho, u) = 1,
                 of #{x_d with radical rho} * P_{d-1}(u * rho),

    in which only the primes of u up to the largest of the first d bounds can
    divide those coordinates.  The recurrence is linear, so one forward pass,
    peeling the largest bounds first to keep the prime sets short, carries
    each set with its number of ways down to d = 2, and lists every set under
    a budget before the base runs.  The base is a Möbius sum,

        P_2(u) = sum over squarefree e, (e, u) = 1, of mu(e) Phi_1(e) Phi_2(e),
        Phi_i(e) = #{x_i admissible : e | x_i, (x_i, u) = 1},

    run once over all sets, a block of rows at a time: each row is the mask of
    the values coprime to one set.  Without a side, Phi_i(e) is the number of
    y <= B_i // e coprime to u, read from the row's prefix sum; with one, the
    row is summed over the admissible multiples of each e.  The cost grows
    with the number of distinct prime sets the peeled coordinates can
    accumulate, so steeply with r.

    A result without sides is tagged with the pairwise class (with the side
    ``CoprimeTo(u)`` on every coordinate when u > 1); with sides it carries no
    constraint, since ``count_box`` tags its own result with the caller's.
    """
    bounds = tuple(int(b) for b in bounds)
    r = len(bounds)
    if r < 1:
        raise ValueError("bounds must have at least one coordinate")
    if any(b < 0 for b in bounds):
        raise ValueError(f"bounds must be nonnegative, got {bounds}")
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    if sides is not None and len(sides) != r:
        raise ValueError(f"need {r} side conditions, got {len(sides)}")
    if max(bounds) > TOTH_BOUND_CAP:
        raise CapacityError(
            f"recursive counter capped at bounds <= {TOTH_BOUND_CAP}, got {bounds}"
        )
    count = 0
    if min(bounds) > 0:
        count = _peel(bounds, arith.prime_divisors(u), sides or (None,) * r)

    box = Box(bounds=bounds, n=max(max(bounds), 1))
    constraint = None
    if r >= 2 and sides is None:
        constraint = TupleConstraint.pairwise(r, (CoprimeTo(u),) * r if u > 1 else ())
    return CountResult(count=count, constraint=constraint, box=box, method=METHOD_TOTH)


def _peel(bounds, u_primes, sides) -> int:
    """The exact count of ``count_toth`` for positive bounds."""
    order = sorted(range(len(bounds)), key=bounds.__getitem__)
    B = [bounds[i] for i in order]
    S = [sides[i] for i in order]
    tables = shared_tables(B[-1])
    top = tuple(p for p in u_primes if p <= B[-1])

    # level[key] = [the primes that can divide a lower coordinate, key their
    # product; the ways to reach them], the root and every key under budget
    level = {prod(top): [top, 1]}
    stored = 1
    for i in range(len(B) - 1, 1, -1):
        cut = B[i - 1]
        rad = np.ones(B[i] + 1, dtype=np.int64)
        for p in tables.primes[tables.primes <= B[i]].tolist():
            rad[p :: p] *= p
        rho, cnt = np.unique(rad[_allowed_values(B[i], S[i])], return_counts=True)
        groups = []  # (rho, #x_i of radical rho, product and tuple of rho's primes <= cut)
        for rv, c in zip(rho.tolist(), cnt.tolist()):
            ps = tuple(p for p, _ in arith.factorize(rv, tables) if p <= cut)
            groups.append((rv, c, prod(ps), ps))
        below: dict[int, list] = {}
        for key, (primes, ways) in level.items():
            kp = tuple(p for p in primes if p <= cut)
            kk = prod(kp)
            for rv, c, rk, rp in groups:
                if gcd(key, rv) == 1:
                    entry = below.get(kk * rk)
                    if entry is None:
                        if stored >= _TOTH_MEMO_MAX:
                            raise CapacityError(f"the peeling counter passes {_TOTH_MEMO_MAX} keys")
                        stored += 1
                        entry = below[kk * rk] = [kp + rp, 0]
                    entry[1] += ways * c
        level = below
    return _peel_base(B[:2], S[:2], level.values(), tables)


def _peel_base(B, S, keys, tables) -> int:
    """The sum of ways * P_2(primes) over the (primes, ways) in ``keys``, P_2
    on the two smallest bounds ``B`` with sides ``S`` (P_1, the e = 1 term,
    for one bound).

    The keys go in blocks of rows.  A block is a (keys x (B[-1] + 1)) mask of
    the values coprime to each key, cleared by one strided assignment per
    prime of each key.  Phi_i at every squarefree e <= B[0] is then, without a
    side, one row-wise prefix sum of the mask gathered at B_i // e; with one,
    the mask gathered at the admissible multiples e m <= B_i and summed per e
    by one ``np.add.reduceat``.  Both count the x_i that e divides among
    those coprime to the key, which is Phi_i(e) when e is coprime to the key
    too; the mask at e drops the other e from the sum.
    """
    sq = tables.squarefree_up_to(B[0] if len(B) > 1 else 1)
    same = len(B) > 1 and (B[1], S[1]) == (B[0], S[0])
    # equal bound and side give equal Phi; reusing it saves about a third of a
    # cold cube's time at r=3 (n=10**4) and r=4 (n=1024)
    coords = range(1 if same else len(B))
    live = np.ones(len(sq), dtype=bool)
    multiples = {}  # coordinate with a side: (index of e, e m) for each admissible e m
    for i in coords:
        if S[i] is not None:
            per_e = B[i] // sq
            e_of = np.repeat(np.arange(len(sq)), per_e)
            at = sq[e_of] * (np.arange(len(e_of)) - (np.cumsum(per_e) - per_e)[e_of] + 1)
            ok = _admissible(B[i], S[i])[at]
            multiples[i] = (e_of[ok], at[ok])
            # Phi_i(e) = 0 for every key where the side admits no multiple of e
            live &= np.bincount(e_of[ok], minlength=len(sq)) > 0
    gathers = {}  # coordinate with a side: its admissible e m of live e, where each e starts
    for i, (e_of, at) in multiples.items():
        counts = np.bincount(e_of, minlength=len(sq))[live]
        gathers[i] = (at[live[e_of]], np.cumsum(counts) - counts)
    sq = sq[live]
    mu_sq = tables.mobius[sq].astype(np.int64)
    quotients = [b // sq for b in B]
    width = max([B[-1] + 1] + [len(at) for at, _ in gathers.values()])
    step = max(1, _ROW_SLICE >> 10, _ROW_SLICE // width)  # _ROW_SLICE cells, at least 8 rows
    total = 0
    keys = iter(keys)
    while block := list(islice(keys, step)):
        keep = np.ones((len(block), B[-1] + 1), dtype=bool)
        keep[:, 0] = False
        for j, (primes, _) in enumerate(block):
            for p in primes:
                keep[j, p::p] = False
        if len(gathers) < len(coords):
            prefix = np.cumsum(keep, axis=1, dtype=np.int32)
        phis = [
            np.add.reduceat(keep[:, gathers[i][0]], gathers[i][1], axis=1, dtype=np.int32)
            if i in gathers
            else np.take(prefix, quotients[i], axis=1)
            for i in coords
        ]
        if same:
            phis.append(phis[0])
        # |Phi_i(e)| <= B_i // e, so a row sums to at most zeta(2) B_0 B_1 < 2**63
        terms = mu_sq * np.take(keep, sq, axis=1)
        for phi in phis[1:]:
            terms *= phi
        values = np.vecdot(terms, phis[0]).tolist()
        total += sum(ways * v for (_, ways), v in zip(block, values))
    return total


# ---------------------------------------------------------------------------
# divisibility patterns


@dataclass(frozen=True)
class PatternMatrix:
    """0/1 matrix saying which listed prime divides which coordinate."""

    primes: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]  # one row per prime, r columns

    def __post_init__(self) -> None:
        object.__setattr__(self, "primes", tuple(int(p) for p in self.primes))
        object.__setattr__(
            self, "entries", tuple(tuple(int(e) for e in row) for row in self.entries)
        )
        if len(self.primes) != len(self.entries):
            raise ValueError("one entry row per prime required")
        if any(self.primes[i] >= self.primes[i + 1] for i in range(len(self.primes) - 1)):
            raise ValueError("primes must be strictly increasing")
        for p in self.primes:
            fac = arith.factor_small(p)
            if len(fac) != 1 or fac[0][1] != 1:
                raise ValueError(f"{p} is not prime")
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise ValueError("ragged entry rows")
            if any(e not in (0, 1) for row in self.entries for e in row):
                raise ValueError("entries must be 0 or 1")

    @property
    def r(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def pattern_count(n: int, pattern: PatternMatrix, alpha) -> CountResult:
    """#{x <= n*alpha : p_i | x_j exactly when entries[i][j] = 1}.

    Per coordinate: inclusion-exclusion over the primes required NOT to
    divide, on top of the forced divisor (product of required primes);
    coordinates multiply since the conditions are independent across j.
    """
    box = Box.from_alpha(n, alpha)
    if pattern.r != box.r:
        raise ValueError(f"pattern has {pattern.r} columns, alpha has {box.r}")
    total = 1
    for j, bound in enumerate(box.bounds):
        forced = prod(p for p, row in zip(pattern.primes, pattern.entries) if row[j])
        banned = [p for p, row in zip(pattern.primes, pattern.entries) if not row[j]]
        cnt = 0
        for sub, sign in arith.signed_subset_products(banned):
            cnt += sign * (bound // (forced * sub))
        total *= cnt
        if total == 0:
            break
    return CountResult(count=total, constraint=None, box=box, method=METHOD_MOBIUS)


# ---------------------------------------------------------------------------
# weighted gcd / lcm sums


def weighted_sum_gcd(n: int, alpha) -> int:
    """Exact sum of gcd(x, y) over x <= A = floor(n a), y <= B = floor(n b),
    A and B up to MUTUAL_BOUND_CAP: gcd(x, y) sums phi over the common
    divisors, so this is sum_e phi(e) floor(A/e) floor(B/e)."""
    return weighted_sums("gcd", n, [alpha])[0]


def weighted_sum_lcm(n: int, alpha) -> int:
    """Exact sum of lcm(x, y) over x <= A = floor(n a), y <= B = floor(n b),
    A and B up to MUTUAL_BOUND_CAP: grouped by the gcd it is
    sum_m J(m) T(floor(A/m)) T(floor(B/m)), T(q) = q(q+1)/2 and
    J(m) = m prod_{p | m} (1 - p)."""
    return weighted_sums("lcm", n, [alpha])[0]


# the weighted sum -> (f, w): sum_d f(d) w(A // d) w(B // d)
_WEIGHTED = {"gcd": ("phi", None), "lcm": ("J", _triangle)}


def weighted_sums(name: str, n: int, alphas) -> list[int]:
    """The gcd- or lcm-weighted sum (``name``) over each box
    ``Box.from_alpha(n, alpha)``, alpha in ``alphas``, every one of them run
    on one summatory over all their bounds."""
    boxes = [Box.from_alpha(n, alpha) for alpha in alphas]
    if any(box.r != 2 for box in boxes):
        raise ValueError(f"{name}-weighted sums are defined for 2-dimensional boxes")
    kind, w = _WEIGHTED[name]
    F = _summatory(sorted({b for box in boxes for b in box.bounds}), kind)
    return [_run_sum(box.bounds, F, w) for box in boxes]
