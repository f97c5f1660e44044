"""The quotient-set run sum in its plain per-run form, kept as a test oracle.

``counting._run_sum`` sums every run of d with constant quotients B_i // d in
a few numpy calls, choosing int64 or Python integers for each run by a
float64 bound.  This module walks the runs one at a time in Python integers,
so the two routes must agree exactly.
"""

from math import prod


def run_sum(bounds, F, w=None) -> int:
    """sum_d f(d) prod_i w(B_i // d) in Python integers (w = None: the identity),
    one term per run of d on which every B_i // d is constant, with F a
    callable giving the running sum of f at every B_i // k."""
    total = prev = 0
    d, last = 1, min(bounds)
    while d <= last:
        quotients = [b // d for b in bounds]
        d = min([b // q for b, q in zip(bounds, quotients)]) + 1
        now = F(d - 1)
        total += (now - prev) * prod(quotients if w is None else map(w, quotients))
        prev = now
    return total
