"""Counter-based sampling: reproducibility, reference vectors, coverage."""

import time

import numpy as np
import pytest

from coprime_lab import montecarlo as mc
from coprime_lab.constants import pairwise_constant, zeta_reciprocal
from coprime_lab.constraints import DivisibleBy, TupleConstraint
from coprime_lab.errors import CapacityError

MASK = (1 << 64) - 1


def _reference_splitmix64(seed: int, index: int) -> int:
    """Straight transcription of the published mixing constants."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_splitmix64_frozen_vectors():
    assert [mc.splitmix64(0, i) for i in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    assert [mc.splitmix64(42, i) for i in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


def test_splitmix64_matches_reference_transcription():
    for seed in (0, 1, 42, 2**63, 20260816):
        for index in (0, 1, 2, 1000, 10**12):
            assert mc.splitmix64(seed, index) == _reference_splitmix64(seed, index)


def test_sample_stream_is_a_pure_function_of_indices():
    full = mc.sample_stream(7, 0, 64)
    tail = mc.sample_stream(7, 20, 44)
    assert full.dtype == np.uint64
    assert np.array_equal(full[20:], tail)
    scalar = [mc.splitmix64(7, i) for i in range(64)]
    assert full.tolist() == scalar


def test_hoeffding_half_width_formula():
    hw = mc.hoeffding_half_width(10_000, 0.95)
    assert hw == pytest.approx(0.013581015157406192, rel=1e-12)
    # quadrupling the sample count halves the width
    assert mc.hoeffding_half_width(40_000, 0.95) == pytest.approx(hw / 2, rel=1e-12)


def test_estimate_is_deterministic():
    c = TupleConstraint.pairwise(3)
    a = mc.estimate(c, 1000, samples=5000, seed=11, confidence=0.9)
    b = mc.estimate(c, 1000, samples=5000, seed=11, confidence=0.9)
    assert a == b
    shifted = mc.estimate(c, 1000, samples=5000, seed=12, confidence=0.9)
    assert shifted.mean != a.mean


def test_estimate_echoes_parameters():
    est = mc.estimate(TupleConstraint.mutual(2), 100, samples=500, seed=4, confidence=0.8)
    assert (est.samples, est.seed, est.confidence) == (500, 4, 0.8)
    assert est.half_width == pytest.approx(mc.hoeffding_half_width(500, 0.8))
    assert 0.0 <= est.mean <= 1.0


def test_trivial_sides_leave_the_stream_unchanged():
    """A modulus-1 side condition filters nothing, so the sampled mean must be
    bit-identical to the plain class (same draws, same membership)."""
    plain = mc.estimate(TupleConstraint.pairwise(2), 10_000, samples=4000, seed=2)
    dressed = mc.estimate(
        TupleConstraint.pairwise(2, (DivisibleBy(1), None)), 10_000, samples=4000, seed=2
    )
    assert plain.mean == dressed.mean


def test_estimate_tracks_known_constants():
    est = mc.estimate(
        TupleConstraint.pairwise(2), 10**5, samples=200_000, seed=3, confidence=0.99
    )
    assert abs(est.mean - pairwise_constant(2).mid) <= est.half_width
    est3 = mc.estimate(
        TupleConstraint.mutual(3), 10**5, samples=100_000, seed=9, confidence=0.99
    )
    assert abs(est3.mean - zeta_reciprocal(3).mid) <= est3.half_width


def test_estimate_validation():
    c = TupleConstraint.mutual(2)
    with pytest.raises(ValueError):
        mc.estimate(c, 100, samples=50)
    with pytest.raises(ValueError):
        mc.estimate(c, 100, samples=1000, confidence=1.0)
    with pytest.raises(ValueError):
        mc.estimate(c, 0, samples=1000)


def test_estimate_refuses_n_past_int64():
    # coordinates are int64: 2**63 would wrap negative, 2**64 overflowed uint64
    c = TupleConstraint.mutual(2)
    for n in (2**63, 2**64, 10**30):
        with pytest.raises(CapacityError):
            mc.estimate(c, n, samples=1000)
    est = mc.estimate(c, 2**63 - 1, samples=1000, seed=5)
    assert 0.0 < est.mean < 1.0


def test_estimate_refuses_many_subsets_before_listing_them():
    # C(40, 20) ~ 1.4e11 subsets: member_bulk listed them all
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="constrained subsets"):
        mc.estimate(TupleConstraint.kwise(40, 20), 10, samples=100)
    assert time.perf_counter() - start < 2


def test_small_domain_exact_agreement():
    # n=2, mutual pairs: 3 of 4 tuples qualify; a large sample should hover
    # near 0.75 and never leave [0,1]
    est = mc.estimate(TupleConstraint.mutual(2), 2, samples=20_000, seed=0)
    assert abs(est.mean - 0.75) <= est.half_width
