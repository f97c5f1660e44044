"""Constraint model: classes, side conditions, boxes."""

from fractions import Fraction

import pytest

from coprime_lab.constraints import (
    Box,
    CoprimeTo,
    DivisibleBy,
    Residue,
    TupleConstraint,
)
from coprime_lab.counting import member
from coprime_lab.errors import CapacityError


def test_class_constructors_and_effective_k():
    assert TupleConstraint.mutual(3).effective_k == 3
    assert TupleConstraint.pairwise(5).effective_k == 2
    assert TupleConstraint.kwise(4, 3).effective_k == 3


def test_subsets_enumeration():
    c = TupleConstraint.kwise(4, 3)
    assert c.subsets() == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert TupleConstraint.mutual(3).subsets() == ((0, 1, 2),)
    assert len(TupleConstraint.pairwise(4).subsets()) == 6


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TupleConstraint.mutual(1)
    with pytest.raises(ValueError):
        TupleConstraint.kwise(3, 4)  # k > r
    with pytest.raises(ValueError):
        TupleConstraint.kwise(3, 1)
    with pytest.raises(ValueError):
        TupleConstraint(r=3, kind="pairwise", k=2)  # k outside kwise
    with pytest.raises(ValueError):
        TupleConstraint(r=2, kind="diagonal")


def test_side_condition_validation():
    with pytest.raises(ValueError):
        TupleConstraint.mutual(2, (CoprimeTo(0), None))
    with pytest.raises(ValueError):
        TupleConstraint.mutual(2, (Residue(4, 4), None))
    with pytest.raises(ValueError):
        TupleConstraint.mutual(2, (Residue(4, -1), None))
    with pytest.raises(ValueError):
        TupleConstraint.mutual(2, (DivisibleBy(2),))  # wrong arity
    # moduli of different coordinates may share primes, in every class
    TupleConstraint.mutual(2, (DivisibleBy(4), DivisibleBy(6)))
    TupleConstraint.kwise(3, 2, (CoprimeTo(6), CoprimeTo(6), Residue(4, 1)))


def test_moduli_product_cap():
    TupleConstraint.mutual(2, (CoprimeTo(10**6), CoprimeTo(999_999)))
    for sides in (
        (DivisibleBy(9223372036854775837), None),
        (CoprimeTo(18446744073709551629), None),
        (Residue(10**6, 1), Residue(10**6 + 1, 0)),
    ):
        with pytest.raises(CapacityError):
            TupleConstraint.pairwise(2, sides)
    with pytest.raises(CapacityError):
        TupleConstraint.mutual(2, (CoprimeTo(10**6), CoprimeTo(10**6 + 1)))
    # the cap is on the distinct moduli: one modulus on every coordinate
    # counts once, whatever the side kind
    TupleConstraint.pairwise(3, (CoprimeTo(10**6),) * 3)
    TupleConstraint.mutual(2, (CoprimeTo(10**6), DivisibleBy(10**6)))


def test_admits():
    assert CoprimeTo(6).admits(35) and not CoprimeTo(6).admits(4)
    assert DivisibleBy(4).admits(12) and not DivisibleBy(4).admits(6)
    assert Residue(5, 2).admits(17) and not Residue(5, 2).admits(18)


def test_member_classic_example():
    # (6, 10, 15) is 3-wise but not pairwise coprime: no prime divides all
    # three coordinates, yet every pair shares one.
    x = (6, 10, 15)
    assert member(x, TupleConstraint.kwise(3, 3))
    assert member(x, TupleConstraint.mutual(3))
    assert not member(x, TupleConstraint.kwise(3, 2))
    assert not member(x, TupleConstraint.pairwise(3))


def test_member_with_sides():
    c = TupleConstraint.mutual(2, (DivisibleBy(2), DivisibleBy(3)))
    assert member((2, 3), c)
    assert member((4, 9), c)
    assert not member((2, 4), c)  # x2 fails its divisibility side
    assert not member((6, 3), c)  # gcd(6, 3) = 3


def test_describe_is_stable():
    c = TupleConstraint.pairwise(3, (CoprimeTo(2), None, Residue(5, 2)))
    assert c.describe() == "pairwise r=3 x1⊥2 x3≡2(5)"
    g = TupleConstraint.mutual(3, (CoprimeTo(6), CoprimeTo(6), CoprimeTo(5)))
    assert g.describe() == "mutual r=3 x1⊥6 x2⊥6 x3⊥5"


def test_box_cube_and_alpha():
    assert Box.cube(7, 3).bounds == (7, 7, 7)
    box = Box.from_alpha(10, (Fraction(1, 2), 1))
    assert box.bounds == (5, 10)
    assert Box.from_alpha(4, (Fraction(1, 3), Fraction(2, 3))).bounds == (1, 2)
    assert Box.from_alpha(5, (0, 1)).volume() == 0
    with pytest.raises(ValueError):
        Box.from_alpha(5, (Fraction(3, 2), 1))
    with pytest.raises(ValueError):
        Box(bounds=(6, 2), n=5)
