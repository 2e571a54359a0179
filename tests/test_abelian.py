import itertools

import pytest

from birat2 import AbelianGroupStructure, TheoremViolation, narrow_class_group, quadforms
from birat2.quadforms import restricted_2class_quotient

PRIMES_TO_24 = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def elementary_divisors(orders):
    """Independent invariant: per prime, the sorted nonzero valuations."""
    return {
        p: sorted(v for v in (valuation(d, p) for d in orders) if v) for p in PRIMES_TO_24
    }


def test_from_cyclic_orders_exhaustive_to_three_factors():
    for n in range(4):
        for orders in itertools.product(range(1, 25), repeat=n):
            factors = AbelianGroupStructure.from_cyclic_orders(list(orders)).invariant_factors
            assert all(d >= 2 for d in factors), orders
            assert all(b % a == 0 for a, b in zip(factors, factors[1:])), orders
            assert elementary_divisors(factors) == elementary_divisors(orders), orders


def test_from_cyclic_orders_leaves_its_argument_alone():
    orders = [4, 6]
    assert AbelianGroupStructure.from_cyclic_orders(orders).invariant_factors == (2, 12)
    assert orders == [4, 6]


def test_from_torsion_counts():
    # Z/2 x Z/4: 1, 4 and 8 elements killed by 1, 2 and 4
    assert AbelianGroupStructure.from_torsion_counts({2: [1, 4, 8]}).invariant_factors == (2, 4)
    # Z/2 x Z/3 = Z/6
    assert AbelianGroupStructure.from_torsion_counts({2: [1, 2], 3: [1, 3]}).invariant_factors == (
        6,
    )
    assert AbelianGroupStructure.from_torsion_counts({}).is_trivial
    # extra steps after the exponent change nothing
    assert AbelianGroupStructure.from_torsion_counts({2: [1, 2, 2, 2]}).invariant_factors == (2,)
    with pytest.raises(TheoremViolation):
        AbelianGroupStructure.from_torsion_counts({2: [1, 3]})


def test_two_part():
    assert AbelianGroupStructure((2, 12, 24)).two_part == AbelianGroupStructure((2, 4, 8))
    assert AbelianGroupStructure((3, 15)).two_part.is_trivial
    assert AbelianGroupStructure((3, 6)).two_part.invariant_factors == (2,)
    assert AbelianGroupStructure(()).two_part.is_trivial
    for n in range(2, 400, 2):
        (two,) = AbelianGroupStructure((n,)).two_part.invariant_factors
        assert two & (two - 1) == 0 and n % two == 0 and (n // two) % 2 == 1, n


def test_quotient_order_self_check_raises(monkeypatch):
    narrow_class_group.cache_clear()
    try:
        narrow_class_group(-84)  # built with the real torsion counts
        monkeypatch.setattr(quadforms, "_torsion_counts", lambda *args: [1])
        with pytest.raises(TheoremViolation, match="D=-84: Cl' has order 1, not 2"):
            restricted_2class_quotient(-84)
    finally:
        narrow_class_group.cache_clear()
