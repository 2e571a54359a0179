import itertools
import math

import pytest

from birat2 import AbelianGroupStructure, TheoremViolation, narrow_class_group, quadforms
from birat2.quadforms import restricted_2class_quotient
from birat2.rayclass import smith_invariant_factors

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


def torsion_counts(orders, p):
    """Elements of order dividing p^k in the product of cyclic groups of the
    given orders, for k up to the largest exponent of p."""
    top = max((valuation(o, p) for o in orders), default=0)
    return [math.prod(math.gcd(o, p**k) for o in orders) for k in range(top + 1)]


def test_invariant_factors_exhaustive_to_three_factors():
    # the determinantal divisors of a diagonal presentation and the torsion
    # counts of the same cyclic product give one chain, prime by prime
    for n in range(4):
        for orders in itertools.product(range(1, 25), repeat=n):
            rows = [[o if j == i else 0 for j in range(n)] for i, o in enumerate(orders)]
            factors = smith_invariant_factors(rows, n)
            assert all(d >= 2 for d in factors), orders
            assert all(b % a == 0 for a, b in zip(factors, factors[1:])), orders
            assert elementary_divisors(factors) == elementary_divisors(orders), orders
            counts = {p: torsion_counts(orders, p) for p in PRIMES_TO_24}
            structure = AbelianGroupStructure.from_torsion_counts(counts)
            assert structure.invariant_factors == factors, orders


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


def test_quotient_order_self_check_raises(monkeypatch):
    narrow_class_group.cache_clear()
    try:
        narrow_class_group(-84)  # built with the real torsion counts
        monkeypatch.setattr(quadforms, "_torsion_counts", lambda *args: [1])
        with pytest.raises(TheoremViolation, match="D=-84: Cl' has order 1, not 2"):
            restricted_2class_quotient(-84)
    finally:
        narrow_class_group.cache_clear()
