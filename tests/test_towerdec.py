import pytest

from birat2 import (
    PrimitivityClass,
    decomposition_profile,
    primes_up_to,
    primitivity_over_Q,
)

PRIMITIVE = PrimitivityClass("primitive", 0)
SEMI_PRIMITIVE = PrimitivityClass("semi-primitive", 1)


def brute_order_up_to_sign(q, modulus):
    """Independent oracle: smallest f with q^f = +-1 (mod modulus)."""
    x = q % modulus
    for f in range(1, modulus):
        if x in (1, modulus - 1):
            return f
        x = x * q % modulus
    raise AssertionError


def degrees_and_counts(prof):
    return [lvl.f for lvl in prof.levels], [lvl.g for lvl in prof.levels]


def test_profile_examples():
    prof = decomposition_profile(3, 3)
    assert degrees_and_counts(prof) == ([2, 4, 8], [1, 1, 1])
    # oracle: orders of 3 modulo +-1 mod 8, 16, 32
    assert [brute_order_up_to_sign(3, 1 << (n + 2)) for n in (1, 2, 3)] == [2, 4, 8]

    assert degrees_and_counts(decomposition_profile(7, 2)) == ([1, 2], [2, 2])
    assert degrees_and_counts(decomposition_profile(17, 2)) == ([1, 1], [2, 4])


def test_profile_matches_brute_orders():
    for q in primes_up_to(500):
        if q == 2:
            continue
        prof = decomposition_profile(q, 5)
        for lvl in prof.levels:
            assert lvl.f == brute_order_up_to_sign(q, 1 << (lvl.n + 2))


def test_profile_input_validation():
    with pytest.raises(ValueError):
        decomposition_profile(9, 3)
    with pytest.raises(ValueError):
        decomposition_profile(3, 0)


def test_primitivity_examples():
    assert primitivity_over_Q(3) == PRIMITIVE
    assert primitivity_over_Q(7) == SEMI_PRIMITIVE
    assert primitivity_over_Q(41) == SEMI_PRIMITIVE  # 41 = -7 (mod 16)
    assert primitivity_over_Q(17).kind == "imprimitive"
    assert primitivity_over_Q(31).split_depth == 3  # 31 = -1 (mod 32), not mod 64


def test_primitivity_congruences():
    for q in primes_up_to(2000):
        if q == 2:
            continue
        cls = primitivity_over_Q(q)
        assert cls.is_primitive == (q % 8 in (3, 5))
        assert (cls == SEMI_PRIMITIVE) == (q % 16 in (7, 9))


def test_primitivity_matches_profile_exhaustively():
    # congruence law versus the order computation, primes to 1e4 at depth 6
    for q in primes_up_to(10_000):
        if q == 2:
            continue
        cls = primitivity_over_Q(q)
        prof = decomposition_profile(q, 6)
        if cls.is_primitive:
            assert all(lvl.f == 1 << lvl.n for lvl in prof.levels)
        elif cls == SEMI_PRIMITIVE:
            assert all(lvl.g == 2 for lvl in prof.levels)
            assert all(lvl.f == 1 << (lvl.n - 1) for lvl in prof.levels)
        else:
            d = min(cls.split_depth, 6)
            assert all(lvl.g == 1 << min(lvl.n, d) for lvl in prof.levels)


def test_from_split_depth():
    assert PrimitivityClass.from_split_depth(0) == PRIMITIVE
    assert PrimitivityClass.from_split_depth(1) == SEMI_PRIMITIVE
    cls = PrimitivityClass.from_split_depth(3)
    assert cls.kind == "imprimitive" and cls.split_depth == 3
    with pytest.raises(ValueError):
        PrimitivityClass.from_split_depth(-1)

