import pytest

from birat2 import PrimitivityClass, primes_up_to, primitivity_over_Q

PRIMITIVE = PrimitivityClass(0)
SEMI_PRIMITIVE = PrimitivityClass(1)


def brute_order_up_to_sign(q, modulus):
    """Independent oracle: smallest f with q^f = +-1 (mod modulus)."""
    x = q % modulus
    for f in range(1, modulus):
        if x in (1, modulus - 1):
            return f
        x = x * q % modulus
    raise AssertionError


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
    # the profile law against the brute orders, primes to 1e4 at layers 1..6:
    # q has 2^n / f = 2^min(n, split_depth) places at layer n
    # oracle anchor: orders of 3 modulo +-1 mod 8, 16, 32
    assert [brute_order_up_to_sign(3, 1 << (n + 2)) for n in (1, 2, 3)] == [2, 4, 8]
    for q in primes_up_to(10_000):
        if q == 2:
            continue
        d = primitivity_over_Q(q).split_depth
        for n in range(1, 7):
            assert (1 << n) // brute_order_up_to_sign(q, 1 << (n + 2)) == 1 << min(n, d), (q, n)


def test_from_split_depth():
    classes = [PrimitivityClass(d) for d in (0, 1, 2, 3)]
    assert [c.split_depth for c in classes] == [0, 1, 2, 3]
    assert [c.kind for c in classes] == ["primitive", "semi-primitive", "imprimitive", "imprimitive"]
    assert [c.is_primitive for c in classes] == [True, False, False, False]
    assert [str(c) for c in classes] == [
        "primitive",
        "semi-primitive",
        "imprimitive(split_depth=2)",
        "imprimitive(split_depth=3)",
    ]
    with pytest.raises(ValueError):
        PrimitivityClass(-1)
