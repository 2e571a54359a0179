import pytest

from birat2 import (
    PrimitivityClass,
    TheoremViolation,
    decomposition_profile,
    place_primitivity_in_quadratic,
    prime_place,
    primes_up_to,
    primitivity_over_Q,
)
from birat2 import towerdec
from birat2.towerdec import INERT, RAMIFIED, SPLIT


def brute_order_up_to_sign(q, modulus):
    """Independent oracle: smallest f with q^f = +-1 (mod modulus)."""
    x = q % modulus
    for f in range(1, modulus):
        if x in (1, modulus - 1):
            return f
        x = x * q % modulus
    raise AssertionError


def test_profile_examples():
    prof = decomposition_profile(3, 3)
    assert prof.residue_degrees == (2, 4, 8)
    assert prof.place_counts == (1, 1, 1)
    # oracle: orders of 3 modulo +-1 mod 8, 16, 32
    assert [brute_order_up_to_sign(3, 1 << (n + 2)) for n in (1, 2, 3)] == [2, 4, 8]

    prof = decomposition_profile(7, 2)
    assert prof.residue_degrees == (1, 2)
    assert prof.place_counts == (2, 2)

    prof = decomposition_profile(17, 2)
    assert prof.residue_degrees == (1, 1)
    assert prof.place_counts == (2, 4)


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
    assert primitivity_over_Q(3) == PrimitivityClass.primitive()
    assert primitivity_over_Q(7) == PrimitivityClass.semi_primitive()
    assert primitivity_over_Q(41) == PrimitivityClass.semi_primitive()  # 41 = -7 (mod 16)
    assert primitivity_over_Q(17).kind == "imprimitive"
    assert primitivity_over_Q(31).split_depth == 3  # 31 = -1 (mod 32), not mod 64


def test_primitivity_congruences():
    for q in primes_up_to(2000):
        if q == 2:
            continue
        cls = primitivity_over_Q(q)
        assert cls.is_primitive == (q % 8 in (3, 5))
        assert cls.is_semi_primitive == (q % 16 in (7, 9))


def test_primitivity_matches_profile_exhaustively():
    # congruence law versus the order computation, primes to 1e4 at depth 6
    for q in primes_up_to(10_000):
        if q == 2:
            continue
        cls = primitivity_over_Q(q)
        prof = decomposition_profile(q, 6)
        if cls.is_primitive:
            assert all(lvl.f == 1 << lvl.n for lvl in prof.levels)
        elif cls.is_semi_primitive:
            assert all(lvl.g == 2 for lvl in prof.levels)
            assert all(lvl.f == 1 << (lvl.n - 1) for lvl in prof.levels)
        else:
            d = min(cls.split_depth, 6)
            assert all(lvl.g == 1 << min(lvl.n, d) for lvl in prof.levels)


def test_place_primitivity_examples():
    assert place_primitivity_in_quadratic(5, 3) == (
        INERT,
        PrimitivityClass.semi_primitive(),
    )
    assert place_primitivity_in_quadratic(10, 3) == (
        SPLIT,
        PrimitivityClass.primitive(),
    )
    assert place_primitivity_in_quadratic(5, 11) == (
        SPLIT,
        PrimitivityClass.primitive(),
    )


def test_place_primitivity_ramified_and_errors():
    splitting, cls = place_primitivity_in_quadratic(15, 3)
    assert splitting == RAMIFIED and cls is None
    with pytest.raises(ValueError):
        place_primitivity_in_quadratic(1, 3)
    with pytest.raises(ValueError):
        place_primitivity_in_quadratic(12, 5)  # not squarefree


def test_place_primitivity_rejects_depth_below_one():
    # as decomposition_profile does: no depth means no profile cross-check
    for m in (10, 15):  # split at 3, and ramified
        for depth in (0, -5):
            with pytest.raises(ValueError, match="depth must be >= 1, got"):
                place_primitivity_in_quadratic(m, 3, depth)
    assert place_primitivity_in_quadratic(10, 3, 1) == (SPLIT, PrimitivityClass.primitive())


def test_place_primitivity_mismatch_raises_theorem_violation(monkeypatch):
    # a profile that contradicts the congruence shortcut is a raised self-check
    monkeypatch.setattr(towerdec, "_order_mod_2power_up_to_sign", lambda q, n: 1)
    with pytest.raises(TheoremViolation, match="m=10, q=3 at layer 1"):
        place_primitivity_in_quadratic(10, 3)


def test_from_split_depth():
    assert PrimitivityClass.from_split_depth(0) == PrimitivityClass.primitive()
    assert PrimitivityClass.from_split_depth(1) == PrimitivityClass.semi_primitive()
    cls = PrimitivityClass.from_split_depth(3)
    assert cls.kind == "imprimitive" and cls.split_depth == 3
    with pytest.raises(ValueError):
        PrimitivityClass.from_split_depth(-1)


def test_split_places_inherit_base_class():
    # split q: the places of the quadratic field behave exactly like q over Q
    qs = [q for q in primes_up_to(500) if q != 2]
    ms = [2, -2]
    for p in primes_up_to(200):
        if p != 2:
            ms.extend([p, -p, 2 * p, -2 * p])
    for m in ms:
        for q in qs:
            splitting, cls = place_primitivity_in_quadratic(m, q)
            if splitting == SPLIT:
                assert cls == primitivity_over_Q(q), (m, q)
            elif splitting == INERT:
                base = primitivity_over_Q(q)
                if base.is_primitive:
                    assert cls.is_semi_primitive, (m, q)
                else:
                    assert cls.split_depth == base.split_depth + 1, (m, q)


def test_prime_place_bundle():
    place = prime_place(3)
    assert place.prime == 3
    assert place.primitivity.is_primitive
    assert place.profile.residue_degrees[0] == 2
