import operator

import pytest
from hypothesis import given, strategies as st

from birat2 import (
    EffortBoundExceeded,
    SquarefreeInt,
    factorize,
    field_discriminant,
    is_2birational_quadratic,
    is_prime,
    jacobi,
    kronecker,
    make_field,
    primes_up_to,
    squarefree_decompose,
    verify_2birational_quadratic_oracle,
    verify_2rational_quadratic,
)
from birat2.arith import check_odd_prime


def brute_legendre(a, p):
    """Independent oracle: quadratic residues by exhausting squares mod p."""
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


def test_jacobi_examples():
    assert jacobi(1, 15) == 1
    # brute force: squares mod 3 are {0, 1}, 5 = 2 is a non-residue
    assert brute_legendre(5, 3) == -1
    assert jacobi(5, 3) == -1
    # squares mod 5 are {0, 1, 4}
    assert brute_legendre(3, 5) == -1
    assert jacobi(3, 5) == -1


def test_jacobi_agrees_with_brute_legendre():
    for p in primes_up_to(200):
        if p == 2:
            continue
        for a in range(p):
            assert jacobi(a, p) == brute_legendre(a, p), (a, p)


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 4)
    with pytest.raises(ValueError):
        jacobi(3, 0)
    with pytest.raises(ValueError):
        jacobi(3, -5)


@given(st.integers(-500, 500), st.integers(-500, 500), st.integers(0, 2500))
def test_jacobi_multiplicative(a, b, k):
    n = 2 * k + 1
    if n < 1:
        return
    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_jacobi_euler_criterion_exhaustive():
    for p in primes_up_to(1000):
        if p == 2:
            continue
        for a in range(1, p):
            e = pow(a, (p - 1) // 2, p)
            e = -1 if e == p - 1 else e
            assert jacobi(a, p) == e, (a, p)


def test_kronecker_examples():
    assert kronecker(-15, 2) == 1  # -15 = 1 (mod 8)
    assert kronecker(12, 5) == -1  # (12|5) = (3|5), squares mod 5 = {1, 4}
    assert kronecker(24, 5) == 1  # (24|5) = (4|5) = 1


def test_kronecker_at_two_convention():
    for D in range(-50, 50):
        expected = 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
        assert kronecker(D, 2) == expected, D


def test_kronecker_multiplicative_in_m():
    for D in (-20, -15, -7, 5, 12, 21, 40):
        for m1 in range(1, 40):
            for m2 in range(1, 20):
                assert kronecker(D, m1 * m2) == kronecker(D, m1) * kronecker(D, m2)


def test_kronecker_rejects_nonpositive():
    with pytest.raises(ValueError):
        kronecker(5, 0)


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(91)  # 7 * 13
    assert is_prime(103)


def test_is_prime_against_sieve():
    table = set(primes_up_to(10_000))
    for n in range(1, 10_001):
        assert is_prime(n) == (n in table), n


def test_is_prime_range_errors():
    with pytest.raises(ValueError):
        is_prime(0)
    with pytest.raises(OverflowError):
        is_prime(10**25)


def test_squarefree_decompose_examples():
    s, f = squarefree_decompose(12)
    assert (s.value, f) == (3, 2)
    s, f = squarefree_decompose(-45)
    assert (s.value, f) == (-5, 3)
    s, f = squarefree_decompose(7)
    assert (s.value, f) == (7, 1)


def test_squarefree_decompose_rejects_zero():
    with pytest.raises(ValueError):
        squarefree_decompose(0)


@given(st.integers(-10**6, 10**6).filter(lambda n: n != 0))
def test_squarefree_decompose_reconstructs(n):
    s, f = squarefree_decompose(n)
    assert s.value * f * f == n
    prod = 1
    for p in s.primes:
        prod *= p
    assert prod == abs(s.value)
    # squarefree: no repeated primes
    assert len(set(s.primes)) == len(s.primes)


def test_factorize_effort_bound():
    # two primes just above the trial division bound
    p = 1_000_003
    q = 1_000_033
    assert is_prime(p) and is_prime(q)
    with pytest.raises(EffortBoundExceeded):
        factorize(p * q)
    # a prime cofactor is still fine
    assert factorize(2 * p) == [(2, 1), (p, 1)]
    # and so is a prime square
    assert factorize(p * p) == [(p, 2)]


def test_squarefree_int_validation():
    with pytest.raises(ValueError):
        SquarefreeInt(12, (2, 2, 3))
    with pytest.raises(ValueError):
        SquarefreeInt(12, (2, 3))
    with pytest.raises(ValueError):
        SquarefreeInt(-30, (3, 2, 5))
    s = SquarefreeInt(-30, (2, 3, 5))
    assert s.primes == (2, 3, 5) and s.odd_primes == (3, 5)


def test_odd_prime_validation():
    assert check_odd_prime(3) == 3
    with pytest.raises(ValueError, match="dyadic"):
        check_odd_prime(2)
    with pytest.raises(ValueError, match="not prime"):
        check_odd_prime(9)
    with pytest.raises(TypeError):
        check_odd_prime(3.9)


def test_entry_points_refuse_floats():
    # int() would truncate 7.9 to the prime 7 = 7 (mod 16), a positive
    for call in (
        lambda: is_2birational_quadratic(7.9),
        lambda: make_field([2.5, -7.2]),
        lambda: verify_2birational_quadratic_oracle(7.9),
        lambda: verify_2rational_quadratic(3.7),
    ):
        with pytest.raises(TypeError):
            call()
    # labels are integers to all of them
    label = SquarefreeInt(7, (7,))
    assert int(label) == operator.index(label) == 7
    assert make_field([label]) == make_field([7])
    assert is_2birational_quadratic(label).positive
    assert verify_2birational_quadratic_oracle(label) == verify_2birational_quadratic_oracle(7)
    assert verify_2rational_quadratic(SquarefreeInt(2, (2,)))


def test_field_discriminant():
    assert field_discriminant(5) == 5
    assert field_discriminant(-7) == -7
    assert field_discriminant(3) == 12
    assert field_discriminant(-14) == -56
    with pytest.raises(ValueError):
        field_discriminant(1)
