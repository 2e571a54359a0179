"""Exact integer number theory shared by every other module.

Everything here is pure and deterministic.  Three conventions are fixed
once and for all:

* ``is_prime`` is Miller-Rabin with the fixed witness set 2..37, which is
  deterministic for every ``n < 3.3e24``; larger inputs raise
  ``OverflowError`` instead of silently degrading to a probabilistic test.
* ``kronecker`` extends the Jacobi symbol with the textbook convention at
  the prime 2: ``(D|2) = 0`` for even D, ``+1`` for ``D = +-1 (mod 8)``,
  ``-1`` for ``D = +-3 (mod 8)``; and ``(D|1) = 1``.
* factorization is trial division with an explicit effort bound (complete
  for ``|n| <= 1e12`` with the default bound) plus a deterministic
  primality backstop for larger cofactors; exceeding the bound raises
  ``EffortBoundExceeded`` rather than running forever.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import EffortBoundExceeded

# Miller-Rabin with these witnesses is deterministic below this bound.
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Trial division by candidates up to this bound; guarantees complete
# factorization of any |n| <= FACTORIZATION_BOUND.
TRIAL_DIVISION_BOUND = 1_000_000
FACTORIZATION_BOUND = TRIAL_DIVISION_BOUND ** 2


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n; the Legendre symbol when n is prime."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs a positive odd modulus, got n={n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(D: int, m: int) -> int:
    """Kronecker symbol (D|m) for positive m, multiplicative in m.

    At 2 the convention is (D|2) = 0, +1, -1 according to D even,
    D = +-1 (mod 8), D = +-3 (mod 8).  Used throughout for splitting
    tests: a prime q is split / inert / ramified in the quadratic field
    of discriminant D according to (D|q) = +1 / -1 / 0.
    """
    if m < 1:
        raise ValueError(f"Kronecker symbol implemented for positive m only, got m={m}")
    result = 1
    while m % 2 == 0:
        m //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    if m == 1:
        return result
    return result * jacobi(D, m)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 1 <= n < PRIMALITY_BOUND."""
    if n < 1:
        raise ValueError(f"is_prime expects n >= 1, got {n}")
    if n >= PRIMALITY_BOUND:
        raise OverflowError(
            f"n={n} exceeds the deterministic primality bound {PRIMALITY_BOUND}"
        )
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve of Eratosthenes."""
    if n < 2:
        return []
    s = bytearray([1]) * (n + 1)
    s[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if s[i]:
            s[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if s[i]]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| as a list of (prime, exponent), ascending.

    Complete for |n| <= FACTORIZATION_BOUND; beyond that a prime or
    prime-square cofactor is still handled, anything else raises
    EffortBoundExceeded.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: list[tuple[int, int]] = []
    for p in (2, 3, 5):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    # wheel over 6k +- 1
    d = 7
    step = 4
    while d * d <= n and d <= TRIAL_DIVISION_BOUND:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += step
        step = 6 - step
    if n > 1:
        if d * d > n or is_prime(n):
            out.append((n, 1))
        else:
            r = math.isqrt(n)
            if r * r == n and is_prime(r):
                out.append((r, 2))
            else:
                raise EffortBoundExceeded(
                    f"trial division up to {TRIAL_DIVISION_BOUND} left cofactor {n}"
                )
    out.sort()
    return out


@dataclass(frozen=True)
class SquarefreeInt:
    """A nonzero squarefree integer together with its prime factorization.

    ``abs(value) == product(primes)`` with distinct ascending primes.
    These are the labels m of quadratic extensions Q(sqrt(m)).
    """

    value: int
    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.value == 0:
            raise ValueError("squarefree label must be nonzero")
        prod = 1
        for p in self.primes:
            prod *= p
        if prod != abs(self.value):
            raise ValueError(f"factorization {self.primes} does not match {self.value}")
        if list(self.primes) != sorted(set(self.primes)):
            raise ValueError(f"prime list {self.primes} is not ascending and distinct")

    @property
    def odd_primes(self) -> tuple[int, ...]:
        return tuple(p for p in self.primes if p != 2)

    def __index__(self) -> int:
        return self.value


def squarefree_decompose(n: int) -> tuple[SquarefreeInt, int]:
    """Write n = s * f**2 with s squarefree; returns (s, f)."""
    if n == 0:
        raise ValueError("0 has no squarefree decomposition")
    fac = factorize(n)
    s = -1 if n < 0 else 1
    f = 1
    primes = []
    for p, e in fac:
        if e % 2:
            primes.append(p)
            s *= p
        f *= p ** (e // 2)
    return SquarefreeInt(s, tuple(primes)), f


def check_odd_prime(q: int, name: str = "q") -> int:
    """Validate oddness and primality (one is_prime call); q as an int.

    Integers only: ``operator.index`` refuses a float such as 3.9, which
    ``int`` would truncate to the prime 3."""
    q = operator.index(q)
    if q == 2:
        raise ValueError(f"{name}=2 is dyadic, not an odd prime")
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ValueError(f"{name}={q} is not prime")
    return q


def field_discriminant(m: int) -> int:
    """Discriminant of Q(sqrt(m)) for a squarefree label m != 0, 1."""
    if m in (0, 1):
        raise ValueError(f"m={m} does not label a quadratic field")
    return m if m % 4 == 1 else 4 * m


def v2(n: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("v2(0) is infinite")
    return (n & -n).bit_length() - 1


def odd_part(n: int) -> int:
    return n >> v2(n) if n else 0
