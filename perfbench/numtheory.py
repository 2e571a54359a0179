"""The benchmark's own arithmetic, written apart from birat2.

Input generation and the correctness gate use only this module, so a
defect in birat2's arithmetic cannot hide itself by agreeing with the
gate.  Fields are handled through generators whose prime factorisations
are known by construction: a generator is a pair ``(value, atoms)`` where
``atoms`` is the frozenset of primes dividing ``value`` plus ``-1`` when
``value < 0``.
"""

from __future__ import annotations

import math

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def sieve(n: int) -> list[int]:
    """All primes <= n."""
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i, f in enumerate(flags) if f]


SMALL_PRIMES = sieve(2000)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases (exact below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_squarefree(n: int) -> bool:
    """Squarefree test for 1 <= |n| <= 4e6 by division by squares of primes."""
    n = abs(n)
    for p in SMALL_PRIMES:
        if p * p > n:
            return True
        if n % (p * p) == 0:
            return False
    return True


def _squarefree_flags(hi: int) -> bytearray:
    flags = bytearray([1]) * hi
    for k in range(2, math.isqrt(hi - 1) + 1):
        flags[k * k :: k * k] = bytes(len(range(k * k, hi, k * k)))
    return flags


def squarefree_range(lo: int, hi: int) -> list[int]:
    """Squarefree integers in [lo, hi)."""
    flags = _squarefree_flags(hi)
    return [n for n in range(max(lo, 1), hi) if flags[n]]


def fundamental_range(sign: int, lo: int, hi: int) -> list[int]:
    """Fundamental discriminants D of the given sign with lo <= |D| < hi."""
    flags = _squarefree_flags(hi)
    out = []
    for n in range(lo, hi):
        D = sign * n
        if D % 4 == 1 and flags[n] or D % 16 in (8, 12) and flags[n // 4]:
            out.append(D)
    return out


def is_fundamental(D: int) -> bool:
    """Fundamental discriminant test for |D| <= 4e6."""
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return is_squarefree(D)
    if D % 4 == 0:
        return (D // 4) % 4 in (2, 3) and is_squarefree(D // 4)
    return False


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n|, ascending, for 1 <= |n| <= 4e6."""
    n, out = abs(n), []
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    return out + [n] if n > 1 else out


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def kronecker(D: int, p: int) -> int:
    """Kronecker symbol (D|p) for a prime p."""
    if p == 2:
        return 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
    return legendre(D, p)


_PROXY_PRIMES = sieve(60)


def class_number_proxy(D: int) -> float:
    """sqrt|D| times the Euler product of L(1, chi_D) over primes < 60.

    Up to a constant this estimates h for D < 0 and h times the regulator
    for D > 0, which is what enumerating the reduced forms costs: its rank
    correlation with narrow_class_group's time is 0.99 (D < 0) and 0.91
    (D > 0) on the benchmark's bands.
    """
    estimate = math.sqrt(abs(D))
    for p in _PROXY_PRIMES:
        estimate /= 1 - kronecker(D, p) / p
    return estimate


def field_disc(m: int) -> int:
    return m if m % 4 == 1 else 4 * m


def v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def log_uniform(rng, lo: float, hi: float) -> int:
    """An integer drawn log-uniformly from [lo, hi)."""
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def random_prime(rng, lo: float, hi: float, mod: int = 1, residues=(0,)) -> int:
    """A prime drawn log-uniformly from [lo, hi) with p % mod in residues."""
    while True:
        n = log_uniform(rng, lo, hi)
        if n % mod in residues and is_prime(n):
            return n


def gen(value: int, primes) -> tuple[int, frozenset[int]]:
    atoms = set(primes)
    if value < 0:
        atoms.add(-1)
    return value, frozenset(atoms)


def span(atom_sets) -> set[frozenset[int]]:
    """The F2-span of the given atom sets, the empty set (label 1) included."""
    out = {frozenset()}
    for s in atom_sets:
        out |= {t ^ s for t in out}
    return out


def label(atoms: frozenset[int]) -> int:
    return math.prod(atoms)


def _odd_primes(elements) -> set[int]:
    return {a for s in elements for a in s if a > 2}


def birational_quadratic(d: int, primes) -> bool:
    """Q(sqrt(-d)) is 2-birational iff d is a prime = 7 (mod 16) or d = pq
    with primes p = 3, q = 5 (mod 8)."""
    primes = sorted(primes)
    if len(primes) == 1 and d == primes[0]:
        return d % 16 == 7
    if len(primes) == 2 and d == primes[0] * primes[1]:
        return {primes[0] % 8, primes[1] % 8} == {3, 5}
    return False


def rational_field(atom_sets) -> bool:
    """A totally real multiquadratic field is 2-rational iff it lies in
    Q(sqrt(2), sqrt(p)) for one prime p = +-3 (mod 8)."""
    odd = _odd_primes(atom_sets)
    return len(odd) <= 1 and all(p % 8 in (3, 5) for p in odd)


def birational_field(atom_sets) -> bool:
    """The paper's classification of 2-birational imaginary multiquadratic
    fields: 2-rational real subfield, a split dyadic place (some imaginary
    label = 1 (mod 8)), and after adjoining sqrt(2) either an odd imaginary
    label -d of the quadratic closed form over Q(sqrt(2)), or a prime
    imaginary label -q with -q = p (mod 8) over Q(sqrt(2), sqrt(p))."""
    V = span(atom_sets)
    real = [s for s in V if -1 not in s]
    if not rational_field(real):
        return False
    if not any(label(s) % 8 == 1 for s in V if -1 in s):
        return False
    W = span(list(atom_sets) + [frozenset({2})])
    odd_imag = [s for s in W if -1 in s and 2 not in s]
    real_odd = _odd_primes(real)
    if not real_odd:
        (s,) = odd_imag
        primes = s - {-1}
        return bool(primes) and birational_quadratic(label(primes), primes)
    (p,) = real_odd
    return any(
        len(s) == 2 and p not in s and (label(s)) % 8 == p % 8 for s in odd_imag
    )
