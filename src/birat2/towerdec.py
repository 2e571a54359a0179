"""Decomposition of odd primes along the cyclotomic 2-tower over Q.

Layer n of the tower (n >= 1) is the real subfield of the 2^(n+2)-th
cyclotomic field, of degree 2^n over Q.  An odd prime q is unramified
there and its residue degree equals the order of q in (Z/2^(n+2))*
modulo {+-1}; the split/inert pattern along the tower is what the
primitivity classification captures:

* primitive: inert at every layer, equivalently q = +-3 (mod 8);
* semi-primitive: splits at layer 1, inert beyond, equivalently
  q = +-7 (mod 16);
* imprimitive otherwise, recorded with the exact depth through which
  q keeps splitting.

The whole profile is rigid: once the residue degree starts doubling it
doubles at every deeper layer, so a finite profile plus the congruence
determines the infinite behavior.

The module computes that profile (``decomposition_profile``), the class of a
place of Q (``primitivity_over_Q``; ``tower`` reads it for the tame places of
its base) and ``check_primitive_pair``, the one validator of (p, q) pairs.
Places over larger fields are not classified here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .arith import OddPrime, check_odd_prime, v2

DEFAULT_DEPTH = 6

PRIMITIVE = "primitive"
SEMI_PRIMITIVE = "semi-primitive"
IMPRIMITIVE = "imprimitive"


class TowerLevel(NamedTuple):
    n: int  # layer index, degree 2^n over Q
    f: int  # residue degree
    g: int  # number of places, f * g = 2^n


@dataclass(frozen=True)
class TowerProfile:
    """Residue degrees and place counts of a prime along the tower."""

    prime: int
    levels: tuple[TowerLevel, ...]

    def __post_init__(self) -> None:
        prev_f, prev_g = 1, 1
        for lvl in self.levels:
            if lvl.f * lvl.g != 1 << lvl.n:
                raise ValueError(f"f*g != 2^n at level {lvl}")
            if lvl.f < prev_f or lvl.g < prev_g:
                raise ValueError(f"profile not monotone at level {lvl}")
            if lvl.f > 2 * prev_f or lvl.g > 2 * prev_g:
                raise ValueError(f"profile jumps by more than 2 at level {lvl}")
            prev_f, prev_g = lvl.f, lvl.g


@dataclass(frozen=True)
class PrimitivityClass:
    """How long a place keeps splitting along the tower.

    split_depth is the largest layer through which the place is totally
    split: 0 for primitive, 1 for semi-primitive, >= 2 for imprimitive.
    """

    kind: str
    split_depth: int

    def __post_init__(self) -> None:
        expected = {PRIMITIVE: 0, SEMI_PRIMITIVE: 1}.get(self.kind)
        if expected is not None:
            if self.split_depth != expected:
                raise ValueError(f"{self.kind} requires split_depth {expected}")
        elif self.kind != IMPRIMITIVE:
            raise ValueError(f"unknown primitivity kind {self.kind!r}")
        elif self.split_depth < 2:
            raise ValueError("imprimitive requires split_depth >= 2")

    @classmethod
    def from_split_depth(cls, split_depth: int) -> "PrimitivityClass":
        kind = {0: PRIMITIVE, 1: SEMI_PRIMITIVE}.get(split_depth, IMPRIMITIVE)
        return cls(kind, split_depth)

    @property
    def is_primitive(self) -> bool:
        return self.kind == PRIMITIVE

    def __str__(self) -> str:
        if self.kind == IMPRIMITIVE:
            return f"{self.kind}(split_depth={self.split_depth})"
        return self.kind


def _order_mod_2power_up_to_sign(q: int, n: int) -> int:
    # Order of q in (Z/2^(n+2))*/{+-1}; always a power of 2, so repeated
    # squaring until the image hits +-1 finds it.
    M = 1 << (n + 2)
    x = q % M
    f = 1
    while x != 1 and x != M - 1:
        x = x * x % M
        f *= 2
    return f


def _sign_level(q: int) -> int:
    # Largest k with q = +-1 (mod 2^k); always >= 2 for odd q.
    return max(v2(q - 1), v2(q + 1))


def decomposition_profile(q: int | OddPrime, depth: int = DEFAULT_DEPTH) -> TowerProfile:
    """Residue degree f and place count g of q at tower layers 1..depth."""
    q = check_odd_prime(q)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    levels = []
    for n in range(1, depth + 1):
        f = _order_mod_2power_up_to_sign(q, n)
        levels.append(TowerLevel(n, f, (1 << n) // f))
    return TowerProfile(q, tuple(levels))


def primitivity_over_Q(q: int | OddPrime) -> PrimitivityClass:
    """Primitivity of the place q of Q: primitive iff q = +-3 (mod 8),
    semi-primitive iff q = +-7 (mod 16), imprimitive otherwise."""
    return _primitivity(check_odd_prime(q))


def _primitivity(q: int) -> PrimitivityClass:
    # primitivity_over_Q for an odd prime already validated
    return PrimitivityClass.from_split_depth(_sign_level(q) - 2)


def check_primitive_pair(p: int, q: int) -> tuple[int, int]:
    """The pair validator of ray quotients and towers: p and q as ints, each
    an odd prime (one primality test) and primitive, then distinct."""
    pair = []
    for name, r in (("p", p), ("q", q)):
        r = check_odd_prime(r, name)
        cls = _primitivity(r)
        if not cls.is_primitive:
            raise ValueError(f"{name}={r} is not primitive ({r} mod 8 = {r % 8}; it is {cls})")
        pair.append(r)
    if pair[0] == pair[1]:
        raise ValueError("p and q must be distinct")
    return pair[0], pair[1]

