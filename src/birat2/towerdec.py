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
determines the infinite behavior.  With k the largest exponent such that
q = +-1 (mod 2^k), q has 2^min(n, k - 2) places at layer n: it splits
totally through layer k - 2 and its places there are inert above it.  So
the split depth k - 2 is the one datum of a place's primitivity.

The module computes that class for a place of Q (``primitivity_over_Q``;
``tower`` reads it for the tame places of its base) and
``check_primitive_pair``, the one validator of (p, q) pairs.  Places over
larger fields are not classified here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import check_odd_prime, v2

_KINDS = ("primitive", "semi-primitive", "imprimitive")


@dataclass(frozen=True)
class PrimitivityClass:
    """How long a place keeps splitting along the tower.

    split_depth is the largest layer through which the place is totally
    split: 0 for primitive, 1 for semi-primitive, >= 2 for imprimitive.
    """

    split_depth: int

    def __post_init__(self) -> None:
        if self.split_depth < 0:
            raise ValueError(f"split_depth must be >= 0, got {self.split_depth}")

    @property
    def kind(self) -> str:
        return _KINDS[min(self.split_depth, 2)]

    @property
    def is_primitive(self) -> bool:
        return self.split_depth == 0

    def __str__(self) -> str:
        if self.split_depth >= 2:
            return f"{self.kind}(split_depth={self.split_depth})"
        return self.kind


def _sign_level(q: int) -> int:
    # Largest k with q = +-1 (mod 2^k); always >= 2 for odd q.
    return max(v2(q - 1), v2(q + 1))


def primitivity_over_Q(q: int) -> PrimitivityClass:
    """Primitivity of the place q of Q: primitive iff q = +-3 (mod 8),
    semi-primitive iff q = +-7 (mod 16), imprimitive otherwise."""
    return _primitivity(check_odd_prime(q))


def _primitivity(q: int) -> PrimitivityClass:
    # primitivity_over_Q for an odd prime already validated
    return PrimitivityClass(_sign_level(q) - 2)


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
