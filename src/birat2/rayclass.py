"""Ray-class style computations over Q via unit groups of residue rings.

The maximal abelian 2-extension of Q that is totally real, tamely ramified
only at a primitive prime p and split at a second primitive prime q has
Galois group isomorphic to the 2-part of (Z/2^k p)* / <-1, q> for k >= 4.
This module computes the invariant factors of those quotients from their
relation lattices, checks the stabilization law, finds the real quadratic
field realizing the quadratic subextension, and verifies the reflection
identities that make the whole construction tick.  The invariant-factor
normal form comes from ``abelian``.

Only 2-parts are computed.  For a finite abelian group G with subgroup H,
the 2-part of G/H is the 2-Sylow G_2 modulo the projection of H, so the
unit group of M = 2^k p (k >= 3, p an odd prime) is presented by
generators of its 2-Sylow: -1, 5 and an element g of order 2^v, v =
v2(p-1), mod p.  Discrete logarithms are Pohlig-Hellman at the single
prime 2 (Pohlig and Hellman, IEEE Trans. IT 24, 1978): a unit is projected
onto the 2-Sylow by one power, and its exponents are read bit by bit.  The
known dlog of -1 removes the generator -1; the rest, presented by the
orders 2^(k-2), 2^v and the relation of q, has invariant factors that are
quotients of determinantal divisors (Cohen, GTM 138, 2.4).  A report takes
one presentation at its top level and reduces the exponents to each lower
level, so its work is polynomial in log p and k, with no factorization of
p - 1 and no table.

The stabilization law: every level k >= 4 is cyclic of order 2^v.  A
primitive q = +-3 (mod 8) is +-5^b mod 2^k with b odd, so the relation of
q eliminates the generator 5.  What is left is <g> of order 2^v modulo
2^(k-2) times an element of it, which vanishes once 2^(k-2) >= 2^v; a
primitive p = +-3 (mod 8) has v <= 2, so that holds for k >= 4.  Level 3,
where 5 has order 2, may be smaller.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .abelian import AbelianGroupStructure
from .arith import (
    SquarefreeInt,
    factorize,
    field_discriminant,
    jacobi,
    kronecker,
    odd_part,
    v2,
)
from .errors import TheoremViolation
from .towerdec import check_primitive_pair


@dataclass(frozen=True)
class UnitGroupMod:
    """Generators of the 2-Sylow subgroup of (Z/M)* for M = 2^k p, with
    k >= 3 and p an odd prime.

    ``generators`` lists (element, order) pairs whose cyclic spans give the
    2-Sylow as a direct product: -1 and 5 (the whole of (Z/2^k)*), then an
    element of order 2^v2(p-1) mod p.  ``dlog`` writes the 2-Sylow
    projection of any unit in terms of them as (sign, b, e), with each
    exponent in [0, order); on the 2-Sylow itself it inverts the generators.
    """

    modulus: int
    generators: tuple[tuple[int, int], ...]
    _two_exp: int
    _odd_prime: int
    _odd_generator: int
    _projection: int  # = 1 mod 2^v2(p-1) and = 0 mod odd(p-1)

    def dlog(self, x: int) -> tuple[int, int, int]:
        x = x % self.modulus
        if math.gcd(x, self.modulus) != 1:
            raise ValueError(f"{x} is not a unit mod {self.modulus}")
        M2 = 1 << self._two_exp
        x2 = x % M2
        sign = 0 if x2 % 4 == 1 else 1
        b = _dlog_two_power(M2 - x2 if sign else x2, 5, M2 >> 2, M2)
        power = pow(5, b, M2)
        if (M2 - power if sign else power) != x2:
            raise TheoremViolation(
                f"dlog of {x} mod {self.modulus}: {x2} is not +-5^b mod {M2}"
            )
        p, g = self._odd_prime, self._odd_generator
        y = pow(x, self._projection, p)  # the 2-Sylow part of x mod p
        e = _dlog_two_power(y, g, self.generators[2][1], p)
        if pow(g, e, p) != y:
            raise TheoremViolation(
                f"dlog of {x} mod {self.modulus}: {y} is not a power of {g} mod {p}"
            )
        return sign, b, e


def _dlog_two_power(y: int, g: int, n: int, m: int) -> int:
    """An e in [0, n) with g^e = y mod m, for g of order n = 2^v mod m and
    y in the span of g; the caller checks the result.

    Once the bits of e below i are divided out of y, what is left has order
    dividing 2^(v-i), and bit i of e is set iff its 2^(v-1-i)-th power is not 1.
    """
    step = pow(g, -1, m)  # g^(-2^i), squared as i grows
    e, bit = 0, 1
    while bit < n:
        if pow(y, n // (2 * bit), m) != 1:
            e |= bit
            y = y * step % m
        step = step * step % m
        bit <<= 1
    return e


def units_mod(M: int) -> UnitGroupMod:
    """Generators of the 2-Sylow of (Z/M)* for M = 2^k p, with k >= 3 and p
    an odd prime; any other M raises ValueError.

    The odd generator is nu^((p-1)/2^v) for the least quadratic non-residue
    nu mod p, where v = v2(p - 1): nu has odd exponent over a primitive
    root, so this power has order exactly 2^v.
    """
    k = v2(M) if M >= 8 else 0
    fac = factorize(M >> k) if k >= 3 else []
    if len(fac) != 1 or fac[0][1] != 1:
        raise ValueError(
            f"unsupported modulus shape {M}: expected 2^k p with k >= 3 and p an odd prime"
        )
    return _units_mod(k, fac[0][0])


def _units_mod(k: int, p: int) -> UnitGroupMod:
    # units_mod(2^k p) for k >= 3 and an odd prime p already known; a unit
    # with residues r2 mod 2^k and rp mod p is r2 e2 + rp ep mod 2^k p
    M = (1 << k) * p
    e2 = p * pow(p, -1, 1 << k)  # = 1 mod 2^k, = 0 mod p
    ep = (1 - e2) % M  # = 0 mod 2^k, = 1 mod p
    n = 1 << v2(p - 1)
    odd = (p - 1) // n
    nu = next(r for r in range(2, p) if jacobi(r, p) == -1)
    g = pow(nu, odd, p)
    gens = (((ep - e2) % M, 2), ((5 * e2 + ep) % M, 1 << (k - 2)), ((e2 + g * ep) % M, n))
    return UnitGroupMod(M, gens, k, p, g, odd * pow(odd, -1, n))


def smith_invariant_factors(rows: list[list[int]], ngens: int) -> tuple[int, ...]:
    """Invariant factors (> 1) of Z^ngens modulo the row lattice.

    The determinantal divisor D_i is the gcd of the i x i minors of the
    relation matrix, and the i-th invariant factor is D_i / D_(i-1) (Cohen,
    GTM 138, 2.4).  The relation rows must make the quotient finite.
    """
    m = [list(r) + [0] * (ngens - len(r)) for r in rows]
    factors: list[int] = []
    prev = 1
    for i in range(1, ngens + 1):
        d = 0
        for sub in itertools.combinations(m, i):
            for cols in itertools.combinations(range(ngens), i):
                d = math.gcd(d, _det([[r[j] for j in cols] for r in sub]))
        if d == 0:
            raise ValueError("quotient is infinite: relation lattice not of full rank")
        if d > prev:
            factors.append(d // prev)
        prev = d
    return tuple(factors)


def _det(a: list[list[int]]) -> int:
    # Laplace expansion along the first row
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1 :] for r in a[1:]])
               for j, x in enumerate(a[0]) if x)


@dataclass(frozen=True)
class RayClassReport:
    """Structure of the tame-ramified q-split ray quotients per dyadic level."""

    p: int
    q: int
    per_level: tuple[tuple[int, AbelianGroupStructure], ...]
    stabilized_order: int
    quadratic_character: int  # label of the real quadratic field found

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "per_level": [
                {"k": k, "invariant_factors": list(s.invariant_factors)}
                for k, s in self.per_level
            ],
            "stabilized_order": self.stabilized_order,
            "quadratic_character": self.quadratic_character,
        }


# The top level k of a default report, and the default of ``rayclass --levels``.
DEFAULT_K_MAX = 8


def ray_quotient_report(p: int, q: int, k_max: int = DEFAULT_K_MAX) -> RayClassReport:
    """2-part of (Z/2^k p)*/<-1, q> for k = 3..k_max, checked against the
    stabilization law: for primitive p and q every level k >= 4 is cyclic
    of order 2^v2(p-1); any other outcome raises TheoremViolation.
    """
    p, q = check_primitive_pair(p, q)
    if k_max < 5:
        raise ValueError(f"k_max must be >= 5, got {k_max}")

    # The 2-part of G/H is G_2 modulo the 2-Sylow projection of H.  The
    # generators e1, e2, e3 = -1, 5, g of the 2-Sylow of (Z/2^k_max p)* reduce
    # to those of level k, of orders 2, 2^(k-2), 2^v, so one dlog (s, b, e) of
    # q serves every level.  -1 is e1 mod 2^k and g^(2^(v-1)) mod p, so its dlog
    # is (1, 0, 2^(v-1)): e1 = -2^(v-1) e3 drops the Z/2 factor, and each level is
    # Z^2 modulo 2^(k-2) e2, 2^v e3 and b e2 + (e + s 2^(v-1)) e3 (the sign of
    # s 2^(v-1) is immaterial mod 2^v).
    units = _units_mod(k_max, p)
    order_p = units.generators[2][1]  # 2^v2(p-1)
    half = order_p // 2
    minus_one = units.dlog(-1)
    if minus_one != (1, 0, half):
        raise TheoremViolation(f"dlog(-1) mod {units.modulus} is {minus_one}, not (1, 0, {half})")
    s, b, e = units.dlog(q)
    per_level = []
    for k in range(3, k_max + 1):
        order_5 = 1 << (k - 2)
        rows = [[order_5, 0], [0, order_p], [b % order_5, (e + s * half) % order_p]]
        per_level.append((k, AbelianGroupStructure(smith_invariant_factors(rows, 2))))

    _check_stabilized(p, q, per_level)
    kprime = _find_propagation_field(p, q)
    return RayClassReport(p, q, tuple(per_level), order_p, kprime.value)


def _check_stabilized(p: int, q: int, per_level) -> None:
    """The stabilization law (module docstring): every level k >= 4 of
    ``per_level`` is cyclic of order 2^v2(p-1).  Level 3 is exempt."""
    expected = (1 << v2(p - 1),)
    for k, structure in per_level:
        if k >= 4 and structure.invariant_factors != expected:
            raise TheoremViolation(
                f"ray quotient for p={p}, q={q} at level k={k} is "
                f"{structure.invariant_factors}, expected cyclic of order {expected[0]}"
            )


def find_propagation_field(p: int, q: int) -> SquarefreeInt:
    """The real quadratic field tamely ramified exactly at p and split at q.

    The only real quadratic fields whose odd ramified prime set is {p} are
    Q(sqrt(p)) and Q(sqrt(2p)); their product field is Q(sqrt(2)), where a
    primitive q is inert, so exactly one of the two splits q.  The returned
    field automatically has a unique dyadic place.
    """
    return _find_propagation_field(*check_primitive_pair(p, q))


def _find_propagation_field(p: int, q: int) -> SquarefreeInt:
    # find_propagation_field for a pair already validated; the label is p or
    # 2p, so its factorization is known
    candidates = [p, 2 * p]
    symbols = {m: kronecker(field_discriminant(m), q) for m in candidates}
    split = [m for m, s in symbols.items() if s == 1]
    if len(split) != 1:
        raise TheoremViolation(
            f"expected exactly one of Q(sqrt({p})), Q(sqrt({2*p})) to split "
            f"q={q}; symbols {symbols}"
        )
    m = split[0]
    if kronecker(field_discriminant(m), 2) == 1:
        raise TheoremViolation(
            f"chosen field Q(sqrt({m})) has a split dyadic place"
        )
    return SquarefreeInt(m, (p,) if m == p else (2, p))


def mirror_group_trivial(q: int, p: int) -> bool:
    """Whether the mirror quotient at q is trivial: the image of 2 must
    generate the 2-Sylow subgroup of (Z/q)*.

    Computed in the strongest form (quotient by 2 alone); the reading that
    also kills -1 and p is checked to agree, and a disagreement raises
    TheoremViolation.
    """
    p, q = check_primitive_pair(p, q)
    return _mirror_group_trivial(q, p)


def _mirror_group_trivial(q: int, p: int) -> bool:
    # mirror_group_trivial for a pair already validated
    full = v2(q - 1)
    two = _v2_order(2, q)
    strong = two == full
    # alternative reading: quotient additionally by -1 and p; in the cyclic
    # group (Z/q)* the subgroup generated is cyclic of the lcm order, whose
    # 2-adic valuation is the largest of the three
    weak = max(two, 1, _v2_order(p, q)) == full
    if strong != weak:
        raise TheoremViolation(
            f"mirror readings disagree for q={q}, p={p}: "
            f"quotient by <2> gives {strong}, by <2,-1,p> gives {weak}"
        )
    return strong


def _v2_order(x: int, q: int) -> int:
    """v2 of the order of the unit x mod the odd prime q: the number of
    squarings that take x^odd(q-1), of 2-power order, to 1."""
    y = pow(x, odd_part(q - 1), q)
    for n in range(v2(q - 1) + 1):
        if y == 1:
            return n
        y = y * y % q
    raise TheoremViolation(f"{x} mod {q} has no order dividing {q - 1}")


def reflection_ranks(p: int, q: int) -> tuple[int, int]:
    """The reflection identity: 2-rank of the ray quotient minus the mirror
    rank must equal 1; returns (rank, mirror_rank) = (1, 0)."""
    return _reflection_ranks(ray_quotient_report(p, q))


def _reflection_ranks(report: RayClassReport) -> tuple[int, int]:
    """reflection_ranks(report.p, report.q) read off a report: the
    stabilization law is re-checked on its levels, and the rank is read at
    its top level."""
    p, q = report.p, report.q
    _check_stabilized(p, q, report.per_level)
    rank = len(report.per_level[-1][1].invariant_factors)
    mirror_rank = 0 if _mirror_group_trivial(q, p) else 1
    if rank - mirror_rank != 1:
        raise TheoremViolation(
            f"reflection identity failed for p={p}, q={q}: "
            f"ranks ({rank}, {mirror_rank})"
        )
    return rank, mirror_rank
