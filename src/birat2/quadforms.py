"""Narrow class groups of quadratic fields via binary quadratic forms.

This module is the computational oracle for the congruence classifiers and
is deliberately independent of them: everything is derived from reduced
forms, Gauss composition and continued fractions.

Conventions:

* For D < 0 the group is the classes of primitive positive definite forms
  under proper equivalence (narrow = ordinary class group).
* For D > 0 it is the classes of primitive indefinite forms, computed by
  partitioning the reduced forms into reduction cycles; two forms are
  equivalent iff their cycles coincide.  This is the narrow class group.
* The restricted quotient Cl' divides the 2-Sylow subgroup by the 2-parts
  of the dyadic prime classes (the classes of norm-2 forms): both classes
  when 2 splits, the single one when 2 ramifies, none when 2 is inert.

Composition is Dirichlet composition through two extended gcds, with no
factorization (Cohen, *A Course in Computational Algebraic Number Theory*,
Def. 5.4.6).  A ``QuadForm`` is a named (a, b, c) tuple.  The arithmetic is
done by integer kernels (``_compose``, ``_reduce_definite``,
``_reduce_indefinite``, and ``_square``, composition with a1 = a2 and one
extended gcd) on the coefficients and a discriminant the caller passes in;
``compose``, ``reduction_cycle`` and ``canonical_rep`` wrap them for
forms.  A class group is built once per discriminant together with an
index from every reduced (a, b, c) (for D > 0, every member of every
cycle) to its class representative, so a product inside a group is
"compose, reduce, look up" on integers, with no cycle walk and no form
object built per product.

Every verdict reads only 2-parts, so a group is built with its 2-part
only: the squaring map x -> x^2 is tabulated once, and its torsion counts
give the 2-Sylow structure, which the 2-Sylow subgroup and the restricted
quotient share.  The full invariant factors need a p-th power map for
every odd p | h; ``ClassGroup.invariant_factors`` computes them on first
use.  Torsion counts feed ``abelian``, which owns the invariant-factor
normal form.
``narrow_class_group`` caches the 256 most recently used groups.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

from .abelian import AbelianGroupStructure
from .arith import (
    SquarefreeInt,
    factorize,
    field_discriminant,
    kronecker,
    odd_part,
    v2,
)
from .errors import TheoremViolation

# Enumeration bounds; exhaustive form listing is quadratic-ish in sqrt(|D|).
MAX_NEGATIVE_DISC = 4_000_000
MAX_POSITIVE_DISC = 100_000


class QuadForm(NamedTuple):
    """The binary quadratic form a x^2 + b xy + c y^2.

    A plain (a, b, c) tuple: hashing, equality and order are the tuple's.
    """

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def is_fundamental_discriminant(D: int) -> bool:
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return all(e == 1 for _, e in factorize(D))
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and all(e == 1 for _, e in factorize(m))
    return False


def _require_fundamental(D: int) -> None:
    if not is_fundamental_discriminant(D):
        raise ValueError(
            f"D={D} is not a fundamental discriminant; for a squarefree label m "
            "use field_discriminant(m) = m or 4m"
        )


def principal_form(D: int) -> QuadForm:
    b = D % 2
    return QuadForm(1, b, (b * b - D) // 4)


# The integer kernels: forms are passed as their coefficients, with the
# discriminant D given by the caller, and come back as (a, b, c) tuples.


def _reduce_definite(a: int, b: int, c: int, D: int) -> tuple[int, int, int]:
    if a <= 0 or D >= 0:
        raise TheoremViolation(f"{QuadForm(a, b, c)} is not positive definite")
    while True:
        if b > a or b <= -a:
            k = (b + a) // (2 * a)  # shift b into (-a, a]
            b -= 2 * a * k
            c = (b * b - D) // (4 * a)
        if a > c:
            a, b, c = c, -b, a
            continue
        break
    if b < 0 and (a == c or b == -a):
        b = -b
    return a, b, c


def _rho(a: int, b: int, c: int, D: int, sq: int) -> tuple[int, int, int]:
    # Reduction operator for indefinite forms: (a, b, c) -> (c, r, *) with
    # r = -b (mod 2|c|) chosen in the standard window; sq = isqrt(D).
    ac = abs(c)
    if ac * ac > D:
        r = (-b) % (2 * ac)
        if r > ac:
            r -= 2 * ac
    else:
        r = sq - ((sq + b) % (2 * ac))
    return c, r, (r * r - D) // (4 * c)


def _reduce_indefinite(a: int, b: int, c: int, D: int) -> tuple[int, int, int]:
    # the first reduced form, |sqrt(D) - 2|a|| < b < sqrt(D), on the rho-orbit
    sq = math.isqrt(D)
    for _ in range(10_000):
        if 0 < b and b * b < D:
            t = 2 * abs(a)
            if (t <= b or (t - b) * (t - b) < D) and D < (t + b) * (t + b):
                return a, b, c
        a, b, c = _rho(a, b, c, D, sq)
    raise TheoremViolation(f"indefinite reduction did not terminate for {QuadForm(a, b, c)}")


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    # (g, s, t) with g = gcd(a, b) >= 0 and s a + t b = g
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _compose(a1: int, b1: int, a2: int, b2: int, D: int) -> tuple[int, int, int]:
    d, x, y = _egcd(a1, a2)
    # e = z d + w (b1 + b2)/2, so u = z x, v = z y; d = 1 needs no second gcd
    e, z, w = (1, 1, 0) if d == 1 else _egcd(d, (b1 + b2) // 2)
    A = a1 * a2 // (e * e)
    B = (z * (x * a1 * b2 + y * a2 * b1) + w * ((b1 * b2 + D) // 2)) // e % (2 * abs(A))
    return A, B, (B * B - D) // (4 * A)


def _square(a: int, b: int, D: int) -> tuple[int, int, int]:
    # _compose(a, b, a, b, D): with a1 = a2 = a the first gcd is a itself
    # (x = 1, y = 0), so e = gcd(a, b) = z a + w b needs only the second one
    e, z, w = _egcd(a, b)
    A = a * a // (e * e)
    B = (z * a * b + w * ((b * b + D) // 2)) // e % (2 * abs(A))
    return A, B, (B * B - D) // (4 * A)


def _reduction_cycle(a: int, b: int, c: int, D: int) -> list[tuple[int, int, int]]:
    sq = math.isqrt(D)
    start = _reduce_indefinite(a, b, c, D)
    cycle = [start]
    g = _rho(*start, D, sq)
    while g != start:
        cycle.append(g)
        g = _rho(*g, D, sq)
    return cycle


def reduction_cycle(f: QuadForm) -> list[QuadForm]:
    """The cycle of reduced forms properly equivalent to f (D > 0)."""
    return [QuadForm(*g) for g in _reduction_cycle(*f, f.discriminant)]


def canonical_rep(f: QuadForm) -> QuadForm:
    """Canonical representative of the proper equivalence class of f.

    This walks the whole reduction cycle for D > 0; a ``ClassGroup``
    canonicalises by reducing and looking the reduced form up instead.
    """
    a, b, c = f
    D = f.discriminant
    if D > 0:
        return QuadForm(*min(_reduction_cycle(a, b, c, D)))
    if a < 0:  # definite: work with the positive form
        a, c = -a, -c
    return QuadForm(*_reduce_definite(a, b, c, D))


def compose(f1: QuadForm, f2: QuadForm) -> QuadForm:
    """Dirichlet composition of primitive forms of equal discriminant D.

    With e = gcd(a1, a2, (b1 + b2)/2) = u a1 + v a2 + w (b1 + b2)/2, the
    product is (A, B, (B^2 - D)/4A) where A = a1 a2 / e^2 and
    B = (u a1 b2 + v a2 b1 + w (b1 b2 + D)/2) / e, taken mod 2|A|.  It holds
    for either sign of D and of the leading coefficients.
    """
    D = f1.discriminant
    if f2.discriminant != D:
        raise ValueError("forms must share a discriminant")
    return QuadForm(*_compose(f1.a, f1.b, f2.a, f2.b, D))


def _enumerate_definite(D: int) -> list[QuadForm]:
    forms = []
    for b in range(D % 2, math.isqrt(-D // 3) + 1, 2):
        n = (b * b - D) // 4
        for a in range(max(b, 1), math.isqrt(n) + 1):
            if n % a:
                continue
            c = n // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            forms.append(QuadForm(a, b, c))
            if 0 < b < a < c:
                forms.append(QuadForm(a, -b, c))
    return sorted(forms)


def _enumerate_indefinite_reduced(D: int) -> list[tuple[int, int, int]]:
    # (a, b, c) is reduced iff 0 < b < sqrt(D) and sqrt(D) - b < 2|a| <
    # sqrt(D) + b, that is sq - b < 2|a| <= sq + b for sq = isqrt(D) (D is
    # not a square); the sign of a is free
    sq = math.isqrt(D)
    forms = []
    start = 1 if D % 2 else 2
    for b in range(start, sq + 1, 2):
        n = (D - b * b) // 4
        for a in range((sq - b) // 2 + 1, (sq + b) // 2 + 1):
            if n % a == 0 and math.gcd(math.gcd(a, b), n // a) == 1:
                forms += ((a, b, -(n // a)), (-a, b, n // a))
    return sorted(forms)


def _dyadic_forms(D: int) -> list[QuadForm]:
    # norm-2 forms: both prime ideals above a split 2, the single ramified one
    if D % 2 == 1:
        if D % 8 != 1:
            return []
        c = (1 - D) // 8
        return [QuadForm(2, 1, c), QuadForm(2, -1, c)]
    if D % 8 == 0:
        return [QuadForm(2, 0, -D // 8)]
    return [QuadForm(2, 2, (4 - D) // 8)]


def _class_of(D: int, index: dict, a: int, b: int, c: int) -> QuadForm:
    """Class representative of (a, b, c): reduce it, then look the reduced
    form up.  The index is keyed by reduced (a, b, c) tuples."""
    g = _reduce_definite(a, b, c, D) if D < 0 else _reduce_indefinite(a, b, c, D)
    rep = index.get(g)
    if rep is None:
        raise TheoremViolation(
            f"D={D}: the reduced form {QuadForm(*g)} of {QuadForm(a, b, c)} "
            "is not in the class index"
        )
    return rep


def _mul(D: int, index: dict, x: QuadForm, y: QuadForm) -> QuadForm:
    # the class of the product: compose, reduce, look up
    a1, b1, _ = x
    a2, b2, _ = y
    return _class_of(D, index, *_compose(a1, b1, a2, b2, D))


def _power(x: QuadForm, n: int, mul, squares: dict[QuadForm, QuadForm]) -> QuadForm:
    # x^n for a class representative x and n >= 1, squaring by table lookup
    out = None
    while True:
        if n & 1:
            out = x if out is None else mul(out, x)
        n >>= 1
        if not n:
            return out
        x = squares[x]


@dataclass(frozen=True)
class ClassGroup:
    """Narrow class group of a fundamental discriminant, as a full table.

    ``elements`` are canonical class representatives, ``dyadic_classes`` the
    classes of the prime ideals above 2 (when 2 is not inert), ``two_sylow``
    the invariant factors of the 2-Sylow subgroup, ``identity`` the
    principal class.  ``invariant_factors``, the structure d1 | d2 | ..., is
    computed on first use, since only its odd part needs more work.
    Products are composed, reduced and looked up in an index of every
    reduced form; squares of elements come from a table built once.
    """

    D: int
    elements: tuple[QuadForm, ...]
    dyadic_classes: tuple[QuadForm, ...]
    two_sylow: tuple[int, ...]
    identity: QuadForm
    _index: dict[tuple[int, int, int], QuadForm] = field(repr=False, compare=False)
    _squares: dict[QuadForm, QuadForm] = field(repr=False, compare=False)
    _two_counts: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def invariant_factors(self) -> tuple[int, ...]:
        # torsion counts per odd prime p | h, from a tabulated p-th power map
        # iterated e times, joined to the 2-counts kept from construction
        h, elements = self.order, self.elements
        mul = partial(_mul, self.D, self._index)
        counts = {2: self._two_counts}
        odd = odd_part(h)
        for p, e in factorize(odd) if odd > 1 else []:
            step = {x: _power(x, p, mul, self._squares) for x in elements}
            counts[p] = _torsion_counts(elements, step, {self.identity}, e)
        factors = AbelianGroupStructure.from_torsion_counts(counts).invariant_factors
        if math.prod(factors) != h:
            raise TheoremViolation(
                f"D={self.D}: invariant factors {factors} do not multiply to h={h}"
            )
        return factors

    def mul(self, x: QuadForm, y: QuadForm) -> QuadForm:
        return _mul(self.D, self._index, x, y)

    def inv(self, x: QuadForm) -> QuadForm:
        a, b, c = x
        return _class_of(self.D, self._index, a, -b, c)

    def pow(self, x: QuadForm, n: int) -> QuadForm:
        if n < 0:
            x, n = self.inv(x), -n
        if n == 0:
            return self.identity
        return _power(_class_of(self.D, self._index, *x), n, self.mul, self._squares)

    def element_order(self, x: QuadForm) -> int:
        t = self.order
        for p, _ in factorize(t) if t > 1 else []:
            while t % p == 0 and self.pow(x, t // p) == self.identity:
                t //= p
        return t

    def subgroup(self, gens: list[QuadForm]) -> frozenset[QuadForm]:
        closure = {self.identity}
        frontier = [self.identity]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.mul(x, g)
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        return frozenset(closure)

    def two_sylow_elements(self) -> list[QuadForm]:
        cur = self.elements
        for _ in range(v2(self.order)):
            cur = [self._squares[y] for y in cur]
        return [x for x, y in zip(self.elements, cur) if y == self.identity]


def _torsion_counts(elements, step, kernel, e) -> list[int]:
    # counts[k] = #{x : step^k(x) in kernel} / |kernel| for k = 0..e, where
    # step is a tabulated p-th power map and kernel a subgroup of elements
    counts = [1]
    cur = elements
    for _ in range(e):
        cur = [step[y] for y in cur]
        counts.append(sum(1 for y in cur if y in kernel) // len(kernel))
    return counts


@lru_cache(maxsize=256)
def narrow_class_group(D: int) -> ClassGroup:
    """Narrow class group of the fundamental discriminant D, fully enumerated."""
    # the bound first: checking D is fundamental factorizes it
    if D < -MAX_NEGATIVE_DISC or D > MAX_POSITIVE_DISC:
        raise ValueError(
            f"|D|={abs(D)} exceeds the enumeration bound "
            f"({MAX_NEGATIVE_DISC} for D<0, {MAX_POSITIVE_DISC} for D>0)"
        )
    _require_fundamental(D)
    # index: every reduced (a, b, c) -> the representative of its class
    if D < 0:
        elements = tuple(_enumerate_definite(D))
        index = {f: f for f in elements}
    else:
        index = {}
        reps = []
        for f in _enumerate_indefinite_reduced(D):
            if f in index:
                continue
            cyc = _reduction_cycle(*f, D)
            rep = QuadForm(*min(cyc))
            index.update(dict.fromkeys(cyc, rep))
            reps.append(rep)
        elements = tuple(sorted(reps))

    identity = _class_of(D, index, *principal_form(D))
    if identity not in elements:
        raise TheoremViolation(f"D={D}: the principal class {identity} is not an element")

    # only the 2-part is built here: torsion counts of the squaring map
    squares = {x: _class_of(D, index, *_square(x[0], x[1], D)) for x in elements}
    h = len(elements)
    two_counts = tuple(_torsion_counts(elements, squares, {identity}, v2(h)))
    two = AbelianGroupStructure.from_torsion_counts({2: two_counts}).invariant_factors
    if math.prod(two) != 1 << v2(h):
        raise TheoremViolation(f"D={D}: the 2-Sylow {two} does not have order 2^v2(h), h={h}")

    dyadic = tuple(_class_of(D, index, *f) for f in _dyadic_forms(D))
    for f in dyadic:
        if f not in elements:
            raise TheoremViolation(f"D={D}: the dyadic class {f} is not an element")

    group = ClassGroup(D, elements, dyadic, two, identity, index, squares, two_counts)

    # light self-checks: identity and inverses on the full element list
    for x in elements:
        if group.mul(identity, x) != x or group.mul(x, group.inv(x)) != identity:
            raise TheoremViolation(f"D={D}: the identity or inverse law fails at {x}")
    return group


def restricted_2class_quotient(D: int) -> tuple[AbelianGroupStructure, bool]:
    """The quotient Cl' and whether the field has a unique dyadic place.

    Cl' is the 2-Sylow of the narrow class group modulo the subgroup
    generated by the 2-parts of the dyadic prime classes.  The field has a
    unique dyadic place iff 2 does not split, i.e. kronecker(D, 2) != 1.
    """
    group = narrow_class_group(D)
    unique_dyadic = kronecker(D, 2) != 1
    sylow = group.two_sylow_elements()
    # c^odd(h) spans the 2-part of <c>, as c^odd(ord c) does
    gens = [group.pow(c, odd_part(group.order)) for c in group.dyadic_classes]
    H = group.subgroup(gens)
    quotient_size = len(sylow) // len(H)
    counts = _torsion_counts(sylow, group._squares, H, v2(quotient_size))
    structure = AbelianGroupStructure.from_torsion_counts({2: counts})
    if structure.order != quotient_size:
        raise TheoremViolation(f"D={D}: Cl' has order {structure.order}, not {quotient_size}")
    return structure, unique_dyadic


def verify_2rational_quadratic(m: int | SquarefreeInt) -> bool:
    """Oracle for 2-rationality of Q(sqrt(m)): unique dyadic place and Cl' = 1."""
    structure, unique_dyadic = restricted_2class_quotient(field_discriminant(operator.index(m)))
    return structure.is_trivial and unique_dyadic


def verify_2birational_quadratic_oracle(d: int | SquarefreeInt) -> tuple[bool, bool]:
    """Oracle conditions for 2-birationality of Q(sqrt(-d)).

    Returns (two dyadic places, 2-Sylow generated by the dyadic classes).
    These are necessary conditions; the unit-index condition is not checked
    here, so oracle agreement is asserted only for classifier positives.
    """
    d = operator.index(d)
    if d < 1:
        raise ValueError(f"expected positive squarefree d, got {d}")
    two_dyadic = (-d) % 8 == 1
    structure, _ = restricted_2class_quotient(field_discriminant(-d))
    return two_dyadic, structure.is_trivial

