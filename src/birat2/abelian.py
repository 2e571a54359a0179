"""Finite abelian groups in invariant-factor normal form d1 | d2 | ..., read off
determinantal divisors (in ``rayclass``) or built from per-prime torsion
counts (power-map tables, in ``quadforms``)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TheoremViolation


@dataclass(frozen=True)
class AbelianGroupStructure:
    """A finite abelian group by invariant factors d1 | d2 | ... (each >= 2)."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = None
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if prev is not None and d % prev:
                raise ValueError(
                    f"divisibility chain broken: {prev} does not divide {d}"
                )
            prev = d

    @classmethod
    def from_torsion_counts(cls, counts: dict[int, list[int]]) -> AbelianGroupStructure:
        """The group whose p-part has counts[p][k] elements of order dividing p^k;
        its j-th largest factor is the product of the j-th largest p-parts."""
        factors: list[int] = []
        for p, c in counts.items():
            for j, e in enumerate(_p_partition_from_counts(c, p)):
                if j < len(factors):
                    factors[j] *= p**e
                else:
                    factors.append(p**e)
        return cls(tuple(reversed(factors)))

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1


def _p_partition_from_counts(counts: list[int], p: int) -> list[int]:
    # counts[k] = number of solutions of x^(p^k) = 1 for k = 0..; returns the
    # exponent partition e_1 >= e_2 >= ... of the p-group
    vs = []
    for c in counts:
        val = 0
        while c > 1:
            if c % p:
                raise TheoremViolation(f"{counts} are not torsion counts of a {p}-group")
            c //= p
            val += 1
        vs.append(val)
    ms = [vs[k] - vs[k - 1] for k in range(1, len(vs))]
    if not ms or ms[0] == 0:
        return []
    return [sum(1 for mk in ms if mk >= j) for j in range(1, ms[0] + 1)]
