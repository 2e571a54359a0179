"""Canonical representation of multiquadratic fields.

A multiquadratic field is encoded by the subgroup of Q*/Q*^2 generated by
its square root labels, i.e. an F2-subspace of squarefree integers.  The
canonical basis is the reduced row echelon form over F2 with coordinates
ordered sign first, then 2, then odd primes ascending (integer order of the
atoms -1, 2, 3, 5, ...); that ordering makes
the classification case splits (presence of 2, of a single odd prime p,
of a negative label) syntactically visible.  At most one basis element is
negative, and the positive basis elements span exactly the real subfield.

Fields are immutable values; every operation returns a fresh canonical
object, so verdicts are reproducible and hashable.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Iterable

from .arith import SquarefreeInt, squarefree_decompose


class FieldSignature(enum.Enum):
    TOTALLY_REAL = "totally-real"
    IMAGINARY = "imaginary"


def _to_atoms(s: SquarefreeInt) -> frozenset[int]:
    atoms = set(s.primes)
    if s.value < 0:
        atoms.add(-1)
    return frozenset(atoms)


def _atoms_to_squarefree(atoms: frozenset[int]) -> SquarefreeInt:
    value = 1
    primes = []
    for a in sorted(atoms):
        value *= a
        if a > 0:
            primes.append(a)
    return SquarefreeInt(value, tuple(primes))


def _label_sort_key(s: SquarefreeInt) -> tuple[int, int]:
    # positive labels ascending, then negative labels ascending by size
    return (0 if s.value > 0 else 1, abs(s.value))


def _rref(vectors: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    pivots: dict[int, frozenset[int]] = {}
    for vec in vectors:
        row = vec
        while row:
            lead = min(row)
            if lead in pivots:
                row = row ^ pivots[lead]
            else:
                pivots[lead] = row
                break
    # eliminate each pivot's leading atom from the other rows
    for lead in sorted(pivots):
        row = pivots[lead]
        for other in pivots:
            if other != lead and lead in pivots[other]:
                pivots[other] = pivots[other] ^ row
    return list(pivots.values())


@dataclass(frozen=True)
class MultiquadField:
    """A finite multiquadratic field in canonical form."""

    basis: tuple[SquarefreeInt, ...]
    dim: int
    signature: FieldSignature
    real_subfield_basis: tuple[SquarefreeInt, ...]

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(b.value for b in self.basis)

    @property
    def real_labels(self) -> tuple[int, ...]:
        return tuple(b.value for b in self.real_subfield_basis)


def field_from_labels(labels: Iterable[SquarefreeInt]) -> MultiquadField:
    """Canonical multiquadratic field generated by labels already factored."""
    rows = _rref(_to_atoms(s) for s in labels)
    basis = sorted((_atoms_to_squarefree(r) for r in rows), key=_label_sort_key)
    real = tuple(b for b in basis if b.value > 0)
    signature = (
        FieldSignature.TOTALLY_REAL if len(real) == len(basis) else FieldSignature.IMAGINARY
    )
    return MultiquadField(tuple(basis), len(basis), signature, real)


def make_field(gens: Iterable[int]) -> MultiquadField:
    """Canonical multiquadratic field generated by the given labels.

    Generators are reduced modulo squares, each factored once; duplicates
    and dependent generators are absorbed.  Rejects 0 and values reducing
    to 1.  An empty generator list gives the rationals (dim 0).
    """
    labels = []
    for g in gens:
        s, _ = squarefree_decompose(operator.index(g))
        if s.value == 1:
            raise ValueError(f"generator {g} reduces to a square")
        labels.append(s)
    return field_from_labels(labels)


def adjoin_sqrt2(field: MultiquadField) -> MultiquadField:
    """Compositum with Q(sqrt(2)); idempotent when 2 is already present."""
    return field_from_labels(field.basis + (SquarefreeInt(2, (2,)),))


def quadratic_subfields(field: MultiquadField) -> list[SquarefreeInt]:
    """The 2^dim - 1 nontrivial squarefree labels of the subgroup, sorted."""
    if field.dim < 1:
        raise ValueError("field must have dim >= 1")
    spans: list[frozenset[int]] = [frozenset()]
    for b in field.basis:
        v = _to_atoms(b)
        spans += [s ^ v for s in spans]
    return sorted(map(_atoms_to_squarefree, spans[1:]), key=_label_sort_key)


def imaginary_labels(field: MultiquadField) -> list[int]:
    """Negative squarefree labels of the subgroup (empty for real fields)."""
    if field.signature is FieldSignature.TOTALLY_REAL:
        return []
    return [s.value for s in quadratic_subfields(field) if s.value < 0]


def real_part(field: MultiquadField) -> MultiquadField:
    """The maximal totally real subfield."""
    # the positive rows of a reduced, sorted basis are themselves reduced and
    # sorted: the one negative row holds the pivot -1, which no other row has
    real = field.real_subfield_basis
    return MultiquadField(real, len(real), FieldSignature.TOTALLY_REAL, real)
