from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from birat2 import (
    FieldSignature,
    adjoin_sqrt2,
    imaginary_labels,
    make_field,
    quadratic_subfields,
    real_part,
)
from birat2.arith import squarefree_decompose
from birat2.fields import field_from_labels


def test_make_field_examples():
    f = make_field([12, 3])
    assert f.labels == (3,) and f.dim == 1
    assert f.signature is FieldSignature.TOTALLY_REAL

    f = make_field([5, -3])
    assert f.labels == (5, -3) and f.dim == 2
    assert f.signature is FieldSignature.IMAGINARY
    assert f.real_labels == (5,)

    f = make_field([6, -15])
    assert f.labels == (6, -15) and f.dim == 2
    assert f.real_labels == (6,)


def test_make_field_rejects_degenerate():
    with pytest.raises(ValueError):
        make_field([0])
    with pytest.raises(ValueError):
        make_field([4])
    with pytest.raises(ValueError):
        make_field([9, 5])


def test_rationals_as_empty_field():
    f = make_field([])
    assert f.dim == 0 and f.signature is FieldSignature.TOTALLY_REAL


def test_adjoin_sqrt2_examples():
    assert adjoin_sqrt2(make_field([3])).labels == (2, 3)
    assert adjoin_sqrt2(make_field([2, -7])).labels == (2, -7)
    # <2, 6, -15> = <2, 3, -5> in canonical form
    assert adjoin_sqrt2(make_field([6, -15])).labels == (2, 3, -5)


def test_adjoin_sqrt2_idempotent_on_examples():
    for gens in ([3], [6, -15], [-1], [5, -3], [2]):
        f2 = adjoin_sqrt2(make_field(gens))
        assert adjoin_sqrt2(f2) == f2


def test_quadratic_subfields_examples():
    vals = [s.value for s in quadratic_subfields(make_field([6, -15]))]
    assert vals == [6, -10, -15]
    vals = [s.value for s in quadratic_subfields(make_field([5]))]
    assert vals == [5]
    vals = [s.value for s in quadratic_subfields(make_field([2, 3]))]
    assert vals == [2, 3, 6]
    with pytest.raises(ValueError):
        quadratic_subfields(make_field([]))


def test_canonical_single_negative_basis_label():
    # reduced echelon form with the sign leading: at most one negative label
    f = make_field([-3, -5, -7])
    assert sum(1 for v in f.labels if v < 0) == 1
    assert f.dim == 3


def test_real_subfield_index_two():
    for gens in ([-3, -5, -7], [5, -3], [6, -15], [-1, 2, 5]):
        f = make_field(gens)
        assert f.signature is FieldSignature.IMAGINARY
        positives = [s for s in quadratic_subfields(f) if s.value > 0]
        assert len(positives) == (1 << (f.dim - 1)) - 1
        assert [s.value for s in f.real_subfield_basis] == sorted(
            v.value for v in f.real_subfield_basis
        )
        # real subfield spans exactly the positive labels
        check_against_references(f)
        rp = real_part(f)
        assert rp.dim == f.dim - 1
        if rp.dim:
            assert {s.value for s in quadratic_subfields(rp)} == {
                s.value for s in positives
            }


def _is_valid_generator(n):
    # nonzero and not a perfect square (those reduce to 1)
    if n == 0:
        return False
    if n > 0:
        r = int(n**0.5)
        if any(k * k == n for k in (r - 1, r, r + 1)):
            return False
    return True


small_ints = st.integers(-400, 400).filter(_is_valid_generator)


@settings(max_examples=200)
@given(st.lists(small_ints, min_size=1, max_size=4))
def test_make_field_canonical_properties(gens):
    f = make_field(gens)
    # idempotent on its own output
    assert make_field(f.labels) == f
    # invariant under reordering and multiplication by squares
    assert make_field(list(reversed(gens))) == f
    assert make_field([g * 9 for g in gens]) == f
    # signature matches the labels
    assert (f.signature is FieldSignature.IMAGINARY) == any(
        v < 0 for v in (s.value for s in quadratic_subfields(f)) if f.dim
    ) if f.dim else f.signature is FieldSignature.TOTALLY_REAL
    # dim consistent with subgroup size
    if f.dim:
        assert len(quadratic_subfields(f)) == (1 << f.dim) - 1


@settings(max_examples=200)
@given(st.lists(small_ints, min_size=1, max_size=4))
def test_adjoin_idempotent_property(gens):
    f2 = adjoin_sqrt2(make_field(gens))
    assert adjoin_sqrt2(f2) == f2
    assert 2 in {s.value for s in quadratic_subfields(f2)}


def test_imaginary_labels_helper():
    assert imaginary_labels(make_field([6, -15])) == [-10, -15]
    assert imaginary_labels(make_field([3])) == []


def reference_subfields(field):
    """Every product of a nonempty subset of basis labels, reduced mod squares."""
    values = []
    for r in range(1, field.dim + 1):
        for combo in combinations(field.labels, r):
            product = 1
            for v in combo:
                product *= v
            values.append(squarefree_decompose(product)[0].value)
    return sorted(values, key=lambda v: (v < 0, abs(v)))


def check_against_references(field):
    assert real_part(field) == field_from_labels(field.real_subfield_basis)
    if field.dim:
        assert [s.value for s in quadratic_subfields(field)] == reference_subfields(field)


@settings(max_examples=200)
@given(st.lists(small_ints, min_size=1, max_size=4))
def test_fast_paths_match_references_property(gens):
    check_against_references(make_field(gens))
    check_against_references(adjoin_sqrt2(make_field(gens)))
