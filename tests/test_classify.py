import json
from itertools import combinations

import pytest

from birat2 import (
    PrimitivityClass,
    SquarefreeInt,
    adjoin_sqrt2,
    check_propagation,
    field_discriminant,
    imaginary_labels,
    is_2birational_multiquadratic,
    is_2birational_quadratic,
    is_2rational_multiquadratic,
    kronecker,
    make_field,
    primes_up_to,
    primitivity_over_Q,
    quadratic_subfields,
)


def squarefree_up_to(bound):
    out = []
    for n in range(1, bound + 1):
        k = 2
        ok = True
        while k * k <= n:
            if n % (k * k) == 0:
                ok = False
                break
            k += 1
        if ok:
            out.append(n)
    return out


def test_2rational_examples():
    v = is_2rational_multiquadratic(make_field([2, 3]))
    assert v.positive and v.case == "CMQ2R_III"
    v = is_2rational_multiquadratic(make_field([7]))
    assert not v.positive  # 7 = -1 (mod 8) is not primitive
    v = is_2rational_multiquadratic(make_field([-1, 2, 5]))
    assert v.positive and v.case == "CMQ2R_VI"


def test_2rational_case_tags():
    assert is_2rational_multiquadratic(make_field([])).case == "CMQ2R_I"
    assert is_2rational_multiquadratic(make_field([2])).case == "CMQ2R_II"
    assert is_2rational_multiquadratic(make_field([10])).case == "CMQ2R_II"
    assert is_2rational_multiquadratic(make_field([-2])).case == "CMQ2R_IV"
    assert is_2rational_multiquadratic(make_field([-1, 5])).case == "CMQ2R_V"
    assert not is_2rational_multiquadratic(make_field([3, 5])).positive
    assert not is_2rational_multiquadratic(make_field([15])).positive


def test_2rational_monotone_under_subfields():
    # every subfield of a positively classified field is positive
    tops = [make_field([-1, 2, p]) for p in (3, 5, 11, 13, 19, 29)]
    for top in tops:
        assert is_2rational_multiquadratic(top).positive
        labels = [s.value for s in quadratic_subfields(top)]
        for r in range(1, 4):
            for gens in combinations(labels, r):
                sub = make_field(gens)
                assert is_2rational_multiquadratic(sub).positive, gens


def test_2birational_quadratic_examples():
    v = is_2birational_quadratic(7)
    assert v.positive and v.case == "BIR_A_I"
    v = is_2birational_quadratic(15)
    assert v.positive and v.case == "BIR_A_II"
    v = is_2birational_quadratic(31)
    assert not v.positive  # 31 = 15 (mod 16)
    # 55 = 5 * 11 with 11 = 3 and 5 = 5 (mod 8) does qualify
    assert is_2birational_quadratic(55).positive
    with pytest.raises(ValueError):
        is_2birational_quadratic(12)
    with pytest.raises(ValueError):
        is_2birational_quadratic(0)


def test_positive_quadratic_verdicts_have_split_dyadic_place():
    for d in squarefree_up_to(3000):
        if is_2birational_quadratic(d).positive:
            assert d % 8 == 7, d


def test_2birational_multiquadratic_examples():
    v = is_2birational_multiquadratic(make_field([-7]))
    assert v.positive and v.case == "BIR_A_I"
    v = is_2birational_multiquadratic(make_field([5, -3]))
    assert v.positive and v.case == "BIR_B_I"
    v = is_2birational_multiquadratic(make_field([6, -15]))
    assert v.positive and v.case == "BIR_B_I"
    with pytest.raises(ValueError):
        is_2birational_multiquadratic(make_field([3]))


def test_2birational_multiquadratic_negative_shapes():
    assert not is_2birational_multiquadratic(make_field([-1])).positive
    assert not is_2birational_multiquadratic(make_field([-2])).positive
    assert not is_2birational_multiquadratic(make_field([7, -7])).positive
    assert not is_2birational_multiquadratic(make_field([-105])).positive
    # real subfield with two tame primes can never work
    v = is_2birational_multiquadratic(make_field([15, -7]))
    assert not v.positive and "real_subfield" in v.case
    # symbol split between the B cases
    v = is_2birational_multiquadratic(make_field([11, -5]))
    assert v.positive and v.case == "BIR_B_II"  # (11|5) = +1


def test_dyadic_split_condition_on_the_field_itself():
    # Q(sqrt(-14)) has one dyadic place (2 ramifies): not 2-birational even
    # though adjoining sqrt(2) would land on Q(sqrt(2), sqrt(-7)).
    v = is_2birational_multiquadratic(make_field([-14]))
    assert not v.positive and v.case == "NotApplicable:dyadic_place_not_split"
    # Q(sqrt(3), sqrt(-10)): same phenomenon one level up
    v = is_2birational_multiquadratic(make_field([3, -10]))
    assert not v.positive and v.case == "NotApplicable:dyadic_place_not_split"
    # while the sqrt(2)-saturated fields themselves are positive
    assert is_2birational_multiquadratic(make_field([2, -14])).positive
    assert is_2birational_multiquadratic(make_field([2, 3, -10])).positive


def test_quadratic_vs_multiquadratic_consistency():
    for d in squarefree_up_to(10_000):
        quad = is_2birational_quadratic(d)
        multi = is_2birational_multiquadratic(make_field([-d]))
        assert quad.positive == multi.positive, d
        if quad.positive:
            assert quad.case == multi.case, d


def test_sqrt2_adjunction_invariance_where_sound():
    # the equivalence "field 2-birational iff its sqrt(2)-compositum is"
    # holds exactly on fields whose own dyadic place splits; elsewhere the
    # field is negative by the splitting condition
    for d in squarefree_up_to(2000):
        f = make_field([-d])
        f2 = adjoin_sqrt2(f)
        v, v2 = is_2birational_multiquadratic(f), is_2birational_multiquadratic(f2)
        if any(l % 8 == 1 for l in imaginary_labels(f)):
            assert v.positive == v2.positive, d
        else:
            assert not v.positive, d


def test_verdict_json_shape():
    v = is_2birational_quadratic(7)
    payload = v.to_json()
    assert set(payload) == {"positive", "case", "evidence"}
    for item in payload["evidence"]:
        assert set(item) == {"condition", "values", "ok"}
    json.dumps(payload)  # serializable


def test_verdict_invariant():
    from birat2.classify import Evidence, Verdict

    with pytest.raises(ValueError):
        Verdict(True, "NotApplicable:x", ())
    with pytest.raises(ValueError):
        Verdict(True, "BIR_A_I", (Evidence("c", (), False),))


def test_check_propagation_cases():
    P = PrimitivityClass(0)
    S = PrimitivityClass(1)
    v = check_propagation([(3, P), (5, P)], 2, 3, "split")
    assert v.positive and v.case == "PROPA_B2"
    # places are plain labels, compared by their str
    assert check_propagation([("3", P), ("5", P)], 2, 3, "split") == v
    v = check_propagation([(3, P), (5, P)], 2, 3, "inert")
    assert v.positive and v.case == "PROPA_B1"
    v = check_propagation([(3, P), (5, P)], 4, 3, "split")
    assert not v.positive and v.case == "NotApplicable:QuadraticOnly"
    v = check_propagation([(7, S)], 2, 3, "split")
    assert not v.positive and "two_primitive_places" in v.case
    v = check_propagation([(3, P), (5, P)], 2, 11, "split")
    assert not v.positive and "tame_place" in v.case
    v = check_propagation([(3, P), (5, S)], 2, 3, "split")
    assert not v.positive
    with pytest.raises(ValueError):
        check_propagation([], 2, 3, "split")
    with pytest.raises(ValueError):
        check_propagation([(3, P), (5, P)], 2, 3, "ramified")
    with pytest.raises(ValueError):
        check_propagation([(3, P), (5, P)], 1, 3, "split")


def test_check_propagation_accepts_place_objects():
    # a place may be any object; it is labelled by its str
    place3 = SquarefreeInt(3, (3,))
    place5 = SquarefreeInt(5, (5,))
    v = check_propagation(
        [(place3, primitivity_over_Q(3)), (place5, primitivity_over_Q(5))],
        2,
        place3,
        "inert",
    )
    assert v.positive and v.case == "PROPA_B1"


def test_tame_criterion_matches_the_classifier():
    # Q(sqrt(-pq), sqrt(m)) is 2-birational exactly for m = 2 (the
    # cyclotomic layer) and for the real quadratic K' = Q(sqrt(m)) with one
    # odd prime t through which the criterion propagates L = Q(sqrt(-pq))
    ps = [r for r in primes_up_to(60) if r % 8 == 3]
    qs = [r for r in primes_up_to(60) if r % 8 == 5]
    ms = [m for m in squarefree_up_to(599) if m >= 2]
    odd_primes = {m: [r for r in primes_up_to(m) if r > 2 and m % r == 0] for m in ms}
    positives = 0
    for p in ps:
        for q in qs:
            places = [(p, primitivity_over_Q(p)), (q, primitivity_over_Q(q))]
            for m in ms:
                expected = m == 2
                if len(odd_primes[m]) == 1:
                    (t,) = odd_primes[m]
                    o = q if t == p else p
                    behaviour = "split" if kronecker(field_discriminant(m), o) == 1 else "inert"
                    expected = check_propagation(places, 2, t, behaviour).positive
                verdict = is_2birational_multiquadratic(make_field([-p * q, m]))
                assert verdict.positive == expected, (p, q, m, verdict.case)
                positives += expected
    assert (len(ps) * len(qs), len(ms), positives) == (25, 365, 125)
