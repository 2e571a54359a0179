"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import random
import time

from birat2 import (
    adjoin_sqrt2,
    imaginary_labels,
    is_2birational_multiquadratic,
    is_2birational_quadratic,
    is_2rational_multiquadratic,
    is_fundamental_discriminant,
    jacobi,
    make_field,
    mirror_group_trivial,
    narrow_class_group,
    plan_and_realize,
    primes_up_to,
    ray_quotient_report,
    reflection_ranks,
    verify_2birational_quadratic_oracle,
    verify_2rational_quadratic,
)
from birat2.arith import v2
from birat2.cli import main


def squarefree_up_to(bound):
    mask = bytearray([1]) * (bound + 1)
    for k in range(2, math.isqrt(bound) + 1):
        step = k * k
        mask[step::step] = bytearray(len(range(step, bound + 1, step)))
    return [n for n in range(1, bound + 1) if mask[n]]


def independent_quad_birational_list(bound):
    """One-line congruence oracle, independent of the classifier."""
    prime = set(primes_up_to(bound))
    out = []
    for d in squarefree_up_to(bound):
        if d in prime and d % 16 == 7:
            out.append(d)
            continue
        for p in sorted(prime):
            if p * p > d:
                break
            if d % p == 0 and d // p in prime and d // p != p:
                if {p % 8, (d // p) % 8} == {3, 5}:
                    out.append(d)
                break
    return out


def test_acceptance_1_quadratic_classification_table(capsys):
    golden = independent_quad_birational_list(200)
    assert golden == [7, 15, 23, 39, 55, 71, 87, 95, 103, 111, 143, 151, 159, 167, 183, 199]
    start = time.monotonic()
    code = main(["enumerate", "--kind", "quad-birational", "--bound", "200"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    labels = [r["label"] for r in json.loads(out)["rows"]]
    assert labels == golden
    for present in (7, 15, 23, 39, 71, 103):
        assert present in labels
    for absent in (31, 47):
        assert absent not in labels
    assert 55 in labels  # 55 = 5 * 11 with 11 = 3 and 5 = 5 (mod 8)
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (quadratic table, bound 200): PASS in {elapsed:.3f}s")


def test_acceptance_2_classifier_oracle_agreement():
    start = time.monotonic()
    positives = [d for d in squarefree_up_to(10_000) if is_2birational_quadratic(d).positive]
    disagreements = [
        d for d in positives if verify_2birational_quadratic_oracle(d) != (True, True)
    ]
    elapsed = time.monotonic() - start
    assert disagreements == []
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 2 (oracle agreement, {len(positives)} positives to 1e4): "
        f"PASS in {elapsed:.1f}s"
    )


def test_acceptance_3_rationality_oracle_agreement():
    listed = [-1, 2, -2]
    for p in primes_up_to(200):
        if p % 8 in (3, 5):
            listed += [p, -p, 2 * p, -2 * p]
    for m in listed:
        assert verify_2rational_quadratic(m) is True, m

    controls = []
    candidate = 2
    while len(controls) < 50:
        candidate += 1
        for m in (candidate, -candidate):
            if len(controls) == 50:
                break
            if any(candidate % (k * k) == 0 for k in range(2, math.isqrt(candidate) + 1)):
                continue
            if not is_2rational_multiquadratic(make_field([m])).positive:
                controls.append(m)
    for m in controls:
        assert verify_2rational_quadratic(m) is False, m
    print(
        f"\nACCEPTANCE 3 (2-rationality oracle, {len(listed)} listed + "
        f"{len(controls)} controls): PASS"
    )


def test_acceptance_4_ray_class_law():
    start = time.monotonic()
    primitive = [p for p in primes_up_to(200) if p % 8 in (3, 5)]
    pairs = 0
    for p in primitive:
        for q in primitive:
            if p == q:
                continue
            pairs += 1
            report = ray_quotient_report(p, q, k_max=10)
            final = report.per_level[-1][1]
            assert final.is_cyclic
            assert report.stabilized_order == 1 << v2(p - 1), (p, q)
            # stabilized by k = 10: the last three levels agree
            tail = {s.invariant_factors for _, s in report.per_level[-3:]}
            assert len(tail) == 1, (p, q)
            assert reflection_ranks(p, q) == (1, 0), (p, q)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 4 (ray-class law, {pairs} pairs to 200): PASS in {elapsed:.1f}s")


def test_acceptance_5_propagation_end_to_end():
    ps = [p for p in primes_up_to(100) if p % 8 == 3]
    qs = [q for q in primes_up_to(100) if q % 8 == 5]
    pairs = 0
    for p in ps:
        for q in qs:
            pairs += 1
            step_p = plan_and_realize(p, q, "P").realized_step1
            step_q = plan_and_realize(p, q, "Q").realized_step1
            assert step_p.verdict.positive and step_q.verdict.positive, (p, q)
            assert step_p.kprime.value != step_q.kprime.value
            assert step_p.kprime.value in (p, 2 * p)
            assert step_q.kprime.value in (q, 2 * q)
    assert plan_and_realize(3, 5, "P").realized_step1.kprime.value == 6
    assert plan_and_realize(5, 3, "P").realized_step1.kprime.value == 10
    print(f"\nACCEPTANCE 5 (propagation end-to-end, {pairs} pairs to 100): PASS")


def test_acceptance_6_mirror_triviality():
    count = 0
    for q in primes_up_to(10_000):
        if q % 8 not in (3, 5):
            continue
        p = 3 if q != 3 else 5
        assert mirror_group_trivial(q, p) is True, q
        count += 1
    print(f"\nACCEPTANCE 6 (mirror triviality, {count} primitive q to 1e4): PASS")


def test_acceptance_7a_sqrt2_adjunction_invariance():
    # verdicts are invariant under adjoining sqrt(2) whenever the field's own
    # dyadic place splits (some imaginary label = 1 mod 8); a field without
    # that witness is negative outright, and only there can the normalized
    # field differ.  The sampler draws 1e4 seeded random imaginary fields.
    rng = random.Random(20260809)
    checked = sound = degenerate = 0
    pool = [n for n in range(2, 121) if math.isqrt(n) ** 2 != n]
    while checked < 10_000:
        gens = []
        for _ in range(rng.randint(1, 3)):
            value = rng.choice(pool) * rng.choice((1, -1))
            gens.append(value)
        if all(g > 0 for g in gens):
            gens[rng.randrange(len(gens))] *= -1
        field = make_field(gens)
        checked += 1
        v = is_2birational_multiquadratic(field)
        v2_ = is_2birational_multiquadratic(adjoin_sqrt2(field))
        if any(l % 8 == 1 for l in imaginary_labels(field)):
            sound += 1
            assert v.positive == v2_.positive, gens
        else:
            assert not v.positive, gens
            if v2_.positive:
                degenerate += 1
                assert v.case == "NotApplicable:dyadic_place_not_split", gens
    print(
        f"\nACCEPTANCE 7a (sqrt(2)-adjunction invariance, {checked} fields, "
        f"{sound} with split dyadic place, {degenerate} degenerate flips "
        f"correctly rejected): PASS"
    )


def test_acceptance_7b_jacobi_reciprocity_exhaustive():
    odd_primes = [p for p in primes_up_to(1000) if p != 2]
    pairs = 0
    for i, p in enumerate(odd_primes):
        for q in odd_primes[i + 1 :]:
            pairs += 1
            expected = (-1) ** (((p - 1) // 2) * ((q - 1) // 2))
            assert jacobi(p, q) * jacobi(q, p) == expected, (p, q)
    print(f"\nACCEPTANCE 7b (quadratic reciprocity, {pairs} prime pairs to 1e3): PASS")


def test_acceptance_7c_genus_rank_agreement(genus_2rank):
    start = time.monotonic()
    count = 0
    for D in range(-10_000, 10_001):
        if not is_fundamental_discriminant(D):
            continue
        group = narrow_class_group(D)
        two_rank = sum(1 for d in group.invariant_factors if d % 2 == 0)
        assert two_rank == genus_2rank(D), D
        count += 1
    elapsed = time.monotonic() - start
    print(
        f"\nACCEPTANCE 7c (genus 2-rank vs form groups, {count} fundamental "
        f"|D| <= 1e4): PASS in {elapsed:.1f}s"
    )
