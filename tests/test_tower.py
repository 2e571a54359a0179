import pytest

from birat2 import (
    Evidence,
    TheoremViolation,
    Verdict,
    is_2birational_quadratic,
    plan_and_realize,
    primes_up_to,
    verify_2birational_quadratic_oracle,
)
from birat2 import tower
from birat2.cli import main


def step1(p, q, choice):
    return plan_and_realize(p, q, choice).realized_step1


def admissible_pairs(bound):
    ps = [p for p in primes_up_to(bound) if p % 8 == 3]
    qs = [q for q in primes_up_to(bound) if q % 8 == 5]
    return [(p, q) for p in ps for q in qs]


def test_plan_examples():
    plan = plan_and_realize(3, 5, "PQ")
    assert len(plan.steps) == 2
    assert plan.steps[0].ramified_choice == "P"
    assert all(o.status == "checked" for o in plan.steps[0].conditions)
    assert all(o.status == "symbolic" for o in plan.steps[1].conditions)

    with pytest.raises(ValueError, match="not primitive"):
        plan_and_realize(3, 7, "P")

    plan = plan_and_realize(3, 5, "")
    assert plan.steps == ()


def test_plan_rejects_bad_inputs():
    with pytest.raises(ValueError, match="not prime"):
        plan_and_realize(3, 9, "P")
    with pytest.raises(ValueError, match="not 2-birational"):
        plan_and_realize(3, 11, "P")  # both = 3 (mod 8): wrong orientation
    with pytest.raises(ValueError):
        plan_and_realize(3, 5, "PX")
    with pytest.raises(ValueError):
        plan_and_realize(3, 3, "P")
    with pytest.raises(ValueError):
        plan_and_realize(2, 5, "P")


def test_plan_total_for_long_words():
    plan = plan_and_realize(3, 5, "PQ" * 25)
    assert len(plan.steps) == 50
    assert [s.index for s in plan.steps] == list(range(1, 51))


def test_realize_examples():
    step = step1(3, 5, "P")
    assert step.kprime.value == 6
    assert step.lprime.labels == (6, -15)
    assert step.verdict.positive and step.verdict.case == "BIR_B_I"

    step = step1(3, 5, "Q")
    assert step.kprime.value == 10
    assert step.lprime.labels == (10, -15)
    assert step.verdict.positive and step.verdict.case == "BIR_B_I"

    step = step1(11, 5, "P")
    assert step.kprime.value in (11, 22)
    assert step.verdict.positive


def test_exactly_two_propagation_choices():
    for p, q in admissible_pairs(100):
        s_p = step1(p, q, "P")
        s_q = step1(p, q, "Q")
        assert s_p.kprime.value != s_q.kprime.value
        assert s_p.kprime.value in (p, 2 * p)
        assert s_q.kprime.value in (q, 2 * q)
        assert s_p.verdict.positive and s_q.verdict.positive


def test_realized_fields_pass_oracle_necessary_conditions():
    from birat2 import imaginary_labels

    for p, q in admissible_pairs(60):
        for choice in "PQ":
            step = step1(p, q, choice)
            for label in imaginary_labels(step.lprime):
                d = -label
                if d % 8 == 7 and is_2birational_quadratic(d).positive:
                    assert verify_2birational_quadratic_oracle(d) == (True, True)


def test_plan_and_realize():
    plan = plan_and_realize(3, 5, "PQP")
    assert plan.realized_step1 is not None
    assert plan.realized_step1.kprime.value == 6
    payload = plan.to_json()
    assert payload["base"] == [3, 5]
    assert payload["realized_step1"]["kprime"] == 6
    assert payload["realized_step1"]["lprime"] == [6, -15]
    assert payload["steps"][0]["obligations"][0] == {
        "name": "degree_2",
        "status": "checked",
    }

    plan = plan_and_realize(3, 5, "")
    assert plan.realized_step1 is None


def run_tower_without_realize(capsys):
    code = main(["tower", "--p", "3", "--q", "5", "--choices", "P"])
    out, err = capsys.readouterr()
    return code, out, err


FORGED = Evidence("forged condition", (), False)


def test_step1_negative_criterion_raises(monkeypatch, capsys):
    # step 1 is certified only by the criterion evaluated on the built step
    forged = Verdict(False, "NotApplicable:forged", (FORGED,))
    monkeypatch.setattr(tower, "check_propagation", lambda *args: forged)
    code, out, err = run_tower_without_realize(capsys)
    assert code == 2 and out == ""
    assert "criterion NotApplicable:forged (forged condition)" in err
    with pytest.raises(TheoremViolation, match="p=3, q=5, choice=P"):
        plan_and_realize(3, 5, "P")


def test_step1_negative_classifier_raises(monkeypatch, capsys):
    real = tower.is_2birational_multiquadratic

    def forged(field):
        verdict = real(field)
        if field.dim == 1:  # the base Q(sqrt(-pq)) stays admissible
            return verdict
        return Verdict(False, "NotApplicable:forged", verdict.evidence + (FORGED,))

    monkeypatch.setattr(tower, "is_2birational_multiquadratic", forged)
    code, out, err = run_tower_without_realize(capsys)
    assert code == 2 and out == ""
    assert "classifier on L'_1 NotApplicable:forged (forged condition)" in err


def test_step1_inert_other_place_raises(monkeypatch, capsys):
    # the criterion accepts an inert other place (branch b1), but the step
    # built by the finder must split it
    monkeypatch.setattr(tower, "kronecker", lambda D, m: -1)
    code, out, err = run_tower_without_realize(capsys)
    assert code == 2 and out == ""
    assert "5 is not split in Q(sqrt(6)) (symbol -1)" in err
