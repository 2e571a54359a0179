"""Work counts: below an entry point that factored or validated its input,
no prime is worked out again."""

import sys
from collections import Counter
from itertools import combinations

import pytest

from birat2 import (
    FieldSignature,
    adjoin_sqrt2,
    arith,
    is_2birational_multiquadratic,
    is_2rational_multiquadratic,
    make_field,
    plan_and_realize,
    ray_quotient_report,
    real_part,
)


@pytest.fixture
def calls(monkeypatch):
    """Counts of factorize and is_prime calls, wrapped in every birat2
    module that holds them (arith's own callers included)."""
    counts = Counter()
    for name in ("factorize", "is_prime"):
        original = getattr(arith, name)

        def counted(*args, _name=name, _fn=original):
            counts[_name] += 1
            return _fn(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("birat2") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


PAIRS = [(3, 5), (5, 3), (11, 13), (43, 101), (1000000123, 1000000021), (999999999999997133, 3)]


@pytest.mark.parametrize("p, q", PAIRS)
def test_tower_and_ray_report_validate_once(calls, p, q):
    for run in (lambda: plan_and_realize(p, q, "PQP"), lambda: ray_quotient_report(p, q)):
        calls.clear()
        run()
        assert calls["factorize"] == 0 and calls["is_prime"] <= 2, (p, q, dict(calls))
    calls.clear()
    plan_and_realize(p, q, "PQP")
    assert calls["is_prime"] > 0  # the counters are live


def test_field_operations_and_classifiers_factor_nothing(calls):
    labels = [2, 3, 5, 6, 11, 13, 22, -1, -2, -3, -5, -7, -15, -23, -39, -55]
    fields = [make_field(gens) for r in (1, 2, 3) for gens in combinations(labels, r)]
    fields.append(make_field([10000000000037, -10000000000051]))
    assert calls["factorize"] > 0  # make_field factors each generator once
    calls.clear()
    for field in fields:
        real_part(field)
        adjoin_sqrt2(field)
        is_2rational_multiquadratic(field)
        if field.signature is FieldSignature.IMAGINARY:
            is_2birational_multiquadratic(field)
    assert not calls, dict(calls)
