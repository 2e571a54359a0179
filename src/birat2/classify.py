"""Congruence classifiers for 2-rationality and 2-birationality.

The decision procedures here are pure congruence and symbol checks on the
canonical field presentation; the quadforms and rayclass modules provide
the independent computational oracles that cross-verify them.
``check_propagation`` is the paper's criterion for propagating
2-birationality through a totally real quadratic K'/K in terms of tame
ramification; ``tower`` checks every realized first step with it.

Every verdict carries a case tag and the evidence actually checked, and
serializes to the stable JSON shape
``{"positive": ..., "case": ..., "evidence": [{"condition", "values", "ok"}]}``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .arith import jacobi, squarefree_decompose
from .fields import (
    FieldSignature,
    MultiquadField,
    adjoin_sqrt2,
    imaginary_labels,
    quadratic_subfields,
    real_part,
)
from .towerdec import PrimitivityClass

# 2-rationality cases: the multiquadratic 2-rational fields are exactly the
# subfields of Q(sqrt(-1), sqrt(2), sqrt(p)) for a prime p = +-3 (mod 8),
# indexed by dimension and signature.
CMQ2R_CASES = {
    (FieldSignature.TOTALLY_REAL, 0): "CMQ2R_I",
    (FieldSignature.TOTALLY_REAL, 1): "CMQ2R_II",
    (FieldSignature.TOTALLY_REAL, 2): "CMQ2R_III",
    (FieldSignature.IMAGINARY, 1): "CMQ2R_IV",
    (FieldSignature.IMAGINARY, 2): "CMQ2R_V",
    (FieldSignature.IMAGINARY, 3): "CMQ2R_VI",
}

BIR_A_I = "BIR_A_I"  # imaginary part -q, q prime, q = 7 (mod 16), over Q(sqrt(2))
BIR_A_II = "BIR_A_II"  # imaginary part -qq', q = -q' = +-3 (mod 8), over Q(sqrt(2))
BIR_B_I = "BIR_B_I"  # real part contains p; -q = p = +-3 (mod 8), (p|q) = -1
BIR_B_II = "BIR_B_II"  # same but (p|q) = +1
PROPA_B1 = "PROPA_B1"  # propagation with the untouched place inert
PROPA_B2 = "PROPA_B2"  # propagation with the untouched place split


@dataclass(frozen=True)
class Evidence:
    """One checked condition with the values that went into it."""

    condition: str
    values: tuple[tuple[str, object], ...]
    ok: bool

    def to_json(self) -> dict:
        return {"condition": self.condition, "values": dict(self.values), "ok": self.ok}


def _ev(condition: str, ok: bool, **values: object) -> Evidence:
    return Evidence(condition, tuple(values.items()), bool(ok))


@dataclass(frozen=True)
class Verdict:
    """Outcome of a classification with its case tag and evidence trail."""

    positive: bool
    case: str
    evidence: tuple[Evidence, ...]

    def __post_init__(self) -> None:
        if self.positive:
            if self.case.startswith("NotApplicable"):
                raise ValueError("positive verdict cannot be NotApplicable")
            if not all(e.ok for e in self.evidence):
                raise ValueError("positive verdict with failed evidence")

    def to_json(self) -> dict:
        return {
            "positive": self.positive,
            "case": self.case,
            "evidence": [e.to_json() for e in self.evidence],
        }


def _negative(reason: str, evidence: Iterable[Evidence]) -> Verdict:
    return Verdict(False, f"NotApplicable:{reason}", tuple(evidence))


def is_2rational_multiquadratic(field: MultiquadField) -> Verdict:
    """Decide 2-rationality of a multiquadratic field.

    Positive exactly when at most one odd prime p divides the basis labels
    and that prime is primitive (p = +-3 mod 8); the field is then a
    subfield of Q(sqrt(-1), sqrt(2), sqrt(p)) and the case tag records the
    matching dimension/signature slot.
    """
    odd = sorted({p for b in field.basis for p in b.odd_primes})
    evidence = [
        _ev(
            "at most one tamely ramified odd prime",
            len(odd) <= 1,
            odd_primes=odd,
        )
    ]
    if len(odd) > 1:
        return _negative("several_tame_primes", evidence)
    if odd:
        p = odd[0]
        primitive = p % 8 in (3, 5)
        evidence.append(_ev("p = +-3 (mod 8)", primitive, p=p, p_mod_8=p % 8))
        if not primitive:
            return _negative("tame_prime_not_primitive", evidence)
    case = CMQ2R_CASES.get((field.signature, field.dim))
    if case is None:  # cannot happen with <= 1 odd prime; guard anyway
        return _negative("unexpected_shape", evidence)
    return Verdict(True, case, tuple(evidence))


def is_2birational_quadratic(d: int) -> Verdict:
    """Decide 2-birationality of Q(sqrt(-d)) for squarefree d >= 1.

    Positive exactly when d is a prime = 7 (mod 16), or d = pq for primes
    p = 3 and q = 5 (mod 8).
    """
    d = operator.index(d)
    if d < 1:
        raise ValueError(f"expected a positive squarefree d, got {d}")
    s, f = squarefree_decompose(d)
    if f != 1:
        raise ValueError(f"d={d} is not squarefree")
    primes = list(s.primes)
    if len(primes) == 1 and d != 1:
        q = primes[0]
        ok = q % 2 == 1 and q % 16 == 7
        ev = [_ev("d = q prime with q = 7 (mod 16)", ok, q=q, q_mod_16=q % 16)]
        if ok:
            return Verdict(True, BIR_A_I, tuple(ev))
        return _negative("congruence_failed", ev)
    if len(primes) == 2 and primes[0] != 2:
        p, q = primes
        ok = {p % 8, q % 8} == {3, 5}
        ev = [
            _ev(
                "d = pq with p = -q = 3 (mod 8)",
                ok,
                p=p,
                q=q,
                p_mod_8=p % 8,
                q_mod_8=q % 8,
            )
        ]
        if ok:
            return Verdict(True, BIR_A_II, tuple(ev))
        return _negative("congruence_failed", ev)
    return _negative(
        "wrong_shape",
        [
            _ev(
                "d is an odd prime or a product of two odd primes",
                False,
                d=d,
                primes=primes,
            )
        ],
    )


def _dyadic_split_evidence(field: MultiquadField) -> tuple[Evidence, bool]:
    # The dyadic place of the real subfield splits in the field iff some
    # imaginary label is = 1 (mod 8): such a label is a 2-adic square, and
    # conversely local squares can always be moved onto a label because the
    # real labels are global squares in the field.  Without this the field
    # has a single dyadic place and cannot be 2-birational, even when
    # adjoining sqrt(2) would repair the configuration.
    witnesses = [l for l in imaginary_labels(field) if l % 8 == 1]
    ok = bool(witnesses)
    return (
        _ev(
            "some imaginary label -d has d = 7 (mod 8) (dyadic place splits)",
            ok,
            witnesses=witnesses,
        ),
        ok,
    )


def is_2birational_multiquadratic(field: MultiquadField) -> Verdict:
    """Decide 2-birationality of an imaginary multiquadratic field.

    Steps: the maximal real subfield must be 2-rational; the dyadic place
    must split in the field itself; then, after normalizing with sqrt(2),
    the configuration must be one of the four classified shapes (imaginary
    label -q with q = 7 mod 16, or -qq' with q = -q' = +-3 mod 8, over
    Q(sqrt 2); or -q with -q = p = +-3 mod 8 over Q(sqrt 2, sqrt p), split
    by the symbol (p|q)).
    """
    if field.signature is not FieldSignature.IMAGINARY:
        raise ValueError("2-birationality applies to imaginary fields only")

    rational = is_2rational_multiquadratic(real_part(field))
    evidence = [
        _ev(
            "maximal real subfield is 2-rational",
            rational.positive,
            real_basis=list(field.real_labels),
            case=rational.case,
        )
    ]
    if not rational.positive:
        return _negative("real_subfield_not_2rational", evidence)

    split_ev, split_ok = _dyadic_split_evidence(field)
    evidence.append(split_ev)
    if not split_ok:
        return _negative("dyadic_place_not_split", evidence)

    normalized = adjoin_sqrt2(field)
    real_odd = sorted({p for b in normalized.real_subfield_basis for p in b.odd_primes})
    odd_imag = [s for s in quadratic_subfields(normalized) if s.value < 0 and s.value % 2]

    if not real_odd:
        # real part of the normalized field is <2>
        d = -odd_imag[0].value
        evidence.append(_ev("normalized imaginary label", True, d=d))
        if d == 1:
            return _negative(
                "contains_sqrt_minus_one",
                evidence + [_ev("d != 1", False, d=d)],
            )
        dprimes = list(odd_imag[0].primes)
        if len(dprimes) == 1:
            ok = d % 16 == 7
            evidence.append(_ev("d = q prime, q = 7 (mod 16)", ok, q=d, q_mod_16=d % 16))
            if ok:
                return Verdict(True, BIR_A_I, tuple(evidence))
            return _negative("congruence_failed", evidence)
        if len(dprimes) == 2:
            q1, q2 = dprimes
            ok = {q1 % 8, q2 % 8} == {3, 5}
            evidence.append(
                _ev(
                    "d = qq' with q = -q' = +-3 (mod 8)",
                    ok,
                    q=q1,
                    q_prime=q2,
                    q_mod_8=q1 % 8,
                    q_prime_mod_8=q2 % 8,
                )
            )
            if ok:
                return Verdict(True, BIR_A_II, tuple(evidence))
            return _negative("congruence_failed", evidence)
        evidence.append(_ev("d has at most two prime factors", False, d=d, primes=dprimes))
        return _negative("too_many_tame_places", evidence)

    # real part of the normalized field is <2, p>
    p = real_odd[0]
    q_candidates = [s.primes[0] for s in odd_imag if len(s.primes) == 1 and s.primes[0] != p]
    evidence.append(
        _ev(
            "imaginary part has a presentation -q with q prime, q != p",
            bool(q_candidates),
            p=p,
            odd_imaginary_labels=[s.value for s in odd_imag],
            candidates=q_candidates,
        )
    )
    if not q_candidates:
        return _negative("no_prime_presentation", evidence)
    q = q_candidates[0]
    ok = p % 8 in (3, 5) and (-q) % 8 == p % 8
    evidence.append(
        _ev(
            "-q = p = +-3 (mod 8)",
            ok,
            p=p,
            q=q,
            p_mod_8=p % 8,
            minus_q_mod_8=(-q) % 8,
        )
    )
    if not ok:
        return _negative("congruence_failed", evidence)
    symbol = jacobi(p, q)
    evidence.append(_ev("Legendre symbol (p|q)", True, p=p, q=q, symbol=symbol))
    return Verdict(True, BIR_B_I if symbol == -1 else BIR_B_II, tuple(evidence))


def check_propagation(
    L_ram: Sequence[tuple[object, PrimitivityClass]],
    Kprime_degree: int,
    Kprime_tame_ram: object,
    other_place_behavior: str,
) -> Verdict:
    """Decide whether 2-birationality propagates through K'/K.

    Inputs describe the tame ramification of L/K (places with their
    primitivity classes), the degree of the totally real extension K'/K,
    the unique tame-ramified place of K'/K, and how the other ramified
    place of L/K behaves in K'/K.  Propagation needs K'/K quadratic,
    exactly two primitive tame places in L/K with the K'-ramified place
    among them, and the other place inert (branch b1) or split (branch b2).

    Places are plain labels, compared by their ``str``, so the check applies
    over any totally real 2-rational base, not only over Q.  ``tower``
    evaluates it on every realized first step.
    """
    if not L_ram:
        raise ValueError("ramification list for L/K must not be empty")
    if other_place_behavior not in ("split", "inert"):
        raise ValueError(f"unknown behavior {other_place_behavior!r}")
    if Kprime_degree < 2:
        raise ValueError("K'/K must be a nontrivial extension")

    evidence = [
        _ev("K'/K is quadratic", Kprime_degree == 2, degree=Kprime_degree)
    ]
    if Kprime_degree != 2:
        return _negative("QuadraticOnly", evidence)

    labels = [str(place) for place, _ in L_ram]
    classes = [cls for _, cls in L_ram]
    two_primitive = len(L_ram) == 2 and all(c.is_primitive for c in classes)
    evidence.append(
        _ev(
            "L/K is tamely ramified at exactly two primitive places",
            two_primitive,
            places=labels,
            classes=[str(c) for c in classes],
        )
    )
    if not two_primitive:
        return _negative("two_primitive_places_required", evidence)

    tame = str(Kprime_tame_ram)
    among = tame in labels
    evidence.append(
        _ev(
            "K'/K is tamely ramified at one of the two places",
            among,
            tame_place=tame,
        )
    )
    if not among:
        return _negative("tame_place_not_ramified_in_L", evidence)

    other = next(l for l in labels if l != tame)
    evidence.append(
        _ev(
            f"the other place is {other_place_behavior} in K'/K",
            True,
            other_place=other,
            behavior=other_place_behavior,
        )
    )
    case = PROPA_B1 if other_place_behavior == "inert" else PROPA_B2
    return Verdict(True, case, tuple(evidence))
