"""Planning and certifying towers of quadratic extensions that preserve
2-birationality.

Starting from Q(sqrt(-pq)) with p, q primitive and p = -q = 3 (mod 8), each
step picks one of the two tame places and ascends through the unique real
quadratic extension ramified there and split at the other.  Step 1 is
realized explicitly (the field is found and its compositum re-classified);
deeper steps are certified symbolically: their obligations are recorded and
justified by induction, since explicit class field theory over the larger
bases is out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import SquarefreeInt
from .classify import Verdict, is_2birational_multiquadratic
from .errors import TheoremViolation
from .fields import MultiquadField, field_from_labels
from .rayclass import _find_propagation_field
from .towerdec import check_primitive_pair

CHOICE_P = "P"
CHOICE_Q = "Q"

CHECKED = "checked"
SYMBOLIC = "symbolic"

OBLIGATION_NAMES = (
    "degree_2",
    "tame_ramification_exactly_at_choice",
    "split_at_other_place",
    "both_places_primitive",
    "unique_dyadic_place",
)


@dataclass(frozen=True)
class Obligation:
    name: str
    status: str  # "checked" or "symbolic"


@dataclass(frozen=True)
class StepCertificate:
    index: int
    ramified_choice: str
    conditions: tuple[Obligation, ...]


@dataclass(frozen=True)
class RealizedStep:
    kprime: SquarefreeInt
    lprime: MultiquadField
    verdict: Verdict


@dataclass(frozen=True)
class TowerPlan:
    base_p: int
    base_q: int
    choices: str
    steps: tuple[StepCertificate, ...]
    realized_step1: RealizedStep | None = None

    def to_json(self) -> dict:
        out: dict = {
            "base": [self.base_p, self.base_q],
            "choices": self.choices,
            "steps": [
                {
                    "index": s.index,
                    "choice": s.ramified_choice,
                    "obligations": [
                        {"name": o.name, "status": o.status} for o in s.conditions
                    ],
                }
                for s in self.steps
            ],
            "realized_step1": None,
        }
        if self.realized_step1 is not None:
            r = self.realized_step1
            out["realized_step1"] = {
                "kprime": r.kprime.value,
                "lprime": list(r.lprime.labels),
                "verdict": r.verdict.to_json(),
            }
        return out


def _check_admissible(p: int, q: int) -> tuple[int, int]:
    p, q = check_primitive_pair(p, q)
    base = is_2birational_multiquadratic(field_from_labels([_base_label(p, q)]))
    if not base.positive:
        raise ValueError(
            f"Q(sqrt({-p * q})) is not 2-birational "
            f"(requires p = -q = 3 (mod 8) up to swap; "
            f"got p mod 8 = {p % 8}, q mod 8 = {q % 8})"
        )
    return p, q


def _base_label(p: int, q: int) -> SquarefreeInt:
    return SquarefreeInt(-p * q, (min(p, q), max(p, q)))


def _certificates(choices: str) -> tuple[StepCertificate, ...]:
    if any(c not in (CHOICE_P, CHOICE_Q) for c in choices):
        raise ValueError(f"choices must be a word over P/Q, got {choices!r}")
    steps = []
    for i, choice in enumerate(choices, start=1):
        status = CHECKED if i == 1 else SYMBOLIC
        steps.append(
            StepCertificate(
                i, choice, tuple(Obligation(n, status) for n in OBLIGATION_NAMES)
            )
        )
    return tuple(steps)


def _realize(p: int, q: int, choice: str) -> RealizedStep:
    kprime = _find_propagation_field(*((p, q) if choice == CHOICE_P else (q, p)))
    lprime = field_from_labels([_base_label(p, q), kprime])
    verdict = is_2birational_multiquadratic(lprime)
    if not verdict.positive:
        raise TheoremViolation(
            f"realized step for (p={p}, q={q}, choice={choice}) classified "
            f"negative: {verdict.case}"
        )
    return RealizedStep(kprime, lprime, verdict)


def plan_tower(p: int, q: int, choices: str) -> TowerPlan:
    """A tower plan over the base Q(sqrt(-pq)), one certified step per choice.

    Step 1 carries machine-checked obligations; deeper steps record the same
    obligations as symbolic, each one guaranteed by induction once the
    previous step is in place.
    """
    p, q = _check_admissible(p, q)
    steps = _certificates(choices)
    if choices:
        # realizability check: the finder validates every obligation
        _find_propagation_field(*((p, q) if choices[0] == CHOICE_P else (q, p)))
    return TowerPlan(p, q, choices, steps)


def realize_step1(p: int, q: int, choice: str) -> RealizedStep:
    """Realize the first tower step explicitly.

    Returns the real quadratic label, the compositum with Q(sqrt(-pq)),
    and its (necessarily positive) classification; a negative verdict is a
    theorem violation.
    """
    p, q = _check_admissible(p, q)
    if choice not in (CHOICE_P, CHOICE_Q):
        raise ValueError(f"choice must be P or Q, got {choice!r}")
    return _realize(p, q, choice)


def plan_and_realize(p: int, q: int, choices: str) -> TowerPlan:
    """plan_tower plus the realized first step when the word is nonempty."""
    p, q = _check_admissible(p, q)
    steps = _certificates(choices)
    realized = _realize(p, q, choices[0]) if choices else None
    return TowerPlan(p, q, choices, steps, realized)
