"""Planning and certifying towers of quadratic extensions that preserve
2-birationality.

Starting from L = Q(sqrt(-pq)) with p, q primitive and p = -q = 3 (mod 8),
each step picks one of the two tame places and ascends through the unique
real quadratic extension ramified there and split at the other.
``plan_and_realize`` is the one planner.  It realizes step 1: it finds
K'_1 = Q(sqrt(k')), builds the compositum L'_1 and classifies it.  Step 1 is
certified checked only once the propagation criterion
(``classify.check_propagation``, evaluated on what was built) and the
classifier on L'_1 are both positive and the other place splits in K'_1;
anything else raises TheoremViolation.  Deeper steps are certified
symbolically: their obligations are recorded and justified by induction,
since explicit class field theory over the larger bases is out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import SquarefreeInt, field_discriminant, kronecker
from .classify import Verdict, check_propagation, is_2birational_multiquadratic
from .errors import TheoremViolation
from .fields import MultiquadField, field_from_labels
from .rayclass import _find_propagation_field
from .towerdec import _primitivity, check_primitive_pair

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


_CHECKED_STEP = tuple(Obligation(n, CHECKED) for n in OBLIGATION_NAMES)
_SYMBOLIC_STEP = tuple(Obligation(n, SYMBOLIC) for n in OBLIGATION_NAMES)


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


def _realize(p: int, q: int, choice: str) -> RealizedStep:
    # K'_1 is ramified at the chosen place t; the other place o must split
    t, o = (p, q) if choice == CHOICE_P else (q, p)
    kprime = _find_propagation_field(t, o)
    lprime = field_from_labels([_base_label(p, q), kprime])
    verdict = is_2birational_multiquadratic(lprime)
    (tame,) = kprime.odd_primes
    symbol = kronecker(field_discriminant(kprime.value), o)
    criterion = check_propagation(
        [(p, _primitivity(p)), (q, _primitivity(q))],
        1 << (lprime.dim - 1),  # [K'_1 : Q] = [L'_1 : L], as K'_1 is real and L imaginary
        tame,
        "split" if symbol == 1 else "inert",
    )
    failed = [
        f"{name} {v.case} ({'; '.join(e.condition for e in v.evidence if not e.ok)})"
        for name, v in (("criterion", criterion), ("classifier on L'_1", verdict))
        if not v.positive
    ]
    if symbol != 1:
        failed.append(f"{o} is not split in Q(sqrt({kprime.value})) (symbol {symbol})")
    if failed:
        raise TheoremViolation(
            f"realized step 1 for (p={p}, q={q}, choice={choice}) fails: " + "; ".join(failed)
        )
    return RealizedStep(kprime, lprime, verdict)


def plan_and_realize(p: int, q: int, choices: str) -> TowerPlan:
    """The tower plan over the base Q(sqrt(-pq)), one certified step per
    choice, with step 1 realized and checked when the word is nonempty."""
    p, q = _check_admissible(p, q)
    if any(c not in (CHOICE_P, CHOICE_Q) for c in choices):
        raise ValueError(f"choices must be a word over P/Q, got {choices!r}")
    realized = _realize(p, q, choices[0]) if choices else None
    steps = tuple(
        StepCertificate(i, choice, _CHECKED_STEP if i == 1 else _SYMBOLIC_STEP)
        for i, choice in enumerate(choices, start=1)
    )
    return TowerPlan(p, q, choices, steps, realized)
