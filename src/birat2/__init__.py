"""birat2: deciding 2-rationality and 2-birationality of multiquadratic
number fields, with independent class-group and ray-class oracles and a
planner for infinite towers of quadratic extensions."""

from .abelian import AbelianGroupStructure
from .arith import (
    SquarefreeInt,
    factorize,
    field_discriminant,
    is_prime,
    jacobi,
    kronecker,
    primes_up_to,
    squarefree_decompose,
)
from .classify import (
    Evidence,
    Verdict,
    check_propagation,
    is_2birational_multiquadratic,
    is_2birational_quadratic,
    is_2rational_multiquadratic,
)
from .errors import EffortBoundExceeded, TheoremViolation
from .fields import (
    FieldSignature,
    MultiquadField,
    adjoin_sqrt2,
    imaginary_labels,
    make_field,
    quadratic_subfields,
    real_part,
)
from .quadforms import (
    ClassGroup,
    QuadForm,
    is_fundamental_discriminant,
    narrow_class_group,
    restricted_2class_quotient,
    verify_2birational_quadratic_oracle,
    verify_2rational_quadratic,
)
from .rayclass import (
    RayClassReport,
    UnitGroupMod,
    find_propagation_field,
    mirror_group_trivial,
    ray_quotient_report,
    reflection_ranks,
    units_mod,
)
from .tower import (
    RealizedStep,
    StepCertificate,
    TowerPlan,
    plan_and_realize,
)
from .towerdec import (
    PrimitivityClass,
    primitivity_over_Q,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupStructure",
    "ClassGroup",
    "EffortBoundExceeded",
    "Evidence",
    "FieldSignature",
    "MultiquadField",
    "PrimitivityClass",
    "QuadForm",
    "RayClassReport",
    "RealizedStep",
    "SquarefreeInt",
    "StepCertificate",
    "TheoremViolation",
    "TowerPlan",
    "UnitGroupMod",
    "Verdict",
    "adjoin_sqrt2",
    "check_propagation",
    "factorize",
    "field_discriminant",
    "find_propagation_field",
    "imaginary_labels",
    "is_2birational_multiquadratic",
    "is_2birational_quadratic",
    "is_2rational_multiquadratic",
    "is_fundamental_discriminant",
    "is_prime",
    "jacobi",
    "kronecker",
    "make_field",
    "mirror_group_trivial",
    "narrow_class_group",
    "plan_and_realize",
    "primes_up_to",
    "primitivity_over_Q",
    "quadratic_subfields",
    "ray_quotient_report",
    "real_part",
    "reflection_ranks",
    "restricted_2class_quotient",
    "squarefree_decompose",
    "units_mod",
    "verify_2birational_quadratic_oracle",
    "verify_2rational_quadratic",
]
