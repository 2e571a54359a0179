import dataclasses
import gc
import math
import random
import subprocess
import sys

import pytest

from birat2 import (
    ClassGroup,
    QuadForm,
    TheoremViolation,
    is_fundamental_discriminant,
    kronecker,
    narrow_class_group,
    restricted_2class_quotient,
    verify_2birational_quadratic_oracle,
    verify_2rational_quadratic,
)
from birat2 import quadforms
from birat2.cli import main
from birat2.quadforms import canonical_rep, compose, principal_form, reduction_cycle


def fundamental_discs(lo, hi):
    return [D for D in range(lo, hi + 1) if is_fundamental_discriminant(D)]


def analytic_class_number_imaginary(D):
    """Independent oracle: Dirichlet's exact formula
    h = w / (2|D|) * |sum_{a=1}^{|D|-1} chi_D(a) * a| for D < -4 (w = 2)."""
    assert D < 0
    w = 6 if D == -3 else 4 if D == -4 else 2
    total = sum(kronecker(D, a) * a for a in range(1, abs(D)))
    h = w * abs(total) // (2 * abs(D))
    assert h * 2 * abs(D) == w * abs(total)
    return h


def coefficients(f):
    return (f.a, f.b, f.c)


def test_quadform_value_semantics():
    f, g = QuadForm(2, 1, 3), QuadForm(*[2, 1, 3])
    assert f == g and hash(f) == hash(g) and f is not g
    assert len({f, g}) == 1 and {f: 1}[g] == 1
    assert f != QuadForm(2, -1, 3)
    with pytest.raises(AttributeError):
        f.a = 5
    assert repr(f) == "QuadForm(a=2, b=1, c=3)"
    assert (f.a, f.b, f.c, f.discriminant, math.gcd(*f)) == (2, 1, 3, -23, 1)
    rng = random.Random(5)
    forms = [QuadForm(*(rng.randint(-9, 9) for _ in range(3))) for _ in range(300)]
    assert sorted(forms) == sorted(forms, key=coefficients)
    assert min(forms) == min(forms, key=coefficients)
    for D in (-3299, -84, 229, 316):
        els = narrow_class_group(D).elements
        assert list(els) == sorted(els, key=coefficients)


def test_narrow_group_examples():
    assert narrow_class_group(-23).invariant_factors == (3,)
    assert narrow_class_group(-4).invariant_factors == ()
    assert narrow_class_group(28).invariant_factors == (2,)


def test_rejects_non_fundamental():
    for D in (0, 1, 12_345_678_901, -20_000_000):
        with pytest.raises(ValueError):
            narrow_class_group(D)
    with pytest.raises(ValueError):
        narrow_class_group(-12)  # -12 = 4 * -3, -3 = 1 (mod 4): not fundamental
    with pytest.raises(ValueError):
        narrow_class_group(45)  # not squarefree


def test_bound_checked_before_factoring():
    # D = m = 1 (mod 4) with two prime factors above the trial-division limit:
    # deciding whether D is fundamental would exhaust the factoring effort
    m = 1000033 * 1000037
    with pytest.raises(ValueError, match="exceeds the enumeration bound"):
        narrow_class_group(m)
    with pytest.raises(ValueError, match="exceeds the enumeration bound"):
        verify_2rational_quadratic(m)


def test_imaginary_class_numbers_against_analytic_formula():
    for D in fundamental_discs(-1500, -3):
        g = narrow_class_group(D)
        assert g.order == analytic_class_number_imaginary(D), D


def test_real_narrow_class_numbers_frozen_anchors():
    # h+ = h * 2 exactly when the fundamental unit has norm +1;
    # e.g. 104: Q(sqrt(26)) has h = 2 and unit 5 + sqrt(26) of norm -1
    anchors = {5: 1, 8: 1, 12: 2, 13: 1, 24: 2, 28: 2, 40: 2, 44: 2, 60: 4, 104: 2}
    for D, h_plus in anchors.items():
        assert narrow_class_group(D).order == h_plus, D


def fundamental_unit(m):
    """Reference fundamental unit (x + y sqrt(m))/2 of the real field
    Q(sqrt(m)), as (x, y, norm): x, y > 0 minimal with x^2 - m y^2 = 4 norm.

    The continued fraction of the maximal order's generator, sqrt(m) or
    (1 + sqrt(m))/2, is followed until a complete quotient repeats; the
    convergent matrix spanning that period fixes the generator and reads
    off the unit.
    """
    half = m % 4 == 1
    P, Q = (1, 2) if half else (0, 1)
    sq = math.isqrt(m)
    # convergent matrix [[p_{k-1}, p_{k-2}], [q_{k-1}, q_{k-2}]]
    pm1, pm2, qm1, qm2 = 1, 0, 0, 1
    seen = {}
    while (P, Q) not in seen:
        seen[P, Q] = (pm1, pm2, qm1, qm2)
        a = (P + sq) // Q
        P = a * Q - P
        Q = (m - P * P) // Q
        pm1, pm2 = a * pm1 + pm2, pm1
        qm1, qm2 = a * qm1 + qm2, qm1
    a11, a12, a21, a22 = seen[P, Q]
    det = a11 * a22 - a12 * a21  # +-1
    # the period matrix: now times the inverse of then
    r = det * (pm1 * a22 - pm2 * a21)
    s = det * (pm2 * a11 - pm1 * a12)
    t = det * (qm1 * a22 - qm2 * a21)
    u = det * (qm2 * a11 - qm1 * a12)
    if half:
        assert t + u - r == 0 and t * (m - 1) // 4 == s, m
        x, y = 2 * u + t, t
    else:
        assert u == r and s == t * m, m
        x, y = 2 * u, 2 * t
    x, y = abs(x), abs(y)
    norm = (x * x - m * y * y) // 4
    assert norm in (1, -1) and x > 0 and y > 0 and x * x - m * y * y == 4 * norm, m
    return x, y, norm


def test_reference_fundamental_unit_examples():
    assert fundamental_unit(2) == (2, 2, -1)  # 1 + sqrt(2)
    assert fundamental_unit(7) == (16, 6, 1)  # 8 + 3 sqrt(7)
    assert fundamental_unit(5) == (1, 1, -1)  # (1 + sqrt(5))/2
    assert fundamental_unit(94) == (4286590, 442128, 1)


def test_real_narrow_vs_ordinary_and_unit_norm():
    # the improper pairing (a,b,c) -> (-a,b,-c) merges classes in pairs
    # exactly when the fundamental unit has norm +1
    for m in range(2, 1001):
        s_ok = all(m % (k * k) for k in range(2, math.isqrt(m) + 1))
        if not s_ok:
            continue
        D = m if m % 4 == 1 else 4 * m
        group = narrow_class_group(D)
        mirrored = {
            x: canonical_rep(QuadForm(-x.a, x.b, -x.c)) for x in group.elements
        }
        fixed = sum(1 for x, y in mirrored.items() if x == y)
        _, _, norm = fundamental_unit(m)
        if norm == -1:
            assert fixed == group.order, m
        else:
            assert fixed == 0, m
            assert group.order % 2 == 0, m


def test_composition_group_laws():
    # the indexed product agrees with the cycle-walk canonicalisation
    rng = random.Random(7)
    for D in fundamental_discs(-400, 400):
        group = narrow_class_group(D)
        els = group.elements
        ident = group.identity
        table = {}
        for x in els:
            for y in els:
                z = group.mul(x, y)
                assert z in set(els), (D, x, y)
                assert z == canonical_rep(compose(x, y)), (D, x, y)
                table[(x, y)] = z
        for x in els:
            for y in els:
                assert table[(x, y)] == table[(y, x)]
            assert table[(x, ident)] == x
            assert table[(x, group.inv(x))] == ident
        for _ in range(min(50, len(els) ** 3)):
            x, y, z = (rng.choice(els) for _ in range(3))
            assert group.mul(table[(x, y)], z) == group.mul(x, table[(y, z)])


def test_kernel_product_matches_cycle_walk_to_2000():
    # the integer kernel path of group.mul against the QuadForm wrappers,
    # past the range of test_composition_group_laws
    for D in fundamental_discs(-2000, -401) + fundamental_discs(401, 2000):
        group = narrow_class_group(D)
        for x in group.elements:
            for y in group.elements:
                assert group.mul(x, y) == canonical_rep(compose(x, y)), (D, x, y)


def test_composition_closure_full_tables_to_1e4():
    # the heavy one: closure and commutativity on the complete composition
    # table of every fundamental |D| <= 1e4 (identity and inverses are
    # asserted at construction time)
    for D in fundamental_discs(-10_000, -3) + fundamental_discs(5, 10_000):
        g = narrow_class_group(D)
        els = g.elements
        elset = set(els)
        for i, x in enumerate(els):
            for y in els[i:]:
                z = g.mul(x, y)
                assert z in elset, (D, x, y)
                assert g.mul(y, x) == z, (D, x, y)


def assert_dirichlet_product(f1, f2):
    # the product is primitive of discriminant D, leads with a1 a2 / e^2 and
    # is united with both factors: B = b1 (mod 2 a1/e), B = b2 (mod 2 a2/e)
    D = f1.discriminant
    e = math.gcd(math.gcd(f1.a, f2.a), (f1.b + f2.b) // 2)
    F = compose(f1, f2)
    assert F.discriminant == D and math.gcd(*F) == 1, (f1, f2, F)
    assert F.a == f1.a * f2.a // (e * e), (f1, f2, F)
    assert (F.b - f1.b) % (2 * f1.a // e) == 0, (f1, f2, F)
    assert (F.b - f2.b) % (2 * f2.a // e) == 0, (f1, f2, F)
    return e


def test_compose_with_shared_leading_factor():
    seen = set()
    for D in fundamental_discs(-400, 400):
        els = narrow_class_group(D).elements
        for x in els:
            for y in els:
                if math.gcd(x.a, y.a) > 1:
                    e = assert_dirichlet_product(x, y)
                    seen.add((D > 0, e > 1))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}

    # squaring a form whose a is even: the ramified dyadic class of -84
    g = narrow_class_group(-84)
    f = QuadForm(2, 2, 11)
    assert assert_dirichlet_product(f, f) == 2
    assert g.mul(f, f) == g.identity
    # classes sharing the odd prime 3 in a: (3, +-1, 4) of -47 (h = 5)
    g = narrow_class_group(-47)
    f = QuadForm(3, 1, 4)
    assert assert_dirichlet_product(f, f) == 1
    f_inv = QuadForm(3, -1, 4)
    assert assert_dirichlet_product(f, f_inv) == 3
    assert g.mul(f, f_inv) == g.identity
    assert g.mul(f, f) not in (g.identity, f, g.inv(f))
    # indefinite leading coefficients of both signs sharing 3: D = 229
    f1, f2 = QuadForm(3, 13, -5), QuadForm(-3, 13, 5)
    assert f1.discriminant == f2.discriminant == 229
    assert assert_dirichlet_product(f1, f2) == 1
    assert assert_dirichlet_product(f1, QuadForm(-3, -13, 5)) == 3


# Forged torsion counts: 1 solution of x^(p^k) = 1 for every k.  At D = -84
# (C2 x C2) the eager 2-part then has order 1, not 4; at D = -23 (C3) the
# lazy odd part has order 1, not 3, and invariant_factors must raise.
FORGED_COUNTS_SCRIPT = """
from birat2 import TheoremViolation, narrow_class_group, quadforms

def forged(elements, step, kernel, e):
    return [1] * (e + 1)

narrow_class_group.cache_clear()
quadforms._torsion_counts = forged
try:
    narrow_class_group(-84)
except TheoremViolation as exc:
    assert "D=-84" in str(exc), exc
else:
    raise SystemExit("forged 2-counts at D=-84 were not caught")
quadforms._torsion_counts = real
group = narrow_class_group(-23)
quadforms._torsion_counts = forged
try:
    group.invariant_factors
except TheoremViolation as exc:
    assert "D=-23" in str(exc), exc
else:
    raise SystemExit("forged odd counts at D=-23 were not caught")
quadforms._torsion_counts = real
assert group.invariant_factors == (3,)
"""


def test_self_checks_raise_theorem_violation():
    # raised, not asserted, so they hold under python -O: the eager 2-part
    # order check, the lazy h check and the class-index miss
    real = quadforms._torsion_counts
    try:
        exec(FORGED_COUNTS_SCRIPT, {"real": real})
        group = narrow_class_group(-23)
        broken = dataclasses.replace(group, _index={})
        with pytest.raises(TheoremViolation, match=r"D=-23.*QuadForm"):
            broken.mul(group.identity, group.identity)
    finally:
        quadforms._torsion_counts = real
        narrow_class_group.cache_clear()
    script = "from birat2.quadforms import _torsion_counts as real\n" + FORGED_COUNTS_SCRIPT
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_verify_builds_no_odd_structure(capsys):
    # verify reads only 2-parts, so no group computes its invariant factors
    narrow_class_group.cache_clear()
    try:
        assert main(["verify", "--bound", "300"]) == 0
        assert narrow_class_group.cache_info().currsize > 0
        groups = [g for g in gc.get_objects() if isinstance(g, ClassGroup)]
        assert len(groups) >= narrow_class_group.cache_info().currsize
        assert not [g.D for g in groups if "invariant_factors" in vars(g)]
    finally:
        narrow_class_group.cache_clear()
    capsys.readouterr()


def test_square_kernel_matches_mul():
    for D in fundamental_discs(-2000, -3) + fundamental_discs(5, 2000):
        group = narrow_class_group(D)
        for x in group.elements:
            a, b, _ = x
            assert quadforms._square(a, b, D) == quadforms._compose(a, b, a, b, D), (D, x)
            assert group._squares[x] == group.mul(x, x), (D, x)


def test_non_definite_product_raises_theorem_violation():
    # a forged leading coefficient -1 at D = -23: the composed form is not
    # positive definite; raised, not asserted, so it holds under python -O
    group = narrow_class_group(-23)
    forged = QuadForm(-1, 1, -6)
    assert forged.discriminant == -23
    with pytest.raises(TheoremViolation, match="not positive definite"):
        group.mul(forged, group.identity)
    script = (
        "from birat2 import QuadForm, TheoremViolation, narrow_class_group\n"
        "group = narrow_class_group(-23)\n"
        "try:\n"
        "    group.mul(QuadForm(-1, 1, -6), group.identity)\n"
        "except TheoremViolation:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_invariant_factor_chain_and_order():
    for D in fundamental_discs(-2000, -3) + fundamental_discs(5, 600):
        g = narrow_class_group(D)
        prod = 1
        prev = 1
        for d in g.invariant_factors:
            assert d % prev == 0 or prev == 1
            assert d >= 2
            prev = d
            prod *= d
        assert prod == g.order


def test_restricted_quotient_examples():
    structure, unique = restricted_2class_quotient(28)
    assert structure.invariant_factors == (2,) and unique
    structure, unique = restricted_2class_quotient(5)
    assert structure.is_trivial and unique
    structure, unique = restricted_2class_quotient(8)
    assert structure.is_trivial and unique


def test_dyadic_classes_by_splitting():
    for D in fundamental_discs(-600, -3) + fundamental_discs(5, 300):
        g = narrow_class_group(D)
        s = kronecker(D, 2)
        if s == 1:
            assert len(g.dyadic_classes) == 2
            a, b = g.dyadic_classes
            assert g.mul(a, b) == g.identity  # the two dyadic classes are inverse
        elif s == 0:
            assert len(g.dyadic_classes) == 1
            c = g.dyadic_classes[0]
            assert g.mul(c, c) == g.identity  # ramified class squares to (2)
        else:
            assert g.dyadic_classes == ()


def test_verify_2rational_examples():
    assert verify_2rational_quadratic(5) is True
    assert verify_2rational_quadratic(7) is False
    assert verify_2rational_quadratic(-1) is True
    with pytest.raises(ValueError):
        verify_2rational_quadratic(1)


def test_verify_2birational_oracle_examples():
    assert verify_2birational_quadratic_oracle(15) == (True, True)
    assert verify_2birational_quadratic_oracle(7) == (True, True)
    two_dyadic, _ = verify_2birational_quadratic_oracle(5)
    assert two_dyadic is False


def test_genus_rank_examples(genus_2rank):
    assert genus_2rank(-15) == 1
    assert genus_2rank(-4) == 0
    assert genus_2rank(60) == 2


def test_two_sylow_field():
    g = narrow_class_group(-84)  # class group C2 x C2
    assert g.invariant_factors == (2, 2)
    assert g.two_sylow == (2, 2)
    assert len(g.two_sylow_elements()) == 4
    # invariant factors with odd parts: the 2-parts, and the matching order
    for D, factors, two in [(-2991, (48,), (16,)), (-2964, (2, 2, 6), (2, 2, 2)), (316, (6,), (2,))]:
        g = narrow_class_group(D)
        assert (g.invariant_factors, g.two_sylow) == (factors, two)
        assert len(g.two_sylow_elements()) == math.prod(two)


def test_cycle_reduction_roundtrip():
    # every form in a cycle is reduced and the cycle is closed
    for D in (40, 60, 316, 904):
        g = narrow_class_group(D)
        for x in g.elements:
            cyc = reduction_cycle(x)
            assert canonical_rep(x) == min(cyc, key=lambda f: (f.a, f.b, f.c))
            assert all(f.discriminant == D for f in cyc)


def test_compose_is_class_function():
    # composing different representatives of the same classes lands in the
    # same class
    D = -47
    g = narrow_class_group(D)
    a = g.elements[1]
    cyc_rep = QuadForm(a.a, a.b + 2 * a.a, a.a + a.b + a.c)  # shifted, equivalent
    assert cyc_rep.discriminant == D
    assert canonical_rep(compose(a, a)) == canonical_rep(compose(a, cyc_rep))
    assert canonical_rep(principal_form(D)) == g.identity
