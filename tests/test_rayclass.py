import dataclasses
import math
import random
import subprocess
import sys

import pytest

from birat2 import (
    AbelianGroupStructure,
    TheoremViolation,
    field_discriminant,
    find_propagation_field,
    kronecker,
    mirror_group_trivial,
    primes_up_to,
    ray_quotient_report,
    reflection_ranks,
    units_mod,
)
from birat2 import rayclass
from birat2.arith import factorize, v2
from birat2.rayclass import _reflection_ranks, _v2_order, smith_invariant_factors


def test_abelian_structure_validation():
    s = AbelianGroupStructure((2, 4))
    assert s.order == 8 and not s.is_cyclic
    assert AbelianGroupStructure(()).is_trivial
    assert AbelianGroupStructure((4,)).is_cyclic
    with pytest.raises(ValueError):
        AbelianGroupStructure((4, 2))
    with pytest.raises(ValueError):
        AbelianGroupStructure((1,))


def test_units_mod_examples():
    # generators of the 2-Sylow: -1, 5 and nu^((p-1)/2^v) for the least
    # non-residue nu
    u = units_mod(8 * 13)
    assert [(g % 8, g % 13, n) for g, n in u.generators] == [(7, 1, 2), (5, 1, 2), (1, 8, 4)]
    # 2 is a square mod 17, so nu = 3
    u = units_mod(8 * 17)
    assert [(g % 8, g % 17, n) for g, n in u.generators] == [(7, 1, 2), (5, 1, 2), (1, 3, 16)]
    u = units_mod(24)
    gens = u.generators
    assert [n for _, n in gens] == [2, 2, 2]
    # the lifts reduce to (-1, 5) mod 8 and a non-residue mod 3
    assert gens[0][0] % 8 == 7 and gens[0][0] % 3 == 1
    assert gens[1][0] % 8 == 5 and gens[1][0] % 3 == 1
    assert gens[2][0] % 8 == 1 and gens[2][0] % 3 == 2


def test_units_mod_rejects_bad_shapes():
    # only M = 2^k p with k >= 3 and p an odd prime: no odd part, k < 3, two
    # odd primes, a prime power, M < 8
    for M in (8, 9, 12, 15, 72, 8 * 15, 16 * 9, 2, 0, -24):
        with pytest.raises(ValueError, match="unsupported modulus shape"):
            units_mod(M)
    # odd parts past the primality-test bound: factorize, not is_prime, reads them
    with pytest.raises(ValueError, match="unsupported modulus shape"):
        units_mod(32 * 3 * 5**40)


def test_units_mod_dlog_roundtrip():
    # the generators' power is the 2-Sylow projection y of x: y has 2-power
    # order and x / y odd order; on the 2-Sylow itself, y = x
    for M in (24, 40, 48, 88, 96, 136, 8 * 97, 64 * 11):
        u = units_mod(M)
        units = [x for x in range(1, M) if math.gcd(x, M) == 1]
        odd = len(units) >> v2(len(units))
        two_power = 1 << M.bit_length()  # at least the order of the group
        for x in units:
            exps = u.dlog(x)
            value = 1
            for (g, n), e in zip(u.generators, exps):
                assert 0 <= e < n
                value = value * pow(g, e, M) % M
            assert pow(value, two_power, M) == 1, (M, x)
            assert pow(x * pow(value, -1, M), odd, M) == 1, (M, x)
            if pow(x, two_power, M) == 1:
                assert value == x, (M, x)


def test_dlog_failure_raises_theorem_violation():
    # raised, not asserted, so it holds under python -O as well
    broken = dataclasses.replace(units_mod(24), _odd_generator=1)
    with pytest.raises(TheoremViolation, match="dlog of 5 mod 24"):
        broken.dlog(5)
    script = (
        "import dataclasses\n"
        "from birat2 import TheoremViolation, units_mod\n"
        "try:\n"
        "    dataclasses.replace(units_mod(24), _odd_generator=1).dlog(5)\n"
        "except TheoremViolation:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def linear_dlog_tables(u):
    """Reference dlog by linear search: walk +-5^b mod 2^k and g^e mod p,
    keep the first hit.

    Returns (two, odd, t): residue mod 2^k -> exponents of (-1, 5), residue
    mod p -> exponent of g, and the exponent t that projects a unit mod p
    onto the 2-Sylow (t = 1 mod 2^v and t = 0 mod the odd part of p - 1).
    """
    k, p, g = u._two_exp, u._odd_prime, u._odd_generator
    M2, two, power = 1 << k, {}, 1
    for b in range(1 << (k - 2)):
        two.setdefault(power, (0, b))
        two.setdefault(M2 - power, (1, b))
        power = power * 5 % M2
    n = (p - 1) & (1 - p)
    assert pow(g, n, p) == 1 and pow(g, n // 2, p) != 1  # order 2^v
    t = next(t for t in range(0, p - 1, (p - 1) // n) if t % n == 1)
    odd, power = {}, 1
    for e in range(n):
        odd.setdefault(power, (e,))
        power = power * g % p
    return two, odd, t


def supported_moduli(bound):
    """Every M = 2^k p in 3..bound with k >= 3 and p an odd prime, the
    shapes units_mod accepts."""
    for M in range(8, bound + 1, 8):
        odd = M >> v2(M)
        if factorize(odd) == [(odd, 1)]:
            yield M


def test_dlog_matches_linear_search_exhaustive():
    moduli = list(supported_moduli(5000))
    # k = 3, 4 and >= 5 against small and large p; no prime powers
    assert {24, 40, 48, 80, 96, 160, 8 * 619, 1024 * 3} <= set(moduli)
    assert not {8, 72, 120, 8 * 25} & set(moduli)
    for M in moduli:
        u = units_mod(M)
        two, odd, t = linear_dlog_tables(u)
        M2, p = 1 << u._two_exp, u._odd_prime
        for x in range(1, M):
            if math.gcd(x, M) == 1:
                assert u.dlog(x) == two[x % M2] + odd[pow(x, t, p)], (M, x)


@pytest.mark.parametrize("p", [1000000123, 119993, 100003, 998244353])
def test_dlog_matches_sympy_discrete_log(p):
    # the last exponent of an odd lift of x mod 8p is that of the 2-Sylow
    # projection x^t mod p, t = 1 mod 2^v, t = 0 mod odd
    ntheory = pytest.importorskip("sympy.ntheory")
    u = units_mod(8 * p)
    g, n = u.generators[2]
    g %= p
    assert n == 1 << v2(p - 1) and ntheory.n_order(g, p) == n
    odd = (p - 1) // n
    t = odd * pow(odd, -1, n)
    for x in (2, 3, 5, p - 1, p - 2, 12345, 7 * p // 11, (p + 1) // 2):
        e = u.dlog(x if x % 2 else x + p)[2]
        y = pow(x, t, p)
        assert e == ntheory.discrete_log(p, y, g), (p, x)
        assert pow(g, e, p) == y


def test_smith_invariant_factors_known_cases():
    # diagonal relations
    assert smith_invariant_factors([[2, 0], [0, 8]], 2) == (2, 8)
    # Z/2 x Z/3 = Z/6: D_1 = 1, D_2 = 6
    assert smith_invariant_factors([[2, 0], [0, 3]], 2) == (6,)
    # quotient of Z^3 by <e1 + e3, e2 + e3, 2e1, 8e2, 2e3> is Z/2
    rows = [[1, 0, 1], [0, 1, 1], [2, 0, 0], [0, 8, 0], [0, 0, 2]]
    assert smith_invariant_factors(rows, 3) == (2,)
    # infinite quotient rejected
    with pytest.raises(ValueError):
        smith_invariant_factors([[2, 0]], 2)
    with pytest.raises(ValueError, match="quotient is infinite"):
        smith_invariant_factors([[2, 4], [1, 2], [3, 6]], 2)


def test_smith_invariant_factors_match_sympy():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20111)
    deficient = 0
    for _ in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 3)
        # small ranges make rank-deficient matrices common
        span = rng.choice((1, 2, 12))
        rows = [[rng.randint(-span, span) for _ in range(ncols)] for _ in range(nrows)]
        snf = normalforms.invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        expected = [abs(d) for d in snf]
        if len(expected) < ncols or 0 in expected:
            deficient += 1
            with pytest.raises(ValueError, match="quotient is infinite"):
                smith_invariant_factors(rows, ncols)
        else:
            factors = tuple(d for d in expected if d > 1)
            assert smith_invariant_factors(rows, ncols) == factors, rows
    assert 0 < deficient < 300


def brute_two_part_of_quotient(p, q, k):
    """Independent oracle: enumerate (Z/2^k p)*, close <-1, q>, and read the
    2-part of the quotient off coset torsion counts."""
    M = (1 << k) * p
    units = [x for x in range(1, M) if math.gcd(x, M) == 1]
    H = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in (M - 1, q % M):
            y = x * g % M
            if y not in H:
                H.add(y)
                frontier.append(y)
    seen, reps = set(), []
    for x in units:
        if x in seen:
            continue
        coset = {x * h % M for h in H}
        seen |= coset
        reps.append(min(coset))
    n = len(reps)
    size = 1
    while n % 2 == 0:
        n //= 2
        size *= 2
    # count solutions of x^2 in H among the 2-Sylow cosets
    sylow = [r for r in reps if pow(r, size, M) in H]
    sq = sum(1 for r in sylow if pow(r, 2, M) in H)
    return size, sq


def test_ray_quotient_matches_brute_force():
    for p, q in [(3, 5), (5, 3), (11, 3), (13, 5), (19, 29)]:
        report = ray_quotient_report(p, q, k_max=6)
        for k, structure in report.per_level:
            size, sq = brute_two_part_of_quotient(p, q, k)
            assert structure.order == size, (p, q, k)
            if size > 1:
                assert structure.is_cyclic == (sq == 2), (p, q, k)
            else:
                assert structure.is_trivial


def level_by_level_per_level(p, q, k_max):
    """per_level built from a fresh units_mod(2^k p) and fresh dlogs at each
    level k, on the full presentation with the relation of -1 that
    ray_quotient_report eliminates."""
    per_level = []
    for k in range(3, k_max + 1):
        M = (1 << k) * p
        units = units_mod(M)
        orders = [n for _, n in units.generators]
        rows = [[n if j == i else 0 for j in range(len(orders))] for i, n in enumerate(orders)]
        rows.append(list(units.dlog(M - 1)))
        rows.append(list(units.dlog(q % M)))
        per_level.append((k, AbelianGroupStructure(smith_invariant_factors(rows, len(orders)))))
    return tuple(per_level)


def test_ray_quotient_matches_level_by_level_build():
    primitive = [p for p in primes_up_to(200) if p % 8 in (3, 5)]
    for p in primitive:
        for q in primitive:
            if p == q:
                continue
            for k_max in (8, 12):
                report = ray_quotient_report(p, q, k_max)
                assert report.per_level == level_by_level_per_level(p, q, k_max), (p, q, k_max)


def test_top_level_dlog_reduces_to_every_level():
    # the generators -1, 5, g of the 2-Sylow of (Z/2^14 p)* reduce to those
    # of (Z/2^k p)*
    primitive = [r for r in primes_up_to(200) if r % 8 in (3, 5)]
    for p in (3, 5, 11, 13, 101, 197):
        top = units_mod((1 << 14) * p)
        xs = [-1, *primitive, *range(1, top.modulus, top.modulus // 499)]
        top_exps = {x: top.dlog(x) for x in xs if math.gcd(x, top.modulus) == 1}
        for k in range(3, 15):
            level = units_mod((1 << k) * p)
            orders = (2, 1 << (k - 2), 1 << v2(p - 1))
            for x, exps in top_exps.items():
                reduced = tuple(e % n for e, n in zip(exps, orders))
                assert reduced == level.dlog(x), (p, k, x)


def test_ray_quotient_report_calls_traced_smith_once_per_level(monkeypatch):
    # through the module global, which the per-layer tracer rebinds
    calls = []
    smith = rayclass.smith_invariant_factors
    monkeypatch.setattr(
        rayclass, "smith_invariant_factors", lambda *args: calls.append(args) or smith(*args)
    )
    for k_max in (5, 8, 13):
        calls.clear()
        ray_quotient_report(5, 3, k_max)
        assert len(calls) == k_max - 2, k_max


def test_ray_quotient_report_checks_dlog_of_minus_one(monkeypatch):
    dlog = rayclass.UnitGroupMod.dlog

    def forged(self, x):
        exps = dlog(self, x)
        return (exps[0], 1, exps[2]) if x == -1 else exps

    monkeypatch.setattr(rayclass.UnitGroupMod, "dlog", forged)
    message = r"dlog\(-1\) mod 1280 is \(1, 1, 2\), not \(1, 0, 2\)"
    with pytest.raises(TheoremViolation, match=message):
        ray_quotient_report(5, 3, 8)


def test_ray_quotient_examples():
    r = ray_quotient_report(3, 5, 8)
    assert r.stabilized_order == 2
    assert all(s.is_cyclic for _, s in r.per_level)
    r = ray_quotient_report(5, 3, 8)
    assert r.stabilized_order == 4
    r = ray_quotient_report(11, 3, 8)
    assert r.stabilized_order == 2


def test_ray_quotient_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ray_quotient_report(7, 3)  # 7 is semi-primitive
    with pytest.raises(ValueError):
        ray_quotient_report(3, 17)  # 17 is imprimitive
    with pytest.raises(ValueError):
        ray_quotient_report(3, 3)
    with pytest.raises(ValueError):
        ray_quotient_report(3, 5, k_max=4)


def test_find_propagation_field_examples():
    assert find_propagation_field(3, 5).value == 6
    assert find_propagation_field(5, 3).value == 10
    assert find_propagation_field(3, 11).value == 3


def test_find_propagation_field_uniqueness():
    primitive = [p for p in primes_up_to(100) if p % 8 in (3, 5)]
    for p in primitive:
        for q in primitive:
            if p == q:
                continue
            m = find_propagation_field(p, q).value
            assert m in (p, 2 * p)
            other = 2 * p if m == p else p
            assert kronecker(field_discriminant(m), q) == 1
            assert kronecker(field_discriminant(other), q) == -1
            assert kronecker(field_discriminant(m), 2) != 1


def quadratic_characters_mod(M):
    """All quadratic characters of (Z/M)* as dicts unit -> +-1."""
    u = units_mod(M)
    gens = u.generators
    options = []
    for _, order in gens:
        options.append([1] if order % 2 else [1, -1])
    chars = []

    def build(i, signs):
        if i == len(gens):
            chars.append(tuple(signs))
            return
        for s in options[i]:
            build(i + 1, signs + [s])

    build(0, [])
    out = []
    for signs in chars:
        table = {}
        for x in range(1, M):
            if math.gcd(x, M) != 1:
                continue
            val = 1
            for s, e in zip(signs, u.dlog(x)):
                if e % 2:
                    val *= s
            table[x] = val
        out.append(table)
    return out


def test_find_propagation_field_matches_character_enumeration():
    # the found field must be cut out by the unique even quadratic character
    # of conductor dividing 8p that is ramified at p and trivial at q
    for p, q in [(3, 5), (5, 3), (3, 11), (11, 3), (13, 3), (19, 5)]:
        M = 8 * p
        matching = []
        for chi in quadratic_characters_mod(M):
            if chi[M - 1] != 1:  # odd character
                continue
            # ramified at p: nontrivial on some unit = 1 mod 8
            ramified = any(
                chi[x] == -1 for x in range(1, M) if math.gcd(x, M) == 1 and x % 8 == 1
            )
            if not ramified:
                continue
            if chi[q % M] != 1:
                continue
            matching.append(chi)
        assert len(matching) == 1, (p, q)
        chi = matching[0]
        D = field_discriminant(find_propagation_field(p, q).value)
        for x in range(1, M):
            if math.gcd(x, M) == 1:
                assert chi[x] == kronecker(D, x), (p, q, x)


def test_mirror_examples():
    assert mirror_group_trivial(5, 3) is True
    assert mirror_group_trivial(3, 5) is True
    assert mirror_group_trivial(13, 3) is True
    with pytest.raises(ValueError):
        mirror_group_trivial(7, 3)
    with pytest.raises(ValueError):
        mirror_group_trivial(5, 5)


def brute_order(x, q):
    order, y = 1, x % q
    while y != 1:
        y = y * x % q
        order += 1
    return order


def test_v2_order_by_squaring_matches_brute_force():
    # the mirror readings: v2 of the orders of 2 and p mod q
    primitive = [r for r in primes_up_to(2000) if r % 8 in (3, 5)]
    for q in primitive:
        for x in [2, q - 1] + [p for p in primitive if p < 60 and p != q]:
            assert _v2_order(x, q) == v2(brute_order(x, q)), (x, q)
        assert mirror_group_trivial(q, 3 if q != 3 else 5) == (
            v2(brute_order(2, q)) == v2(q - 1)
        ), q


def test_reflection_examples():
    assert reflection_ranks(3, 5) == (1, 0)
    assert reflection_ranks(5, 3) == (1, 0)
    assert reflection_ranks(11, 13) == (1, 0)


def test_reflection_ranks_from_report_rechecks_the_law():
    report = ray_quotient_report(5, 3, k_max=10)
    assert _reflection_ranks(report) == reflection_ranks(5, 3) == (1, 0)

    def forged(entries):
        per_level = tuple((k, AbelianGroupStructure(entries.get(k, s.invariant_factors)))
                          for k, s in report.per_level)
        return dataclasses.replace(report, per_level=per_level)

    # every level k >= 4 is checked, the top level included
    for entries in ({4: (2,)}, {7: (2,)}, {7: (2, 2), 8: (2, 2)}, {10: (8,)}):
        message = rf"at level k={min(entries)} is .* expected cyclic of order 4"
        with pytest.raises(TheoremViolation, match=message):
            _reflection_ranks(forged(entries))
    # level 3 is exempt
    assert _reflection_ranks(forged({3: (2, 2)})) == (1, 0)


def test_stabilization_across_levels():
    primitive = [p for p in primes_up_to(200) if p % 8 in (3, 5)]
    for p in primitive:
        for q in primitive:
            if p == q:
                continue
            structures = set()
            for k_max in (8, 10, 12):
                r = ray_quotient_report(p, q, k_max=k_max)
                structures.add(r.per_level[-1][1].invariant_factors)
            assert len(structures) == 1, (p, q)
