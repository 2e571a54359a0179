"""The four seeded benchmark workloads.

Each workload turns a seed into an endless, deterministic stream of item
inputs, runs one item through the same public birat2 calls that the
matching CLI loop body makes, and checks the result with the benchmark's
own arithmetic (``numtheory``), never with birat2's.

A stream is a sequence of epochs, each an iterator of items.  The runner
empties birat2's caches at the start of every epoch, as a fresh CLI
process would have them.  Within an epoch no input repeats: a band drawn
from a finite pool ends the epoch when the pool runs out, so a faster
program that gets further into the stream meets its inputs again only
with cold caches.

Input streams are stratified twice, so that every run holds nearly the
same mix of cheap and expensive items whatever the seed: a fixed template
of magnitude bands is shuffled per cycle, and within a band each batch of
eight inputs takes one from each eighth of the band as ranked by a cost
proxy (``_Band``).  Unstratified, run-to-run throughput and p99 would
depend on how many heavy items a seed happened to draw.

birat2 is reached through module attributes at call time, so the tracer's
patched functions are the ones that run in a traced pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import birat2
from birat2 import FieldSignature, quadforms

from . import numtheory as nt


class PoolExhausted(Exception):
    """A pooled band has drawn every input of its pool in this epoch."""


def _stream(seed: int, name: str, template: dict, bands: dict) -> Iterator[Iterator]:
    """Endless epochs of inputs: each cycle of an epoch is the band
    template in a seeded order; an epoch ends when a pool runs out."""
    rng = random.Random(f"{name}:{seed}")
    order = [band for band, count in template.items() for _ in range(count)]

    def epoch() -> Iterator:
        for band in bands.values():
            band.restart(rng)
        try:
            while True:
                rng.shuffle(order)
                for band in order:
                    yield bands[band].draw(rng)
        except PoolExhausted:
            return

    while True:
        yield epoch()


# Bit-reversed stratum order: every prefix of a batch spreads over the strata.
STRATA_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)
CANDIDATES_PER_STRATUM = 4


class _Band:
    """Seeded draws from one magnitude band, in batches of eight: one input
    from each eighth of the band as ranked by a cost proxy.

    Item cost within a band follows the class number, which varies tenfold
    between neighbouring inputs.  Stratifying on a proxy keeps the cost mix
    of every run nearly the same whatever the seed, without narrowing it.
    A band is either a finite ``pool``, drawn without replacement until it
    runs out (``PoolExhausted``; ``restart`` reshuffles it for the next
    epoch), or a ``candidate(rng)`` function returning fresh inputs.
    """

    def __init__(self, proxy, pool=None, candidate=None):
        self.proxy = proxy
        self.candidate = candidate
        self.pending: list = []
        if pool is not None:
            pool = sorted(pool, key=proxy)
            n = len(pool)
            self.strata = [pool[i * n // 8 : (i + 1) * n // 8] for i in range(8)]
            self.pos = 0

    @property
    def capacity(self) -> int:
        """Inputs a pooled band yields in one epoch."""
        return 8 * min(map(len, self.strata))

    def restart(self, rng) -> None:
        self.pending = []
        if self.candidate is None:
            for stratum in self.strata:
                rng.shuffle(stratum)  # in place: the pool is allocated once
            self.pos = 0

    def _batch(self, rng) -> list:
        if self.candidate is None:
            if 8 * self.pos == self.capacity:
                raise PoolExhausted
            self.pos += 1
            return [self.strata[i][self.pos - 1] for i in STRATA_ORDER]
        k = CANDIDATES_PER_STRATUM
        ranked = sorted((self.candidate(rng) for _ in range(8 * k)), key=self.proxy)
        return [rng.choice(ranked[i * k : (i + 1) * k]) for i in STRATA_ORDER]

    def draw(self, rng):
        if not self.pending:
            self.pending = self._batch(rng)[::-1]
        return self.pending.pop()


# --- oracle-sweep: the `verify` loop body -----------------------------------

ORACLE_BANDS = {(1, 3000): 5, (3000, 12000): 2, (12000, 25000): 1}


def _oracle_proxy(d: int) -> float:
    return sum(nt.class_number_proxy(nt.field_disc(m)) for m in (d, -d) if m != 1)


def oracle_inputs(seed: int) -> Iterator[Iterator[int]]:
    # 4 * 25000 = 1e5 keeps the real discriminant of Q(sqrt(d)) within
    # the positive enumeration bound of quadforms.  The [1, 3000) pool
    # (1824 d) ends an epoch after ~2900 items.
    bands = {
        band: _Band(_oracle_proxy, pool=nt.squarefree_range(*band)) for band in ORACLE_BANDS
    }
    return _stream(seed, "oracle-sweep", ORACLE_BANDS, bands)


def oracle_run(d: int):
    verdict = birat2.is_2birational_quadratic(d)
    oracle = birat2.verify_2birational_quadratic_oracle(d) if verdict.positive else None
    rational = []
    for m in (d, -d):
        if m == 1:
            continue
        expected = birat2.is_2rational_multiquadratic(birat2.make_field([m])).positive
        rational.append((m, expected, birat2.verify_2rational_quadratic(m)))
    return verdict, oracle, rational


def oracle_check(d: int, out) -> tuple[bool, list]:
    verdict, oracle, rational = out
    primes = nt.prime_factors(d)
    # The verify rules: a positive classifier verdict needs oracle (True, True);
    # the rational classifier must equal the rational oracle for m = +-d.
    # The form oracle omits the unit condition (it accepts q = 15 (mod 16)),
    # so the classifiers are also held to the paper's closed forms.
    ok = (
        (not verdict.positive or oracle == (True, True))
        and verdict.positive == nt.birational_quadratic(d, primes)
        and all(
            expected == got == nt.rational_field([frozenset(primes)])
            for _, expected, got in rational
        )
    )
    canon = [d, verdict.positive, verdict.case, oracle, rational]
    return ok, canon


# --- classgroup-table: one `classgroups` row --------------------------------

# Discriminant bands (sign, lo, hi) -> items per 1000-item cycle.  The
# large imaginary bands cost 0.1-0.9 s an item and are kept rare so that
# their class-number spread does not dominate run-to-run variation; at
# 0.4% of items they also keep p99 inside the dense tail of the 1e4-1e5
# bands instead of on the edge of a sparse band.  The smallest bands are
# kept small too: they hold only ~300 discriminants each.  The 1e3-1e4
# pools (2736 discriminants each) end an epoch after ~7300 items.
CLASSGROUP_BANDS = {
    (-1, 3, 1_000): 25,
    (-1, 1_000, 10_000): 375,
    (-1, 10_000, 100_000): 125,
    (-1, 100_000, 1_000_000): 3,
    (-1, 1_000_000, 4_000_001): 1,
    (1, 5, 1_000): 25,
    (1, 1_000, 10_000): 375,
    (1, 10_000, 100_001): 71,
}
POOLED_BELOW = 100_001  # bands up to here draw from a precomputed pool


def classgroup_inputs(seed: int) -> Iterator[Iterator[int]]:
    used: set[int] = set()

    def candidate(band):
        sign, lo, hi = band

        def draw(rng) -> int:
            while True:
                D = sign * rng.randrange(lo, hi)
                if D not in used and nt.is_fundamental(D):
                    used.add(D)
                    return D

        return draw

    bands = {
        band: _Band(nt.class_number_proxy, pool=nt.fundamental_range(*band))
        if band[2] <= POOLED_BELOW
        else _Band(nt.class_number_proxy, candidate=candidate(band))
        for band in CLASSGROUP_BANDS
    }
    return _stream(seed, "classgroup-table", CLASSGROUP_BANDS, bands)


def classgroup_run(D: int):
    if not birat2.is_fundamental_discriminant(D):
        return None
    group = birat2.narrow_class_group(D)
    factors = group.invariant_factors
    two_rank = sum(1 for d in factors if d % 2 == 0)
    orders = [group.element_order(c) for c in group.dyadic_classes]
    return group.order, factors, two_rank, orders


def classgroup_check(D: int, out) -> tuple[bool, list]:
    if out is None:
        return False, [D, None]
    h, factors, two_rank, orders = out
    genus_rank = len(nt.prime_factors(D)) - 1
    ok = (
        h == math.prod(factors)
        and all(b % a == 0 for a, b in zip(factors, factors[1:]))
        and two_rank == genus_rank
        and all(h % o == 0 for o in orders)
    )
    return ok, [D, h, list(factors), two_rank, orders]


# --- ray-tower: `rayclass` plus `tower --realize` ---------------------------

# Kind -> items per 100-item cycle.  "large-p" has the odd dlog (linear in
# p) dominate; "high-k" has the 2-power dlog (linear in 2^k) dominate.
RAY_BANDS = {"small": 88, "large-p": 6, "high-k": 6}


def _ray_proxy(item) -> int:
    # per level k the odd dlog walks up to p steps, the 2-power one 2^(k-2)
    p, q, k_max, word = item
    return (k_max - 2) * p + (1 << (k_max - 1))


def ray_inputs(seed: int) -> Iterator[Iterator[tuple[int, int, int, str]]]:
    used: set[tuple[int, int]] = set()

    def candidate(kind):
        def draw(rng):
            while True:
                r3, r5 = rng.choice(((3, 5), (5, 3)))
                if kind == "large-p":
                    p = nt.random_prime(rng, 20_000, 120_000, 8, (r3,))
                    q = nt.random_prime(rng, 3, 200, 8, (r5,))
                    k_max = rng.randint(8, 10)
                else:
                    # q costs little (no dlog is taken mod q), so its wide
                    # range keeps the pairs distinct at any throughput
                    p = nt.random_prime(rng, 3, 2_000, 8, (r3,))
                    q = nt.random_prime(rng, 3, 100_000, 8, (r5,))
                    k_max = rng.randint(14, 17) if kind == "high-k" else rng.randint(8, 12)
                if (p, q) not in used:
                    used.add((p, q))
                    word = "".join(rng.choice("PQ") for _ in range(rng.randint(1, 6)))
                    return p, q, k_max, word

        return draw

    bands = {kind: _Band(_ray_proxy, candidate=candidate(kind)) for kind in RAY_BANDS}
    return _stream(seed, "ray-tower", RAY_BANDS, bands)


def ray_run(item):
    p, q, k_max, word = item
    report = birat2.ray_quotient_report(p, q, k_max)
    ranks = birat2.reflection_ranks(p, q)
    plan = birat2.plan_and_realize(p, q, word)
    return report, ranks, plan


def ray_check(item, out) -> tuple[bool, list]:
    p, q, k_max, word = item
    report, ranks, plan = out
    kprime = report.quadratic_character
    step = plan.realized_step1
    ok = (
        report.stabilized_order == 1 << nt.v2(p - 1)
        and kprime in (p, 2 * p)
        and nt.legendre(nt.field_disc(kprime), q) == 1
        and tuple(ranks) == (1, 0)
        and step is not None
        and step.verdict.positive
    )
    return ok, [list(item), report.to_json(), list(ranks), plan.to_json()]


# --- classify-fields: `classify` over blocks of fields ----------------------

def _quadratic(rng) -> tuple[int, frozenset]:
    # Labels from +-2 up to ~1e12: up to two odd primes below 1e4
    # and one below 1e8, so trial division stays bounded by the second
    # largest prime.
    k = rng.choices((0, 1, 2, 3), (1, 8, 6, 3))[0]
    primes = {2} if k == 0 or rng.random() < 0.25 else set()
    while len(primes - {2}) < k:
        hi = 1e8 if len(primes - {2}) == k - 1 else 1e4
        primes.add(nt.random_prime(rng, 3, hi))
    return nt.gen(rng.choice((1, -1)) * nt.label(frozenset(primes)), primes)


def _small_gen(rng, sign) -> tuple[int, frozenset]:
    primes = {nt.random_prime(rng, 2, 1_000) for _ in range(rng.randint(1, 2))}
    return nt.gen(sign * nt.label(frozenset(primes)), primes)


def _primitive_pair(rng, hi) -> tuple[int, int]:
    """Primes p = 3, q = 5 (mod 8), distinct."""
    return nt.random_prime(rng, 3, hi, 8, (3,)), nt.random_prime(rng, 5, hi, 8, (5,))


def _field(rng, kind) -> list[tuple[int, frozenset]]:
    if kind == "quadratic":
        return [_quadratic(rng)]
    if kind == "bir-a1":  # -q, q = 7 (mod 16): positive
        q = nt.random_prime(rng, 7, 1e8, 16, (7,))
        return [nt.gen(-q, (q,))]
    if kind == "gap":  # -q, q = 15 (mod 16): negative, accepted by the form oracle
        q = nt.random_prime(rng, 7, 1e8, 16, (15,))
        return [nt.gen(-q, (q,))]
    if kind == "bir-a2":  # -pq, p = 3, q = 5 (mod 8): positive
        p, q = _primitive_pair(rng, 1e4)
        return [nt.gen(-p * q, (p, q))]
    if kind == "real-primitive":  # p or 2p, p = +-3 (mod 8): positive
        p = nt.random_prime(rng, 3, 1e8, 8, (3, 5))
        return [nt.gen(p, (p,))] if rng.random() < 0.5 else [nt.gen(2 * p, (2, p))]
    if kind == "real-multi":
        if rng.random() < 0.5:
            p = nt.random_prime(rng, 3, 1e4, 8, (3, 5))
            return rng.sample([nt.gen(2, (2,)), nt.gen(p, (p,)), nt.gen(2 * p, (2, p))], 2)
        return [_small_gen(rng, 1) for _ in range(rng.randint(2, 3))]
    if kind == "imag-multi":
        gens = [_small_gen(rng, -1)]
        gens += [_small_gen(rng, rng.choice((1, -1))) for _ in range(rng.randint(1, 2))]
        return gens
    if kind == "tower":  # (-pq, k') for either tower choice: positive
        p, q = _primitive_pair(rng, 1e4)
        if rng.random() < 0.5:
            p, q = q, p
        kprime = next(m for m in (p, 2 * p) if nt.legendre(nt.field_disc(m), q) == 1)
        return [nt.gen(-p * q, (p, q)), nt.gen(kprime, {p} | ({2} if kprime != p else set()))]
    raise ValueError(kind)


# Kind -> fields per item.  One field takes ~50 us, too short to time
# steadily, so an item is a block of 32 fields.
FIELD_KINDS = {
    "quadratic": 14,
    "bir-a1": 4,
    "gap": 2,
    "bir-a2": 4,
    "real-primitive": 2,
    "real-multi": 2,
    "imag-multi": 2,
    "tower": 2,
}


def classify_inputs(seed: int) -> Iterator[Iterator[list]]:
    rng = random.Random(f"classify-fields:{seed}")
    kinds = [kind for kind, count in FIELD_KINDS.items() for _ in range(count)]

    def blocks() -> Iterator[list]:
        while True:
            block = [_field(rng, kind) for kind in kinds]
            rng.shuffle(block)
            yield block

    return iter([blocks()])  # fresh fields every block: one endless epoch


def classify_run(block):
    out = []
    for gens in block:
        field = birat2.make_field([v for v, _ in gens])
        if field.signature is FieldSignature.IMAGINARY:
            verdict = birat2.is_2birational_multiquadratic(field)
        else:
            verdict = birat2.is_2rational_multiquadratic(field)
        out.append((field.labels, verdict))
    return out


def classify_check(block, out) -> tuple[bool, list]:
    ok = True
    canon = []
    for gens, (labels, verdict) in zip(block, out):
        atoms = [a for _, a in gens]
        if any(-1 in s for s in nt.span(atoms)):
            if len(gens) == 1 and gens[0][0] < 0:
                primes = gens[0][1] - {-1}
                expected = nt.birational_quadratic(-gens[0][0], primes)
            else:
                expected = nt.birational_field(atoms)
        else:
            expected = nt.rational_field(atoms)
        ok &= verdict.positive == expected
        canon.append([[v for v, _ in gens], list(labels), verdict.positive, verdict.case])
    return ok and len(out) == len(block), canon


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Iterator]
    run: Callable
    check: Callable
    dominant: tuple[str, ...]  # module(s) predicted to hold most self time
    quadforms_idle: bool  # predicted to make no quadforms calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-sweep", oracle_inputs, oracle_run, oracle_check, ("quadforms",), False),
        Workload(
            "classgroup-table", classgroup_inputs, classgroup_run, classgroup_check,
            ("quadforms",), False,
        ),
        Workload("ray-tower", ray_inputs, ray_run, ray_check, ("rayclass",), True),
        Workload(
            "classify-fields", classify_inputs, classify_run, classify_check,
            ("arith", "classify"), True,
        ),
    )
}


_CLASS_GROUP = quadforms.narrow_class_group  # the cached function, even once traced


def clear_caches() -> None:
    """Empty birat2's caches, as at the start of a fresh process."""
    _CLASS_GROUP.cache_clear()
