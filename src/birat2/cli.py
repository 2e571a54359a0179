"""Command-line frontend with stable machine-readable output.

Commands: classify, enumerate, verify, kprime, rayclass, tower, classgroups.
JSON payloads carry a ``schema: 1`` field; CSV output starts with a
``# schema=1`` line.  Exit codes: 0 for positive/success, 1 for a negative
verdict or failed checks, 2 for errors.  Output is byte-stable across runs.

``verify`` runs each cross-check suite through one runner: a case whose check
returns False or raises ``TheoremViolation`` fails once, an
``EffortBoundExceeded`` counts as an effort error; either gives exit 1 with
the payload written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Callable, Iterable

from .arith import primes_up_to
from .classify import (
    is_2birational_quadratic,
    is_2rational_multiquadratic,
    is_2birational_multiquadratic,
)
from .errors import EffortBoundExceeded, TheoremViolation
from .fields import FieldSignature, make_field
from .quadforms import (
    MAX_POSITIVE_DISC,
    is_fundamental_discriminant,
    narrow_class_group,
    verify_2birational_quadratic_oracle,
    verify_2rational_quadratic,
)
from .rayclass import DEFAULT_K_MAX, _reflection_ranks, find_propagation_field, ray_quotient_report
from .tower import plan_and_realize

SCHEMA = 1

ENUMERATE_MAX_BOUND = 10_000_000
# suite 2 builds Q(sqrt(m)) for |m| <= bound, whose discriminant reaches 4 * bound
VERIFY_MAX_BOUND = MAX_POSITIVE_DISC // 4
RAYCLASS_MAX_LEVELS = 24  # caps the levels in the report, one 3x2 invariant-factor step each
RAYCLASS_PAIR_BOUND = 200


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_payload(payload: dict) -> str:
    return json.dumps({"schema": SCHEMA, **payload}, indent=2) + "\n"


def _squarefree_mask(bound: int) -> bytearray:
    mask = bytearray([1]) * (bound + 1)
    for k in range(2, math.isqrt(bound) + 1):
        mask[k * k :: k * k] = bytearray(len(range(k * k, bound + 1, k * k)))
    return mask


def _parse_field_spec(spec: str) -> list[int]:
    try:
        gens = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse field spec {spec!r}: {exc}") from None
    if not gens:
        raise ValueError(f"empty field spec {spec!r}")
    return gens


def cmd_classify(spec: str, output: str | None) -> int:
    field = make_field(_parse_field_spec(spec))
    if field.signature is FieldSignature.IMAGINARY:
        verdict = is_2birational_multiquadratic(field)
        kind = "2-birational"
    else:
        verdict = is_2rational_multiquadratic(field)
        kind = "2-rational"
    payload = {"command": "classify", "kind": kind, "field": list(field.labels)}
    payload.update(verdict.to_json())
    _emit(_json_payload(payload), output)
    return 0 if verdict.positive else 1


def _enumerate_rows(kind: str, bound: int) -> list[dict]:
    mask = _squarefree_mask(bound)
    squarefree = [m for m in range(1, bound + 1) if mask[m]]
    if kind == "quad-birational":
        labels, classify = squarefree, is_2birational_quadratic
    elif kind == "multiquad-rational":
        # positive labels ascending (1 is squarefree[0]), then negative ones by size
        labels = squarefree[1:] + [-m for m in squarefree]
        classify = lambda m: is_2rational_multiquadratic(make_field([m]))
    else:
        raise ValueError(f"unknown enumeration kind {kind!r}")
    rows = []
    for label in labels:
        verdict = classify(label)
        if verdict.positive:
            summary = "; ".join(e.condition for e in verdict.evidence if e.ok)
            rows.append({"label": label, "case": verdict.case, "evidence": summary})
    return rows


def _rows_to_csv(rows: Iterable[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    buf.write(f"# schema={SCHEMA}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buf.getvalue()


def cmd_enumerate(kind: str, bound: int, fmt: str, output: str | None) -> int:
    if bound < 1 or bound > ENUMERATE_MAX_BOUND:
        raise ValueError(f"bound must be in 1..{ENUMERATE_MAX_BOUND}")
    rows = _enumerate_rows(kind, bound)
    if fmt == "csv":
        _emit(_rows_to_csv(rows, ["label", "case", "evidence"]), output)
    else:
        payload = {"command": "enumerate", "kind": kind, "bound": bound, "rows": rows}
        _emit(_json_payload(payload), output)
    return 0


def _suite(name: str, cases: Iterable, check: Callable[[object], bool]) -> dict:
    """Counts of one cross-check suite under the policy in the module
    docstring; any other exception propagates."""
    checked = failed = effort = 0
    for case in cases:
        checked += 1
        try:
            ok = check(case)
        except TheoremViolation:
            ok = False
        except EffortBoundExceeded:
            effort += 1
            continue
        failed += not ok
    return {"name": name, "checked": checked, "failed": failed, "effort_errors": effort}


def _ray_laws_hold(pair: tuple[int, int]) -> bool:
    report = ray_quotient_report(*pair, k_max=10)
    return _reflection_ranks(report) == (1, 0) and report.stabilized_order.bit_count() == 1


def cmd_verify(bound: int, output: str | None) -> int:
    """Classifier/oracle agreement suites, aggregated pass/fail counts."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > VERIFY_MAX_BOUND:
        raise ValueError(
            f"bound {bound} exceeds the oracle verification limit {VERIFY_MAX_BOUND}"
        )
    mask = _squarefree_mask(bound)
    primitive = [r for r in primes_up_to(min(bound, RAYCLASS_PAIR_BOUND)) if r % 8 in (3, 5)]
    suites = [
        _suite(
            "quadratic-birational-vs-form-oracle",
            (d for d in range(1, bound + 1) if mask[d] and is_2birational_quadratic(d).positive),
            lambda d: verify_2birational_quadratic_oracle(d) == (True, True),
        ),
        _suite(
            "quadratic-rational-vs-form-oracle",
            (m for m in range(-bound, bound + 1) if m not in (0, 1) and mask[abs(m)]),
            # the classifier verdict first, then the oracle
            lambda m: (
                is_2rational_multiquadratic(make_field([m])).positive
                == verify_2rational_quadratic(m)
            ),
        ),
        _suite(
            "ray-class-laws",
            ((p, q) for p in primitive for q in primitive if p != q),
            _ray_laws_hold,
        ),
    ]
    ok = all(s["failed"] == 0 and s["effort_errors"] == 0 for s in suites)
    _emit(
        _json_payload({"command": "verify", "bound": bound, "ok": ok, "suites": suites}),
        output,
    )
    return 0 if ok else 1


def cmd_kprime(p: int, q: int, output: str | None) -> int:
    label = find_propagation_field(p, q)
    _emit(
        _json_payload({"command": "kprime", "p": p, "q": q, "kprime": label.value}),
        output,
    )
    return 0


def cmd_rayclass(p: int, q: int, levels: int, table: bool, output: str | None) -> int:
    if not 5 <= levels <= RAYCLASS_MAX_LEVELS:
        raise ValueError(f"--levels must be in 5..{RAYCLASS_MAX_LEVELS}, got {levels}")
    report = ray_quotient_report(p, q, k_max=levels)
    if table:
        row = {
            "p": report.p,
            "q": report.q,
            "order": report.stabilized_order,
            "kprime": report.quadratic_character,
        }
        _emit(_rows_to_csv([row], ["p", "q", "order", "kprime"]), output)
    else:
        _emit(_json_payload({"command": "rayclass", **report.to_json()}), output)
    return 0


def cmd_tower(p: int, q: int, choices: str, realize: bool, output: str | None) -> int:
    plan = plan_and_realize(p, q, choices).to_json()
    if not realize:
        plan["realized_step1"] = None
    _emit(_json_payload({"command": "tower", **plan}), output)
    return 0


def cmd_classgroups(bound: int, fmt: str, output: str | None) -> int:
    """CSV/JSON dump of narrow class group data for fundamental |D| <= bound."""
    if bound < 3:
        raise ValueError("bound must be >= 3")
    if bound > MAX_POSITIVE_DISC:
        raise ValueError(
            f"bound {bound} exceeds the class-group enumeration limit {MAX_POSITIVE_DISC}"
        )
    rows = []
    for D in range(-bound, bound + 1):
        if not is_fundamental_discriminant(D):
            continue
        group = narrow_class_group(D)
        rows.append(
            {
                "D": D,
                "invariant_factors": ";".join(map(str, group.invariant_factors)),
                "two_rank": len(group.two_sylow),
                "dyadic_class_orders": ";".join(
                    str(group.element_order(c)) for c in group.dyadic_classes
                ),
            }
        )
    columns = ["D", "invariant_factors", "two_rank", "dyadic_class_orders"]
    if fmt == "csv":
        _emit(_rows_to_csv(rows, columns), output)
    else:
        _emit(_json_payload({"command": "classgroups", "bound": bound, "rows": rows}), output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birat2",
        description=(
            "Classify 2-rationality and 2-birationality of multiquadratic "
            "fields, cross-verify against class-group and ray-class oracles, "
            "and plan towers of quadratic extensions."
        ),
    )
    parser.add_argument("--output", help="write the payload to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a field given by comma-separated generators")
    c.add_argument("spec", help='e.g. "6,-15" or "-7" (imaginary: 2-birationality; real: 2-rationality)')

    e = sub.add_parser("enumerate", help="table of positively classified labels")
    e.add_argument("--kind", required=True, choices=["quad-birational", "multiquad-rational"])
    e.add_argument("--bound", required=True, type=int)
    e.add_argument("--format", default="json", choices=["json", "csv"])

    v = sub.add_parser("verify", help="run the classifier/oracle agreement suites")
    v.add_argument("--bound", required=True, type=int)

    k = sub.add_parser("kprime", help="real quadratic field tame-ramified at p, split at q")
    k.add_argument("--p", required=True, type=int)
    k.add_argument("--q", required=True, type=int)

    r = sub.add_parser("rayclass", help="ray quotient structure report for a primitive pair")
    r.add_argument("--p", required=True, type=int)
    r.add_argument("--q", required=True, type=int)
    r.add_argument("--levels", type=int, default=DEFAULT_K_MAX)
    r.add_argument("--table", action="store_true", help="emit a CSV row instead of JSON")

    t = sub.add_parser("tower", help="plan a 2-birational tower; step 1 is always realized and checked")
    t.add_argument("--p", required=True, type=int)
    t.add_argument("--q", required=True, type=int)
    t.add_argument("--choices", required=True)
    t.add_argument("--realize", action="store_true", help="print the realized step 1")

    g = sub.add_parser("classgroups", help="dump narrow class group data for fundamental |D| <= bound")
    g.add_argument("--bound", required=True, type=int)
    g.add_argument("--format", default="csv", choices=["json", "csv"])

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # let "classify -7" work: everything after the subcommand is positional;
    # the subcommand is the first token that is neither an option nor the
    # value of --output (or an abbreviation of it); a help flag after it
    # stays an option
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        i += 2 if len(argv[i]) > 2 and "--output".startswith(argv[i]) else 1
    rest = argv[i + 1 :]
    wants_help = any(a == "-h" or len(a) > 2 and "--help".startswith(a) for a in rest)
    if argv[i : i + 1] == ["classify"] and "--" not in argv and not wants_help:
        argv.insert(i + 1, "--")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "classify":
            return cmd_classify(args.spec, args.output)
        if args.command == "enumerate":
            return cmd_enumerate(args.kind, args.bound, args.format, args.output)
        if args.command == "verify":
            return cmd_verify(args.bound, args.output)
        if args.command == "kprime":
            return cmd_kprime(args.p, args.q, args.output)
        if args.command == "rayclass":
            return cmd_rayclass(args.p, args.q, args.levels, args.table, args.output)
        if args.command == "tower":
            return cmd_tower(args.p, args.q, args.choices, args.realize, args.output)
        if args.command == "classgroups":
            return cmd_classgroups(args.bound, args.format, args.output)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OverflowError, OSError, EffortBoundExceeded, TheoremViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
