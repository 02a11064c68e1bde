"""Command-line front end.

Exit codes: 0 success or property holds, 1 property violated (with a
machine-checkable counterexample embedded in the report), 2 input or
usage error, 3 unsupported construction or numeric obstruction.

Structured output is a single JSON object with a stable schema tag;
reports are deterministic for a fixed seed.  The environment variable
LOCSYM_SEED overrides the default seed when --seed is not given.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .acceptance import CRITERIA, builtin_spaces, run_suite
from .algebra import (
    associativity_failure,
    characteristic_sequence,
    get_algebra,
    multiplicativity_residual,
    power_filtration,
)
from .automorphisms import (
    automorphism_family,
    group_closure_report,
    is_automorphism,
    multiplicativity_failure,
    verify_family,
)
from .derivations import derivation_algebra, leibniz_failure
from .errors import (
    InputError,
    InternalCheckError,
    NumericsError,
    UnsupportedError,
)
from .expbridge import (
    bridge_check,
    exp_leaves_pattern,
    log_leaves_template,
    matrix_exp,
    matrix_log,
    structured_log_pi3,
)
from .geometry import geometry_report
from .inference import infer_shape, validate_prediction
from .linalg import (
    Matrix,
    is_invertible,
    load_json,
    load_operator,
    operator_from_payload,
    operator_to_payload,
    save_operator,
)
from .local_automorphisms import (
    find_witness,
    locaut_feasible_at,
    locaut_pattern,
    pattern_check,
    pattern_residual,
    verify_pattern,
)
from .local_derivations import (
    local_derivation_space,
    pointwise_membership,
    refuting_point,
    strict_inclusion_witness,
)
from .rationals import format_rational, parse_rational
from .templates import LOCAL_DERIVATION_FORM_PI3, closed_forms

SCHEMA = "locsym-report/1"


# -- shared formatting helpers ------------------------------------------------


def _format_matrix_lines(m: Matrix) -> list[str]:
    widths = [
        max(len(format_rational(m.rows[i][j])) for i in range(m.shape[0]))
        for j in range(m.shape[1])
    ]
    return [
        "  [" + ", ".join(
            format_rational(v).rjust(w) for v, w in zip(row, widths)
        ) + "]"
        for row in m.rows
    ]


def _format_complex_lines(rows) -> list[str]:
    return [
        "  [" + ", ".join(f"{complex(v):.6g}" for v in row) + "]"
        for row in rows
    ]


def _vector_payload(x) -> list[str]:
    return [format_rational(v) for v in x]


def _require_rational(m) -> Matrix:
    if not isinstance(m, Matrix):
        raise InputError(
            "this exact check needs an operator file with rational backend"
        )
    return m


# -- counterexample construction and re-verification --------------------------


def _algebra_spec(args) -> str:
    """The algebra as the user named it: a builtin name or a file path."""
    return getattr(args, "target", None) or args.algebra


def _counterexample(args, kind: str, **fields) -> dict:
    """A counterexample naming the algebra as given, so that it replays."""
    return {"kind": kind, "algebra": _algebra_spec(args), **fields}


def _pair_counterexample(args, kind: str, op: Matrix, pair) -> dict:
    return _counterexample(
        args, kind, matrix=operator_to_payload(op),
        pair=[pair[0] + 1, pair[1] + 1],
    )


def _attach(payload: dict, lines: list[str], counterexample: dict) -> None:
    """Put a counterexample in the structured payload and the text lines."""
    payload["counterexample"] = counterexample
    lines.append("counterexample: " + json.dumps(counterexample))


def _automorphism_counterexample(args, algebra, phi: Matrix) -> dict | None:
    """Why phi is no automorphism, as a replayable counterexample, or None."""
    if (pair := multiplicativity_failure(algebra, phi)) is not None:
        return _pair_counterexample(args, "multiplicativity_pair", phi, pair)
    if not is_invertible(phi):
        return {"kind": "not_invertible", "matrix": operator_to_payload(phi)}
    return None


def _field(obj: dict, name: str, what: str, ok=lambda raw: True, parse=None):
    """A field of a replayed counterexample, checked by `ok`, read by `parse`.

    Neither calls an engine: a missing or malformed field is bad input.
    """
    raw = obj.get(name)
    if name not in obj or not ok(raw):
        raise InputError(f"{obj['kind']} {name} must be {what}, got {raw!r}")
    try:
        return parse(raw) if parse else raw
    except (InputError, TypeError, ValueError) as exc:
        raise InputError(f"{obj['kind']} {name} must be {what}: {exc}") from exc


_KINDS = (
    "associativity_triple", "leibniz_pair", "multiplicativity_pair",
    "not_invertible", "pointwise", "span_membership", "locaut_witness",
    "pattern_member", "pattern_residual", "family_escape", "bridge_sample",
    "inference_violation", "criterion",
)


def _verify_counterexample(obj: dict, tol: float) -> tuple[bool, str]:
    """Re-run an emitted counterexample; True when it still violates."""
    kind = obj.get("kind")
    if kind not in _KINDS:
        raise InputError(f"unknown counterexample kind {kind!r}")
    if kind == "criterion":
        count = len(CRITERIA)
        numbers = _field(obj, "numbers", f"a list of ints in 1..{count}",
                         lambda raw: isinstance(raw, list) and all(
                             type(v) is int and 0 < v <= count for v in raw))
        # the seed only labels the battery, but a replay still checks it
        _field({"seed": 0, **obj}, "seed", "an unsigned 64-bit int",
               lambda raw: type(raw) is int and 0 <= raw < 2 ** 64)
        spaces = builtin_spaces()
        failed = [k for k in numbers if not CRITERIA[k - 1](spaces).passed]
        return bool(failed), f"criteria still failing: {failed}"
    if kind in ("pattern_residual", "bridge_sample"):
        op = _field(obj, "matrix", "an operator", parse=operator_from_payload)
    elif kind not in ("associativity_triple", "inference_violation"):
        op = _field(obj, "matrix", "a rational operator", parse=lambda raw:
                    _require_rational(operator_from_payload(raw)))
    if kind == "not_invertible":
        return not is_invertible(op), "the matrix is singular"
    algebra = get_algebra(_field(obj, "algebra", "a builtin name or file path",
                                 lambda raw: isinstance(raw, str)))
    n = algebra.dim
    if kind == "associativity_triple":
        triple = _field(obj, "triple", f"three ints in 1..{n}",
                        lambda raw: isinstance(raw, list) and len(raw) == 3
                        and all(type(v) is int and 0 < v <= n for v in raw))
        return (
            associativity_failure(algebra) == tuple(t - 1 for t in triple),
            "associativity fails first at the recorded triple",
        )
    if kind == "leibniz_pair":
        return leibniz_failure(algebra, op) is not None, "the Leibniz identity fails"
    if kind == "multiplicativity_pair":
        failed = multiplicativity_failure(algebra, op) is not None
        return failed or not is_invertible(op), "multiplicativity fails"
    if kind in ("pointwise", "locaut_witness"):
        x = _field(obj, "point", f"a list of {n} rationals",
                   lambda raw: isinstance(raw, list) and len(raw) == n,
                   lambda raw: tuple(parse_rational(v) for v in raw))
        if kind == "locaut_witness":
            report = locaut_feasible_at(algebra, op, x)
            return not report.feasible, "no automorphism matches at the point"
        return (
            pointwise_membership(derivation_algebra(algebra), op, x) is None,
            "no derivation matches the operator at the recorded point",
        )
    if kind == "span_membership":
        space = _field(obj, "space", "der or locder",
                       lambda raw: raw in ("der", "locder"))
        solve = derivation_algebra if space == "der" else local_derivation_space
        return not solve(algebra).contains(op), "the operator is outside the space"
    if kind == "pattern_member":
        check = pattern_check(locaut_pattern(algebra), op)
        return not check.ok, "the matrix violates the pattern"
    if kind == "pattern_residual":
        check = pattern_residual(algebra, op)
        return check.residual > tol, "the numeric pattern residual exceeds tol"
    if kind == "family_escape":
        family = automorphism_family(algebra)
        escaped = is_automorphism(algebra, op) and family.match(op) is None
        return escaped, "an automorphism escapes the family template"
    if kind == "bridge_sample":
        if _field(obj, "direction", "exp or log",
                  lambda raw: raw in ("exp", "log")) == "exp":
            return exp_leaves_pattern(algebra, op), "the exponential leaves the pattern"
        return (log_leaves_template(algebra, op),
                "the logarithm of a positive + member leaves the LocDer template")
    prediction = infer_shape(closed_forms(algebra).derivation)
    report = validate_prediction(prediction, local_derivation_space(algebra))
    return not report.ok, "the shape prediction fails validation"


# -- command handlers ---------------------------------------------------------


def _cmd_algebra_check(args) -> tuple[int, dict, list[str]]:
    algebra = get_algebra(_algebra_spec(args))
    problems = []
    counterexample = None
    triple = associativity_failure(algebra)
    if triple is not None:
        counterexample = _counterexample(
            args, "associativity_triple", triple=[t + 1 for t in triple]
        )
        problems.append("not associative")
    filtration = power_filtration(algebra)
    payload = {
        "algebra": algebra.name,
        "dim": algebra.dim,
        "associative": not problems,
        "filtration_dims": list(filtration.dims),
        "nilpotent": filtration.nilpotent,
        "nilindex": filtration.nilindex,
    }
    lines = [
        f"algebra {algebra.name}: dim {algebra.dim}",
        f"associative: {payload['associative']}",
        f"power filtration dims: {tuple(filtration.dims)}",
        f"nilpotent: {filtration.nilpotent} (nilindex {filtration.nilindex})",
    ]
    if filtration.nilpotent:
        sequence = characteristic_sequence(algebra)
        payload["characteristic_sequence"] = list(sequence)
        lines.append(f"characteristic sequence: {sequence}")
    if counterexample:
        _attach(payload, lines, counterexample)
        return 1, payload, lines
    return 0, payload, lines


def _der_space(args):
    algebra = get_algebra(args.algebra)
    return algebra, derivation_algebra(algebra)


def _cmd_der_basis(args) -> tuple[int, dict, list[str]]:
    algebra, ders = _der_space(args)
    payload = {
        "algebra": algebra.name,
        "dim": ders.dim,
        "basis": [operator_to_payload(op) for op in ders.basis],
    }
    lines = [f"dim Der({algebra.name}) = {ders.dim}"]
    for idx, op in enumerate(ders.basis, 1):
        lines.append(f"basis operator {idx}:")
        lines.extend(_format_matrix_lines(op))
    return 0, payload, lines


def _cmd_der_check(args) -> tuple[int, dict, list[str]]:
    algebra = get_algebra(args.algebra)
    op = _require_rational(load_operator(args.matrix))
    pair = leibniz_failure(algebra, op)
    ok = pair is None
    payload = {"algebra": algebra.name, "is_derivation": ok}
    lines = [f"is_derivation: {ok}"]
    if not ok:
        counterexample = _pair_counterexample(args, "leibniz_pair", op, pair)
        lines.append(
            f"Leibniz fails at basis pair {tuple(counterexample['pair'])}"
        )
        _attach(payload, lines, counterexample)
        return 1, payload, lines
    return 0, payload, lines


def _cmd_locder_basis(args) -> tuple[int, dict, list[str]]:
    algebra = get_algebra(args.algebra)
    space = local_derivation_space(algebra)
    payload = {
        "algebra": algebra.name,
        "dim": len(space.basis),
        "provenance": space.provenance,
        "basis": [operator_to_payload(op) for op in space.basis],
    }
    lines = [
        f"dim LocDer({algebra.name}) = {len(space.basis)} "
        f"({space.provenance} solve)"
    ]
    for idx, op in enumerate(space.basis, 1):
        lines.append(f"basis operator {idx}:")
        lines.extend(_format_matrix_lines(op))
    return 0, payload, lines


def _cmd_locder_check(args) -> tuple[int, dict, list[str]]:
    algebra = get_algebra(args.algebra)
    op = _require_rational(load_operator(args.matrix))
    space = local_derivation_space(algebra)
    ok = space.contains(op)
    payload = {"algebra": algebra.name, "is_local_derivation": ok}
    lines = [f"is_local_derivation: {ok}"]
    if not ok:
        point = _vector_payload(refuting_point(space, op))
        counterexample = _counterexample(
            args, "pointwise", matrix=operator_to_payload(op), point=point
        )
        lines.append(f"no derivation matches at point ({', '.join(point)})")
        _attach(payload, lines, counterexample)
        return 1, payload, lines
    return 0, payload, lines


def _cmd_locder_witness(args) -> tuple[int, dict, list[str]]:
    algebra = get_algebra(args.algebra)
    witness = strict_inclusion_witness(algebra)
    if witness is None:
        payload = {"algebra": algebra.name, "witness": None}
        return 0, payload, [
            "no witness: every local derivation is a derivation"
        ]
    payload = {
        "algebra": algebra.name,
        "witness": operator_to_payload(witness),
    }
    lines = [
        f"strict inclusion witness for {algebra.name} "
        "(local derivation, not a derivation):"
    ]
    lines.extend(_format_matrix_lines(witness))
    return 0, payload, lines


def _cmd_aut_check(args) -> tuple[int, dict, list[str]]:
    algebra = get_algebra(args.algebra)
    phi = load_operator(args.matrix)
    if isinstance(phi, Matrix):
        counterexample = _automorphism_counterexample(args, algebra, phi)
        ok = counterexample is None
        payload = {"algebra": algebra.name, "is_automorphism": ok}
        lines = [f"is_automorphism: {ok}"]
        if not ok:
            _attach(payload, lines, counterexample)
            return 1, payload, lines
        return 0, payload, lines
    residual = multiplicativity_residual(algebra, phi)
    ok = residual <= args.tol
    payload = {
        "algebra": algebra.name,
        "multiplicativity_residual": residual,
        "tol": args.tol,
        "ok": ok,
    }
    lines = [f"multiplicativity residual: {residual:.3e} (tol {args.tol:g})"]
    return (0 if ok else 1), payload, lines


def _cmd_aut_family_verify(args) -> tuple[int, dict, list[str]]:
    algebra = get_algebra(args.algebra)
    family = automorphism_family(algebra)
    report = verify_family(family)
    closure = group_closure_report(family)
    ok = report.ok and closure.ok
    payload = {
        "algebra": algebra.name,
        "family_ok": report.ok,
        "closure_ok": closure.ok,
        "detail": report.detail if not report.ok else closure.detail,
    }
    lines = [
        f"family proof: {report.ok}",
        f"group/inverse closure: {closure.ok}",
    ]
    if not ok:
        bad = report if not report.ok else closure
        if (phi := bad.counterexample) is not None:
            # a member that is no automorphism, else an escaped automorphism
            counterexample = _automorphism_counterexample(args, algebra, phi) or (
                _counterexample(args, "family_escape", matrix=operator_to_payload(phi)))
            _attach(payload, lines, counterexample)
        lines.append(f"detail: {bad.detail}")
        return 1, payload, lines
    return 0, payload, lines


def _cmd_locaut_check(args) -> tuple[int, dict, list[str]]:
    algebra = get_algebra(args.algebra)
    b = load_operator(args.matrix)
    pattern = locaut_pattern(algebra)
    if not isinstance(b, Matrix):
        check = pattern_residual(algebra, b)
        ok = check.residual <= args.tol
        payload = {
            "algebra": algebra.name,
            "residual": check.residual,
            "branch": check.branch,
            "tol": args.tol,
            "ok": ok,
        }
        lines = [
            f"pattern residual: {check.residual:.3e} "
            f"(branch {check.branch}, tol {args.tol:g})"
        ]
        if not ok:
            _attach(payload, lines, _counterexample(
                args, "pattern_residual", matrix=operator_to_payload(b, "complex")))
            return 1, payload, lines
        return 0, payload, lines
    check = pattern_check(pattern, b)
    payload = {
        "algebra": algebra.name,
        "ok": check.ok,
        "branch": check.branch,
        "boundary": check.boundary,
        "failures": list(check.failures),
    }
    lines = [f"pattern check: {check.ok}" + (
        f" (branch {check.branch})" if check.branch else ""
    )]
    if check.boundary:
        lines.append(
            "matrix lies on the pattern boundary (open conditions vanish)"
        )
    if not check.ok:
        for failure in check.failures:
            lines.append(f"violated: {failure}")
        counterexample = _counterexample(
            args, "pattern_member", matrix=operator_to_payload(b)
        )
        point = find_witness(algebra, b)
        if point is not None:
            counterexample = _counterexample(
                args, "locaut_witness", matrix=operator_to_payload(b),
                point=_vector_payload(point),
            )
            lines.append(
                f"infeasible at point ({', '.join(_vector_payload(point))})"
            )
        _attach(payload, lines, counterexample)
        return 1, payload, lines
    return 0, payload, lines


def _cmd_locaut_verify(args) -> tuple[int, dict, list[str]]:
    algebra = get_algebra(args.algebra)
    report = verify_pattern(locaut_pattern(algebra))
    payload = {
        "algebra": algebra.name,
        "ok": report.ok,
        "forward": report.forward,
        "reverse": report.reverse,
    }
    lines = [f"pattern verification: {report.ok}", f"forward proof: {report.forward}"]
    if report.reverse is not None:
        lines.append(f"reverse proof: {report.reverse}")
    if not report.ok:
        if report.counterexample is not None:
            matrix, point = report.counterexample
            if point is not None:
                counterexample = _counterexample(
                    args, "locaut_witness", matrix=operator_to_payload(matrix),
                    point=_vector_payload(point),
                )
            else:
                counterexample = _counterexample(
                    args, "pattern_member", matrix=operator_to_payload(matrix)
                )
            _attach(payload, lines, counterexample)
        lines.append(f"detail: {report.detail}")
        return 1, payload, lines
    return 0, payload, lines


def _cmd_locaut_witness(args) -> tuple[int, dict, list[str]]:
    algebra = get_algebra(args.algebra)
    b = _require_rational(load_operator(args.matrix))
    point = find_witness(algebra, b)
    if point is None:
        payload = {"algebra": algebra.name, "witness": None}
        return 0, payload, [
            "a local automorphism: no point refutes the matrix"
        ]
    counterexample = _counterexample(
        args, "locaut_witness", matrix=operator_to_payload(b),
        point=_vector_payload(point),
    )
    payload = {"algebra": algebra.name, "witness": _vector_payload(point)}
    lines = [
        f"witness point ({', '.join(_vector_payload(point))}): "
        "no automorphism matches the matrix there",
    ]
    _attach(payload, lines, counterexample)
    return 1, payload, lines


def _cmd_exp(args) -> tuple[int, dict, list[str]]:
    m = load_operator(args.matrix)
    image = matrix_exp(m)
    payload = {"exp": operator_to_payload(image, "complex")}
    lines = ["matrix exponential:"]
    lines.extend(_format_complex_lines(image))
    if args.out:
        save_operator(args.out, image, "complex")
        lines.append(f"saved to {args.out}")
    return 0, payload, lines


def _cmd_log(args) -> tuple[int, dict, list[str]]:
    m = load_operator(args.matrix)
    method = args.method
    result = None
    used = None
    obstruction = None
    if method in ("auto", "principal"):
        try:
            result = matrix_log(m)
            used = "principal"
        except NumericsError as exc:
            obstruction = str(exc)
            if method == "principal":
                raise
    if result is None:
        algebra = get_algebra(args.algebra)
        try:
            # structured recovery solves exp(nabla) = B on pi3's pattern only
            if closed_forms(algebra).local_derivation is not LOCAL_DERIVATION_FORM_PI3:
                raise UnsupportedError(
                    f"it inverts pi3's pattern, not {algebra.name}'s; "
                    "pass --algebra pi3"
                )
            result = structured_log_pi3(m, tol=args.tol)
            used = "structured"
        except (InputError, NumericsError, UnsupportedError) as exc:
            detail = f"structured recovery unavailable: {exc}"
            if obstruction:
                detail = f"{obstruction}; {detail}"
            raise NumericsError(detail) from exc
    payload = {"log": operator_to_payload(result, "complex"), "method": used}
    lines = [f"matrix logarithm ({used}):"]
    if obstruction:
        lines.insert(
            0, f"principal branch obstructed: {obstruction}"
        )
    lines.extend(_format_complex_lines(result))
    if args.out:
        save_operator(args.out, result, "complex")
        lines.append(f"saved to {args.out}")
    return 0, payload, lines


def _cmd_bridge(args) -> tuple[int, dict, list[str]]:
    algebra = get_algebra(args.algebra)
    report = bridge_check(algebra, args.direction)
    payload = {"algebra": algebra.name, "direction": args.direction,
               "ok": report.ok, "detail": report.detail}
    lines = [f"bridge {args.direction} ({algebra.name}, proved exactly): {report.ok}"]
    if not report.ok:
        if report.sample is not None:
            _attach(payload, lines, _counterexample(
                args, "bridge_sample", direction=args.direction,
                matrix=operator_to_payload(report.sample, "complex")))
        lines.append(f"detail: {report.detail}")
        return 1, payload, lines
    lines.append(f"proof: {report.detail}")
    return 0, payload, lines


def _cmd_infer(args) -> tuple[int, dict, list[str]]:
    algebra = get_algebra(args.algebra)
    prediction = infer_shape(closed_forms(algebra).derivation)
    space = local_derivation_space(algebra)
    report = validate_prediction(prediction, space)
    payload = {
        "algebra": algebra.name,
        "prediction": prediction.to_dict(),
        "validated": report.ok,
        "violations": list(report.violations),
    }
    lines = [
        f"shape prediction for {algebra.name}:",
        f"  forced zeros: {len(prediction.zero_set)}",
        "  equal pairs: " + (
            ", ".join(
                f"b{i}{j}=b{k}{m}" for (i, j), (k, m) in prediction.equal_pairs
            ) or "none"
        ),
        f"  generally-distinct pairs: {len(prediction.independent_pairs)}",
        f"  undetermined pairs: {len(prediction.undetermined)}",
        f"validated against the computed space: {report.ok}",
    ]
    if not report.ok:
        for violation in report.violations:
            lines.append(f"violation: {violation}")
        _attach(payload, lines, _counterexample(
            args, "inference_violation", violations=list(report.violations)))
        return 1, payload, lines
    return 0, payload, lines


def _cmd_report_geometry(args) -> tuple[int, dict, list[str]]:
    algebra = get_algebra(args.algebra)
    report = geometry_report(algebra)
    payload = report.to_dict()
    lines = [
        f"geometry of LocAut({algebra.name}):",
        f"  dimension: {report.dim}",
        f"  components: {report.components}",
        f"  Lie group: {report.lie_group}",
        f"  rationale: {report.rationale}",
    ]
    return 0, payload, lines


def _cmd_suite(args) -> tuple[int, dict, list[str]]:
    result = run_suite(seed=args.seed)
    payload = result.to_dict()
    lines = result.lines()
    if not result.ok:
        _attach(payload, lines, {
            "kind": "criterion",
            "numbers": [r.number for r in result.results if not r.passed],
            "seed": args.seed,
        })
        return 1, payload, lines
    return 0, payload, lines


def _cmd_verify_counterexample(args) -> tuple[int, dict, list[str]]:
    raw = load_json(args.file)
    obj = raw.get("counterexample", raw) if isinstance(raw, dict) else raw
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("the file holds no counterexample to replay")
    reproduced, description = _verify_counterexample(obj, tol=args.tol)
    payload = {
        "kind": obj.get("kind"),
        "reproduced": reproduced,
        "description": description,
    }
    if reproduced:
        return 0, payload, [f"counterexample reproduced: {description}"]
    return 1, payload, [
        "counterexample did NOT reproduce: the recorded violation no "
        "longer occurs"
    ]


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--algebra", default="pi2", help="builtin name (pi2, pi3) or file path"
    )
    shared.add_argument("--seed", type=int, default=None, help="RNG seed (u64)")
    shared.add_argument(
        "--tol", type=float, default=1e-9, help="numeric tolerance"
    )
    shared.add_argument(
        "--format", choices=("text", "structured"), default="text",
        dest="fmt", help="report format",
    )
    shared.add_argument("--out", default=None, help="write the report here")

    parser = argparse.ArgumentParser(
        prog="locsym",
        description="exact and numeric verification of derivation and "
        "automorphism structure for the builtin algebras",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    algebra_cmd = commands.add_parser("algebra", help="algebra diagnostics")
    algebra_sub = algebra_cmd.add_subparsers(dest="action", required=True)
    check = algebra_sub.add_parser("check", parents=[shared])
    check.add_argument("target", nargs="?", help="builtin name or file")
    check.set_defaults(handler=_cmd_algebra_check)

    der_cmd = commands.add_parser("der", help="derivation space")
    der_sub = der_cmd.add_subparsers(dest="action", required=True)
    der_sub.add_parser("basis", parents=[shared]).set_defaults(
        handler=_cmd_der_basis
    )
    der_check = der_sub.add_parser("check", parents=[shared])
    der_check.add_argument("--matrix", required=True, help="operator file")
    der_check.set_defaults(handler=_cmd_der_check)

    locder_cmd = commands.add_parser("locder", help="local-derivation space")
    locder_sub = locder_cmd.add_subparsers(dest="action", required=True)
    locder_sub.add_parser("basis", parents=[shared]).set_defaults(
        handler=_cmd_locder_basis
    )
    locder_check = locder_sub.add_parser("check", parents=[shared])
    locder_check.add_argument("--matrix", required=True, help="operator file")
    locder_check.set_defaults(handler=_cmd_locder_check)
    locder_sub.add_parser("witness", parents=[shared]).set_defaults(
        handler=_cmd_locder_witness
    )

    aut_cmd = commands.add_parser("aut", help="automorphism group")
    aut_sub = aut_cmd.add_subparsers(dest="action", required=True)
    aut_check = aut_sub.add_parser("check", parents=[shared])
    aut_check.add_argument("--matrix", required=True, help="operator file")
    aut_check.set_defaults(handler=_cmd_aut_check)
    aut_sub.add_parser("family-verify", parents=[shared]).set_defaults(
        handler=_cmd_aut_family_verify
    )

    locaut_cmd = commands.add_parser("locaut", help="local-automorphism group")
    locaut_sub = locaut_cmd.add_subparsers(dest="action", required=True)
    locaut_check = locaut_sub.add_parser("check", parents=[shared])
    locaut_check.add_argument("--matrix", required=True, help="operator file")
    locaut_check.set_defaults(handler=_cmd_locaut_check)
    locaut_sub.add_parser("verify", parents=[shared]).set_defaults(
        handler=_cmd_locaut_verify
    )
    locaut_witness = locaut_sub.add_parser("witness", parents=[shared])
    locaut_witness.add_argument("--matrix", required=True, help="operator file")
    locaut_witness.set_defaults(handler=_cmd_locaut_witness)

    exp_cmd = commands.add_parser("exp", parents=[shared])
    exp_cmd.add_argument("--matrix", required=True, help="operator file")
    exp_cmd.set_defaults(handler=_cmd_exp)

    log_cmd = commands.add_parser("log", parents=[shared])
    log_cmd.add_argument("--matrix", required=True, help="operator file")
    log_cmd.add_argument(
        "--method", choices=("auto", "principal", "structured"),
        default="auto",
        help="structured recovery (also the fallback of auto) inverts "
        "pi3's pattern and needs --algebra pi3",
    )
    log_cmd.set_defaults(handler=_cmd_log)

    bridge_cmd = commands.add_parser("bridge", parents=[shared])
    bridge_cmd.add_argument(
        "--direction", choices=("exp", "log"), default="exp",
        help="both are proved exactly: exp(LocDer) lies in LocAut, and log "
        "inverts it over R on the members with positive diagonal",
    )
    bridge_cmd.set_defaults(handler=_cmd_bridge)

    infer_cmd = commands.add_parser("infer", parents=[shared])
    infer_cmd.set_defaults(handler=_cmd_infer)

    report_cmd = commands.add_parser("report", help="analysis reports")
    report_sub = report_cmd.add_subparsers(dest="action", required=True)
    report_sub.add_parser("geometry", parents=[shared]).set_defaults(
        handler=_cmd_report_geometry
    )

    suite_cmd = commands.add_parser("suite", parents=[shared])
    suite_cmd.set_defaults(handler=_cmd_suite)

    verify_cmd = commands.add_parser("verify-counterexample", parents=[shared])
    verify_cmd.add_argument("file", help="report or counterexample JSON file")
    verify_cmd.set_defaults(handler=_cmd_verify_counterexample)
    return parser


def _resolve_seed(args) -> None:
    if args.seed is None:
        raw = os.environ.get("LOCSYM_SEED", "0")
        try:
            args.seed = int(raw)
        except ValueError as exc:
            raise InputError(f"LOCSYM_SEED is not an integer: {raw!r}") from exc
    if not 0 <= args.seed < 2 ** 64:
        raise InputError("seed must fit in an unsigned 64-bit integer")


def _emit(args, code: int, payload: dict, lines: list[str]) -> None:
    if args.fmt == "structured":
        document = {
            "schema": SCHEMA,
            "command": args.command,
            "ok": code == 0,
            "exit_code": code,
        }
        document.update(payload)
        text = json.dumps(document, indent=1, sort_keys=True)
    else:
        text = "\n".join(lines)
    if args.out and args.command not in ("exp", "log"):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.out}")
    else:
        print(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _resolve_seed(args)
        code, payload, lines = args.handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"numeric obstruction: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    _emit(args, code, payload, lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
