"""Command-line front end.

Exit codes: 0 success or property holds, 1 property violated (with a
machine-checkable counterexample embedded in the report whenever the
check names one), 2 input or usage error, 3 unsupported construction or
numeric obstruction.  Every counterexample kind, its fields and its
replay are one entry of the table _COUNTEREXAMPLES.

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


# -- counterexamples: one table of kinds, their fields and their replays ------


def _algebra_spec(args) -> str:
    """The algebra as the user named it: a builtin name or a file path."""
    return getattr(args, "target", None) or args.algebra


def _counterexample(args, kind: str, **fields) -> dict:
    """A counterexample of a kind in the table, with exactly its fields.

    One that names an algebra names it as given, so that it replays.
    """
    if kind not in _COUNTEREXAMPLES:
        raise InternalCheckError(f"no replay for a {kind!r} counterexample")
    expected = _COUNTEREXAMPLES[kind][0]
    if "algebra" in expected:
        fields = {"algebra": _algebra_spec(args), **fields}
    if set(fields) != set(expected):
        raise InternalCheckError(
            f"a {kind} counterexample carries {expected}, not {tuple(fields)}")
    return {"kind": kind, **fields}


def _pair_counterexample(args, kind: str, op: Matrix, pair) -> dict:
    return _counterexample(
        args, kind, matrix=operator_to_payload(op),
        pair=[pair[0] + 1, pair[1] + 1],
    )


def _automorphism_counterexample(args, algebra, phi: Matrix) -> dict | None:
    """Why phi is no automorphism, as a replayable counterexample, or None."""
    if (pair := multiplicativity_failure(algebra, phi)) is not None:
        return _pair_counterexample(args, "multiplicativity_pair", phi, pair)
    if not is_invertible(phi):
        return _counterexample(args, "not_invertible", matrix=operator_to_payload(phi))
    return None


def _locaut_counterexample(args, matrix: Matrix, point) -> dict:
    """A matrix that no automorphism matches at a point, else one off the pattern."""
    if point is None:
        return _counterexample(args, "pattern_member", matrix=operator_to_payload(matrix))
    return _counterexample(args, "locaut_witness", matrix=operator_to_payload(matrix),
                           point=_vector_payload(point))


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


def _rational_matrix(obj: dict) -> Matrix:
    return _field(obj, "matrix", "a rational operator", parse=lambda raw:
                  _require_rational(operator_from_payload(raw)))


def _float_matrix(obj: dict):
    """The matrix as rows of numbers, from a payload of either backend."""
    op = _field(obj, "matrix", "an operator", parse=operator_from_payload)
    return op.rows if isinstance(op, Matrix) else op


def _point(obj: dict, n: int) -> tuple:
    return _field(obj, "point", f"a list of {n} rationals",
                  lambda raw: isinstance(raw, list) and len(raw) == n,
                  lambda raw: tuple(parse_rational(v) for v in raw))


def _replay_criterion(obj: dict, algebra, op, tol: float) -> tuple[bool, str]:
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


def _replay_triple(obj: dict, algebra, op, tol: float) -> tuple[bool, str]:
    n = algebra.dim
    triple = _field(obj, "triple", f"three ints in 1..{n}",
                    lambda raw: isinstance(raw, list) and len(raw) == 3
                    and all(type(v) is int and 0 < v <= n for v in raw))
    return (associativity_failure(algebra) == tuple(t - 1 for t in triple),
            "associativity fails first at the recorded triple")


def _replay_pointwise(obj: dict, algebra, op, tol: float) -> tuple[bool, str]:
    x = _point(obj, algebra.dim)
    return (pointwise_membership(derivation_algebra(algebra), op, x) is None,
            "no derivation matches the operator at the recorded point")


def _replay_family_escape(obj: dict, algebra, op, tol: float) -> tuple[bool, str]:
    family = automorphism_family(algebra)
    escaped = is_automorphism(algebra, op) and family.match(op) is None
    return escaped, "an automorphism escapes the family template"


def _replay_bridge_sample(obj: dict, algebra, rows, tol: float) -> tuple[bool, str]:
    if _field(obj, "direction", "exp or log",
              lambda raw: raw in ("exp", "log")) == "exp":
        return exp_leaves_pattern(algebra, rows), "the exponential leaves the pattern"
    return (log_leaves_template(algebra, rows),
            "the logarithm of a positive + member leaves the LocDer template")


def _replay_inference(obj: dict, algebra, op, tol: float) -> tuple[bool, str]:
    prediction = infer_shape(closed_forms(algebra).derivation)
    report = validate_prediction(prediction, local_derivation_space(algebra))
    return not report.ok, "the shape prediction fails validation"


# kind: (the fields it carries besides "kind", the reader of its matrix, and
# its replay).  A replay gets the matrix, read first, and the algebra, read
# next, and reads any other field itself; it returns whether the violation
# still occurs and what it checked.
_COUNTEREXAMPLES = {
    "criterion": (("numbers", "seed"), None, _replay_criterion),
    "associativity_triple": (("algebra", "triple"), None, _replay_triple),
    "leibniz_pair": (
        ("algebra", "matrix", "pair"), _rational_matrix, lambda obj, algebra, op, tol: (
            leibniz_failure(algebra, op) is not None, "the Leibniz identity fails")),
    "multiplicativity_pair": (
        ("algebra", "matrix", "pair"), _rational_matrix, lambda obj, algebra, op, tol: (
            multiplicativity_failure(algebra, op) is not None or not is_invertible(op),
            "multiplicativity fails")),
    "not_invertible": (("matrix",), _rational_matrix, lambda obj, algebra, op, tol: (
        not is_invertible(op), "the matrix is singular")),
    "pointwise": (("algebra", "matrix", "point"), _rational_matrix, _replay_pointwise),
    "locaut_witness": (
        ("algebra", "matrix", "point"), _rational_matrix, lambda obj, algebra, op, tol: (
            not locaut_feasible_at(algebra, op, _point(obj, algebra.dim)).feasible,
            "no automorphism matches at the point")),
    "pattern_member": (("algebra", "matrix"), _rational_matrix, lambda obj, algebra, op, tol: (
        not pattern_check(locaut_pattern(algebra), op).ok, "the matrix violates the pattern")),
    "pattern_residual": (("algebra", "matrix"), _float_matrix, lambda obj, algebra, rows, tol: (
        pattern_residual(algebra, rows).residual > tol,
        "the numeric pattern residual exceeds tol")),
    "multiplicativity_residual": (
        ("algebra", "matrix"), _float_matrix, lambda obj, algebra, rows, tol: (
            multiplicativity_residual(algebra, rows) > tol,
            "the numeric multiplicativity residual exceeds tol")),
    "family_escape": (("algebra", "matrix"), _rational_matrix, _replay_family_escape),
    "bridge_sample": (("algebra", "direction", "matrix"), _float_matrix, _replay_bridge_sample),
    "inference_violation": (("algebra", "violations"), None, _replay_inference),
}


def _verify_counterexample(obj: dict, tol: float) -> tuple[bool, str]:
    """Re-run an emitted counterexample; True when it still violates."""
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _COUNTEREXAMPLES:
        raise InputError(f"unknown counterexample kind {kind!r}")
    fields, read_matrix, replay = _COUNTEREXAMPLES[kind]
    op = read_matrix(obj) if read_matrix else None
    algebra = None
    if "algebra" in fields:
        algebra = get_algebra(_field(obj, "algebra", "a builtin name or file path",
                                     lambda raw: isinstance(raw, str)))
    return replay(obj, algebra, op, tol)


# -- command handlers ---------------------------------------------------------
#
# Each returns (ok, payload, text lines, counterexample or None); main maps
# ok to the exit code and attaches the counterexample.

_Verdict = tuple[bool, dict, list[str], dict | None]


def _cmd_algebra_check(args) -> _Verdict:
    algebra = get_algebra(_algebra_spec(args))
    triple = associativity_failure(algebra)
    filtration = power_filtration(algebra)
    payload = {
        "algebra": algebra.name,
        "dim": algebra.dim,
        "associative": triple is None,
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
    if triple is None:
        return True, payload, lines, None
    return False, payload, lines, _counterexample(
        args, "associativity_triple", triple=[t + 1 for t in triple])


def _der_space(args):
    algebra = get_algebra(args.algebra)
    return algebra, derivation_algebra(algebra)


def _cmd_der_basis(args) -> _Verdict:
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
    return True, payload, lines, None


def _cmd_der_check(args) -> _Verdict:
    algebra = get_algebra(args.algebra)
    op = _require_rational(load_operator(args.matrix))
    pair = leibniz_failure(algebra, op)
    ok = pair is None
    payload = {"algebra": algebra.name, "is_derivation": ok}
    lines = [f"is_derivation: {ok}"]
    if ok:
        return True, payload, lines, None
    counterexample = _pair_counterexample(args, "leibniz_pair", op, pair)
    lines.append(f"Leibniz fails at basis pair {tuple(counterexample['pair'])}")
    return False, payload, lines, counterexample


def _cmd_locder_basis(args) -> _Verdict:
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
    return True, payload, lines, None


def _cmd_locder_check(args) -> _Verdict:
    algebra = get_algebra(args.algebra)
    op = _require_rational(load_operator(args.matrix))
    space = local_derivation_space(algebra)
    ok = space.contains(op)
    payload = {"algebra": algebra.name, "is_local_derivation": ok}
    lines = [f"is_local_derivation: {ok}"]
    if ok:
        return True, payload, lines, None
    point = _vector_payload(refuting_point(space, op))
    lines.append(f"no derivation matches at point ({', '.join(point)})")
    return False, payload, lines, _counterexample(
        args, "pointwise", matrix=operator_to_payload(op), point=point)


def _cmd_locder_witness(args) -> _Verdict:
    algebra = get_algebra(args.algebra)
    witness = strict_inclusion_witness(algebra)
    if witness is None:
        payload = {"algebra": algebra.name, "witness": None}
        return True, payload, [
            "no witness: every local derivation is a derivation"
        ], None
    payload = {
        "algebra": algebra.name,
        "witness": operator_to_payload(witness),
    }
    lines = [
        f"strict inclusion witness for {algebra.name} "
        "(local derivation, not a derivation):"
    ]
    lines.extend(_format_matrix_lines(witness))
    return True, payload, lines, None


def _cmd_aut_check(args) -> _Verdict:
    algebra = get_algebra(args.algebra)
    phi = load_operator(args.matrix)
    if isinstance(phi, Matrix):
        counterexample = _automorphism_counterexample(args, algebra, phi)
        ok = counterexample is None
        payload = {"algebra": algebra.name, "is_automorphism": ok}
        return ok, payload, [f"is_automorphism: {ok}"], counterexample
    residual = multiplicativity_residual(algebra, phi)
    ok = residual <= args.tol
    payload = {
        "algebra": algebra.name,
        "multiplicativity_residual": residual,
        "tol": args.tol,
        "ok": ok,
    }
    lines = [f"multiplicativity residual: {residual:.3e} (tol {args.tol:g})"]
    if ok:
        return True, payload, lines, None
    return False, payload, lines, _counterexample(
        args, "multiplicativity_residual", matrix=operator_to_payload(phi, "complex"))


def _cmd_aut_family_verify(args) -> _Verdict:
    algebra = get_algebra(args.algebra)
    family = automorphism_family(algebra)
    report = verify_family(family)
    closure = group_closure_report(family)
    bad = closure if report.ok else report
    payload = {
        "algebra": algebra.name,
        "family_ok": report.ok,
        "closure_ok": closure.ok,
        "detail": bad.detail,
    }
    lines = [
        f"family proof: {report.ok}",
        f"group/inverse closure: {closure.ok}",
    ]
    if bad.ok:
        return True, payload, lines, None
    lines.append(f"detail: {bad.detail}")
    if (phi := bad.counterexample) is None:
        return False, payload, lines, None
    # a member that is no automorphism, else an escaped automorphism
    return False, payload, lines, _automorphism_counterexample(args, algebra, phi) or (
        _counterexample(args, "family_escape", matrix=operator_to_payload(phi)))


def _cmd_locaut_check(args) -> _Verdict:
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
        if ok:
            return True, payload, lines, None
        return False, payload, lines, _counterexample(
            args, "pattern_residual", matrix=operator_to_payload(b, "complex"))
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
    if check.ok:
        return True, payload, lines, None
    for failure in check.failures:
        lines.append(f"violated: {failure}")
    point = find_witness(algebra, b)
    if point is not None:
        lines.append(f"infeasible at point ({', '.join(_vector_payload(point))})")
    return False, payload, lines, _locaut_counterexample(args, b, point)


def _cmd_locaut_verify(args) -> _Verdict:
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
    if report.ok:
        return True, payload, lines, None
    lines.append(f"detail: {report.detail}")
    if report.counterexample is None:
        return False, payload, lines, None
    return False, payload, lines, _locaut_counterexample(args, *report.counterexample)


def _cmd_locaut_witness(args) -> _Verdict:
    algebra = get_algebra(args.algebra)
    b = _require_rational(load_operator(args.matrix))
    point = find_witness(algebra, b)
    if point is None:
        payload = {"algebra": algebra.name, "witness": None}
        return True, payload, [
            "a local automorphism: no point refutes the matrix"
        ], None
    payload = {"algebra": algebra.name, "witness": _vector_payload(point)}
    lines = [
        f"witness point ({', '.join(_vector_payload(point))}): "
        "no automorphism matches the matrix there",
    ]
    return False, payload, lines, _locaut_counterexample(args, b, point)


def _cmd_exp(args) -> _Verdict:
    m = load_operator(args.matrix)
    image = matrix_exp(m)
    payload = {"exp": operator_to_payload(image, "complex")}
    lines = ["matrix exponential:"]
    lines.extend(_format_complex_lines(image))
    if args.out:
        save_operator(args.out, image, "complex")
        lines.append(f"saved to {args.out}")
    return True, payload, lines, None


def _cmd_log(args) -> _Verdict:
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
    return True, payload, lines, None


def _cmd_bridge(args) -> _Verdict:
    algebra = get_algebra(args.algebra)
    report = bridge_check(algebra, args.direction)
    payload = {"algebra": algebra.name, "direction": args.direction,
               "ok": report.ok, "detail": report.detail}
    lines = [f"bridge {args.direction} ({algebra.name}, proved exactly): {report.ok}"]
    if report.ok:
        lines.append(f"proof: {report.detail}")
        return True, payload, lines, None
    lines.append(f"detail: {report.detail}")
    if report.sample is None:
        return False, payload, lines, None
    return False, payload, lines, _counterexample(
        args, "bridge_sample", direction=args.direction,
        matrix=operator_to_payload(report.sample, "complex"))


def _cmd_infer(args) -> _Verdict:
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
    if report.ok:
        return True, payload, lines, None
    for violation in report.violations:
        lines.append(f"violation: {violation}")
    return False, payload, lines, _counterexample(
        args, "inference_violation", violations=list(report.violations))


def _cmd_report_geometry(args) -> _Verdict:
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
    return True, payload, lines, None


def _cmd_suite(args) -> _Verdict:
    result = run_suite(seed=args.seed)
    if result.ok:
        return True, result.to_dict(), result.lines(), None
    return False, result.to_dict(), result.lines(), _counterexample(
        args, "criterion", numbers=[r.number for r in result.results if not r.passed],
        seed=args.seed)


def _cmd_verify_counterexample(args) -> _Verdict:
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
        return True, payload, [f"counterexample reproduced: {description}"], None
    return False, payload, [
        "counterexample did NOT reproduce: the recorded violation no "
        "longer occurs"
    ], None


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
        ok, payload, lines, counterexample = args.handler(args)
        if counterexample is not None:
            payload["counterexample"] = counterexample
            lines.append("counterexample: " + json.dumps(counterexample))
        code = 0 if ok else 1
        _emit(args, code, payload, lines)
    except (InputError, OSError) as exc:  # a missing file, a directory, ...
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
    return code


if __name__ == "__main__":
    sys.exit(main())
