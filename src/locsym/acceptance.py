"""Acceptance battery: the eleven checks behind the `suite` command.

run_suite solves LocDer of each builtin once (builtin_spaces); every
criterion takes only those spaces, which carry the algebra and its Der.
Every criterion is a proof or a pinned check and draws nothing, so the
suite seed only labels the report.  Records carry no wall times or other
ambient state, so every seed reproduces the same verdicts and details.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    builtin,
    characteristic_sequence,
    is_associative,
    power_filtration,
)
from .derivations import bracket_closed, is_derivation
from .expbridge import CHAINS, SERIES_NAMES, bridge_check, exp_failure, series_failure
from .geometry import geometry_report
from .inference import infer_shape, validate_prediction
from .linalg import Matrix
from .local_automorphisms import (
    find_witness,
    group_closure_check,
    locaut_pattern,
    verify_pattern,
)
from .local_derivations import (
    LocalDerivationSpace,
    local_derivation_space,
    strict_inclusion_witness,
)
from .automorphisms import automorphism_family, group_closure_report, verify_family
from .templates import closed_forms, template_space_equals

BOTH = ("pi2", "pi3")


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number:2d}  {self.title}: {self.detail}"

    def to_dict(self) -> dict:
        return {
            "number": self.number,
            "title": self.title,
            "passed": self.passed,
            "detail": self.detail,
        }


# One title per criterion, used for its normal and for its crashed result.
TITLES = (
    "structure diagnostics",
    "derivation spaces",
    "local-derivation spaces",
    "strict inclusions",
    "Lie closure",
    "automorphism families",
    "local-automorphism patterns",
    "exponential bridge",
    "series identities",
    "geometry reports",
    "shape inference",
)


def _result(number: int, problems: list[str], detail: str) -> CriterionResult:
    title = TITLES[number - 1]
    if problems:
        return CriterionResult(number, title, False, "; ".join(problems))
    return CriterionResult(number, title, True, detail)


def _crashed(number: int, exc: Exception) -> CriterionResult:
    detail = f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(number, TITLES[number - 1], False, detail)


Spaces = dict[str, LocalDerivationSpace]


def builtin_spaces() -> Spaces:
    """LocDer of each builtin, solved and proved once per battery.

    Each space also carries its algebra and the Der it was solved from.
    """
    return {name: local_derivation_space(builtin(name)) for name in BOTH}


def criterion_1(spaces: Spaces) -> CriterionResult:
    """Associativity, power filtration, characteristic sequence."""
    problems = []
    for name in BOTH:
        algebra = spaces[name].algebra
        if not is_associative(algebra):
            problems.append(f"{name} is not associative")
        filtration = power_filtration(algebra)
        if filtration.dims != (5, 3, 1, 0):
            problems.append(f"{name} filtration dims {filtration.dims}")
        if filtration.nilindex != 4:
            problems.append(f"{name} nilindex {filtration.nilindex}")
        sequence = characteristic_sequence(algebra)
        if sequence != (3, 2):
            problems.append(f"{name} characteristic sequence {sequence}")
    return _result(
        1,
        problems,
        "both builtins associative, filtration (5,3,1,0), nilindex 4, "
        "characteristic sequence (3,2) over symbolic x",
    )


def criterion_2(spaces: Spaces) -> CriterionResult:
    """Derivation dimensions and template equality."""
    problems = []
    dims = {}
    for name, expected in (("pi2", 7), ("pi3", 6)):
        ders = spaces[name].derivations
        dims[name] = ders.dim
        if ders.dim != expected:
            problems.append(f"dim Der({name}) = {ders.dim}, expected {expected}")
        if not template_space_equals(closed_forms(ders.algebra).derivation, ders.basis):
            problems.append(f"Der({name}) differs from its closed-form template")
    return _result(
        2,
        problems,
        f"dim Der(pi2) = {dims['pi2']}, dim Der(pi3) = {dims['pi3']}, "
        "both equal to their template spans",
    )


def criterion_3(spaces: Spaces) -> CriterionResult:
    """Local-derivation dimensions and template equality.

    The entry relations (b44 = b41 + b11 and b55 = b22 + b52 on pi2,
    b22 = 2 b11, b33 = 3 b11, b44 = b11, b55 = 2 b11 on pi3) are entries
    of LOCAL_DERIVATION_FORM_PI2/PI3, so the span equality proves them.
    """
    problems = []
    dims = {}
    for name, expected in (("pi2", 11), ("pi3", 7)):
        space = spaces[name]
        dims[name] = space.dim
        if space.dim != expected:
            problems.append(
                f"dim LocDer({name}) = {space.dim}, expected {expected}"
            )
        template = closed_forms(space.algebra).local_derivation
        if not template_space_equals(template, space.basis):
            problems.append(f"LocDer({name}) differs from its closed-form template")
    return _result(
        3,
        problems,
        f"dim LocDer(pi2) = {dims['pi2']}, dim LocDer(pi3) = {dims['pi3']}, "
        "template spans and entry relations verified exactly",
    )


def criterion_4(spaces: Spaces) -> CriterionResult:
    """Strict inclusions Der in LocDer with witnesses from the proved spaces."""
    problems = []
    leaves = []
    details = []
    for name in BOTH:
        locders = spaces[name]
        algebra = locders.algebra
        leaves.append(f"{name}: {locders.proof_leaves}")
        witness = strict_inclusion_witness(algebra, locders.derivations, locders)
        if witness is None:
            problems.append(f"no strict inclusion witness for {name}")
            continue
        if is_derivation(algebra, witness):
            problems.append(f"witness for {name} satisfies the Leibniz identity")
        entries = ", ".join(
            f"({i + 1},{j + 1})={value}"
            for i, row in enumerate(witness.rows)
            for j, value in enumerate(row)
            if value
        )
        details.append(f"{name}: witness [{entries}]")
    return _result(
        4,
        problems,
        f"LocDer membership proved on every case-tree leaf ({', '.join(leaves)}"
        " leaves), Leibniz fails; " + "; ".join(details),
    )


def criterion_5(spaces: Spaces) -> CriterionResult:
    """Bracket closure of both spaces, hence (criterion 3) of both templates."""
    problems = []
    for name in BOTH:
        ok, _ = bracket_closed(spaces[name].basis)
        if not ok:
            problems.append(f"bracket left LocDer({name})")
    return _result(
        5,
        problems,
        "both spaces bracket-closed on every basis pair (exact, by "
        "bilinearity), so by criterion 3 both templates are Lie algebras",
    )


def criterion_6(spaces: Spaces) -> CriterionResult:
    """Automorphism families: proved equal to Aut, plus group closure."""
    problems, proofs = [], []
    for name in BOTH:
        family = automorphism_family(spaces[name].algebra)
        report = verify_family(family)
        proofs.append(f"{name}: {report.detail}")
        if not report.ok:
            problems.append(f"verify_family({name}): {report.detail}")
        closure = group_closure_report(family)
        if not closure.ok:
            problems.append(f"group closure({name}): {closure.detail}")
    return _result(
        6,
        problems,
        "; ".join(proofs) + "; exact group/inverse closure for both algebras",
    )


def criterion_7(spaces: Spaces) -> CriterionResult:
    """Local-automorphism patterns: both directions proved, pinned witnesses."""
    problems, proofs = [], []
    for name in BOTH:
        pattern = locaut_pattern(spaces[name].algebra)
        report = verify_pattern(pattern)
        proofs.append(f"{name}: {report.detail}")
        if not report.ok:
            problems.append(f"verify_pattern({name}): {report.detail}")
        if not group_closure_check(pattern):
            problems.append(f"pattern closure({name}) failed")
    # single-relation violations with pinned witnesses
    b22_bump = Matrix(
        [
            [1, 0, 0, 0, 0],
            [0, 2, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
        ]
    )
    witness = find_witness(spaces["pi3"].algebra, b22_bump)
    if witness != (0, 1, 0, 1, 0):
        problems.append(f"pi3 b22 violation witness {witness}, expected e2+e4")
    b44_bump = Matrix(
        [
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 3, 0],
            [0, 0, 0, 0, 1],
        ]
    )
    witness = find_witness(spaces["pi2"].algebra, b44_bump)
    if witness is None:
        problems.append("pi2 b44 violation not refuted")
    return _result(
        7,
        problems,
        "; ".join(proofs) + "; single-relation violations refuted (pi3 witness "
        "e2+e4)",
    )


def criterion_8(spaces: Spaces) -> CriterionResult:
    """Exponential bridge: both directions proved exactly."""
    problems, proofs = [], []
    for name in BOTH:
        algebra = spaces[name].algebra
        reading = exp_failure(algebra)
        for direction in ("exp", "log"):
            report = bridge_check(algebra, direction, reading)
            proofs.append(f"{name} {direction}: {report.detail}")
            if not report.ok:
                problems.append(f"{direction} bridge({name}): {report.detail}")
    return _result(
        8,
        problems,
        "exp(LocDer) lies in LocAut, and log inverts it on the members with "
        "positive diagonal; both directions proved exactly (" + "; ".join(proofs) + ")",
    )


def criterion_9(spaces: Spaces) -> CriterionResult:
    """Series identities: each series equals its closed form at every order."""
    problems = [
        f"{name}: {failure}"
        for name in SERIES_NAMES
        if (failure := series_failure(name)) is not None
    ]
    if CHAINS["lambda34"] != CHAINS["lambda31"]:
        problems.append("lambda34 and lambda31 have different chains")
    return _result(
        9,
        problems,
        "five series equal their exponential closed forms at every order "
        "(each chain's start value and recurrence hold as identities in "
        "2^(n-1), 3^(n-1)); lambda34 = lambda31 termwise, one chain",
    )


def criterion_10(spaces: Spaces) -> CriterionResult:
    """Geometry reports and exact branch disjointness.

    geometry_report runs the disjointness probe on each pattern and
    raises InternalCheckError if it fails, which fails this criterion.
    """
    problems = []
    report2 = geometry_report(spaces["pi2"].algebra)
    if (report2.dim, report2.components, report2.lie_group) != (11, 1, True):
        problems.append(
            f"pi2 geometry ({report2.dim}, {report2.components}, "
            f"{report2.lie_group})"
        )
    report3 = geometry_report(spaces["pi3"].algebra)
    if (report3.dim, report3.components, report3.lie_group) != (7, 2, False):
        problems.append(
            f"pi3 geometry ({report3.dim}, {report3.components}, "
            f"{report3.lie_group})"
        )
    return _result(
        10,
        problems,
        "pi2 (dim 11, 1 component, Lie group), pi3 (dim 7, 2 components, "
        "not a Lie group), branches exactly disjoint",
    )


def criterion_11(spaces: Spaces) -> CriterionResult:
    """Shape inference validates against the computed spaces."""
    problems = []
    for name in BOTH:
        space = spaces[name]
        forms = closed_forms(space.algebra)
        prediction = infer_shape(forms.derivation)
        report = validate_prediction(prediction, space)
        if not report.ok:
            problems.append(f"{name}: " + "; ".join(report.violations))
        template_zeros = {
            (i + 1, j + 1)
            for i, j in forms.local_derivation.zero_positions()
        }
        if set(prediction.zero_set) != template_zeros:
            problems.append(f"{name}: rule-0 zero set differs from the template")
    return _result(
        11,
        problems,
        "predictions validate on both computed spaces; rule-0 zero sets "
        "equal the closed-form matrices exactly",
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


@dataclass(frozen=True)
class SuiteResult:
    seed: int
    results: tuple[CriterionResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        body = [r.line() for r in self.results]
        passed = sum(r.passed for r in self.results)
        body.append(f"{passed}/{len(self.results)} criteria passed (seed {self.seed})")
        return body

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "criteria": [r.to_dict() for r in self.results],
        }


def run_suite(seed: int = 0) -> SuiteResult:
    # The seed labels the report.  A crashed build or criterion is a failed
    # criterion, never an escape.
    try:
        spaces = builtin_spaces()
    except Exception as exc:
        crashed = (_crashed(k, exc) for k in range(1, len(CRITERIA) + 1))
        return SuiteResult(seed=seed, results=tuple(crashed))
    results = []
    for number, criterion in enumerate(CRITERIA, start=1):
        try:
            results.append(criterion(spaces))
        except Exception as exc:
            results.append(_crashed(number, exc))
    return SuiteResult(seed=seed, results=tuple(results))
