"""Geometry reports and the command-line interface.

CLI coverage calls main() in-process for speed; a few subprocess tests
run ``python -m locsym`` to pin the exit codes and the seed handling of a
real process, and the console-script entry in pyproject.toml is checked
to name the same main().
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import locsym
from locsym import (
    Matrix,
    UnsupportedError,
    branch_disjointness,
    geometry_report,
    locaut_pattern,
    save_operator,
    zero_algebra,
)
from locsym.cli import _build_parser, main
from locsym.linalg import operator_to_payload
from locsym.templates import LOCAL_AUTOMORPHISM_FORM_PI3_PLUS

DIAG_BUMP = [[1, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 1, 0, 0],
             [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]


def run_cli(*argv):
    return main(list(argv))


# The directory that holds the imported package, so the child process
# imports the same locsym from any working directory.
SRC_DIR = str(Path(locsym.__file__).resolve().parent.parent)
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_script(*argv, env=None):
    return run_python("-m", "locsym", *argv, env=env)


def run_python(*argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    path = full_env.get("PYTHONPATH")
    full_env["PYTHONPATH"] = (
        SRC_DIR + os.pathsep + path if path else SRC_DIR
    )
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=full_env,
    )


# -- geometry reports ----------------------------------------------------------

def test_geometry_values(pi2, pi3):
    r2 = geometry_report(pi2)
    assert (r2.dim, r2.components, r2.lie_group) == (11, 1, True)
    r3 = geometry_report(pi3)
    assert (r3.dim, r3.components, r3.lie_group) == (7, 2, False)


def test_geometry_rationale_separates_checked_from_asserted(pi2, pi3):
    r2, r3 = geometry_report(pi2), geometry_report(pi3)
    assert "asserted" in r2.rationale
    assert "disjoint" in r3.rationale and "checked exactly" in r3.rationale


def test_branch_disjointness(pi3):
    assert branch_disjointness(locaut_pattern(pi3))


def test_geometry_refuses_foreign_algebras():
    with pytest.raises(UnsupportedError):
        geometry_report(zero_algebra(5))


def test_geometry_to_dict(pi3):
    d = geometry_report(pi3).to_dict()
    assert d["dim"] == 7 and d["components"] == 2
    assert d["lie_group"] is False


# -- in-process CLI: exit codes and payloads --------------------------------------

def test_cli_basis_commands(capsys):
    assert run_cli("der", "basis", "--algebra", "pi3") == 0
    out = capsys.readouterr().out
    assert "operator" in out.lower() or "basis" in out.lower()
    assert run_cli("locder", "basis", "--algebra", "pi3", "--format",
                   "structured") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "locsym-report/1"
    assert payload["ok"] is True
    assert len(payload["basis"]) == 7


def test_cli_der_check_accepts_and_rejects(tmp_path, capsys):
    good = str(tmp_path / "good.json")
    save_operator(good, Matrix.identity(5) * 0)
    assert run_cli("der", "check", "--algebra", "pi2", "--matrix", good) == 0
    capsys.readouterr()
    bad = str(tmp_path / "bad.json")
    save_operator(bad, Matrix([[0, 1, 0, 0, 0]] + [[0] * 5] * 4))
    assert run_cli("der", "check", "--algebra", "pi2", "--matrix", bad) == 1
    out = capsys.readouterr().out
    assert "counterexample" in out


def test_cli_aut_check_counterexamples_replay(tmp_path, capsys):
    cases = (
        (2 * Matrix.identity(5), {"kind": "multiplicativity_pair", "pair": [1, 1]}),
        (Matrix.zeros(5, 5), {"kind": "not_invertible"}),
    )
    for k, (phi, expected) in enumerate(cases):
        operator, report = str(tmp_path / f"op{k}.json"), str(tmp_path / f"r{k}.json")
        save_operator(operator, phi)
        assert run_cli("aut", "check", "--algebra", "pi2", "--matrix", operator,
                       "--format", "structured", "--out", report) == 1
        with open(report, encoding="utf-8") as fh:
            counterexample = json.load(fh)["counterexample"]
        assert {key: counterexample[key] for key in expected} == expected
        assert run_cli("verify-counterexample", report) == 0
    capsys.readouterr()


def test_cli_family_verify_counterexamples_replay(
    tmp_path, capsys, monkeypatch, mutant
):
    import locsym.cli as cli
    cases = {
        "multiplicativity_pair": mutant("pi2", "pi2", {(5, 2): "a11*a41"}),
        "not_invertible": mutant("pi2", "pi2", nonzero=("a11",)),
        "family_escape": mutant("pi2", "pi2", nonzero=("a11", "a11+a41", "a21")),
    }
    for kind, family in cases.items():
        monkeypatch.setattr(cli, "automorphism_family", lambda _, f=family: f)
        report = str(tmp_path / f"{kind}.json")
        assert run_cli("aut", "family-verify", "--algebra", "pi2",
                       "--format", "structured", "--out", report) == 1
        with open(report, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["family_ok"] is False
        assert payload["counterexample"]["kind"] == kind
        assert cli._verify_counterexample(payload["counterexample"], 1e-9)[0]
        assert run_cli("verify-counterexample", report) == 0
    capsys.readouterr()


def test_cli_algebra_check_counterexample_replays(tmp_path, capsys):
    from locsym import save_algebra
    from locsym.algebra import Algebra
    # e1 e1 = e2, e1 e2 = e3, e2 e1 = 0: (e1 e1) e1 = 0 but e1 (e1 e1) = e3
    broken = Algebra(name="broken", dim=3,
                     table={(0, 0): (0, 1, 0), (0, 1): (0, 0, 1)})
    path, report = str(tmp_path / "b.json"), str(tmp_path / "r.json")
    save_algebra(path, broken)
    assert run_cli("algebra", "check", "--algebra", path,
                   "--format", "structured", "--out", report) == 1
    with open(report, encoding="utf-8") as fh:
        counterexample = json.load(fh)["counterexample"]
    assert counterexample == {"kind": "associativity_triple",
                              "algebra": path, "triple": [1, 1, 1]}
    assert run_cli("verify-counterexample", report) == 0
    capsys.readouterr()


def test_cli_locaut_witness_finds_refutation(tmp_path, capsys):
    path = str(tmp_path / "bump.json")
    save_operator(path, Matrix(DIAG_BUMP))
    code = run_cli("locaut", "witness", "--algebra", "pi3", "--matrix", path,
                   "--format", "structured")
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    ce = payload["counterexample"]
    assert ce["kind"] == "locaut_witness"
    witness = [v if isinstance(v, str) else str(v) for v in ce["point"]]
    assert witness == ["0", "1", "0", "1", "0"]


def test_cli_verify_counterexample_needs_a_counterexample(tmp_path, capsys):
    # a passing check writes a report with nothing to replay
    identity, report = str(tmp_path / "id.json"), str(tmp_path / "r.json")
    save_operator(identity, Matrix.identity(5))
    assert run_cli("aut", "check", "--algebra", "pi2", "--matrix", identity,
                   "--format", "structured", "--out", report) == 0
    capsys.readouterr()
    assert run_cli("verify-counterexample", report) == 2
    assert "holds no counterexample" in capsys.readouterr().err


def test_cli_verify_counterexample_round_trip(tmp_path, capsys):
    bump = str(tmp_path / "bump.json")
    save_operator(bump, Matrix(DIAG_BUMP))
    witness_file = str(tmp_path / "warrant.json")
    assert run_cli("locaut", "witness", "--algebra", "pi3", "--matrix", bump,
                   "--format", "structured", "--out", witness_file) == 1
    capsys.readouterr()
    assert run_cli("verify-counterexample", witness_file) == 0
    out = capsys.readouterr().out
    assert "reproduce" in out.lower()


def test_cli_replays_a_feasible_large_point_without_an_internal_error(
    tmp_path, capsys
):
    # a pi2 pattern member at a point whose root witness has residual
    # 1.86e-9: the point is feasible, so the claimed witness is refuted
    member = Matrix([[7, 0, 0, 0, 0], [-2, -8, 0, 0, 0], [0, -9, -7, -6, 0],
                     [8, 0, 0, 15, 0], [-8, -3, 0, 4, -11]])
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps({
        "kind": "locaut_witness", "algebra": "pi2",
        "matrix": operator_to_payload(member),
        "point": ["0", "163787", "723238", "0", "44498"],
    }))
    assert run_cli("verify-counterexample", str(path)) == 1
    captured = capsys.readouterr()
    assert "did NOT reproduce" in captured.out
    assert captured.err == ""


def test_cli_replays_a_point_beyond_float_range(tmp_path, capsys):
    # the identity matches itself at every point, also beyond float range
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps({
        "kind": "locaut_witness", "algebra": "pi2",
        "matrix": operator_to_payload(Matrix.identity(5)),
        "point": ["0", str(10**400), "0", "0", "0"],
    }))
    assert run_cli("verify-counterexample", str(path)) == 1
    captured = capsys.readouterr()
    assert "did NOT reproduce" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("name, leaves", [("pi2", 10), ("pi3", 7)])
def test_cli_locaut_verify_names_the_proof(capsys, name, leaves):
    assert run_cli("locaut", "verify", "--algebra", name, "--format", "structured") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and "trials" not in payload
    assert payload["forward"].endswith(
        f"match an automorphism at every x over C, proved on the {leaves} "
        "leaves of the orbit solve")
    assert payload["reverse"].startswith(
        "every local automorphism is a member, proved from the ")
    assert run_cli("locaut", "verify", "--algebra", name) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pattern verification: True"
    assert lines[1] == f"forward proof: {payload['forward']}"
    assert lines[2] == f"reverse proof: {payload['reverse']}"
    assert len(lines) == 3


BUMP = operator_to_payload(Matrix(DIAG_BUMP))
MALFORMED_REPLAYS = [
    ({"kind": "pointwise", "algebra": "pi2"}, "matrix"),
    ({"kind": "criterion", "numbers": [1], "seed": "x"}, "seed"),
    ({"kind": "locaut_witness", "algebra": "pi3", "matrix": BUMP,
      "point": ["x", 0, 0, 0, 0]}, "point"),
    ({"kind": "span_membership", "algebra": "pi2", "matrix": BUMP}, "space"),
    ({"kind": "bridge_sample", "algebra": "pi3", "matrix": BUMP}, "direction"),
    ({"kind": "associativity_triple", "algebra": "pi2", "triple": 5}, "triple"),
    ({"kind": "leibniz_pair", "matrix": BUMP}, "algebra"),
]


@pytest.mark.parametrize("obj, field", MALFORMED_REPLAYS,
                         ids=[obj["kind"] for obj, _ in MALFORMED_REPLAYS])
def test_cli_replay_refuses_malformed_fields(tmp_path, capsys, obj, field):
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(obj))
    assert run_cli("verify-counterexample", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {obj['kind']} {field} must be "), err


def test_cli_replay_refuses_a_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "counterexample.json"
    path.write_text("{not json")
    assert run_cli("verify-counterexample", str(path)) == 2
    assert "is not JSON" in capsys.readouterr().err


TWO_BY_TWO = '{"dim": 2, "backend": "rational", "entries": [["1", "0"], ["0", "1"]]}'


def operator_text(dim, backend, entries):
    return json.dumps({"dim": dim, "backend": backend, "entries": entries})


def algebra_text(dim, i, j):
    return json.dumps({"name": "a", "dim": dim,
                       "products": [{"i": i, "j": j, "k": 2, "c": "1"}]})


IDENTITY_5 = [["1" if i == j else "0" for j in range(5)] for i in range(5)]
# the identity on C^5 with a NaN in its (1,1) entry
NAN_5 = [[["nan" if i == j == 0 else str(int(i == j)), "0"] for j in range(5)]
         for i in range(5)]


@pytest.mark.parametrize("command, text, message", [
    (("algebra", "check", "--algebra"), "{not json", "is not JSON"),
    (("der", "check", "--algebra", "pi2", "--matrix"), "{not json", "is not JSON"),
    (("der", "check", "--algebra", "pi2", "--matrix"),
     '{"dim": 5, "backend": "rational", "entries": 5}',
     "operator entries do not form a 5x5 grid"),
    # the LocDer space names the operator's shape, as Der's check does
    (("locder", "check", "--algebra", "pi2", "--matrix"), TWO_BY_TWO,
     "operator shape does not match the algebra"),
    (("der", "check", "--algebra", "pi2", "--matrix"), TWO_BY_TWO,
     "operator shape does not match the algebra"),
    # int() would read 5.9 as 5 and true as 1
    (("der", "check", "--algebra", "pi2", "--matrix"),
     operator_text(5.9, "rational", IDENTITY_5),
     "operator dim must be an integer, not 5.9"),
    (("der", "check", "--algebra", "pi2", "--matrix"),
     operator_text(True, "rational", [["1"]]),
     "operator dim must be an integer, not True"),
    (("aut", "check", "--algebra", "pi2", "--matrix"),
     operator_text(5, "complex", NAN_5), "bad complex entry: (nan+0j) is not finite"),
    # nor may an algebra file's dim or structure constant indices
    (("algebra", "check", "--algebra"), algebra_text(2.9, 1, 1),
     "algebra dim must be an integer, not 2.9"),
    (("algebra", "check", "--algebra"), algebra_text("2", 1, 1),
     "algebra dim must be an integer, not '2'"),
    (("algebra", "check", "--algebra"), algebra_text(2, 1.7, 1),
     "structure constant i must be an integer, not 1.7"),
    (("algebra", "check", "--algebra"), algebra_text(2, 1, True),
     "structure constant j must be an integer, not True"),
], ids=["algebra-not-json", "matrix-not-json", "matrix-int-entries",
        "locder-matrix-2x2", "der-matrix-2x2", "matrix-float-dim",
        "matrix-bool-dim", "complex-nan-entry", "algebra-float-dim",
        "algebra-string-dim", "algebra-float-index", "algebra-bool-index"])
def test_cli_refuses_a_malformed_input_file(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run_cli(*command, str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: "), err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ("der", "check", "--algebra", "pi2", "--matrix"),
    ("algebra", "check", "--algebra"),
    ("verify-counterexample",),
    ("suite", "--out"),
], ids=["der-matrix", "algebra", "replay", "suite-out"])
def test_cli_refuses_a_directory_path(tmp_path, command):
    # an OSError on any path is bad input (exit 2), not a failing verdict (1)
    proc = run_script(*command, str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error: "), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["pi2", "pi3"])
def test_cli_aut_family_verify_proves_closure(capsys, name):
    assert run_cli("aut", "family-verify", "--algebra", name,
                   "--format", "structured") == 0
    payload = json.loads(capsys.readouterr().out)
    assert "trials" not in payload
    assert payload["family_ok"] is True
    assert payload["closure_ok"] is True


def test_cli_report_geometry(capsys):
    assert run_cli("report", "geometry", "--algebra", "pi2") == 0
    out = capsys.readouterr().out
    assert "11" in out
    assert run_cli("report", "geometry", "--algebra", "pi3",
                   "--format", "structured") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lie_group"] is False
    assert payload["components"] == 2


def test_cli_infer(capsys):
    assert run_cli("infer", "--algebra", "pi3", "--format", "structured") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["validated"] is True
    assert payload["violations"] == []


def test_cli_input_errors(tmp_path, capsys):
    assert run_cli("der", "check", "--algebra", "pi2", "--matrix",
                   str(tmp_path / "missing.json")) == 2
    capsys.readouterr()
    assert run_cli("algebra", "check", "--algebra", "pi7") == 2


def test_cli_unsupported_is_exit_3(tmp_path, capsys):
    from locsym import save_algebra
    path = str(tmp_path / "zero.json")
    save_algebra(path, zero_algebra(3))
    assert run_cli("report", "geometry", "--algebra", path) == 3


def test_cli_a_file_gets_the_forms_of_its_structure(tmp_path, capsys, pi3):
    # pi3's products saved under the name "pi2" get pi3's answers
    from locsym import save_algebra
    from locsym.algebra import Algebra
    path = str(tmp_path / "mislabeled.json")
    save_algebra(path, Algebra(name="pi2", dim=5, table=pi3.table))
    assert run_cli("report", "geometry", "--algebra", path,
                   "--format", "structured") == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["dim"], payload["components"], payload["lie_group"]) == (
        7, 2, False
    )
    assert payload["algebra"] == "pi2"
    bump = str(tmp_path / "bump.json")
    save_operator(bump, Matrix([[1, 0, 0, 0, 0], [0, 2, 0, 0, 0],
                                [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                                [0, 0, 0, 0, 2]]))
    for spec in ("pi3", path):
        assert run_cli("locaut", "check", "--algebra", spec,
                       "--matrix", bump) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "command",
    [("report", "geometry"), ("locaut", "verify"), ("locaut", "check"),
     ("aut", "family-verify"), ("bridge",), ("infer",)],
    ids=" ".join,
)
def test_cli_a_changed_structure_is_unsupported(tmp_path, capsys, pi2, command):
    # pi2's products with e4 e4 = 2 e5, still named "pi2"
    from locsym import save_algebra
    from locsym.algebra import Algebra
    table = {**pi2.table, (3, 3): (0, 0, 0, 0, 2)}
    path = str(tmp_path / "changed.json")
    save_algebra(path, Algebra(name="pi2", dim=5, table=table))
    matrix = str(tmp_path / "identity.json")
    save_operator(matrix, Matrix.identity(5))
    extra = ("--matrix", matrix) if command == ("locaut", "check") else ()
    assert run_cli(*command, "--algebra", path, *extra) == 3
    err = capsys.readouterr().err
    assert err.startswith("unsupported:")
    assert "Traceback" not in err


def test_cli_log_minus_branch_is_numeric_obstruction(tmp_path, capsys):
    minus = str(tmp_path / "minus.json")
    rows = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, -1, 0, 0],
            [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    save_operator(minus, Matrix(rows))
    assert run_cli("log", "--algebra", "pi3", "--matrix", minus) == 3


def test_cli_exp_log_round_trip(tmp_path, capsys):
    nabla = str(tmp_path / "nabla.json")
    save_operator(nabla, Matrix([
        [1, 0, 0, 0, 0],
        [1, 2, 0, 0, 0],
        [1, 1, 3, 1, 0],
        [0, 0, 0, 1, 0],
        [1, 0, 0, 1, 2],
    ]))
    member = str(tmp_path / "member.json")
    assert run_cli("exp", "--algebra", "pi3", "--matrix", nabla,
                   "--out", member) == 0
    capsys.readouterr()
    assert run_cli("log", "--algebra", "pi3", "--matrix", member,
                   "--method", "structured") == 0
    out = capsys.readouterr().out
    assert "generator" in out.lower() or "log" in out.lower()


def test_cli_structured_log_needs_pi3(tmp_path, capsys):
    # structured recovery inverts pi3's pattern, so a pi3 member given
    # with another algebra is refused rather than answered
    member = str(tmp_path / "member.json")
    save_operator(member, LOCAL_AUTOMORPHISM_FORM_PI3_PLUS.instantiate_numeric(
        {"b11": 1.5, "b21": 0.25, "b31": -0.5, "b32": 0.75, "b34": 0.5,
         "b51": 1.0, "b54": -0.25}
    ), "complex")
    assert run_cli("log", "--algebra", "pi2", "--matrix", member,
                   "--method", "structured") == 3
    assert "--algebra pi3" in capsys.readouterr().err
    assert run_cli("log", "--algebra", "pi3", "--matrix", member,
                   "--method", "structured") == 0


def test_cli_bridge(capsys):
    # both directions are proofs on both builtins; log used to exist on pi3 only
    for name in ("pi2", "pi3"):
        assert run_cli("bridge", "--algebra", name, "--direction", "log") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"bridge log ({name}, proved exactly): True"
        assert lines[1].startswith("proof: over R, exp is a bijection from the real "
                                   "LocDer template T onto the real members")
    assert run_cli("bridge", "--algebra", "pi2", "--direction", "exp",
                   "--format", "structured") == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"schema", "command", "ok", "exit_code", "algebra",
                            "direction", "detail"}
    assert payload["detail"].startswith("the LocDer template T is lower-triangular")
    assert run_cli("bridge", "--algebra", "pi3", "--seed", "7") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "bridge exp (pi3, proved exactly): True"
    assert lines[1].endswith("its (3,3) deviation being 2*E_b11^3")


def leaf_commands(parser, path=()):
    """(command words, argv filling its required arguments) per subcommand."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        required = [
            word for a in parser._actions if a.required
            for word in ([a.option_strings[0], "x"] if a.option_strings else ["x"])
        ]
        return [(path, required)]
    return [leaf for name, sub in subs[0].choices.items()
            for leaf in leaf_commands(sub, path + (name,))]


@pytest.mark.parametrize("command, required", [
    pytest.param(command, required, id=" ".join(command))
    for command, required in leaf_commands(_build_parser())
])
def test_cli_trials_is_a_flag_of_the_sampling_commands_only(
    command, required, capsys
):
    # no command samples any more, so every one refuses a trial count
    assert run_cli(*command, *required, "--trials", "5") == 2
    assert "unrecognized arguments: --trials" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["-3", "0"])
@pytest.mark.parametrize("command", [("bridge",), ("aut", "family-verify"),
                                     ("locaut", "verify"), ("locaut", "witness")],
                         ids=" ".join)
def test_cli_trials_must_be_positive(command, trials, capsys):
    # these commands decide exactly and take no count at all, so a
    # non-positive one is refused as an unknown flag
    required = dict(leaf_commands(_build_parser()))[command]
    assert run_cli(*command, *required, "--algebra", "pi3", "--trials", trials) == 2
    assert "unrecognized arguments: --trials" in capsys.readouterr().err


def test_cli_locder_check_pins_the_refuting_point(tmp_path, capsys):
    # The point comes off a fixed grid on the first leaf that E12 breaks,
    # so every seed reports the same one, and it replays.
    e12 = str(tmp_path / "e12.json")
    save_operator(e12, Matrix([[0, 1, 0, 0, 0]] + [[0] * 5] * 4))
    reports = []
    for seed in ("0", "7"):
        assert run_cli("locder", "check", "--algebra", "pi2", "--matrix", e12,
                       "--seed", seed, "--format", "structured") == 1
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    counterexample = json.loads(reports[0])["counterexample"]
    assert counterexample["kind"] == "pointwise"
    assert counterexample["point"] == ["0", "1", "0", "1", "0"]
    path = tmp_path / "report.json"
    path.write_text(reports[0])
    assert run_cli("verify-counterexample", str(path)) == 0


def test_cli_locder_check_computes_locder_once(tmp_path, capsys, monkeypatch):
    import locsym.cli
    import locsym.local_derivations

    calls = {"local_derivation_space": 0, "derivation_algebra": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(locsym.cli, "local_derivation_space")
    count(locsym.cli, "derivation_algebra")
    count(locsym.local_derivations, "derivation_algebra")
    e12 = str(tmp_path / "e12.json")
    save_operator(e12, Matrix([[0, 1, 0, 0, 0]] + [[0] * 5] * 4))
    assert run_cli("locder", "check", "--algebra", "pi2", "--matrix", e12) == 1
    assert "counterexample" in capsys.readouterr().out
    assert calls["local_derivation_space"] == 1
    assert calls["derivation_algebra"] == 1


def test_cli_log_bridge_sample_replays_through_the_round_trip(tmp_path, capsys):
    # a plus-branch member recovers its logarithm, so the recorded
    # bridge failure does not reproduce
    member = LOCAL_AUTOMORPHISM_FORM_PI3_PLUS.instantiate_numeric(
        {"b11": 1.5, "b21": 0.25, "b31": -0.5, "b32": 0.75, "b34": 0.5,
         "b51": 1.0, "b54": -0.25}
    )
    path = tmp_path / "sample.json"
    path.write_text(json.dumps({
        "kind": "bridge_sample", "algebra": "pi3", "direction": "log",
        "matrix": operator_to_payload(member, "complex"),
    }))
    assert run_cli("verify-counterexample", str(path)) == 1
    assert "did NOT reproduce" in capsys.readouterr().out


def test_cli_pattern_residual_is_emitted_and_replayed(tmp_path, capsys):
    # a complex-backend operator off pi2's pattern (b44 = b41 + b11 fails
    # by 2) is checked numerically; its counterexample replays, and an
    # operator on the pattern does not reproduce it
    off = tmp_path / "off.json"
    save_operator(str(off), [[complex(3 if i == j == 3 else i == j) for j in range(5)]
                             for i in range(5)], "complex")
    assert run_cli("locaut", "check", "--algebra", "pi2", "--matrix", str(off),
                   "--format", "structured") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] == pytest.approx(2.0) and not payload["ok"]
    counterexample = payload["counterexample"]
    assert counterexample["kind"] == "pattern_residual"
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(counterexample))
    assert run_cli("verify-counterexample", str(path)) == 0
    assert "the numeric pattern residual exceeds tol" in capsys.readouterr().out
    on = dict(counterexample, matrix=operator_to_payload(
        [[complex(i == j) for j in range(5)] for i in range(5)], "complex"))
    path.write_text(json.dumps(on))
    assert run_cli("verify-counterexample", str(path)) == 1
    assert "did NOT reproduce" in capsys.readouterr().out


def test_cli_structured_reports_are_deterministic(capsys):
    argv = ("locder", "witness", "--algebra", "pi2", "--seed", "9",
            "--format", "structured")
    assert run_cli(*argv) in (0, 1)
    first = capsys.readouterr().out
    run_cli(*argv)
    second = capsys.readouterr().out
    assert first == second
    # the witness is proved, not sampled, so no check count is reported
    assert "checks" not in json.loads(first)


# -- console script wiring: python -m locsym in a subprocess -------------------------

def test_console_script_targets_cli_main():
    # Read as text: tomllib needs Python 3.11 and the project allows 3.10.
    text = PYPROJECT.read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert 'locsym = "locsym.cli:main"' in scripts.splitlines()


def test_script_algebra_check():
    proc = run_script("algebra", "check", "--algebra", "pi2")
    assert proc.returncode == 0
    assert "associative" in proc.stdout.lower()


def test_script_usage_error_is_exit_2():
    proc = run_script("der", "nonsense")
    assert proc.returncode == 2


@pytest.mark.parametrize("command, name", [("locaut", "pi3"), ("aut", "pi2")])
def test_script_wrong_size_complex_operator_is_exit_2(tmp_path, command, name):
    # a 4x4 complex operator against a five-dimensional algebra is bad
    # input on the float path too, as it is on the rational path
    path = str(tmp_path / "small.json")
    save_operator(path, [[complex(i == j) for j in range(4)] for i in range(4)],
                  "complex")
    proc = run_script(command, "check", "--algebra", name, "--matrix", path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_script_locder_refuses_a_pivot_that_does_not_split(tmp_path, dense_pi3):
    from locsym import save_algebra
    path = str(tmp_path / "dense.json")
    save_algebra(path, dense_pi3)
    proc = run_script("locder", "basis", "--algebra", path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("unsupported: pivot does not split")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("numbers", [[12], [0], ["2"]], ids=str)
def test_script_criterion_replay_refuses_bad_numbers(tmp_path, numbers):
    path = tmp_path / "criterion.json"
    path.write_text(json.dumps({"kind": "criterion", "numbers": numbers}))
    proc = run_script("verify-counterexample", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error: criterion numbers")
    assert "Traceback" not in proc.stderr


def test_import_leaves_numpy_unloaded():
    # only the float kernels of expbridge need numpy; they import it late
    proc = run_python(
        "-c", "import sys, locsym, locsym.cli; print('numpy' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_script_env_seed_matches_flag():
    # the suite report is the one that carries its seed
    via_flag = run_script("suite", "--seed", "21", "--format", "structured")
    via_env = run_script("suite", "--format", "structured",
                         env={"LOCSYM_SEED": "21"})
    assert via_flag.returncode == via_env.returncode == 0
    assert json.loads(via_flag.stdout)["seed"] == 21
    assert via_flag.stdout == via_env.stdout
