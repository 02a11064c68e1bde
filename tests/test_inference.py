"""Shape inference from template occurrence patterns, with validation."""

import json
from dataclasses import replace

from locsym import (
    builtin,
    closed_forms,
    infer_shape,
    validate_prediction,
)
from locsym import templates
from locsym.cli import main
from locsym.inference import ShapePrediction
from locsym.poly import poly
from locsym.templates import MatrixTemplate


def derivation_prediction(name):
    return infer_shape(closed_forms(builtin(name)).derivation)


# -- predicted relations -------------------------------------------------------

def test_equal_pairs():
    # the two equal-parameter diagonal pairs exist only where the dropped
    # product makes the cross entries vanish
    assert derivation_prediction("pi3").equal_pairs == (
        ((1, 1), (4, 4)),
        ((2, 2), (5, 5)),
    )
    assert derivation_prediction("pi2").equal_pairs == ()


def test_diagonal_window_fires_for_both_algebras():
    # the chain rule marks the leading diagonal entries pairwise distinct
    for name in ("pi2", "pi3"):
        pred = derivation_prediction(name)
        assert ((1, 1), (2, 2)) in pred.independent_pairs
        assert ((1, 1), (3, 3)) in pred.independent_pairs
        assert ((2, 2), (3, 3)) in pred.independent_pairs


def test_zero_sets_match_the_computed_forms():
    for name in ("pi2", "pi3"):
        pred = derivation_prediction(name)
        expected = {
            (i + 1, j + 1)
            for i, j in closed_forms(builtin(name)).local_derivation.zero_positions()
        }
        assert set(pred.zero_set) == expected
    assert len(derivation_prediction("pi2").zero_set) == 12
    assert len(derivation_prediction("pi3").zero_set) == 14


def test_pair_classification_is_a_partition():
    for name in ("pi2", "pi3"):
        pred = derivation_prediction(name)
        zero = set(pred.zero_set)
        nonzero = [
            (i, j) for i in range(1, 6) for j in range(1, 6)
            if (i, j) not in zero
        ]
        universe = {
            (p, q)
            for a, p in enumerate(nonzero)
            for q in nonzero[a + 1:]
        }
        equal = set(pred.equal_pairs)
        indep = set(pred.independent_pairs)
        undet = set(pred.undetermined)
        assert equal | indep | undet == universe
        assert not (equal & indep) and not (equal & undet)
        assert not (indep & undet)


def test_classified_pair_counts():
    p2 = derivation_prediction("pi2")
    p3 = derivation_prediction("pi3")
    assert (len(p2.independent_pairs), len(p2.undetermined)) == (31, 47)
    assert (len(p3.independent_pairs), len(p3.undetermined)) == (25, 28)


# -- validation against the computed spaces ---------------------------------------

def test_predictions_validate(loc2, loc3):
    for name, space in (("pi2", loc2), ("pi3", loc3)):
        report = validate_prediction(derivation_prediction(name), space)
        assert report.ok, report.violations


def test_false_equality_claim_is_refuted(loc2):
    pred = derivation_prediction("pi2")
    corrupted = ShapePrediction(
        dim=pred.dim,
        zero_set=pred.zero_set,
        equal_pairs=(((1, 1), (2, 1)),),   # b11 and b21 vary independently
        independent_pairs=(),
        undetermined=(),
    )
    report = validate_prediction(corrupted, loc2)
    assert not report.ok
    assert report.violations


def test_false_zero_claim_is_refuted(loc2):
    pred = derivation_prediction("pi2")
    corrupted = ShapePrediction(
        dim=pred.dim,
        zero_set=pred.zero_set + ((1, 1),),   # b11 is certainly not forced zero
        equal_pairs=(),
        independent_pairs=(),
        undetermined=(),
    )
    assert not validate_prediction(corrupted, loc2).ok


def test_wrong_dimension_is_refuted(loc3):
    pred = derivation_prediction("pi3")
    corrupted = ShapePrediction(
        dim=pred.dim + 1,
        zero_set=pred.zero_set,
        equal_pairs=pred.equal_pairs,
        independent_pairs=pred.independent_pairs,
        undetermined=pred.undetermined,
    )
    assert not validate_prediction(corrupted, loc3).ok


# -- degenerate templates ------------------------------------------------------------

def test_zero_template_predicts_nothing():
    t = MatrixTemplate(dim=2, params=(), entries=(
        (poly("0"), poly("0")), (poly("0"), poly("0")),
    ))
    pred = infer_shape(t)
    assert pred.dim == 2   # matrix dimension, not parameter count
    assert set(pred.zero_set) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert pred.equal_pairs == ()
    assert pred.independent_pairs == ()
    assert pred.undetermined == ()


def test_to_dict_round_trips_the_prediction():
    pred = derivation_prediction("pi3")
    d = pred.to_dict()
    assert d["dim"] == pred.dim
    assert len(d["zero_set"]) == len(pred.zero_set)
    assert len(d["equal_pairs"]) == 2


def test_a_failed_validation_emits_an_inference_violation_that_replays(
    monkeypatch, tmp_path, capsys
):
    # pi3's Der template with its (3,2) entry 2*a21 dropped: rule 0 then
    # predicts b32 = 0, which the computed LocDer refutes
    pi3 = builtin("pi3")
    forms = closed_forms(pi3)
    rows = [list(row) for row in forms.derivation.entries]
    rows[2][1] = poly("0")
    with monkeypatch.context() as patch:
        patch.setitem(templates._CLOSED_FORMS, pi3.structure, replace(
            forms, derivation=replace(forms.derivation, entries=tuple(map(tuple, rows)))))
        assert main(["infer", "--algebra", "pi3", "--format", "structured"]) == 1
        report = json.loads(capsys.readouterr().out)
        counterexample = report["counterexample"]
        assert counterexample["kind"] == "inference_violation"
        assert "b32 is not forced zero on the space" in counterexample["violations"]
        path = tmp_path / "counterexample.json"
        path.write_text(json.dumps(counterexample))
        assert main(["verify-counterexample", str(path)]) == 0
        assert "reproduced" in capsys.readouterr().out
    # with the closed form restored the prediction validates again
    assert main(["verify-counterexample", str(path)]) == 1
    assert "did NOT reproduce" in capsys.readouterr().out
