import json
import math
import sys
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from lie2 import kacmoody, models, replay, su2grid, suites, twogroups
from lie2.cli import _config_from_args, _parser, main
from lie2.liealg import InputError
from lie2.linfty import random_elements
from lie2.paths import CentralVector, PolyPath
from lie2.replay import replay_report, replay_suite
from lie2.suites import (
    REGISTRY,
    RunConfig,
    describe,
    report_json,
    run,
    strip_wall_time,
)
from lie2.worstcase import trial

FAST = ["--trials", "5", "--nt", "32", "--ntheta", "32"]
POLYNOMIAL_SUITES = ("gk-jacobi", "pkg-jacobi", "phi-hom", "psi-hom", "lambda-hom",
                     "tau-2hom", "equivalence", "omega-cocycle", "extended-jacobi",
                     "dalpha-action")


def test_verify_single_suite_strict_level(capsys):
    code = main(["verify", "--suite", "gk-jacobi", "--k", "0", *FAST])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_low_degree_is_config_error(capsys):
    code = main(["verify", "--suite", "exactness", "--degree", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_verify_degree_past_the_bound_is_config_error(capsys):
    # exactness ranks every degree up to --degree; past MAX_DEGREE it would
    # run for minutes, so the config is refused before any suite runs
    RunConfig(degree=suites.MAX_DEGREE).validate()
    code = main(["verify", "--suite", "exactness", "--degree", "65"])
    assert code == 2
    assert "error: polynomial degree must lie in [2, 64], got 65" in capsys.readouterr().err


def test_verify_splitting_past_the_degree_bound_is_config_error(capsys):
    # psi-hom brackets paths of the splitting's degree d, whose memory grows
    # as d^3, so a splitting of degree past MAX_DEGREE is refused too
    def splitting(count):
        return ",".join(["0"] * (count - 1) + ["1"])
    RunConfig(splitting=splitting(suites.MAX_DEGREE + 1)).validate()
    code = main(["verify", "--suite", "psi-hom", "--splitting", splitting(66)])
    assert code == 2
    assert ("error: the splitting takes at most 65 coefficients (degree 64), got 66"
            in capsys.readouterr().err)


def test_verify_grid_past_the_bound_is_config_error(capsys):
    # the three quadrature suites take up to about 11 s at MAX_GRID_POINTS, and
    # the time grows with the grid, so a larger one is refused before any sampling
    for nt, ntheta in [(40, 16385), (768, 768), (2048, 2048), (2895, 2895), (254, 32768)]:
        RunConfig(nt=nt, ntheta=ntheta).validate()
    with pytest.raises(InputError, match="must not exceed 8388608, got 8388612"):
        RunConfig(nt=8, ntheta=932067).validate()
    with pytest.raises(InputError, match="ntheta must not exceed 32768, got 932066"):
        RunConfig(nt=8, ntheta=932066).validate()
    code = main(["verify", "--suite", "kappa-cocycle", "--nt", "4096", "--ntheta", "4096"])
    assert code == 2
    assert "error: grid too large" in capsys.readouterr().err


def test_verify_ntheta_past_the_bound_is_config_error(capsys):
    # the kappa suites' memory grows with ntheta whatever nt is, so a finer
    # theta grid is refused even where the grid has few points
    RunConfig(nt=8, ntheta=suites.MAX_NTHETA).validate()
    code = main(["verify", "--suite", "kappa-cocycle", "--nt", "8", "--ntheta", "32769"])
    assert code == 2
    assert "error: ntheta must not exceed 32768, got 32769" in capsys.readouterr().err


@pytest.mark.parametrize("form_scale", ["2", "0.5", "3"])
def test_default_suites_pass_at_other_form_scales(capsys, su2_file, form_scale):
    # the quadrature suites read no form, and the polynomial ones size each
    # residual by the terms its law cancels
    assert main(["verify", "--algebra", su2_file(float(form_scale))]) == 0
    assert "17/17 suites passed" in capsys.readouterr().out


def test_quadrature_residuals_read_neither_the_level_nor_the_form(su2_file):
    # each quadrature suite reports its defect at unit level in the grid's X
    # pairing, so its residual is the same bits at every level and on every
    # form c I, also where c is no power of 2
    def residuals(**config):
        report = run(RunConfig(nt=64, ntheta=64, suites=suites.GRID_SUITES, **config))
        return [s["max_residual"] for s in report["suites"]]

    unit = residuals()
    assert all(r > 0.0 for r in unit)
    for k in (0.0, 1.0, -4.0, 1e9):
        assert residuals(k=k) == unit
    for k, c in [(-4.0, 2.0), (-4.0, 0.5), (-4.0, 3.0),
                 (0.5, 2.0), (2.0, 0.5), (-4.0, 0.25), (1.0, 3.0)]:
        assert residuals(algebra=su2_file(c), k=k) == unit


@pytest.mark.parametrize("flags", [["--k", "0"], ["--k", "1e-3"], ["--degree", "2"],
                                   ["--k", "1e9"]], ids=lambda flags: "=".join(flags)[2:])
def test_every_suite_passes_off_the_defaults(capsys, tmp_path, flags):
    # no check has a factor k in its defect: at k = 0 the quadrature defects
    # are still nonzero, and every control still breaks its laws
    path = tmp_path / "r.json"
    assert main(["verify", *flags, "--report", str(path)]) == 0
    assert "17/17 suites passed" in capsys.readouterr().out
    for entry in json.loads(path.read_text())["suites"]:
        if entry["name"] in suites.GRID_SUITES:
            assert entry["max_residual"] > 0.0
        if REGISTRY[entry["name"]].mutant:
            assert entry["details"]["mutation_residual"] > entry["details"]["mutation_floor"]


def test_quadrature_suites_refuse_a_bracket_other_than_su2s(capsys):
    # sl2's bracket is not su(2)'s, so the SU(2) grid does not sample its group
    code = main(["verify", "--algebra", "sl2", "--suite", "kappa-cocycle"])
    assert code == 2
    assert "the bracket of sl2 is not su(2)'s epsilon table" in capsys.readouterr().err


def test_quadrature_suites_refuse_an_abelian_algebra(capsys, tmp_path):
    # the grid samples SU(2), so its verdicts would say nothing of the file
    path = tmp_path / "abelian3.json"
    path.write_text(json.dumps({"name": "abelian3", "dim": 3, "structure": []}))
    code = main(["verify", "--algebra", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "Traceback" not in err
    assert "the bracket of abelian3 is not su(2)'s epsilon table" in err
    assert main(["verify", "--algebra", str(path), "--suite", "gk-jacobi"]) == 0


def test_a_bracket_other_than_su2s_is_refused_before_any_suite_runs(capsys):
    # the default suite list includes the quadrature suites
    code = main(["verify", "--algebra", "sl2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert ("kappa-cocycle, ad-omega and kappa-conjugation sample SU(2): "
            "the bracket of sl2 is not su(2)'s epsilon table") in err


@pytest.mark.parametrize("flags", [["--k", "1e308"], ["--k=-2e12"],
                                   ["--k", "1e13"], ["--k", "-1.0000001e12"]])
def test_level_float64_cannot_judge_is_config_error(capsys, flags):
    # at --k 1e308 the level-k terms overflow and the residuals read NaN
    code = main(["verify", *flags])
    assert code == 2
    assert "must not exceed 1e+12" in capsys.readouterr().err


# (k, form scale c) corners up to the level bound, the form c I read from an
# algebra file; (1, 1e6) is test_polynomial_suites_pass_at_a_large_form_scale's
LEVEL_CORNERS = [(1e12, 1.0), (-1e12, 1.0), (-1e6, 1e6), (1e12, 0.5), (1e9, 1e-3), (-1e9, 1e-3),
                 (1e9, 1.0)]


@pytest.mark.parametrize("k, form_scale", [*LEVEL_CORNERS, (1.0, 1e6)])
def test_levels_up_to_the_bound_are_accepted(su2_file, k, form_scale):
    RunConfig(algebra=su2_file(form_scale), k=k).validate()


@pytest.mark.parametrize("k, form_scale", LEVEL_CORNERS)
def test_polynomial_suites_pass_at_levels_up_to_the_bound(su2_file, k, form_scale):
    # each residual is sized by the terms its law cancels, which grow with
    # |k| and the form, so a level the bound admits reads roundoff
    report = run(RunConfig(algebra=su2_file(form_scale), k=k, suites=POLYNOMIAL_SUITES))
    assert [s["name"] for s in report["suites"] if not s["passed"]] == []
    assert report["summary"]["passed"] == 10


@pytest.mark.parametrize("tol_exact, passed", [(1e-10, 1), (1e-300, 0)])
def test_summary_counts_the_suites_that_passed_and_failed(tol_exact, passed):
    report = run(RunConfig(tol_exact=tol_exact, trials=5, suites=("gk-jacobi",)))
    assert report["suites"][0]["passed"] == bool(passed)
    summary = report["summary"]
    assert (summary["total"], summary["passed"], summary["failed"]) == (1, passed, 1 - passed)
    assert summary["all_passed"] == bool(passed)


@pytest.mark.parametrize("flag, value", [("--k", "nan"), ("--k", "inf"),
                                         ("--tol-quad", "nan")])
def test_non_finite_config_is_config_error(capsys, flag, value):
    code = main(["verify", "--suite", "gk-jacobi", flag, value, *FAST])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--k", "-1e12"], ["--k", "-.5e3"]])
def test_negative_numbers_with_an_exponent_are_values(capsys, flags):
    assert main(["verify", "--suite", "gk-jacobi", *flags, *FAST]) == 0
    assert "PASS" in capsys.readouterr().out


def test_the_form_scale_flag_is_gone(capsys):
    # a non-unit form comes from the algebra file; the level is k alone
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--form-scale", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --form-scale 2" in capsys.readouterr().err


def test_verify_report_to_an_unwritable_path_is_an_input_error(tmp_path, capsys):
    report_path = tmp_path / "missing" / "r.json"
    assert main(["verify", "--suite", "gk-jacobi", "--report", str(report_path), *FAST]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write report {report_path}: ")
    assert "Traceback" not in err


def test_a_negative_tolerance_reaches_config_validation(capsys):
    assert main(["verify", "--suite", "gk-jacobi", "--tol-exact", "-1e-3"]) == 2
    assert "error: tolerances must be positive" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    code = main(["verify", "--suite", "nonesuch"])
    assert code == 2


def test_verify_refuses_an_unknown_suite_beside_all(capsys):
    # every name is checked before "all" expands, so no suite runs
    code = main(["verify", "--suite", "all", "--suite", "bogus", "--suite", "bogus"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: unknown suites: bogus\n"


def test_verify_runs_a_repeated_suite_once_in_first_given_order(capsys, tmp_path):
    path = tmp_path / "r.json"
    assert main(["verify", "--suite", "gk-jacobi", "--suite", "gk-jacobi",
                 "--report", str(path), *FAST]) == 0
    assert "1/1 suites passed" in capsys.readouterr().out
    assert [s["name"] for s in json.loads(path.read_text())["suites"]] == ["gk-jacobi"]
    names = ("phi-hom", "gk-jacobi", "phi-hom", "exactness", "gk-jacobi")
    assert RunConfig(suites=names).resolve_suites() == ["phi-hom", "gk-jacobi", "exactness"]


def test_verify_unknown_algebra(capsys):
    code = main(["verify", "--suite", "gk-jacobi", "--algebra", "e8"])
    assert code == 2


def test_verify_bad_splitting(capsys):
    code = main(["verify", "--suite", "psi-hom", "--splitting", "0,2"])
    assert code == 2


def test_verify_rejects_a_non_finite_splitting(capsys):
    code = main(["verify", "--suite", "psi-hom", "--splitting", "nan,nan"])
    assert code == 2
    assert "splitting function [nan, nan] has non-finite coefficients" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0.5", "0.0397887"])
def test_a_non_integral_level_draws_no_warning(capsys, k):
    # whether the group extension exists at level k depends on the form's
    # normalization: at su2's unit form it exists where 8 pi k is an integer,
    # as at k = 1/(8 pi) = 0.0397887, and not at k = 1, so the level is not
    # judged by whether it is an integer
    code = main(["verify", "--suite", "gk-jacobi", "--k", k, *FAST])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_describe_known_suites(capsys):
    assert main(["describe", "tau-2hom"]) == 0
    out = capsys.readouterr().out
    assert "homotopy" in out and "l2(tau x" in out
    assert main(["describe", "omega-cocycle"]) == 0
    assert "cocycle" in capsys.readouterr().out


def test_describe_unknown_suite(capsys):
    assert main(["describe", "nonesuch"]) == 2


def test_describe_covers_registry():
    for name in REGISTRY:
        assert describe(name).startswith(name)


def test_report_written_and_failures_replayable(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    # an absurd tolerance forces a residual failure (exit 1) with a witness
    code = main([
        "verify", "--suite", "omega-cocycle", "--tol-exact", "1e-30",
        "--report", str(report_path), *FAST,
    ])
    assert code == 1
    doc = json.loads(report_path.read_text())
    entry = doc["suites"][0]
    assert entry["passed"] is False
    assert entry["witness"] is not None

    rows = replay_report(report_path)
    assert rows and rows[0][0] == "omega-cocycle"
    # the recorded worst case reproduces the reported residual exactly
    assert rows[0][1] == pytest.approx(entry["max_residual"], rel=1e-12)

    assert main(["replay", "--report", str(report_path)]) == 0
    assert "omega-cocycle" in capsys.readouterr().out


def test_replay_covers_every_witness_family(tmp_path):
    # forcing an impossible tolerance makes every suite record a witness;
    # each must deserialize against a freshly loaded algebra and reproduce
    # the reported residual
    report_path = tmp_path / "forced.json"
    main([
        "verify", "--tol-exact", "1e-30", "--tol-quad", "1e-30",
        "--suite", "gk-jacobi", "--suite", "pkg-jacobi",
        "--suite", "phi-hom", "--suite", "psi-hom", "--suite", "lambda-hom",
        "--suite", "tau-2hom", "--suite", "equivalence", "--suite", "omega-cocycle",
        "--suite", "extended-jacobi", "--suite", "dalpha-action",
        "--suite", "kappa-cocycle", "--suite", "ad-omega",
        "--suite", "kappa-conjugation",
        "--report", str(report_path), *FAST,
    ])
    doc = json.loads(report_path.read_text())
    witnessed = {s["name"]: s for s in doc["suites"] if s["witness"]}
    assert len(witnessed) == 13
    for name, residual, _ in replay_report(report_path):
        assert residual == pytest.approx(witnessed[name]["max_residual"], rel=1e-12)


def _elements(doc):
    if isinstance(doc, list):
        for x in doc:
            yield from _elements(x)
    else:
        yield doc
        if doc["type"] == "central":
            yield from _elements(doc["loop"])


def _poison(value, bad):
    """The same nesting with its first number replaced by ``bad``."""
    return [_poison(value[0], bad), *value[1:]] if isinstance(value, list) else bad


@pytest.mark.parametrize("suite, element_type, key, bad", [
    ("omega-cocycle", "path", "coeffs", math.nan), ("extended-jacobi", "central", "c", math.inf),
    ("kappa-cocycle", "vector", "value", math.nan), ("psi-hom", "real", "value", -math.inf),
    ("omega-cocycle", "path", "coeffs", "x")])
def test_replay_rejects_non_finite_witness_numbers(tmp_path, capsys, suite,
                                                   element_type, key, bad):
    report_path = tmp_path / "forced.json"
    main(["verify", "--suite", suite, "--tol-exact", "1e-300", "--tol-quad", "1e-300",
          "--report", str(report_path), *FAST])
    doc = json.loads(report_path.read_text())
    inputs = doc["suites"][0]["witness"]["inputs"]
    element = next(e for e in _elements(inputs) if e["type"] == element_type)
    element[key] = _poison(element[key], bad)
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(report_path)]) == 2
    assert "error: witness" in capsys.readouterr().err


def test_replay_rejects_a_free_path_witness(tmp_path, capsys):
    # every path is based, so "free" is an unknown kind
    report_path = tmp_path / "forced.json"
    main(["verify", "--suite", "omega-cocycle", "--tol-exact", "1e-300",
          "--report", str(report_path), *FAST])
    doc = json.loads(report_path.read_text())
    next(_elements(doc["suites"][0]["witness"]["inputs"]))["kind"] = "free"
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(report_path)]) == 2
    assert "unknown path kind 'free'" in capsys.readouterr().err


@pytest.mark.parametrize("loop", [[], {"type": "real", "value": 0.0}])
def test_replay_rejects_a_central_witness_whose_loop_is_not_a_path(tmp_path, capsys, loop):
    report_path = tmp_path / "forced.json"
    main(["verify", "--suite", "extended-jacobi", "--tol-exact", "1e-300",
          "--report", str(report_path), *FAST])
    doc = json.loads(report_path.read_text())
    next(e for e in _elements(doc["suites"][0]["witness"]["inputs"])
         if e["type"] == "central")["loop"] = loop
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(report_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: witness central element's loop ") and "Traceback" not in err


@pytest.mark.parametrize("suite, position", [("kappa-cocycle", 2), ("kappa-conjugation", 0),
                                             ("kappa-conjugation", 1)])
def test_replay_refuses_oversized_grid_fixture_coefficients(tmp_path, capsys, suite, position):
    # 1e200 is finite, so the report reader takes it; the fixture refuses it
    # where its coefficients enter, before |v|^2 could overflow in exp_su2
    report_path = tmp_path / "forced.json"
    main(["verify", "--suite", suite, "--tol-quad", "1e-30", "--report", str(report_path),
          *FAST])
    doc = json.loads(report_path.read_text())
    element = doc["suites"][0]["witness"]["inputs"][position]
    element["value"] = _poison(element["value"], 1e200)
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["replay", "--report", str(report_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "coefficients must be finite and at most" in err


@pytest.mark.parametrize("splitting, code", [([0.0, 1.0] + [0.0] * 7, 0),
                                             ([0.5, 0.5] + [0.0] * 7, 2),
                                             ([0.0, 2.0] + [0.0] * 7, 2)],
                         ids=["admissible", "not-0-at-0", "not-1-at-2pi"])
def test_replay_refuses_a_non_admissible_splitting_in_a_universality_witness(
        tmp_path, capsys, splitting, code):
    # the suite draws admissible splittings by construction, so the universal
    # integral does not check them; replay checks a witness's where it enters
    report_path = tmp_path / "forced.json"
    main(["verify", "--suite", "equivalence", "--tol-exact", "1e-300",
          "--report", str(report_path), *FAST])
    doc = json.loads(report_path.read_text())
    doc["suites"][0]["witness"] = {"component": suites.UNIVERSALITY, "inputs": [
        {"type": "name", "value": suites.UNIVERSALITY}, {"type": "vector", "value": splitting}]}
    # the entry's maximum is that witness's residual, which replay must reproduce
    doc["suites"][0]["max_residual"] = models.splitting_deviation(np.array(splitting))
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(report_path)]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("error: splitting function must ")
    else:
        assert out.startswith("equivalence: replayed residual")


@pytest.fixture(scope="module")
def failing_report(tmp_path_factory):
    """A report whose gk-jacobi and omega-cocycle entries hold witnesses that
    replay."""
    report_path = tmp_path_factory.mktemp("replay") / "failing.json"
    assert main(["verify", "--suite", "gk-jacobi", "--suite", "omega-cocycle",
                 "--tol-exact", "1e-300", "--report", str(report_path), *FAST]) == 1
    assert [name for name, _, _ in replay_report(report_path)] == ["gk-jacobi", "omega-cocycle"]
    return report_path.read_text()


def _witness(doc, entry):
    return doc["suites"][entry]["witness"]


def _first_int(inputs):
    return next(e for e in _elements(inputs) if e["type"] == "int")


MALFORMED = {
    "unreported component": lambda d: _witness(d, 0).update(component="nonesuch"),
    "details as component": lambda d: _witness(d, 0).update(component="details"),
    "element without type": lambda d: next(_elements(_witness(d, 1)["inputs"])).pop("type"),
    "int that is not one": lambda d: _first_int(_witness(d, 0)["inputs"]).update(value="x"),
    "real that is a list": lambda d: _first_int(_witness(d, 0)["inputs"]).update(
        type="real", value=[1.0, 2.0]),
    "vector of the wrong length": lambda d: next(
        e for e in _elements(_witness(d, 0)["inputs"]) if e["type"] == "vector"
    ).update(value=[1.0, 2.0]),
    "level not a number": lambda d: d["config"].update(k="abc"),
    "trials as a string": lambda d: d["config"].update(trials="5"),
    "level past float64": lambda d: d["config"].update(k=10**400),
    "unknown config entry": lambda d: d["config"].update(colour="red"),
    "no omega-cocycle inputs": lambda d: _witness(d, 1).update(inputs=[]),
    "entry without a name": lambda d: d["suites"][0].pop("name"),
    "suites as an object": lambda d: d.update(suites={"gk-jacobi": d["suites"][0]}),
    "config suites as a string": lambda d: d["config"].update(suites="omega-cocycle"),
    "witness as a list": lambda d: d["suites"][1].update(witness=[]),
    "witnessed entry without max_residual": lambda d: d["suites"][0].pop("max_residual"),
    "max_residual as a string": lambda d: d["suites"][1].update(max_residual="0.1"),
    "path without coefficients": lambda d: next(
        e for e in _elements(_witness(d, 1)["inputs"]) if e["type"] == "path"
    ).update(coeffs=[[], [], []]),
}


@pytest.mark.parametrize("tamper", MALFORMED.values(), ids=MALFORMED.keys())
def test_replay_of_a_malformed_report_exits_2(failing_report, tmp_path, capsys, tamper):
    doc = json.loads(failing_report)
    tamper(doc)
    report_path = tmp_path / "tampered.json"
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(report_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _replay_with_witness(tmp_path, capsys, suite, witness) -> tuple[int, str]:
    """Exit code and stderr of replaying a report of ``suite`` whose witness is
    ``witness``."""
    report_path = tmp_path / "older.json"
    main(["verify", "--suite", suite, "--tol-exact", "1e-300",
          "--report", str(report_path), *FAST])
    doc = json.loads(report_path.read_text())
    doc["suites"][0]["witness"] = witness
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    return main(["replay", "--report", str(report_path)]), capsys.readouterr().err


def _one_trial(*spaces) -> list:
    return list(trial(next(random_elements(np.random.default_rng(3), 1, spaces)), 0))


def test_replay_refuses_an_older_dalpha_action_witness_with_two_paths(tmp_path, capsys):
    # older reports drew (p1, p2, loop, v, w) for an action component that
    # pkg-jacobi's signature (0, 0, 1) now checks
    bundle = RunConfig().models
    pkg = bundle.pkg
    inputs = _one_trial(pkg.space0, pkg.space0, bundle.el.space0, pkg.space1, pkg.space1)
    code, err = _replay_with_witness(tmp_path, capsys, "dalpha-action", {
        "component": "action", "inputs": replay.serialize_element(inputs)})
    assert code == 2
    assert err == "error: witness inputs do not have the form of a trial of dalpha-action\n"


def test_replay_refuses_an_older_retraction_witness(tmp_path, capsys):
    # older reports checked the retraction homotopy in equivalence too; it
    # is tau-2hom's
    pkg = RunConfig().models.pkg
    inputs = ["retraction", *_one_trial(pkg.space0, pkg.space0, pkg.space1)]
    code, err = _replay_with_witness(tmp_path, capsys, "equivalence", {
        "component": "retraction", "inputs": replay.serialize_element(inputs)})
    assert code == 2
    assert err == "error: witness inputs do not have the form of a trial of equivalence\n"


@pytest.mark.parametrize("degree, code", [(5, 0), (1, 2), (7, 2)])
def test_an_exactness_witness_replays_its_own_degree(tmp_path, capsys, degree, code):
    # a hand-written report at --degree 6: replay ranks every degree up to 6
    # once and reads the witness's record; 1 and 7 are not degrees the suite
    # checks there
    report_path = tmp_path / "exactness.json"
    report_path.write_text(json.dumps({
        "version": 1, "config": {"degree": 6, "suites": ["exactness"]},
        "suites": [{"name": "exactness", "max_residual": 0.0, "witness": {
            "component": "exactness", "inputs": {"type": "int", "value": degree}}}]}))
    assert main(["replay", "--report", str(report_path)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert (out, err) == ("exactness: replayed residual 0.000000e+00\n", "")
    else:
        assert err == "error: witness inputs do not have the form of a trial of exactness\n"


def test_equivalence_failure_records_a_replayable_witness(tmp_path):
    report_path = tmp_path / "equivalence.json"
    code = main(["verify", "--suite", "equivalence", "--tol-exact", "1e-300",
                 "--report", str(report_path), *FAST])
    assert code == 1
    entry = json.loads(report_path.read_text())["suites"][0]
    assert entry["witness"]["component"] in entry["details"]
    [(name, residual, _)] = replay_report(report_path)
    assert name == "equivalence"
    assert residual == pytest.approx(entry["max_residual"], rel=1e-12)


def test_nan_residual_fails_the_suite_and_is_the_witness(monkeypatch):
    finite = kacmoody.omega_cocycle_residual
    blocks = []

    def row_two_is_nan(*args):
        blocks.append(args)
        residuals = np.array(finite(*args))
        residuals[2] = math.nan
        return residuals

    monkeypatch.setattr(kacmoody, "omega_cocycle_residual", row_two_is_nan)
    entry = run(RunConfig(trials=5, suites=("omega-cocycle",)))["suites"][0]
    assert len(blocks) == 1
    assert entry["passed"] is False
    assert math.isnan(entry["max_residual"])
    assert ([c["coeffs"] for c in entry["witness"]["inputs"]]
            == [p.coeffs[2].tolist() for p in blocks[0][:3]])


@pytest.mark.parametrize("suite, maker, operation", [("lambda-hom", "make_lambda", "phi0"),
                                                     ("pkg-jacobi", "make_pkg", "l2_00")])
def test_a_nan_intermediate_path_fails_its_suite(monkeypatch, suite, maker, operation):
    # paths derived from checked paths are not checked again, so a NaN scalar
    # multiple must reach the running maximum as a NaN residual and fail
    make = getattr(models, maker)

    def poisoned(*args, **kwargs):
        built = make(*args, **kwargs)
        op = getattr(built, operation)
        return replace(built, **{operation: lambda *xs: op(*xs) * math.nan})

    monkeypatch.setattr(models, maker, poisoned)
    entry = run(RunConfig(trials=10, suites=(suite,)))["suites"][0]
    assert entry["passed"] is False
    assert math.isnan(entry["max_residual"])
    assert entry["witness"] is not None


# mutation_residual of each control at RunConfig(), as reported once the
# mutants were taken outside the level term (the bracket of paths doubled, the
# object map of each homomorphism doubled), pkg-jacobi's once its samples
# were drawn for the live signatures only
DEFAULT_MUTATION_RESIDUALS = {"pkg-jacobi": 0.20911750586214506,
                              "phi-hom": 0.7220061264605032,
                              "psi-hom": 0.10259202240773767,
                              "lambda-hom": 0.14819216286703354}


def test_mutation_residuals_at_the_defaults_are_pinned():
    report = run(RunConfig(suites=tuple(DEFAULT_MUTATION_RESIDUALS)))
    assert {s["name"]: s["details"]["mutation_residual"] for s in report["suites"]} \
        == DEFAULT_MUTATION_RESIDUALS
    assert [s["details"]["mutation_trials"] for s in report["suites"]] == [50] * 4


def _identity_mutants(monkeypatch):
    # a copied runner would still close over the old spec, so it is rebuilt
    for name, spec in REGISTRY.items():
        if spec.mutant:
            monkeypatch.setitem(REGISTRY, name, replace(spec, mutant=lambda models: models,
                                                        runner=None))


@pytest.mark.parametrize("suite, changes", [
    pytest.param(suite, changes, id=suite + tag)
    for suite in sorted(name for name, spec in REGISTRY.items() if spec.mutant)
    for tag, changes in [("", {}), ("-k=0", {"k": 0.0}), ("-degree=2", {"degree": 2})]])
def test_every_mutation_control_can_fail_its_suite(monkeypatch, suite, changes):
    # with the mutation replaced by the identity the control folds the
    # correct bundle, which passes its laws, so the suite must fail; the
    # mutants lie outside the level term, so they break the laws at k = 0 and
    # at degree 2, where every loop is a multiple of u - u^2, too
    config = RunConfig(trials=10, suites=(suite,), **changes)
    details = run(config)["suites"][0]["details"]
    assert details["mutation_residual"] > details["mutation_floor"]
    assert details["mutation_trials"] == 10
    _identity_mutants(monkeypatch)
    entry = run(config)["suites"][0]
    assert entry["details"]["mutation_residual"] <= entry["details"]["mutation_floor"]
    assert entry["passed"] is False and entry["max_residual"] <= entry["tolerance"]


@pytest.mark.parametrize("k, floor", [(1.0, 0.3), (0.0, 0.05)])
def test_pkg_jacobi_fails_when_dalpha_is_not_an_action(monkeypatch, k, floor):
    # dalpha-action states no action law of its own: pkg-jacobi's signature
    # (0, 0, 1) is that law.  A central term that adds v.c breaks it, at
    # k = 1 (0.38) and at k = 0 (0.10), while the projection to loops,
    # signature (0, 1), stays at roundoff (5e-17)
    dalpha = models.dalpha

    def shifted(p, v, k):
        image = dalpha(p, v, k)
        return CentralVector(image.loop, image.c + v.c)

    monkeypatch.setattr(models, "dalpha", shifted)
    entry = run(RunConfig(k=k, suites=("pkg-jacobi",)))["suites"][0]
    assert entry["passed"] is False
    assert entry["details"]["jacobi[0,0,1]"] > floor
    assert entry["details"]["jacobi[0,1]"] <= 1e-15


def _halve_omega(monkeypatch):
    # half the cocycle is still a cocycle, but not the 1/30 of the worked value
    omega = kacmoody.omega
    monkeypatch.setattr(kacmoody, "omega", lambda f, g, k: 0.5 * omega(f, g, k))


def test_omega_cocycle_fails_when_its_fixture_is_off(monkeypatch):
    # the worked value is a component of the suite's own evaluate, so a wrong
    # normalization fails with a witness that replays to the reported residual
    config = RunConfig(trials=10, suites=("omega-cocycle",))
    assert run(config)["suites"][0]["passed"] is True
    _halve_omega(monkeypatch)
    entry = run(config)["suites"][0]
    assert entry["passed"] is False
    assert entry["max_residual"] == entry["details"]["worked_value"] == pytest.approx(0.5)
    assert entry["details"]["cocycle"] <= entry["tolerance"]
    assert entry["witness"]["component"] == "worked_value"
    assert replay_suite("omega-cocycle", entry["witness"], config) == entry["max_residual"]


@pytest.mark.parametrize("algebra, form_scale, expected", [
    ("su2", 1.0, 1.0 / 30.0), ("sl2", 1.0, 2.0 / 30.0), ("su2", 1e9, 1e9 / 30.0)])
def test_omega_fixture_follows_the_form(monkeypatch, su2_file, algebra, form_scale, expected):
    # B(h, h) = 2 in sl2; the deviation is relative to B_ij / 30, so a large
    # form does not fail a correct cocycle
    config = RunConfig(algebra=algebra if form_scale == 1.0 else su2_file(form_scale),
                       trials=5, suites=("omega-cocycle",))
    entry = run(config)["suites"][0]
    assert entry["passed"] and entry["details"]["worked_value"] <= 1e-14
    # a cocycle that gives the expected value on every pair deviates by 0
    monkeypatch.setattr(kacmoody, "omega", lambda f, g, k: expected)
    assert suites._omega_worked_value(config.presentation) <= 1e-15


def test_omega_worked_value_on_the_zero_form_is_zero(tmp_path):
    # the zero form is invariant; its cocycle and worked value are exactly 0
    path = tmp_path / "su2-zero.json"
    path.write_text(json.dumps({"name": "su2*0", "dim": 3,
                                "structure": [[1, 2, 3, 1], [2, 3, 1, 1], [3, 1, 2, 1]],
                                "form": np.zeros((3, 3)).tolist()}))
    entry = run(RunConfig(algebra=str(path), trials=5, suites=("omega-cocycle",)))["suites"][0]
    assert entry["passed"] and entry["details"]["worked_value"] == 0.0


def _break_strict_pair(monkeypatch):
    # identity[Z4] becomes a unit followed by a self-map of trivial[Z2,Z3]
    # that sends (0, 1) to (0, 0): the composite (0, 1) o (0, 1) = (0, 2) maps
    # to (0, 2), but the composite of the images is (0, 0)
    grp = twogroups.FiniteTwoGroup(twogroups.trivial_action_module(
        twogroups.cyclic_group(2), twogroups.cyclic_group(3)))
    point = twogroups.FiniteTwoGroup(twogroups.conjugation_module(twogroups.cyclic_group(1)))
    mor_map = np.arange(grp.n_morphisms)
    mor_map[grp.morphism(0, 1)] = grp.morphism(0, 0)
    unit = twogroups.TwoGroupHom(point, grp, [0], [0], name="unit")
    broken = twogroups.TwoGroupHom(grp, grp, np.arange(grp.n_objects), mor_map, name="broken")
    monkeypatch.setitem(suites.STRICT_PAIRS, "identity[Z4]", lambda fixtures: (unit, broken))


def test_strict_pair_with_a_broken_law_fails_with_its_violations(monkeypatch, tmp_path, capsys):
    # a law of a bundled pair is a residual, not an input error: the suite
    # fails (exit 1), its details list the violations, and the witness replays
    _break_strict_pair(monkeypatch)
    report_path = tmp_path / "r.json"
    code = main(["verify", "--suite", "strict-exactness", "--report", str(report_path)])
    assert code == 1
    entry = json.loads(report_path.read_text())["suites"][0]
    assert entry["passed"] is False and entry["witness"]["component"] == "exactness"
    violations = entry["details"]["identity[Z4]"]["violations"]
    assert "broken: composition is not preserved" in violations
    assert entry["max_residual"] == len(violations)
    assert "violations" not in entry["details"]["collapse[S3]"]
    capsys.readouterr()
    assert main(["replay", "--report", str(report_path)]) == 0
    assert f"replayed residual {entry['max_residual']:.6e}" in capsys.readouterr().out


FINITE_SUITES = ("crossed-axioms", "two-group-axioms", "strict-exactness")


def test_a_run_builds_each_bundled_module_once_and_checks_each_fixture_once(monkeypatch):
    # the finite suites read one fixture table per run: each bundled crossed
    # module is constructed once, whichever suites use it (collapse[S3] is
    # built over conj[S3], kernel-inclusion[Q8] over incl[Z4<i><Q8]); the
    # pairs add only their kernel, quotient and point modules (one point,
    # conj[Z1], shared by collapse[S3] and identity[Z4]).  Every module
    # built, and the 2-group of each, has its laws evaluated exactly once
    built, checked = [], []
    module_init = twogroups.FiniteCrossedModule.__post_init__

    def counted_init(self):
        built.append(self.name)
        module_init(self)
    monkeypatch.setattr(twogroups.FiniteCrossedModule, "__post_init__", counted_init)
    for cls in (twogroups.FiniteCrossedModule, twogroups.FiniteTwoGroup):
        def counted(self, laws=cls.violations):
            checked.append(self)
            return laws(self)
        monkeypatch.setattr(cls, "violations", counted)
    report = run(RunConfig(suites=FINITE_SUITES))
    assert report["summary"]["all_passed"]
    expected = Counter(list(suites.CROSSED_MODULES)) + Counter(
        ["conj[Z4<i>]", "trivial[Q8/N,Z1]", "conj[Z1]", "conj[Z4]"])
    assert Counter(built) == expected
    assert set(Counter(map(id, checked)).values()) == {1}
    for cls in (twogroups.FiniteCrossedModule, twogroups.FiniteTwoGroup):
        assert Counter(getattr(fixture, "cm", fixture).name for fixture in checked
                       if isinstance(fixture, cls)) == expected
    # a suite run alone builds and checks all it reports, and reports the same
    for name, entry in zip(FINITE_SUITES, report["suites"]):
        assert run(RunConfig(suites=(name,)))["suites"] == [entry]


def test_a_run_checks_the_range_of_each_array_once(monkeypatch):
    # each group table, partial and alpha where it is built, and each
    # homomorphism's two maps in its one violations() call: one range check
    # per array, counted by its role and its identity
    checked, seen = Counter(), []
    rule = twogroups._range_violations

    def counted(what, values, *args):
        seen.append(values)  # kept alive, so no id is reused during the run
        checked[what, id(values)] += 1
        return rule(what, values, *args)
    monkeypatch.setattr(twogroups, "_range_violations", counted)
    assert run(RunConfig(suites=FINITE_SUITES))["summary"]["all_passed"]
    assert {what for what, _ in checked} == {
        "table", "partial", "alpha", "object map", "morphism map"}
    assert set(checked.values()) == {1}


OVER_Q8 = {"conj[Q8]", "incl[Z4<i><Q8]", "kernel-inclusion[Q8]"}


def _verify_with_tampered_q8(monkeypatch, tmp_path, tamper) -> dict:
    """The report entries of ``lie2 verify`` with ``tamper`` applied to Q8's
    table.  The run completes with a report (exit 1, not 2): the finite
    suites fail on the fixtures built over Q8 and keep every other entry,
    and every suite that reads no finite table passes, as it does untampered."""
    clean = {entry["name"]: entry for entry in run(RunConfig(suites=FINITE_SUITES))["suites"]}
    quaternion_group = twogroups.quaternion_group

    def tampered():
        table = quaternion_group().table
        tamper(table)
        return twogroups.FiniteGroup("Q8", table)
    monkeypatch.setattr(twogroups, "quaternion_group", tampered)
    report_path = tmp_path / "r.json"
    assert main(["verify", "--report", str(report_path)]) == 1
    entries = {entry["name"]: entry for entry in json.loads(report_path.read_text())["suites"]}
    assert list(entries) == list(REGISTRY)
    for name, entry in entries.items():
        if name not in FINITE_SUITES:
            assert entry["passed"]
            continue
        assert not entry["passed"]
        details, before = entry["details"], clean[name]["details"]
        assert {fixture for fixture in details.keys() | before.keys()
                if details.get(fixture) != before.get(fixture)} == OVER_Q8 & details.keys()
    return entries


def test_a_tampered_bundled_group_fails_the_suites_over_it_and_no_other(monkeypatch, tmp_path):
    # Q8 with i (-i) and i j swapped in row 2: i has no two-sided inverse,
    # the law crossed-axioms names first
    def swap(table):
        table[2, [3, 4]] = table[2, [4, 3]]
    entries = _verify_with_tampered_q8(monkeypatch, tmp_path, swap)
    assert entries["crossed-axioms"]["details"]["conj[Q8]"][0] == (
        "Q8: element 2 lacks a two-sided inverse")


def test_a_group_table_entry_at_its_order_fails_each_finite_suite_over_it(monkeypatch, tmp_path):
    # Q8 with i j = 8, one past the last element: stored as -1, so no fixture
    # indexes past a table, and each finite suite names Q8's range law
    def past_the_end(table):
        table[2, 4] = 8
    entries = _verify_with_tampered_q8(monkeypatch, tmp_path, past_the_end)
    for name in FINITE_SUITES:
        details = entries[name]["details"]
        for fixture in OVER_Q8 & details.keys():
            laws = details[fixture]
            laws = laws["violations"] if isinstance(laws, dict) else laws
            assert any(law.endswith("Q8: table entries out of range") for law in laws), laws


def _break_bundled_module(monkeypatch) -> list:
    # conj[S3] with the trivial action in place of conjugation: equivariance
    # and the conjugation law fail at the 18 pairs that do not commute, and
    # in its 2-group the target is not a homomorphism, so products of
    # composable pairs are not composable.  Returns the modules it built
    s3 = twogroups.symmetric_group_3()
    made = []

    def build():
        made.append(twogroups.FiniteCrossedModule(
            "conj[S3]", s3, s3, np.arange(6), np.tile(np.arange(6), (6, 1))))
        return made[-1]
    monkeypatch.setitem(suites.CROSSED_MODULES, "conj[S3]", build)
    return made


@pytest.mark.parametrize("suite, fixture, first, count", [
    ("crossed-axioms", "conj[S3]", "equivariance fails at (g=1, h=2)", 36),
    ("two-group-axioms", "conj[S3]", "target is not a homomorphism", 2),
    ("strict-exactness", "collapse[S3]", "conj[S3]: equivariance fails at (g=1, h=2)", 38)])
def test_bundled_module_with_a_broken_law_fails_and_replays_through_the_table(
        monkeypatch, tmp_path, capsys, suite, fixture, first, count):
    # a law of a bundled module is a residual, not an input error: each suite
    # that reports it fails (exit 1), collapse[S3] with the module's and its
    # 2-group's laws; the details list the violations, and the witness, the
    # fixture's name, replays to the count through the replaying run's table
    made = _break_bundled_module(monkeypatch)
    report_path = tmp_path / "r.json"
    code = main(["verify", "--suite", suite, "--report", str(report_path)])
    assert code == 1 and len(made) == 1
    entry = json.loads(report_path.read_text())["suites"][0]
    assert entry["passed"] is False and entry["witness"]["inputs"] == {
        "type": "name", "value": fixture}
    details = entry["details"]
    if suite == "strict-exactness":
        details = {name: pair.get("violations", []) for name, pair in details.items()}
    assert [name for name, listed in details.items() if listed] == [fixture]
    assert details[fixture][0] == first and len(details[fixture]) == min(count, 5)
    assert entry["max_residual"] == count
    config = RunConfig(suites=(suite,))
    assert replay_suite(suite, entry["witness"], config) == count
    assert replay_suite(suite, entry["witness"], config) == count
    assert len(made) == 2 and config.fixtures.module("conj[S3]") is made[-1]
    capsys.readouterr()
    assert main(["replay", "--report", str(report_path)]) == 0
    assert f"replayed residual {entry['max_residual']:.6e}" in capsys.readouterr().out


FAILING_RUNS = {
    "impossible-tolerances": ({"tol_exact": 1e-20, "tol_quad": 1e-9}, None),
    "omega-halved": ({}, _halve_omega),
    "identity-mutants": ({}, _identity_mutants),
    "broken-strict-pair": ({}, _break_strict_pair),
    "broken-bundled-module": ({}, _break_bundled_module),
}


@pytest.mark.parametrize("changes, tamper", FAILING_RUNS.values(), ids=FAILING_RUNS.keys())
def test_every_failing_suite_has_a_witness_or_a_mutant_that_held(monkeypatch, changes, tamper):
    # a FAIL is a residual over its tolerance, whose witness replays to the
    # reported maximum, or a mutant whose residual did not exceed its floor
    if tamper:
        tamper(monkeypatch)
    config = RunConfig(trials=10, nt=32, ntheta=32, **changes)
    failing = [s for s in run(config)["suites"] if not s["passed"]]
    assert failing
    for entry in failing:
        details = entry["details"]
        if entry["witness"] is not None:
            assert replay_suite(entry["name"], entry["witness"], config) \
                == entry["max_residual"], entry["name"]
        else:
            assert details.get("mutation_residual", math.inf) <= details.get(
                "mutation_floor", -math.inf), entry


def test_every_config_field_has_a_verify_flag_with_no_default_of_its_own():
    assert _config_from_args(_parser().parse_args(["verify"])) == RunConfig()
    given = {"algebra": "so3", "k": -2.0, "degree": 5, "splitting": "0,0,3,-2", "nt": 64,
             "ntheta": 32, "seed": 7, "trials": 9, "tol_exact": 1e-9, "tol_quad": 1e-2,
             "suites": ("gk-jacobi", "exactness")}
    assert {f.name for f in fields(RunConfig)} == set(given)
    assert all(given[name] != getattr(RunConfig(), name) for name in given)
    argv = ["verify"]
    for name, value in given.items():
        if name == "suites":
            argv += [arg for suite in value for arg in ("--suite", suite)]
        else:
            argv += [f"--{name.replace('_', '-')}={value}"]
    assert _config_from_args(_parser().parse_args(argv)) == RunConfig(**given)


def test_polynomial_suites_pass_at_a_large_form_scale(su2_file):
    # every identity is invariant under rescaling the form; the terms the form
    # enters grow with it, and each residual is sized by its law's terms
    report = run(RunConfig(algebra=su2_file(1e6), suites=POLYNOMIAL_SUITES))
    assert [s["name"] for s in report["suites"] if not s["passed"]] == []
    assert report["summary"]["passed"] == 10


def test_replay_report_without_witnesses(tmp_path, capsys):
    report_path = tmp_path / "ok.json"
    code = main(["verify", "--suite", "gk-jacobi", "--report", str(report_path), *FAST])
    assert code == 0
    assert main(["replay", "--report", str(report_path)]) == 0
    assert "no witnesses" in capsys.readouterr().out


def test_run_is_deterministic_modulo_wall_time():
    config = RunConfig(trials=5, nt=32, ntheta=32,
                       suites=("gk-jacobi", "phi-hom", "kappa-cocycle",
                               "strict-exactness"))
    a = strip_wall_time(run(config))
    b = strip_wall_time(run(config))
    assert a == b


def _inside_replay() -> bool:
    """Whether a caller up the stack is witness replay's deserialize_element."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code is not replay.deserialize_element.__code__:
        frame = frame.f_back
    return frame is not None


@pytest.mark.parametrize("case", ["defaults", "sl2", "replay"])
def test_no_run_checks_a_carrier_it_built(monkeypatch, tmp_path, case):
    # every carrier a run computes is built from checked data as a derived
    # one; the entry checks run only where data enters from outside, here
    # when replay reads a report's witnesses.  Over every suite and control
    # at the defaults, over sl2 on its polynomial suites, and over a failing
    # run whose report is then replayed
    calls = []
    for cls in (PolyPath, CentralVector, su2grid.SampledGroupPath,
                su2grid.SampledPathOfLoops):
        def counted(self, check=cls.__post_init__):
            calls.append((type(self).__name__, _inside_replay()))
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    if case == "defaults":
        assert run(RunConfig())["summary"]["all_passed"]
    elif case == "sl2":
        assert run(RunConfig(algebra="sl2", k=-2.0, splitting="0,0,3,-2",
                             suites=(*POLYNOMIAL_SUITES, "exactness")))["summary"]["all_passed"]
    else:
        report = run(RunConfig(tol_exact=1e-20, tol_quad=1e-9))
        assert calls == []
        path = tmp_path / "failing.json"
        path.write_text(report_json(report))
        assert len(replay_report(path)) == report["summary"]["failed"] == 13
        assert {name for name, _ in calls} == {"PolyPath", "CentralVector"}
        calls = [call for call in calls if not call[1]]
    assert calls == []


def _replay_doc(doc, tmp_path, capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of replaying the report ``doc``."""
    report_path = tmp_path / "replayed.json"
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["replay", "--report", str(report_path)])
    out, err = capsys.readouterr()
    return code, out, err


def _refuses_version(err: str, version) -> bool:
    """Whether ``err`` is replay's one line refusing a report of ``version``."""
    return (err.startswith("error: report ") and err.count("\n") == 1
            and err.endswith(f" has version {version!r}; this lie2 replays version 1 only\n"))


@pytest.mark.parametrize("setting", [{"jobs": 1}, {"form_scale": 1.0}, {"form_scale": 2.0}],
                         ids=["jobs", "unit-form-scale", "form-scale-2"])
def test_replay_refuses_an_older_report(failing_report, tmp_path, capsys, setting):
    # reports written while jobs and the form scale were settings carry them
    # in their config, and no version
    doc = json.loads(failing_report)
    del doc["version"]
    doc["config"].update(setting)
    code, out, err = _replay_doc(doc, tmp_path, capsys)
    assert (code, out) == (2, "") and _refuses_version(err, None)


def test_a_report_carries_its_version_first(failing_report):
    assert list(json.loads(failing_report)) == ["version", "config", "suites", "summary"]
    assert json.loads(failing_report)["version"] == suites.REPORT_VERSION == 1


@pytest.mark.parametrize("version", [None, True, 1.0, 2, "1", 0])
def test_replay_refuses_any_version_but_the_integer_1(failing_report, tmp_path, capsys,
                                                      version):
    # the version is read before the config: a report of another version may
    # mean something else by it (None stands for a report without one)
    doc = json.loads(failing_report)
    doc["config"]["k"] = "abc"
    if version is None:
        del doc["version"]
    else:
        doc["version"] = version
    code, out, err = _replay_doc(doc, tmp_path, capsys)
    assert (code, out) == (2, "") and _refuses_version(err, version)


def _times(doc, factor: float):
    """``doc`` with every float in it multiplied by ``factor``."""
    if isinstance(doc, list):
        return [_times(x, factor) for x in doc]
    if isinstance(doc, dict):
        return {key: _times(value, factor) for key, value in doc.items()}
    return doc * factor if isinstance(doc, float) else doc


def test_a_witness_that_replays_to_nan_exits_1_without_a_numpy_warning(tmp_path, capsys):
    # psi-hom's homo3 witness with every float of its inputs times 1e60 is
    # finite where it enters, but its pairing overflows: the replayed residual
    # is NaN, and replay says so by its exit code, not by numpy's warnings
    report_path = tmp_path / "psi.json"
    assert main(["verify", "--suite", "psi-hom", "--tol-exact", "1e-300",
                 "--report", str(report_path)]) == 1
    doc = json.loads(report_path.read_text())
    witness = doc["suites"][0]["witness"]
    assert witness["component"] == "homo3"
    witness["inputs"] = _times(witness["inputs"], 1e60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _replay_doc(doc, tmp_path, capsys)
    assert (code, out, err) == (1, "psi-hom: replayed residual nan\n", "")


def test_replay_exits_1_and_names_an_entry_its_witness_does_not_reproduce(
        failing_report, tmp_path, capsys):
    doc = json.loads(failing_report)
    code, out, err = _replay_doc(doc, tmp_path, capsys)
    assert (code, err) == (0, "") and out.count("replayed residual") == 2
    entry = doc["suites"][1]
    assert entry["name"] == "omega-cocycle"
    reported = entry["max_residual"]
    entry["max_residual"] = math.nextafter(reported, math.inf)  # one ulp off
    code, out, err = _replay_doc(doc, tmp_path, capsys)
    assert (code, err) == (1, "")
    assert out.splitlines()[2:] == [
        f"omega-cocycle: does not reproduce its report: replayed {reported!r}, "
        f"reported {entry['max_residual']!r}"]


def test_verify_prints_no_numpy_warning_when_a_residual_overflows(tmp_path, capfd):
    # su2's table times 1e100 passes the algebra's own checks, but the
    # suites' products overflow: each residual is NaN and fails its suite,
    # with nothing from numpy on stderr
    path = tmp_path / "su2x1e100.json"
    path.write_text(json.dumps({"name": "su2x1e100", "dim": 3, "structure": [
        [1, 2, 3, 1e100], [2, 3, 1, 1e100], [3, 1, 2, 1e100]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--algebra", str(path), "--suite", "gk-jacobi",
                     "--suite", "psi-hom"])
    out, err = capfd.readouterr()
    assert (code, err) == (1, "")
    assert [line.split()[1:] for line in out.splitlines()[1:3]] == [
        ["nan", "1.0e-10", "FAIL"], ["nan", "1.0e-10", "FAIL"]]


def test_config_validation_errors():
    with pytest.raises(InputError):
        RunConfig(trials=0).validate()
    with pytest.raises(InputError):
        RunConfig(tol_exact=-1.0).validate()
    with pytest.raises(InputError):
        RunConfig(suites=("nonesuch",)).validate()
    with pytest.raises(InputError):
        replay_suite("nonesuch", {}, RunConfig())


def test_exit_code_zero_on_default_config_exact_suites():
    config = RunConfig(trials=10, suites=(
        "gk-jacobi", "pkg-jacobi", "phi-hom", "psi-hom", "lambda-hom",
        "tau-2hom", "exactness", "equivalence", "omega-cocycle",
        "extended-jacobi", "dalpha-action", "crossed-axioms",
        "two-group-axioms", "strict-exactness"))
    report = run(config)
    assert report["summary"]["all_passed"]
