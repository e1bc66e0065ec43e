"""Scenario schema: round-trips, fail-closed validation, and the analysis
report container."""
import copy

import numpy as np
import pytest
import yaml

from clfcbf import (
    AnalysisReport,
    Scenario,
    ScenarioError,
    bundled_scenario_names,
    bundled_scenario_path,
    load_bundled_scenario,
    load_scenario,
    loads_scenario,
    save_scenario,
    serialize_scenario,
)
from clfcbf.scenario import _SCHEMA
from conftest import DATA_DIR

BASE_DOC = {
    "schema": 1,
    "name": "toy",
    "dynamics": {
        "drift": {"kind": "zero"},
        "input": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
    },
    "nominal": {"kind": "zero"},
    "controller": {
        "mode": "clf_cbf",
        "p": 1.0,
        "cost_metric": [[1.0, 0.0], [0.0, 1.0]],
    },
    "clf": {
        "shape": [[0.5, 0.0], [0.0, 0.5]],
        "center": [0.0, 0.0],
        "gamma_gain": 1.0,
    },
    "cbfs": [
        {"shape": [[1.0, 0.0], [0.0, 1.0]], "center": [2.0, 0.0],
         "offset": -1.0, "alpha_gain": 1.0},
    ],
    "initial_states": [[4.0, 0.0]],
    "integration": {"dt": 0.001, "t_final": 5.0, "convergence": None},
    "search": {"box": [[-5.0, 5.0], [-5.0, 5.0]], "boundary_seeds": 16,
               "interior_seeds": 8, "seed": 0},
}


def _doc(**mutations):
    doc = copy.deepcopy(BASE_DOC)
    for path, value in mutations.items():
        node = doc
        keys = path.split(".")
        for key in keys[:-1]:
            node = node[int(key)] if key.isdigit() else node[key]
        last = keys[-1]
        node[int(last) if last.isdigit() else last] = value
    return yaml.safe_dump(doc, sort_keys=False)


def _problems(text):
    with pytest.raises(ScenarioError) as excinfo:
        loads_scenario(text)
    return excinfo.value.problems


# -- round trips ---------------------------------------------------------------


def test_bundled_scenario_names():
    assert bundled_scenario_names() == ["deadlock2d", "fig1", "filter2d"]


@pytest.mark.parametrize("name", ["deadlock2d", "fig1", "filter2d"])
def test_bundled_round_trip(name):
    scenario = load_bundled_scenario(name)
    again = loads_scenario(serialize_scenario(scenario))
    assert again == scenario
    assert again.sha256() == scenario.sha256()
    assert again.to_dict() == scenario.to_dict()


def test_fixture_scenario_round_trip(tmp_path):
    scenario = load_scenario(DATA_DIR / "dupcbf.scenario")
    path = tmp_path / "copy.scenario"
    save_scenario(scenario, path)
    again = load_scenario(path)
    assert again == scenario
    assert serialize_scenario(again) == serialize_scenario(scenario)


def test_serialization_is_deterministic():
    scenario = load_bundled_scenario("fig1")
    assert serialize_scenario(scenario) == serialize_scenario(scenario)
    assert scenario.sha256() == loads_scenario(
        serialize_scenario(scenario)).sha256()


def test_equality_tracks_content():
    a = loads_scenario(_doc())
    b = loads_scenario(_doc())
    assert a == b and hash(a) == hash(b)
    c = loads_scenario(_doc(**{"controller.p": 2.0}))
    assert a != c and a.sha256() != c.sha256()


# -- fail-closed validation ------------------------------------------------------


def test_unknown_keys_are_errors():
    doc = copy.deepcopy(BASE_DOC)
    doc["surprise"] = 1
    doc["controller"]["bogus"] = 2
    problems = _problems(yaml.safe_dump(doc))
    assert "scenario.surprise: unknown key" in problems
    assert "scenario.controller.bogus: unknown key" in problems


def test_all_problems_reported_at_once():
    problems = _problems(_doc(**{
        "controller.p": -1.0,
        "controller.mode": "wrong",
        "cbfs.0.alpha_gain": 0.0,
        "integration.dt": -0.5,
    }))
    text = "\n".join(problems)
    assert len(problems) >= 4
    assert "scenario.controller.p: p must be positive" in text
    assert "scenario.controller.mode" in text
    assert "scenario.cbfs[0].alpha_gain" in text
    assert "scenario.integration.dt" in text


def test_negative_p_is_named():
    problems = _problems(_doc(**{"controller.p": -1.0}))
    assert any("p must be positive" in p for p in problems)


def test_non_spd_cost_metric_is_named():
    problems = _problems(_doc(**{"controller.cost_metric":
                                 [[1.0, 0.0], [0.0, -1.0]]}))
    assert any("cost_metric" in p for p in problems)


def test_dimension_mismatch_carries_field_path():
    problems = _problems(_doc(**{"cbfs.0.center": [2.0, 0.0, 0.0]}))
    assert any(p.startswith("scenario.cbfs[0].center") for p in problems)
    problems = _problems(_doc(**{"search.box": [[-5.0, 5.0]]}))
    assert any(p.startswith("scenario.search.box") for p in problems)


def test_yaml_parse_error_reports_location():
    problems = _problems("dynamics: {kind: zero\nname: [")
    assert len(problems) == 1
    assert "YAML parse error" in problems[0]
    assert "line" in problems[0]


def test_schema_version_guard():
    problems = _problems(_doc(schema=2))
    assert any("unsupported schema version" in p for p in problems)


def test_missing_sections_listed_together():
    doc = copy.deepcopy(BASE_DOC)
    del doc["dynamics"]
    del doc["search"]
    problems = _problems(yaml.safe_dump(doc))
    assert "scenario.dynamics: missing required key" in problems
    assert "scenario.search: missing required key" in problems


# -- optional pieces -------------------------------------------------------------


def test_empty_initial_states_is_valid():
    scenario = loads_scenario(_doc(initial_states=[]))
    assert scenario.initial_states == ()


def test_tolerance_overrides():
    scenario = loads_scenario(_doc(tolerances={"stability": 1e-6}))
    assert scenario.tolerances.stability == 1e-6
    assert scenario.tolerances.active == 1e-8  # untouched default
    problems = _problems(_doc(tolerances={"not_a_knob": 1.0}))
    assert any("unknown tolerance name" in p for p in problems)


def test_clf_null_means_no_clf():
    scenario = loads_scenario(_doc(
        clf=None, **{"controller.mode": "safety_filter"}))
    assert not scenario.certificates.has_clf
    assert scenario.problem().certificates.values(np.zeros(2))[0] == 0.0


# -- analysis report --------------------------------------------------------------


def test_analysis_report_round_trip(tmp_path):
    report = AnalysisReport(
        scenario_name="toy",
        scenario_sha256="ab" * 32,
        toolkit_version="0.1.0",
        tolerances={"active": 1e-8},
        sections={
            "equilibria": {
                "boundary": [
                    {"x_e": np.array([3.0, 0.0]), "lambda_e": np.array([6.75]),
                     "verdict": "unstable", "mu_max": 9.0},
                ],
                "interior": [{"x_e": np.array([0.0, 0.0])}],
            },
        },
    )
    text = report.dumps()
    again = AnalysisReport.loads(text)
    assert again == report
    assert again.dumps() == text  # a second pass is byte-identical

    path = tmp_path / "report.yaml"
    report.save(path)
    assert AnalysisReport.load(path) == report


def test_analysis_report_rejects_malformed_documents():
    good = AnalysisReport(
        scenario_name="toy", scenario_sha256="00", toolkit_version="0",
        tolerances={}, sections={}).to_dict()
    missing = dict(good)
    del missing["sections"]
    with pytest.raises(ScenarioError, match="missing required key"):
        AnalysisReport.from_dict(missing)
    extra = dict(good)
    extra["stray"] = 1
    with pytest.raises(ScenarioError, match="unknown key"):
        AnalysisReport.from_dict(extra)


def test_c_and_python_loaders_parse_documents_equal():
    # Scenarios are parsed with libyaml's loader when PyYAML has it; the
    # pure-Python loader must read every shipped document the same way.
    paths = [bundled_scenario_path(name) for name in bundled_scenario_names()]
    paths.append(DATA_DIR / "dupcbf.scenario")
    fast = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=fast) == yaml.load(text, Loader=yaml.SafeLoader)


# -- one table: every node fails closed, and a Scenario is its document ---------

#: BASE_DOC with every optional branch of the table taken: linear drift,
#: linear-feedback nominal control and a convergence target.
FULL_DOC = copy.deepcopy(BASE_DOC)
FULL_DOC["dynamics"]["drift"] = {"kind": "linear",
                                 "matrix": [[0.0, 1.0], [-1.0, 0.0]]}
FULL_DOC["nominal"] = {"kind": "linear_feedback",
                       "gain": [[-1.0, 0.0], [0.0, -1.0]]}
FULL_DOC["controller"]["mode"] = "generalized"
FULL_DOC["integration"]["convergence"] = {"target": [0.0, 0.0], "tol": 0.01}


def _schema_nodes(spec, keys=(), path="scenario"):
    """(keys into a document, problem path, is a mapping key) of every node
    below ``spec``, walked from the table itself; lists at their item 0."""
    if isinstance(spec, dict):
        for key, sub in spec.items():
            yield keys + (key,), f"{path}.{key}", True
            yield from _schema_nodes(sub, keys + (key,), f"{path}.{key}")
        return
    form = spec if isinstance(spec, str) else spec[0]
    if form == "list_of":
        yield keys + (0,), f"{path}[0]", False
        yield from _schema_nodes(spec[1], keys + (0,), f"{path}[0]")
    elif form == "nullable":
        yield from _schema_nodes(spec[1], keys, path)
    elif form == "kind":
        _, key, _, sub = spec
        yield keys + ("kind",), f"{path}.kind", True
        yield keys + (key,), f"{path}.{key}", True
        yield from _schema_nodes(sub, keys + (key,), f"{path}.{key}")


def test_every_schema_node_fails_closed():
    loads_scenario(yaml.safe_dump(FULL_DOC))  # the unmutated document is valid
    nodes = list(_schema_nodes(_SCHEMA))
    assert len(nodes) == 36
    for keys, path, is_key in nodes:
        for delete in (False, True) if is_key else (False,):
            doc = copy.deepcopy(FULL_DOC)
            node = doc
            for key in keys[:-1]:
                node = node[key]
            if delete:
                del node[keys[-1]]
            else:
                node[keys[-1]] = "bogus"
            problems = _problems(yaml.safe_dump(doc))
            assert any(p.startswith(f"{path}: ") for p in problems), (
                path, delete, problems)


@pytest.mark.parametrize("path", [
    *(bundled_scenario_path(name) for name in ["deadlock2d", "fig1", "filter2d"]),
    DATA_DIR / "dupcbf.scenario"])
def test_scenario_is_rebuilt_from_its_own_document(path):
    scenario = load_scenario(path)
    again = Scenario(scenario.to_dict())
    assert again == scenario
    assert again.sha256() == scenario.sha256()


def test_scenario_validates_the_document_it_is_built_from():
    with pytest.raises(ScenarioError) as excinfo:
        Scenario({"schema": 1, "name": "bare"})
    assert "scenario.dynamics: missing required key" in excinfo.value.problems


def test_non_string_kind_is_a_problem_not_a_type_error():
    problems = _problems(_doc(**{"nominal.kind": ["zero"],
                                 "dynamics.drift.kind": {"linear": 1}}))
    assert ("scenario.nominal.kind: expected 'zero' or 'linear_feedback', "
            "got ['zero']") in problems
    assert ("scenario.dynamics.drift.kind: expected 'zero' or 'linear', "
            "got {'linear': 1}") in problems


def test_keys_of_mixed_types_are_reported_not_raised():
    doc = copy.deepcopy(BASE_DOC)
    doc[1] = "one"
    doc["zz"] = "zed"
    doc["tolerances"] = {2: 1.0, "zz": 1.0}
    problems = _problems(yaml.safe_dump(doc))
    for problem in ("scenario.1: unknown key", "scenario.zz: unknown key",
                    "scenario.tolerances.2: unknown tolerance name",
                    "scenario.tolerances.zz: unknown tolerance name"):
        assert problem in problems


def test_equilibrium_is_not_a_tolerance():
    problems = _problems(_doc(tolerances={"equilibrium": 1e-8}))
    assert problems == ["scenario.tolerances.equilibrium: unknown tolerance name"]


def test_numbers_too_large_for_a_float_are_problems():
    problems = _problems(_doc(**{"controller.p": 10**400,
                                 "cbfs.0.center": [10**400, 0.0],
                                 "search.box": [[-5.0, 5.0], [-5.0, 10**400]]}))
    assert "scenario.controller.p: number too large" in problems
    assert "scenario.cbfs[0].center: expected a list of numbers" in problems
    assert "scenario.search.box: expected a list of rows of numbers" in problems
