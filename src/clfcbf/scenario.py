"""Scenario files: one YAML document describing a complete problem setup.

A scenario bundles the plant, nominal controller, QP parameters,
certificates, initial states, integration settings and equilibrium-search
settings, so that every command-line run and batch experiment is driven
by a single reviewable text file.  The schema is versioned and validation
fails closed: unknown keys are errors, and *all* problems are reported at
once (:class:`~clfcbf.errors.ScenarioError.problems`), not just the first.

Schema (version 1)
------------------
::

    schema: 1
    name: <identifier>
    description: <free text, optional>
    dynamics:
      drift: {kind: zero} | {kind: linear, matrix: <n x n>}
      input: {matrix: <n x m>}
    nominal: {kind: zero} | {kind: linear_feedback, gain: <m x n>}
    controller: {mode: <safety_filter|clf_cbf|generalized>, p: <float>,
                 cost_metric: <m x m>}
    clf: null | {shape: <n x n>, center: <n>, gamma_gain: <float>}
    cbfs:
      - {shape: <n x n>, center: <n>, offset: <float>, alpha_gain: <float>}
    initial_states: [<n>, ...]          # may be empty
    integration:
      dt: <float>
      t_final: <float>
      convergence: null | {target: <n>, tol: <float>}
    search:
      box: <n x 2>                      # [low, high] per coordinate
      boundary_seeds: <int>
      interior_seeds: <int>
      seed: <int>
    tolerances: {<Tolerances field>: <float>, ...}   # optional, defaults apply

The schema expresses every plant and nominal controller the library
has: zero or linear drift, a constant input map, and zero or linear
state-feedback nominal control.
"""

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import yaml

from .certificates import CertificateSet, ClassKappa, QuadraticCertificate
from .equilibria import SearchConfig
from .errors import ScenarioError, ToolkitError
from .qp import MODES, ControlProblem, ControllerParams
from .systems import DynamicsModel, NominalController
from .tolerances import Tolerances

__all__ = [
    "Scenario",
    "AnalysisReport",
    "load_scenario",
    "loads_scenario",
    "serialize_scenario",
    "save_scenario",
    "bundled_scenario_names",
    "bundled_scenario_path",
    "load_bundled_scenario",
]

SCHEMA_VERSION = 1

#: libyaml's safe loader when PyYAML was built with it (same documents,
#: several times faster); the pure-Python one otherwise.  Dumping keeps
#: the pure-Python dumper so reports stay byte-identical.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _pyify(value):
    """Recursively convert numpy containers/scalars to plain Python."""
    if isinstance(value, np.ndarray):
        return [_pyify(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, dict):
        return {k: _pyify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pyify(v) for v in value]
    return value


@dataclass(frozen=True, eq=False)
class Scenario:
    """A validated scenario; :meth:`problem` yields the bound ControlProblem."""

    name: str
    model: DynamicsModel
    nominal: NominalController
    params: ControllerParams
    certificates: CertificateSet
    initial_states: Tuple[np.ndarray, ...]
    dt: float
    t_final: float
    target: Optional[np.ndarray]
    target_tol: float
    search: SearchConfig
    tolerances: Tolerances = field(default_factory=Tolerances)
    description: str = ""

    def problem(self):
        return ControlProblem(
            model=self.model, certificates=self.certificates,
            params=self.params, tolerances=self.tolerances)

    def to_dict(self):
        """Canonical schema-form dictionary (round-trips through YAML)."""
        drift = {"kind": self.model.drift_kind}
        if self.model.drift_kind == "linear":
            drift["matrix"] = _pyify(self.model.drift_matrix)
        nominal = {"kind": self.nominal.kind}
        if self.nominal.kind == "linear_feedback":
            nominal["gain"] = _pyify(self.nominal.gain)
        certs = self.certificates
        clf = None
        if certs.has_clf:
            clf = {
                "shape": _pyify(certs.clf.shape),
                "center": _pyify(certs.clf.center),
                "gamma_gain": float(certs.gamma.gain),
            }
        convergence = None
        if self.target is not None:
            convergence = {"target": _pyify(self.target),
                           "tol": float(self.target_tol)}
        doc = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
        }
        if self.description:
            doc["description"] = self.description
        doc.update({
            "dynamics": {
                "drift": drift,
                "input": {"matrix": _pyify(self.model.input_matrix)},
            },
            "nominal": nominal,
            "controller": {
                "mode": self.params.mode,
                "p": float(self.params.p),
                "cost_metric": _pyify(self.params.cost_metric),
            },
            "clf": clf,
            "cbfs": [
                {
                    "shape": _pyify(b.shape),
                    "center": _pyify(b.center),
                    "offset": float(b.offset),
                    "alpha_gain": float(a.gain),
                }
                for b, a in zip(certs.cbfs, certs.alphas)
            ],
            "initial_states": [_pyify(x) for x in self.initial_states],
            "integration": {
                "dt": float(self.dt),
                "t_final": float(self.t_final),
                "convergence": convergence,
            },
            "search": {
                "box": _pyify(self.search.box),
                "boundary_seeds": int(self.search.boundary_seeds),
                "interior_seeds": int(self.search.interior_seeds),
                "seed": int(self.search.seed),
            },
            "tolerances": self.tolerances.to_dict(),
        })
        return doc

    def sha256(self):
        """Content hash of the canonical form, for report provenance."""
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(self.sha256())


class _Validator:
    """Accumulates problems as 'field.path: message' strings."""

    def __init__(self):
        self.problems = []

    def fail(self, path, message):
        self.problems.append(f"{path}: {message}")
        return None

    def mapping(self, node, path, required, optional=()):
        if node is None or not isinstance(node, dict):
            return self.fail(path, f"expected a mapping, got {type(node).__name__}")
        for key in sorted(set(node) - set(required) - set(optional)):
            self.fail(f"{path}.{key}", "unknown key")
        ok = True
        for key in required:
            if key not in node:
                self.fail(f"{path}.{key}", "missing required key")
                ok = False
        return node if ok else None

    def number(self, node, path, positive=False):
        if not isinstance(node, (int, float)) or isinstance(node, bool):
            return self.fail(path, f"expected a number, got {type(node).__name__}")
        value = float(node)
        if positive and not value > 0.0:
            return self.fail(path, f"must be positive, got {value}")
        return value

    def integer(self, node, path, minimum=None):
        if not isinstance(node, int) or isinstance(node, bool):
            return self.fail(path, f"expected an integer, got {type(node).__name__}")
        if minimum is not None and node < minimum:
            return self.fail(path, f"must be >= {minimum}, got {node}")
        return int(node)

    def vector(self, node, path, length=None):
        try:
            v = np.asarray(node, dtype=float)
        except (TypeError, ValueError):
            return self.fail(path, "expected a list of numbers")
        if v.ndim != 1:
            return self.fail(path, f"expected a flat list, got shape {v.shape}")
        if length is not None and v.shape[0] != length:
            return self.fail(path, f"expected length {length}, got {v.shape[0]}")
        return v

    def matrix(self, node, path, shape=None):
        try:
            M = np.asarray(node, dtype=float)
        except (TypeError, ValueError):
            return self.fail(path, "expected a list of rows of numbers")
        if M.ndim != 2:
            return self.fail(path, f"expected a matrix, got shape {M.shape}")
        if shape is not None and M.shape != shape:
            return self.fail(path, f"expected shape {shape}, got {M.shape}")
        return M


def _parse_document(doc):
    v = _Validator()
    top = v.mapping(
        doc, "scenario",
        required=("schema", "name", "dynamics", "nominal", "controller",
                  "clf", "cbfs", "initial_states", "integration", "search"),
        optional=("description", "tolerances"))
    if top is None:
        raise ScenarioError(v.problems)

    if doc.get("schema") != SCHEMA_VERSION:
        v.fail("scenario.schema",
               f"unsupported schema version {doc.get('schema')!r}; "
               f"this toolkit reads version {SCHEMA_VERSION}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        v.fail("scenario.name", "expected a non-empty string")
        name = "<unnamed>"
    description = doc.get("description", "")
    if not isinstance(description, str):
        v.fail("scenario.description", "expected a string")
        description = ""

    # -- dynamics --------------------------------------------------------
    n = m = None
    g0 = None
    drift_matrix = None
    drift_kind = "zero"
    dyn = v.mapping(doc["dynamics"], "scenario.dynamics", ("drift", "input"))
    if dyn is not None:
        inp = v.mapping(dyn["input"], "scenario.dynamics.input", ("matrix",))
        if inp is not None:
            g0 = v.matrix(inp["matrix"], "scenario.dynamics.input.matrix")
            if g0 is not None:
                n, m = g0.shape
        drift = v.mapping(
            dyn["drift"], "scenario.dynamics.drift", ("kind",), ("matrix",))
        if drift is not None:
            drift_kind = drift["kind"]
            if drift_kind == "zero":
                if "matrix" in drift:
                    v.fail("scenario.dynamics.drift.matrix",
                           "not allowed when kind is 'zero'")
            elif drift_kind == "linear":
                if "matrix" not in drift:
                    v.fail("scenario.dynamics.drift.matrix",
                           "required when kind is 'linear'")
                else:
                    drift_matrix = v.matrix(
                        drift["matrix"], "scenario.dynamics.drift.matrix",
                        shape=None if n is None else (n, n))
            else:
                v.fail("scenario.dynamics.drift.kind",
                       f"expected 'zero' or 'linear', got {drift_kind!r}")

    # -- nominal controller ----------------------------------------------
    gain = None
    nominal_kind = "zero"
    nom = v.mapping(doc["nominal"], "scenario.nominal", ("kind",), ("gain",))
    if nom is not None:
        nominal_kind = nom["kind"]
        if nominal_kind == "zero":
            if "gain" in nom:
                v.fail("scenario.nominal.gain", "not allowed when kind is 'zero'")
        elif nominal_kind == "linear_feedback":
            if "gain" not in nom:
                v.fail("scenario.nominal.gain",
                       "required when kind is 'linear_feedback'")
            else:
                gain = v.matrix(
                    nom["gain"], "scenario.nominal.gain",
                    shape=None if n is None else (m, n))
        else:
            v.fail("scenario.nominal.kind",
                   f"expected 'zero' or 'linear_feedback', got {nominal_kind!r}")

    # -- controller parameters ---------------------------------------------
    mode = None
    p = None
    H = None
    ctl = v.mapping(doc["controller"], "scenario.controller",
                    ("mode", "p", "cost_metric"))
    if ctl is not None:
        mode = ctl["mode"]
        if mode not in MODES:
            v.fail("scenario.controller.mode",
                   f"expected one of {MODES}, got {mode!r}")
        p = v.number(ctl["p"], "scenario.controller.p")
        if p is not None and not p > 0.0:
            v.fail("scenario.controller.p", f"p must be positive, got {p}")
            p = None
        H = v.matrix(ctl["cost_metric"], "scenario.controller.cost_metric",
                     shape=None if m is None else (m, m))

    # -- CLF -----------------------------------------------------------------
    clf_node = doc["clf"]
    clf_shape = clf_center = gamma_gain = None
    if clf_node is not None:
        clf_map = v.mapping(clf_node, "scenario.clf",
                            ("shape", "center", "gamma_gain"))
        if clf_map is not None:
            clf_shape = v.matrix(clf_map["shape"], "scenario.clf.shape",
                                 shape=None if n is None else (n, n))
            clf_center = v.vector(clf_map["center"], "scenario.clf.center",
                                  length=n)
            gamma_gain = v.number(clf_map["gamma_gain"],
                                  "scenario.clf.gamma_gain", positive=True)

    # -- CBFs ----------------------------------------------------------------
    cbf_specs = []
    cbfs_node = doc["cbfs"]
    if not isinstance(cbfs_node, list) or not cbfs_node:
        v.fail("scenario.cbfs", "expected a non-empty list")
    else:
        for k, item in enumerate(cbfs_node):
            path = f"scenario.cbfs[{k}]"
            entry = v.mapping(item, path,
                              ("shape", "center", "offset", "alpha_gain"))
            if entry is None:
                continue
            shape = v.matrix(entry["shape"], f"{path}.shape",
                             shape=None if n is None else (n, n))
            center = v.vector(entry["center"], f"{path}.center", length=n)
            offset = v.number(entry["offset"], f"{path}.offset")
            alpha_gain = v.number(entry["alpha_gain"], f"{path}.alpha_gain",
                                  positive=True)
            cbf_specs.append((shape, center, offset, alpha_gain))

    # -- initial states --------------------------------------------------
    initial_states = []
    xs_node = doc["initial_states"]
    if not isinstance(xs_node, list):
        v.fail("scenario.initial_states", "expected a list (possibly empty)")
    else:
        for k, item in enumerate(xs_node):
            x = v.vector(item, f"scenario.initial_states[{k}]", length=n)
            if x is not None:
                initial_states.append(x)

    # -- integration -------------------------------------------------------
    dt = t_final = target = None
    target_tol = 1e-3
    integ = v.mapping(doc["integration"], "scenario.integration",
                      ("dt", "t_final", "convergence"))
    if integ is not None:
        dt = v.number(integ["dt"], "scenario.integration.dt", positive=True)
        t_final = v.number(integ["t_final"], "scenario.integration.t_final",
                           positive=True)
        conv = integ["convergence"]
        if conv is not None:
            conv_map = v.mapping(conv, "scenario.integration.convergence",
                                 ("target", "tol"))
            if conv_map is not None:
                target = v.vector(conv_map["target"],
                                  "scenario.integration.convergence.target",
                                  length=n)
                target_tol = v.number(conv_map["tol"],
                                      "scenario.integration.convergence.tol",
                                      positive=True)

    # -- search ------------------------------------------------------------
    box = None
    boundary_seeds = interior_seeds = seed = None
    search = v.mapping(doc["search"], "scenario.search",
                       ("box", "boundary_seeds", "interior_seeds", "seed"))
    if search is not None:
        box = v.matrix(search["box"], "scenario.search.box",
                       shape=None if n is None else (n, 2))
        boundary_seeds = v.integer(search["boundary_seeds"],
                                   "scenario.search.boundary_seeds", minimum=0)
        interior_seeds = v.integer(search["interior_seeds"],
                                   "scenario.search.interior_seeds", minimum=0)
        seed = v.integer(search["seed"], "scenario.search.seed", minimum=0)

    # -- tolerance overrides -----------------------------------------------
    tolerances = Tolerances()
    tol_node = doc.get("tolerances", {})
    if tol_node is None:
        tol_node = {}
    if not isinstance(tol_node, dict):
        v.fail("scenario.tolerances", "expected a mapping")
    else:
        known = set(Tolerances().to_dict())
        overrides = {}
        for key in sorted(tol_node):
            if key not in known:
                v.fail(f"scenario.tolerances.{key}", "unknown tolerance name")
                continue
            value = v.number(tol_node[key], f"scenario.tolerances.{key}",
                             positive=True)
            if value is not None:
                overrides[key] = value
        tolerances = Tolerances().replace(**overrides)

    if v.problems:
        raise ScenarioError(v.problems)

    # -- construct library objects (their validators catch the rest) --------
    try:
        if drift_kind == "linear":
            model = DynamicsModel.linear(drift_matrix, g0)
        else:
            model = DynamicsModel.driftless(g0)
        if nominal_kind == "linear_feedback":
            nominal = NominalController.linear_feedback(gain)
        else:
            nominal = NominalController.zero(m)
        params = ControllerParams(mode=mode, p=p, cost_metric=H, nominal=nominal)
        clf = gamma = None
        if clf_node is not None:
            clf = QuadraticCertificate.clf(clf_shape, clf_center)
            gamma = ClassKappa(gamma_gain)
        certificates = CertificateSet(
            cbfs=tuple(QuadraticCertificate.barrier(s, c, offset=o)
                       for s, c, o, _ in cbf_specs),
            alphas=tuple(ClassKappa(a) for *_, a in cbf_specs),
            clf=clf, gamma=gamma)
        search_config = SearchConfig(
            box=box, boundary_seeds=boundary_seeds,
            interior_seeds=interior_seeds, seed=seed)
        scenario = Scenario(
            name=name, model=model, nominal=nominal, params=params,
            certificates=certificates,
            initial_states=tuple(initial_states),
            dt=dt, t_final=t_final, target=target, target_tol=target_tol,
            search=search_config, tolerances=tolerances,
            description=description)
        scenario.problem()  # exercise the cross-component dimension checks
    except ToolkitError as exc:
        raise ScenarioError([f"scenario: {exc}"]) from exc
    return scenario


def loads_scenario(text):
    """Parse and validate scenario YAML text."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError([f"scenario: YAML parse error{where}: {exc}"]) from exc
    return _parse_document(doc)


def load_scenario(path):
    """Load and validate a scenario file."""
    with open(path, encoding="utf-8") as fh:
        return loads_scenario(fh.read())


def serialize_scenario(scenario):
    """Render a scenario back to schema-form YAML (round-trips exactly)."""
    return yaml.safe_dump(scenario.to_dict(), sort_keys=False,
                          default_flow_style=None, width=100)


def save_scenario(scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_scenario(scenario))


def bundled_scenario_names():
    """Names of the scenarios that ship inside the package."""
    from importlib.resources import files

    root = files("clfcbf") / "scenarios"
    return sorted(p.name[:-len(".scenario")] for p in root.iterdir()
                  if p.name.endswith(".scenario"))


def bundled_scenario_path(name):
    """Filesystem path of a bundled scenario (for tooling and tests)."""
    from importlib.resources import files

    path = files("clfcbf") / "scenarios" / f"{name}.scenario"
    if not path.is_file():
        raise ScenarioError(
            [f"scenario: no bundled scenario named {name!r}; "
             f"available: {', '.join(bundled_scenario_names())}"])
    return path


def load_bundled_scenario(name):
    return loads_scenario(bundled_scenario_path(name).read_text(encoding="utf-8"))


@dataclass
class AnalysisReport:
    """Structured result container written by the command-line tools.

    ``sections`` maps a section name ("equilibria", "feasibility_scan",
    "kkt_audit", "simulation") to plain-data payloads.  Serialization is
    YAML with sorted keys so that identical analyses produce byte-identical
    files; :func:`AnalysisReport.loads` round-trips to an equal value.
    """

    scenario_name: str
    scenario_sha256: str
    toolkit_version: str
    tolerances: dict
    sections: dict

    def to_dict(self):
        return {
            "scenario_name": self.scenario_name,
            "scenario_sha256": self.scenario_sha256,
            "toolkit_version": self.toolkit_version,
            "tolerances": _pyify(self.tolerances),
            "sections": _pyify(self.sections),
        }

    def dumps(self):
        return yaml.safe_dump(self.to_dict(), sort_keys=True,
                              default_flow_style=False, width=100)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def from_dict(cls, doc):
        keys = {"scenario_name", "scenario_sha256", "toolkit_version",
                "tolerances", "sections"}
        missing = keys - set(doc)
        extra = set(doc) - keys
        if missing or extra:
            problems = [f"report.{k}: missing required key" for k in sorted(missing)]
            problems += [f"report.{k}: unknown key" for k in sorted(extra)]
            raise ScenarioError(problems)
        return cls(**{k: doc[k] for k in keys})

    @classmethod
    def loads(cls, text):
        return cls.from_dict(yaml.load(text, Loader=_YAML_LOADER))

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())

    def __eq__(self, other):
        if not isinstance(other, AnalysisReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()
