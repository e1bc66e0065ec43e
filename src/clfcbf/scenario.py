"""Scenario files: one YAML document describing a complete problem setup.

A scenario bundles the plant, nominal controller, QP parameters,
certificates, initial states, integration settings and equilibrium-search
settings, so that every command-line run and batch experiment is driven
by a single reviewable text file.  The schema is versioned and validation
fails closed: unknown keys are errors, and *all* problems are reported at
once (:class:`~clfcbf.errors.ScenarioError.problems`), not just the first.

Schema 1 is written once, as the table ``_SCHEMA``.  Besides the
top-level ``schema: 1``, ``name``, optional ``description`` and optional
``tolerances`` (a mapping of :class:`~clfcbf.tolerances.Tolerances` field
names to positive numbers), every node below the top level has one of
these forms:

* a mapping, whose keys are all required;
* ``("list_of", item, non_empty)``: a list of ``item`` nodes;
* ``"number"``, ``"positive"`` (a number > 0) and ``"count"`` (an
  integer >= 0);
* ``("vector", "n")``: a list of n numbers;
* ``("matrix", rows, cols)``: a list of rows of numbers, each dimension
  given as ``"n"``, ``"m"`` or an int; ``"input_map"``, the matrix at
  ``dynamics.input.matrix``, defines n and m;
* ``"mode"``: one of :data:`~clfcbf.qp.MODES`;
* ``("nullable", node)``: ``null`` or ``node``;
* ``("kind", key, other, node)``: ``{kind: zero}``, which forbids ``key``,
  or ``{kind: <other>, <key>: node}``.

Reading a document against the table yields its normalized form: numbers
as floats, vectors and matrices as arrays, every mapping in table order.
A :class:`Scenario` keeps it; in plain Python it is the canonical form
that :meth:`Scenario.to_dict` returns and :func:`serialize_scenario` writes.

The schema expresses every plant and nominal controller the library
has: zero or linear drift, a constant input map, and zero or linear
state-feedback nominal control.
"""

import hashlib
import json
from dataclasses import dataclass

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

_QUADRIC = {"shape": ("matrix", "n", "n"), "center": ("vector", "n")}

#: every section of schema 1 below the top level, in canonical order.
_SCHEMA = {
    "dynamics": {
        "drift": ("kind", "matrix", "linear", ("matrix", "n", "n")),
        "input": {"matrix": "input_map"},
    },
    "nominal": ("kind", "gain", "linear_feedback", ("matrix", "m", "n")),
    "controller": {"mode": "mode", "p": "number",
                   "cost_metric": ("matrix", "m", "m")},
    "clf": ("nullable", {**_QUADRIC, "gamma_gain": "positive"}),
    "cbfs": ("list_of", {**_QUADRIC, "offset": "number", "alpha_gain": "positive"},
             True),
    "initial_states": ("list_of", ("vector", "n"), False),
    "integration": {
        "dt": "positive",
        "t_final": "positive",
        "convergence": ("nullable", {"target": ("vector", "n"), "tol": "positive"}),
    },
    "search": {"box": ("matrix", "n", 2), "boundary_seeds": "count",
               "interior_seeds": "count", "seed": "count"},
}

#: the key read first in every mapping: the input map defines n and m.
_READ_FIRST = "input"


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


class _Validator:
    """Reads a document against ``_SCHEMA``, accumulating problems as
    'field.path: message' strings.  Each reader returns the node's
    normalized value, or None once it has recorded a problem there."""

    def __init__(self):
        self.problems = []
        self.dims = {"n": None, "m": None}

    def fail(self, path, message):
        self.problems.append(f"{path}: {message}")
        return None

    def mapping(self, node, path, required, optional=()):
        if not isinstance(node, dict):
            return self.fail(path, f"expected a mapping, got {type(node).__name__}")
        for key in sorted(set(node) - set(required) - set(optional), key=str):
            self.fail(f"{path}.{key}", "unknown key")
        ok = True
        for key in required:
            if key not in node:
                self.fail(f"{path}.{key}", "missing required key")
                ok = False
        return node if ok else None

    def read(self, node, spec, path):
        if type(spec) is str:
            return getattr(self, spec)(node, path)
        if type(spec) is tuple:
            return getattr(self, spec[0])(node, path, *spec[1:])
        if self.mapping(node, path, spec) is None:
            return None
        return self.fields(node, spec, path)

    def fields(self, node, spec, path):
        """Every key of a mapping node in table order, the input map read first."""
        out = dict.fromkeys(spec)
        if _READ_FIRST in spec:
            spec = {_READ_FIRST: spec[_READ_FIRST], **spec}
        for key, sub in spec.items():
            out[key] = self.read(node[key], sub, f"{path}.{key}")
        return out

    def list_of(self, node, path, item, non_empty):
        if not isinstance(node, list) or (non_empty and not node):
            return self.fail(path, "expected a non-empty list" if non_empty
                             else "expected a list (possibly empty)")
        return [self.read(x, item, f"{path}[{k}]") for k, x in enumerate(node)]

    def nullable(self, node, path, spec):
        return None if node is None else self.read(node, spec, path)

    def kind(self, node, path, key, other, spec):
        if self.mapping(node, path, ("kind",), (key,)) is None:
            return None
        kind = node["kind"]
        if kind == "zero":
            if key in node:
                return self.fail(f"{path}.{key}", "not allowed when kind is 'zero'")
            return {"kind": kind}
        if kind != other:
            return self.fail(f"{path}.kind",
                             f"expected 'zero' or {other!r}, got {kind!r}")
        if key not in node:
            return self.fail(f"{path}.{key}", f"required when kind is {other!r}")
        return {"kind": kind, key: self.read(node[key], spec, f"{path}.{key}")}

    def mode(self, node, path):
        if node not in MODES:
            return self.fail(path, f"expected one of {MODES}, got {node!r}")
        return node

    def number(self, node, path, positive=False):
        if not isinstance(node, (int, float)) or isinstance(node, bool):
            return self.fail(path, f"expected a number, got {type(node).__name__}")
        try:
            value = float(node)
        except OverflowError:
            return self.fail(path, "number too large")
        if positive and not value > 0.0:
            return self.fail(path, f"must be positive, got {value}")
        return value

    def positive(self, node, path):
        return self.number(node, path, positive=True)

    def count(self, node, path):
        if not isinstance(node, int) or isinstance(node, bool):
            return self.fail(path, f"expected an integer, got {type(node).__name__}")
        if node < 0:
            return self.fail(path, f"must be >= 0, got {node}")
        return int(node)

    def vector(self, node, path, length):
        length = self.dims[length]
        try:
            v = np.asarray(node, dtype=float)
        except (TypeError, ValueError, OverflowError):
            return self.fail(path, "expected a list of numbers")
        if v.ndim != 1:
            return self.fail(path, f"expected a flat list, got shape {v.shape}")
        if length is not None and v.shape[0] != length:
            return self.fail(path, f"expected length {length}, got {v.shape[0]}")
        return v

    def matrix(self, node, path, rows=None, cols=None):
        shape = (self.dims.get(rows, rows), self.dims.get(cols, cols))
        try:
            M = np.asarray(node, dtype=float)
        except (TypeError, ValueError, OverflowError):
            return self.fail(path, "expected a list of rows of numbers")
        if M.ndim != 2:
            return self.fail(path, f"expected a matrix, got shape {M.shape}")
        if None not in shape and M.shape != shape:
            return self.fail(path, f"expected shape {shape}, got {M.shape}")
        return M

    def input_map(self, node, path):
        M = self.matrix(node, path)
        if M is not None:
            self.dims.update(n=M.shape[0], m=M.shape[1])
        return M


def _read_document(doc):
    """The normalized form of ``doc``, or a ScenarioError listing every
    problem in it."""
    v = _Validator()
    if v.mapping(doc, "scenario", ("schema", "name", *_SCHEMA),
                 ("description", "tolerances")) is None:
        raise ScenarioError(v.problems)
    if doc["schema"] != SCHEMA_VERSION:
        v.fail("scenario.schema",
               f"unsupported schema version {doc['schema']!r}; "
               f"this toolkit reads version {SCHEMA_VERSION}")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        v.fail("scenario.name", "expected a non-empty string")
    description = doc.get("description", "")
    if not isinstance(description, str):
        v.fail("scenario.description", "expected a string")
    out = {"schema": SCHEMA_VERSION, "name": name}
    if description:
        out["description"] = description
    out.update(v.fields(doc, _SCHEMA, "scenario"))
    p = (out["controller"] or {}).get("p")
    if p is not None and not p > 0.0:
        v.fail("scenario.controller.p", f"p must be positive, got {p}")

    tol_node = doc.get("tolerances")
    out["tolerances"] = Tolerances().to_dict()
    if tol_node is not None and not isinstance(tol_node, dict):
        v.fail("scenario.tolerances", "expected a mapping")
    elif tol_node:
        for key in sorted(tol_node, key=str):
            path = f"scenario.tolerances.{key}"
            if key in out["tolerances"]:
                out["tolerances"][key] = v.positive(tol_node[key], path)
            else:
                v.fail(path, "unknown tolerance name")
    if v.problems:
        raise ScenarioError(v.problems)
    return out


class Scenario:
    """A validated scenario, built from its schema-1 document.

    ``Scenario(document)`` takes the parsed YAML document (plain
    dictionaries and lists), validates it against ``_SCHEMA`` (raising
    :class:`~clfcbf.errors.ScenarioError` with every problem), builds the
    library objects and keeps the normalized document, the one source of
    :meth:`to_dict`, :meth:`sha256`, equality and hashing.
    :meth:`problem` yields the bound ControlProblem.
    """

    def __init__(self, document):
        self._document = doc = _read_document(document)
        self.tolerances = Tolerances(**doc["tolerances"])
        self.name = doc["name"]
        self.description = doc.get("description", "")
        dyn, nom, ctl, clf = doc["dynamics"], doc["nominal"], doc["controller"], doc["clf"]
        self.initial_states = tuple(doc["initial_states"])
        self.dt = doc["integration"]["dt"]
        self.t_final = doc["integration"]["t_final"]
        conv = doc["integration"]["convergence"]
        self.target = None if conv is None else conv["target"]
        self.target_tol = 1e-3 if conv is None else conv["tol"]
        # the library objects' own validators catch the rest
        try:
            g0 = dyn["input"]["matrix"]
            if dyn["drift"]["kind"] == "linear":
                self.model = DynamicsModel.linear(dyn["drift"]["matrix"], g0)
            else:
                self.model = DynamicsModel.driftless(g0)
            if nom["kind"] == "linear_feedback":
                self.nominal = NominalController.linear_feedback(nom["gain"])
            else:
                self.nominal = NominalController.zero(g0.shape[1])
            self.params = ControllerParams(
                mode=ctl["mode"], p=ctl["p"], cost_metric=ctl["cost_metric"],
                nominal=self.nominal)
            self.certificates = CertificateSet(
                clf=None if clf is None
                else QuadraticCertificate.clf(clf["shape"], clf["center"]),
                gamma=None if clf is None else ClassKappa(clf["gamma_gain"]),
                cbfs=tuple(QuadraticCertificate.barrier(b["shape"], b["center"],
                                                        offset=b["offset"])
                           for b in doc["cbfs"]),
                alphas=tuple(ClassKappa(b["alpha_gain"]) for b in doc["cbfs"]))
            self.search = SearchConfig(**doc["search"])
            self.problem()  # exercise the cross-component dimension checks
        except ToolkitError as exc:
            raise ScenarioError([f"scenario: {exc}"]) from exc

    def problem(self):
        return ControlProblem(
            model=self.model, certificates=self.certificates,
            params=self.params, tolerances=self.tolerances)

    def to_dict(self):
        """The normalized document in plain Python: the canonical schema
        form, which round-trips through YAML."""
        return _pyify(self._document)

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


def loads_scenario(text):
    """Parse scenario YAML text: ``Scenario`` of its document."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError([f"scenario: YAML parse error{where}: {exc}"]) from exc
    return Scenario(doc)


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
