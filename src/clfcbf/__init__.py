"""CLF-CBF quadratic-program controllers: solve, simulate, find deadlocks.

A toolkit for the pointwise min-norm controller that blends a control
Lyapunov function (stabilization) with multiple control barrier functions
(safety) through a relaxed quadratic program.  Beyond solving the QP and
simulating the closed loop, the package locates the boundary equilibria
("deadlocks") the constraint interplay creates, classifies their
stability through the closed-loop Jacobian, and audits itself with an
independent dual-ascent oracle and a sufficient feasibility certificate.

Typical use::

    from clfcbf import load_bundled_scenario, solve_pointwise, integrate

    scenario = load_bundled_scenario("deadlock2d")
    problem = scenario.problem()
    solution = solve_pointwise(problem, [5.0, 0.1])
    trajectory = integrate(problem, [5.0, 0.1], dt=1e-3, t_final=20.0)
"""

from .certificates import (
    MAX_BARRIERS,
    CertificateSet,
    ClassKappa,
    QuadraticCertificate,
)
from .equilibria import (
    EquilibriumReport,
    SearchConfig,
    equilibrium_field,
    find_boundary_equilibria,
    find_interior_equilibria,
    validate_equilibrium,
)
from .errors import (
    DimensionMismatchError,
    InfeasibleQPError,
    IntegrationError,
    InvalidParameterError,
    NumericalError,
    OracleFailureError,
    PreconditionError,
    ScenarioError,
    ToolkitError,
)
from .qp import (
    MODES,
    ControllerParams,
    ControlProblem,
    FeasibilityReport,
    QpSolution,
    check_feasibility_condition,
    closed_loop_field,
    oracle_solve,
    solve_pointwise,
)
from .scenario import (
    AnalysisReport,
    Scenario,
    bundled_scenario_names,
    bundled_scenario_path,
    load_bundled_scenario,
    load_scenario,
    loads_scenario,
    save_scenario,
    serialize_scenario,
)
from .simulate import (
    Termination,
    Trajectory,
    integrate,
    read_trajectory_csv,
    safety_margin,
    write_trajectory_csv,
)
from .stability import (
    JacobianBundle,
    SpectrumCheck,
    StabilityVerdict,
    classify,
    closed_loop_jacobian,
    equilibrium_field_jacobian,
    spectrum_cross_check,
)
from .systems import DynamicsModel, NominalController
from .tolerances import Tolerances

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # systems
    "DynamicsModel", "NominalController",
    # certificates
    "MAX_BARRIERS", "ClassKappa", "QuadraticCertificate", "CertificateSet",
    # tolerances
    "Tolerances",
    # qp
    "MODES", "ControllerParams", "ControlProblem", "QpSolution",
    "FeasibilityReport", "solve_pointwise", "oracle_solve",
    "check_feasibility_condition", "closed_loop_field",
    # equilibria
    "SearchConfig", "EquilibriumReport", "equilibrium_field",
    "find_boundary_equilibria", "find_interior_equilibria",
    "validate_equilibrium",
    # stability
    "JacobianBundle", "StabilityVerdict", "SpectrumCheck",
    "equilibrium_field_jacobian", "closed_loop_jacobian", "classify",
    "spectrum_cross_check",
    # simulate
    "Termination", "Trajectory", "integrate", "safety_margin",
    "write_trajectory_csv", "read_trajectory_csv",
    # scenario
    "Scenario", "AnalysisReport", "load_scenario", "loads_scenario",
    "serialize_scenario", "save_scenario", "bundled_scenario_names",
    "bundled_scenario_path", "load_bundled_scenario",
    # errors
    "ToolkitError", "DimensionMismatchError", "InvalidParameterError",
    "NumericalError", "PreconditionError", "InfeasibleQPError",
    "OracleFailureError", "IntegrationError", "ScenarioError",
]
