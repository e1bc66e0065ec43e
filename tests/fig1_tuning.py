"""Grid fixture for the 3-D two-obstacle scenario: sweep the CLF shape and
report the verdict of the top intersection equilibrium.

The top equilibrium sits on the z axis at z = 3 + sqrt((1 - s_x)/s_z); its
tangent complement is the y axis, where the curvature balance reduces to

    mu_y = 4 lambda s_y - 2 p gamma(V) q_y,   lambda = gamma(V) q_z z / (8 (z-3)),

so the verdict flips at q_y = q_z * (s_y / s_z) * z / (z - 3) independent of
the gamma gain.  The sweep below reproduces that boundary numerically and is
used by the stability tests to justify the bundled CLF shape.
"""
import numpy as np

from clfcbf import (
    CertificateSet,
    ClassKappa,
    ControlProblem,
    ControllerParams,
    DynamicsModel,
    NominalController,
    QuadraticCertificate,
    SearchConfig,
    Tolerances,
    classify,
    find_boundary_equilibria,
)

INPUT_MATRIX = np.array([[1.0, 0.0, -2.0], [0.0, 1.0, 0.0], [-2.0, 0.0, 1.0]])
OBSTACLE_SHAPE = np.diag([0.5, 1.0, 4.0])
SEARCH = SearchConfig(
    box=np.array([[-3.0, 3.0], [-3.0, 3.0], [0.0, 6.0]]),
    boundary_seeds=48,
    interior_seeds=8,
    seed=0,
)


def build_problem(clf_diag, gamma_gain=0.25, obstacle_diag=None):
    """The fig1 plant with CLF diag(``clf_diag``) and both obstacles
    diag(``obstacle_diag``), by default the bundled diag(0.5, 1, 4)."""
    shape = OBSTACLE_SHAPE if obstacle_diag is None else np.diag(obstacle_diag)
    certificates = CertificateSet(
        cbfs=(
            QuadraticCertificate.barrier(
                shape=shape, center=np.array([-1.0, 0.0, 3.0]), offset=-1.0
            ),
            QuadraticCertificate.barrier(
                shape=shape, center=np.array([1.0, 0.0, 3.0]), offset=-1.0
            ),
        ),
        alphas=(ClassKappa(1.0), ClassKappa(1.0)),
        clf=QuadraticCertificate.clf(shape=np.diag(clf_diag), center=np.zeros(3)),
        gamma=ClassKappa(gamma_gain),
    )
    params = ControllerParams(
        mode="clf_cbf",
        p=1.0,
        cost_metric=np.eye(3),
        nominal=NominalController.zero(3),
    )
    return ControlProblem(
        model=DynamicsModel.driftless(input_matrix=INPUT_MATRIX),
        certificates=certificates,
        params=params,
        tolerances=Tolerances(),
    )


def top_equilibrium_verdict(clf_diag, gamma_gain=0.25):
    """Locate the z-axis intersection equilibrium and classify it."""
    problem = build_problem(clf_diag, gamma_gain)
    for rep in find_boundary_equilibria(problem, [1, 2], SEARCH):
        if rep.validated and abs(rep.x_e[0]) < 1e-8 and abs(rep.x_e[1]) < 1e-8:
            verdict = classify(problem, rep.x_e, rep.lambda_e, [1, 2])
            return verdict, rep
    raise LookupError("top intersection equilibrium not found")


def verdict_boundary_ratio(s_diag=None):
    """The analytic flip ratio q_y / q_z at the top equilibrium."""
    s = np.diag(OBSTACLE_SHAPE) if s_diag is None else np.asarray(s_diag, dtype=float)
    z = 3.0 + np.sqrt((1.0 - s[0]) / s[2])
    return (s[1] / s[2]) * z / (z - 3.0)


def sweep_clf_y_curvature(q_y_values, q_xz=1.0, gamma_gain=0.25):
    """Verdict of the top equilibrium as q_y sweeps with q_x = q_z fixed."""
    out = []
    for q_y in q_y_values:
        verdict, rep = top_equilibrium_verdict((q_xz, q_y, q_xz), gamma_gain)
        out.append((float(q_y), verdict.verdict, float(verdict.mu_max)))
    return out
