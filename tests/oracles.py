"""Test-only reference implementations the library is checked against.

``verify_factorization`` re-derives, on its own, the congruence behind
the stability test; ``multistart_interior_equilibria`` is the rejection-
sampled multistart Newton search that the eigenvalue enumeration of
``find_interior_equilibria`` replaced, kept to show that the enumeration
finds every root the multistart finds.
"""
import numpy as np

from clfcbf import InfeasibleQPError, solve_pointwise
from clfcbf.equilibria import _newton
from clfcbf.qp import _PointData, _State
from clfcbf.stability import (
    _equilibrium_field_jacobian,
    _frozen_multiplier_jacobian,
    _orthogonal_complement_basis,
)


def verify_factorization(problem, x_e, lam, indices):
    """Residual of the congruence factorization of the deflated Jacobian.

    Checks that P J_A - gamma'(V)/c * G grad V grad V^T equals
    (B^T)^{-1} D B^T J_fA with B = [grad V | basis of {G grad V}^perp] and
    D = diag(1/(p c), I): the deflated multiplier-frozen Jacobian is
    congruent to the equilibrium-field Jacobian, which is why the latter
    decides stability.  Returns the relative residual, or None when the
    factorization does not apply (grad V = 0 or singular G).
    """
    indices = tuple(int(i) for i in indices)
    lam = np.asarray(lam, dtype=float).ravel()
    d = _PointData(problem, x_e)
    tol = problem.tolerances
    n = d.x.shape[0]
    if float(np.max(np.abs(d.gradV))) < 1e-12:
        return None
    g_sv = np.linalg.svd(d.G, compute_uv=False)
    if g_sv[-1] <= tol.rank * max(1.0, float(g_sv[0])):
        return None
    p = problem.params.p
    lambda0_e = p * d.gamma_val
    gamma_slope = problem.certificates.gamma_slope(d.V)
    J_A = _frozen_multiplier_jacobian(problem, x_e, lambda0_e, lam, indices)
    J_fA = _equilibrium_field_jacobian(problem, d, lam, indices)
    P_V = np.eye(n) - np.outer(d.G @ d.gradV, d.gradV) / d.c
    lhs = P_V @ J_A - (gamma_slope / d.c) * np.outer(d.G @ d.gradV, d.gradV)
    W = _orthogonal_complement_basis([d.G @ d.gradV])
    B = np.column_stack([d.gradV, W])
    D = np.diag(np.concatenate([[1.0 / (p * d.c)], np.ones(n - 1)]))
    rhs = np.linalg.solve(B.T, D @ B.T @ J_fA)
    return float(np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(lhs))))


def multistart_interior_equilibria(problem, config):
    """Interior equilibria by damped Newton from rejection-sampled seeds.

    The seeds are the CLF centre (when safe) plus up to
    ``config.interior_seeds`` uniform draws from ``config.box`` that lie
    in the safe set; roots are deduplicated and filtered like the
    library's search.  Returns the sorted list of root states.
    """
    n = problem.n
    p = problem.params.p
    tol = problem.tolerances
    certs = problem.certificates
    rng = np.random.default_rng(config.seed)

    seeds = []
    if certs.has_clf:
        center = certs.clf.center
        if np.all(certs.barrier_values(center) > 0.0):
            seeds.append(center.astype(float))
    lo, hi = config.box[:, 0], config.box[:, 1]
    attempts = 0
    while len(seeds) < config.interior_seeds and attempts < 200:
        batch = rng.uniform(lo, hi, size=(max(config.interior_seeds, 8), n))
        for x in batch:
            if np.all(certs.barrier_values(x) > 0.0):
                seeds.append(x)
                if len(seeds) >= config.interior_seeds:
                    break
        attempts += 1

    no_lam = np.zeros(0)

    def system(x):
        d = _State(problem, x)
        return d.equilibrium_field(p, [], no_lam), \
            lambda: _equilibrium_field_jacobian(problem, d, no_lam, ())

    roots = []
    for x0 in seeds:
        x = _newton(system, x0, tol.newton_residual, tol.newton_step,
                    config.newton_max_iter, config.max_halvings)
        if x is None:
            continue
        if not any(np.linalg.norm(x - seen) <= tol.dedup for seen in roots):
            roots.append(x)

    kept = []
    for x_e in roots:
        d = _State(problem, x_e)
        if float(np.min(d.h)) <= tol.interior:
            continue
        try:
            sol = solve_pointwise(problem, x_e)
        except InfeasibleQPError:
            continue
        if any(i >= 1 for i in sol.active_set):
            continue
        if float(np.max(np.abs(sol.xdot))) > tol.validate:
            continue
        kept.append(x_e)
    kept.sort(key=tuple)
    return kept
