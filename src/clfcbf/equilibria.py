"""Closed-loop equilibria of the pointwise QP controller.

Boundary equilibria with active barrier subset A live on the intersection
of the active boundaries and zero the field

    f_A(x, lam) = f_nom(x) - p gamma(V(x)) G(x) grad V(x) + G(x) U_A(x) lam

for some multiplier vector lam >= 0 (the CLF multiplier is eliminated:
at an equilibrium it equals p gamma(V)).  Interior equilibria zero
``f_nom - p gamma(V) G grad V`` strictly inside the safe set.

:func:`find_boundary_equilibria` runs a damped Newton method on the
augmented system [f_A; h_A] from boundary-sampled seeds with NNLS
multiplier estimates; every deduplicated root is validated against the
actual QP solution at the root (:func:`validate_equilibrium`).
"""

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionMismatchError, InfeasibleQPError, InvalidParameterError
from .qp import CLF_ROW, _State, closed_loop_field, solve_pointwise
from .stability import _equilibrium_field_jacobian

__all__ = [
    "SearchConfig",
    "EquilibriumReport",
    "equilibrium_field",
    "find_boundary_equilibria",
    "find_interior_equilibria",
    "validate_equilibrium",
]


@dataclass(frozen=True)
class SearchConfig:
    """Multistart and Newton settings for equilibrium searches.

    ``box`` is an (n, 2) array of [low, high] bounds used for interior
    seeding (and by the CLI samplers).  Seed counts are per active-index
    set.  All randomness is drawn from ``numpy.random.default_rng(seed)``.
    """

    box: np.ndarray
    boundary_seeds: int = 64
    interior_seeds: int = 32
    seed: int = 0
    newton_max_iter: int = 100
    max_halvings: int = 8

    def __post_init__(self):
        box = np.atleast_2d(np.asarray(self.box, dtype=float))
        if box.ndim != 2 or box.shape[1] != 2:
            raise DimensionMismatchError(f"box must be (n, 2), got {box.shape}")
        if np.any(box[:, 0] >= box[:, 1]):
            raise InvalidParameterError("box lower bounds must be < upper bounds")
        object.__setattr__(self, "box", box)


@dataclass(frozen=True)
class EquilibriumReport:
    """One located equilibrium, boundary or interior.

    ``lambda_e`` holds the active-barrier multipliers in the order of
    ``indices`` (empty for interior points); ``lambda0_e`` is the CLF
    multiplier p * gamma(V(x_e)).  ``residual_field`` and
    ``residual_boundary`` are recomputed after the search from scratch.
    ``degenerate`` marks weakly-active barriers (some multiplier ~ 0).
    """

    x_e: np.ndarray
    kind: str  # "boundary" | "interior"
    indices: Tuple[int, ...]
    lambda_e: np.ndarray
    lambda0_e: float
    residual_field: float
    residual_boundary: Optional[float]
    validated: bool = False
    degenerate: bool = False
    failure_reason: Optional[str] = None


def equilibrium_field(problem, x, lam, indices):
    """f_A(x, lam): the field whose roots on the active boundaries are equilibria."""
    indices = tuple(int(i) for i in indices)
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.shape[0] != len(indices):
        raise DimensionMismatchError(
            f"{lam.shape[0]} multipliers for {len(indices)} active indices")
    return _State(problem, x).equilibrium_field(
        problem.params.p, [i - 1 for i in indices], lam)


def _boundary_samples(certificate, count, rng):
    """Points on an ellipsoidal barrier boundary via Cholesky + sphere sampling."""
    if certificate.offset >= 0.0:
        return np.zeros((0, certificate.n))
    try:
        L = np.linalg.cholesky(certificate.shape)
    except np.linalg.LinAlgError:
        # non-definite quadric: no global parameterization available
        return np.zeros((0, certificate.n))
    z = rng.normal(size=(count, certificate.n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    radial = np.linalg.solve(L.T, z.T).T
    return certificate.center + np.sqrt(-certificate.offset) * radial


def _project_to_boundaries(certs, indices, x, sweeps=50, tol=1e-6):
    """Alternating per-barrier Newton steps along each gradient; None if stuck."""
    x = x.copy()
    for _ in range(sweeps):
        worst = 0.0
        for i in indices:
            b = certs.cbfs[i - 1]
            val = b.value(x)
            grad = b.gradient(x)
            norm2 = float(grad @ grad)
            if norm2 < 1e-14:
                return None
            x = x - (val / norm2) * grad
            worst = max(worst, abs(val))
        if worst <= tol:
            vals = [abs(certs.cbfs[i - 1].value(x)) for i in indices]
            if max(vals) <= tol:
                return x
    return None


def _newton(system, z0, tol_res, tol_step, max_iter, max_halvings):
    """Damped Newton; returns the root or None.

    ``system(z)`` evaluates the state once and returns ``(F(z), jacobian)``,
    where ``jacobian()`` builds J(z) from that same evaluation.  It is
    called only at accepted iterates, never at line-search trial points.
    """
    z = np.asarray(z0, dtype=float).copy()
    Fz, jacobian = system(z)
    if not np.all(np.isfinite(Fz)):
        return None
    res = float(np.max(np.abs(Fz)))
    for _ in range(max_iter):
        Jz = jacobian()
        try:
            step = np.linalg.solve(Jz, -Fz)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(Jz, -Fz, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            return None
        scale = 1.0
        for _ in range(max_halvings + 1):
            z_new = z + scale * step
            F_new, jacobian_new = system(z_new)
            res_new = float(np.max(np.abs(F_new))) if np.all(np.isfinite(F_new)) \
                else np.inf
            if res_new < res or res_new <= tol_res:
                break
            scale *= 0.5
        else:
            return None
        z, Fz, jacobian, res = z_new, F_new, jacobian_new, res_new
        step_inf = float(np.max(np.abs(scale * step)))
        if res <= tol_res and step_inf <= tol_step * max(1.0, float(np.max(np.abs(z)))):
            return z
    return None


def _lambda_seed(d, cols, p):
    """Nonnegative least-squares fit of G U_A lam ~ p gamma(V) G grad V - f_nom."""
    # imported here: scipy.optimize is most of the package's import time
    from scipy.optimize import nnls

    target = p * d.gamma_val * (d.G @ d.gradV) - d.f_nom
    basis = d.G @ d.U[:, cols]
    try:
        lam, _ = nnls(basis, target)
    except Exception:
        lam = np.zeros(len(cols))
    return lam


def find_boundary_equilibria(problem, indices, config):
    """Locate boundary equilibria for one active-index set.

    Parameters
    ----------
    problem : ControlProblem
    indices : sequence of int
        Ordered 1-based barrier indices forming the active set A.
    config : SearchConfig

    Returns
    -------
    list of EquilibriumReport
        Deduplicated, validated, sorted by x_e.  Roots with any multiplier
        below -1e-6 are discarded; an empty list means the seeded
        intersection was empty or Newton found nothing.
    """
    indices = tuple(int(i) for i in indices)
    certs = problem.certificates
    # validates the index range as a side effect
    certs.stacked_gradients(np.zeros(problem.n), indices)
    if not indices:
        raise InvalidParameterError("boundary search needs at least one index")
    r = len(indices)
    n = problem.n
    p = problem.params.p
    tol = problem.tolerances
    rng = np.random.default_rng(config.seed)

    seeds = []
    base = _boundary_samples(certs.cbfs[indices[0] - 1], config.boundary_seeds, rng)
    for x0 in base:
        if r > 1:
            x0 = _project_to_boundaries(certs, indices, x0)
            if x0 is None:
                continue
        seeds.append(x0)
    if not seeds:
        return []

    cols = [i - 1 for i in indices]

    def system(z):
        lam = z[n:]
        d = _State(problem, z[:n])

        def jacobian():
            U_A = d.U[:, cols]
            top = np.hstack([
                _equilibrium_field_jacobian(problem, d, lam, indices),
                d.G @ U_A,
            ])
            bottom = np.hstack([U_A.T, np.zeros((r, r))])
            return np.vstack([top, bottom])

        return np.concatenate([d.equilibrium_field(p, cols, lam), d.h[cols]]), jacobian

    roots = []
    for x0 in seeds:
        d0 = _State(problem, x0)
        lam0 = _lambda_seed(d0, cols, p)
        z = _newton(system, np.concatenate([x0, lam0]),
                    tol.newton_residual, tol.newton_step,
                    config.newton_max_iter, config.max_halvings)
        if z is None:
            continue
        if float(np.min(z[n:])) < -1e-6:
            continue
        if not any(np.linalg.norm(z - seen) <= tol.dedup for seen in roots):
            roots.append(z)

    reports = []
    for z in roots:
        x_e, lam = z[:n], z[n:]
        d = _State(problem, x_e)
        field = d.equilibrium_field(p, cols, lam)
        report = EquilibriumReport(
            x_e=x_e,
            kind="boundary",
            indices=indices,
            lambda_e=lam,
            lambda0_e=p * d.gamma_val,
            residual_field=float(np.max(np.abs(field))),
            residual_boundary=float(np.max(np.abs(d.h[cols]))),
            degenerate=bool(np.any(np.abs(lam) <= tol.validate)),
        )
        reports.append(validate_equilibrium(problem, report))
    reports.sort(key=lambda rep: tuple(rep.x_e))
    return reports


def validate_equilibrium(problem, report):
    """Check a boundary report against the actual QP solution at x_e.

    Validation passes iff the QP at x_e reproduces exactly the active set
    {CLF row} + A, the CLF multiplier equals p gamma(V(x_e)), the barrier
    multipliers match (skipping weakly-active ones when degenerate), the
    closed-loop field vanishes, and no inactive barrier is violated.
    Returns a copy of the report with ``validated`` / ``failure_reason``
    filled in.
    """
    tol = problem.tolerances
    x_e = report.x_e
    expected = frozenset((CLF_ROW,) + report.indices)
    reason = None
    try:
        sol = solve_pointwise(problem, x_e)
    except InfeasibleQPError as err:
        return replace(report, validated=False, failure_reason=str(err))
    h = problem.certificates.barrier_values(x_e)
    inactive = [j for j in range(1, problem.n_barriers + 1) if j not in report.indices]
    if any(h[j - 1] < -tol.active for j in inactive):
        reason = "root lies outside the safe set (inactive barrier negative)"
    elif sol.active_set != expected:
        reason = (f"QP active set {sorted(sol.active_set)} != expected "
                  f"{sorted(expected)}")
    elif abs(sol.lambda0 - report.lambda0_e) > tol.validate:
        reason = (f"CLF multiplier {sol.lambda0:.3e} != p*gamma(V) = "
                  f"{report.lambda0_e:.3e}")
    else:
        for k, i in enumerate(report.indices):
            if report.degenerate and abs(report.lambda_e[k]) <= tol.validate:
                continue
            if abs(sol.lam[i - 1] - report.lambda_e[k]) > tol.validate:
                reason = f"barrier {i} multiplier mismatch"
                break
        if reason is None:
            f_cl = closed_loop_field(problem, x_e, solution=sol)
            if float(np.max(np.abs(f_cl))) > tol.validate:
                reason = "closed-loop field does not vanish at x_e"
    return replace(report, validated=reason is None, failure_reason=reason)


def find_interior_equilibria(problem, config):
    """Equilibria strictly inside the safe set: roots of f_nom - p gamma(V) G grad V.

    Survivors must keep every barrier above the interior margin and the QP
    at the root must leave every barrier row inactive; roots failing either
    test are spurious for the closed loop and are dropped.
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

    reports = []
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
        f_cl = closed_loop_field(problem, x_e, solution=sol)
        if float(np.max(np.abs(f_cl))) > tol.validate:
            continue
        reports.append(EquilibriumReport(
            x_e=x_e,
            kind="interior",
            indices=(),
            lambda_e=np.zeros(0),
            lambda0_e=p * d.gamma_val,
            residual_field=float(np.max(np.abs(d.equilibrium_field(p, [], no_lam)))),
            residual_boundary=None,
            validated=True,
        ))
    reports.sort(key=lambda rep: tuple(rep.x_e))
    return reports
