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
:func:`find_interior_equilibria` draws no seeds: it enumerates every
interior root from one eigenvalue problem and polishes each by Newton.

Both searches run Newton in lockstep (:func:`_newton`): all seeds advance
together on one stacked linear solve per iteration, with the full steps
in one stacked evaluation of the system and every remaining halving in a
second, while each seed keeps its own residual, step and step halvings.
The evaluation computes every row exactly as it would alone, so a seed's
root is the same bit for bit as from a Newton run on that seed by itself.
"""

from dataclasses import dataclass, replace
from math import comb
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasibleQPError,
    InvalidParameterError,
    PreconditionError,
)
from .certificates import _check_indices, _quadrics
from .qp import CLF_ROW, closed_loop_field, solve_pointwise
from .stability import _EquilibriumSystem, _stack_of_one

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

    ``boundary_seeds`` is the seed count per active-index set of the
    boundary search, drawn from ``numpy.random.default_rng(seed)``.
    ``box`` is an (n, 2) array of [low, high] bounds the CLI samplers draw
    from.  The interior search enumerates its roots and draws no seeds:
    ``interior_seeds`` is accepted for scenario schema 1 and unused, and
    neither ``seed`` nor ``box`` affects it.  ``newton_max_iter`` and
    ``max_halvings`` bound the Newton run from every seed, the interior
    polish included.  The seeds of one search advance in lockstep, but
    each stops on its own bounds, and its root does not depend on the
    other seeds.
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
    system, z = _stack_of_one(problem, x, lam, indices)
    return system(z)[0][0, :system.n]


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


def _project_to_boundaries(certs, indices, X, sweeps=50, tol=1e-6):
    """Alternating per-barrier Newton steps along each gradient, every row of
    X at once; the rows that reach all the boundaries, in order.

    Each row follows its own projection: it stops when a sweep starts
    within ``tol`` of every boundary and ends there too, and is dropped
    when a gradient vanishes or ``sweeps`` sweeps do not bring it there.
    """
    X = X.copy()
    running = np.ones(X.shape[0], dtype=bool)
    reached = np.zeros(X.shape[0], dtype=bool)
    cols = [[i - 1] for i in indices]

    def quadric(col):
        h, grad = _quadrics(certs.shapes[col], certs.centers[col],
                            certs.offsets[col], X)
        return h[:, 0], grad[:, 0]

    for _ in range(sweeps):
        worst = np.zeros(X.shape[0])
        for col in cols:
            val, grad = quadric(col)
            norm2 = (grad[:, None, :] @ grad[:, :, None])[:, 0, 0]
            running &= norm2 >= 1e-14
            X[running] -= (val[running] / norm2[running])[:, None] * grad[running]
            worst = np.fmax(worst, np.abs(val))
        close = running & (worst <= tol)
        if close.any():
            worst = np.max([np.abs(quadric(col)[0]) for col in cols], axis=0)
            close &= worst <= tol
            reached |= close
            running &= ~close
        if not running.any():
            break
    return X[reached]


def _solve_stack(J, b):
    """Solutions of J[k] s = b[k]: one stacked solve, or, when some J[k] is
    singular, a solve for each row with a least-squares fallback."""
    try:
        return np.linalg.solve(J, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(b)
        for k in range(b.shape[0]):
            try:
                out[k] = np.linalg.solve(J[k], b[k])
            except np.linalg.LinAlgError:
                out[k] = np.linalg.lstsq(J[k], b[k], rcond=None)[0]
        return out


def _residuals(F):
    """max |F[k]| of each row, inf for a row with a non-finite value."""
    return np.where(np.all(np.isfinite(F), axis=1), np.max(np.abs(F), axis=1), np.inf)


def _newton(system, Z0, tol_res, tol_step, max_iter, max_halvings):
    """Damped Newton from every row of Z0 in lockstep; one root or None per row.

    ``system(Z)`` evaluates a stack of points once and returns their values
    and Jacobians, row k bit for bit as for a stack of one.  Each row keeps
    its own residual, step and step halvings: it takes the full Newton
    step, or else the first of the steps halved 1 .. ``max_halvings``
    times whose residual decreases (or meets ``tol_res``), and fails when
    none does, on a non-finite value or step, or after ``max_iter`` steps.
    It converges once the residual meets ``tol_res`` and the step
    ``tol_step`` relative to max(1, |z|).  Every running row's step comes
    from one stacked solve.  The full steps are in one stacked evaluation,
    and every remaining halving of the rows that reject them in a second,
    a (rows x ``max_halvings``) stack.  The scales are exact powers of
    two, so each row returns exactly what a Newton run from it alone,
    halving one step at a time, would.
    """
    Z = np.array(Z0, dtype=float)
    F, J = system(Z)
    res = _residuals(F)
    running = np.isfinite(res)
    roots = [None] * Z.shape[0]
    scales = np.ldexp(1.0, -np.arange(1, max_halvings + 1))
    for _ in range(max_iter):
        rows = np.flatnonzero(running)
        if not rows.size:
            break
        step = _solve_stack(J[rows], -F[rows])
        finite = np.all(np.isfinite(step), axis=1)
        running[rows[~finite]] = False
        rows, step = rows[finite], step[finite]
        scale = np.ones(rows.size)
        trial = Z[rows] + step
        F_new, J_new = system(trial)
        res_new = _residuals(F_new)
        accept = (res_new < res[rows]) | (res_new <= tol_res)
        halving = np.flatnonzero(~accept)
        if halving.size and scales.size:
            # (row, scale) pairs in row-major order, one stack for all
            halved = (Z[rows[halving], None] + scales[:, None]
                      * step[halving, None]).reshape(-1, Z.shape[1])
            F_half, J_half = system(halved)
            res_half = _residuals(F_half).reshape(halving.size, scales.size)
            ok = (res_half < res[rows[halving], None]) | (res_half <= tol_res)
            took = np.flatnonzero(ok.any(axis=1))
            first = np.argmax(ok[took], axis=1)
            pick = took * scales.size + first
            halving = halving[took]
            trial[halving], F_new[halving], J_new[halving] = \
                halved[pick], F_half[pick], J_half[pick]
            res_new[halving], scale[halving] = res_half[took, first], scales[first]
            accept[halving] = True
        running[rows[~accept]] = False
        rows, step, scale = rows[accept], step[accept], scale[accept]
        Z[rows], F[rows], J[rows], res[rows] = \
            trial[accept], F_new[accept], J_new[accept], res_new[accept]
        step_inf = np.max(np.abs(scale[:, None] * step), axis=1)
        done = (res[rows] <= tol_res) & (
            step_inf <= tol_step * np.maximum(1.0, np.max(np.abs(Z[rows]), axis=1)))
        for k in rows[done]:
            roots[k] = Z[k].copy()
        running[rows[done]] = False
    return roots


def _nnls(A, b):
    """argmin ||A x - b|| over x >= 0 (Lawson & Hanson's active-set method).

    A^T A and A^T b steer the active set; a one-column subproblem takes the
    closed form a^T b / a^T a and a larger one a least-squares solve on the
    columns of A.  The systems here have a few columns, so the bookkeeping
    runs on Python floats: NumPy calls would cost more than the arithmetic.
    """
    m, k = A.shape
    if k == 1:
        a = A[:, 0]
        aa = float(a @ a)
        return np.array([max(float(a @ b) / aa, 0.0) if aa > 0.0 else 0.0])
    AtA = (A.T @ A).tolist()
    Atb = (A.T @ b).tolist()
    norm = max(AtA[i][i] for i in range(k)) ** 0.5
    tol = 10.0 * np.finfo(float).eps * max(m, k) * norm
    x = [0.0] * k
    passive = []
    for _ in range(3 * k):
        free = [i for i in range(k) if i not in passive]
        if not free:
            break
        grad = [Atb[i] - sum(AtA[i][j] * x[j] for j in passive) for i in free]
        best = max(range(len(free)), key=grad.__getitem__)
        if grad[best] <= tol:
            break
        passive.append(free[best])
        while passive:
            if len(passive) == 1:
                i = passive[0]
                z = [Atb[i] / AtA[i][i]]
            else:
                z = np.linalg.lstsq(A[:, passive], b, rcond=None)[0].tolist()
            if min(z) > 0.0:
                x = [0.0] * k
                for i, v in zip(passive, z):
                    x[i] = v
                break
            # step back to where the first passive variable reaches zero
            alpha = min(x[i] / (x[i] - v) if x[i] > v else 0.0
                        for i, v in zip(passive, z) if v <= 0.0)
            for i, v in zip(passive, z):
                x[i] += alpha * (v - x[i])
            passive = [i for i in passive if x[i] > tol]
            x = [x[i] if i in passive else 0.0 for i in range(k)]
    return np.array(x)


def _clf_multiplier(problem, x):
    """The CLF multiplier p gamma(V(x)) of an equilibrium at x."""
    certs = problem.certificates
    return problem.params.p * float(certs.row_gains[0] * certs.values(x)[0])


def _report_order(report):
    """Sort key: x_e rounded to 9 decimals, -0.0 folded into +0.0, so roots
    that differ only by rounding keep their seed order."""
    return tuple(np.round(report.x_e, 9) + 0.0)


def find_boundary_equilibria(problem, indices, config):
    """Locate boundary equilibria for one active-index set.

    ``config.boundary_seeds`` points are drawn on the first active
    boundary and, when |A| > 1, projected onto the others.  Each seed
    starts Newton on the augmented system [f_A; h_A] from a nonnegative
    least-squares multiplier estimate.  All seeds advance together: one
    stacked solve per Newton iteration, the full steps in one stacked
    evaluation and every remaining halving in a second, yet every seed
    takes exactly the steps it would take alone, so the roots do not
    depend on how many seeds share the search.

    Parameters
    ----------
    problem : ControlProblem
    indices : sequence of int
        Ordered 1-based barrier indices forming the active set A.
    config : SearchConfig

    Returns
    -------
    list of EquilibriumReport
        Deduplicated in seed order, validated, and sorted by x_e rounded
        to 9 decimals (ties keep seed order).  Roots with any multiplier
        below -1e-6 are discarded; an empty list means the seeded
        intersection was empty or Newton found nothing.
    """
    certs = problem.certificates
    indices = _check_indices(indices, certs.n_barriers)
    if not indices:
        raise InvalidParameterError("boundary search needs at least one index")
    r = len(indices)
    n = problem.n
    tol = problem.tolerances
    rng = np.random.default_rng(config.seed)

    seeds = _boundary_samples(certs.cbfs[indices[0] - 1], config.boundary_seeds, rng)
    if r > 1:
        seeds = _project_to_boundaries(certs, indices, seeds)
    if not seeds.shape[0]:
        return []

    system = _EquilibriumSystem(problem, indices)
    # at lam = 0: f_A = f_nom - p gamma(V) G grad V and the Jacobian's
    # top-right block is G U_A, the two sides of the multiplier fit
    F0, J0 = system(np.hstack([seeds, np.zeros((seeds.shape[0], r))]))
    lam0 = np.array([_nnls(J0[k, :n, n:], -F0[k, :n]) for k in range(seeds.shape[0])])
    roots = []
    for z in _newton(system, np.hstack([seeds, lam0]),
                     tol.newton_residual, tol.newton_step,
                     config.newton_max_iter, config.max_halvings):
        if z is None or float(np.min(z[n:])) < -1e-6:
            continue
        if not any(np.linalg.norm(z - seen) <= tol.dedup for seen in roots):
            roots.append(z)
    if not roots:
        return []

    values = system(np.array(roots))[0]
    reports = []
    for z, F in zip(roots, values):
        x_e, lam = z[:n], z[n:]
        report = EquilibriumReport(
            x_e=x_e,
            kind="boundary",
            indices=indices,
            lambda_e=lam,
            lambda0_e=_clf_multiplier(problem, x_e),
            residual_field=float(np.max(np.abs(F[:n]))),
            residual_boundary=float(np.max(np.abs(F[n:]))),
            degenerate=bool(np.any(np.abs(lam) <= tol.validate)),
        )
        reports.append(validate_equilibrium(problem, report))
    reports.sort(key=_report_order)
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
    h = sol._values[1:]
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


#: Relative tolerance of the interior enumeration's rank decisions: an
#: eigenvalue tau is real when |Im tau| <= _PENCIL_RTOL |tau|, and a singular
#: value of F - tau B is null when it is <= _PENCIL_RTOL times the largest.
_PENCIL_RTOL = 1e-6
#: A candidate is polished only when it solves its equations to this
#: relative accuracy; Newton restores full accuracy from there.
_POLISH_RTOL = 1e-3
#: An eigenvalue at infinity (singular G) leaves eig as mu ~ eps^(1/k) / scale
#: for a Jordan chain of length k <= 3, not as mu = 0; |mu| * scale <=
#: _INFINITE_RTOL counts as infinite, which gives up roots whose tau lies
#: more than 1 / _INFINITE_RTOL eigenvalue scales from the shift.
_INFINITE_RTOL = 1e-4

#: Shifts, in units of the pencil's eigenvalue scale, tried in turn for the
#: shift-invert; the pencil is singular when P(shift) is singular at all three.
_SHIFTS = (0.5772156649015329, -1.3247179572447460, 2.6854520010653062)


def _positive_eigenvalues(P, rank_tol):
    """Real, positive, finite eigenvalues of sum_k t^k P[k], ascending, and
    the polynomial's eigenvalue scale; None when the polynomial is singular
    (det P vanishes identically).

    The polynomial of degree d is expanded about a shift s with P(s)
    nonsingular and reversed, t = s + 1/mu, so that its dn x dn companion
    matrix is monic in mu: a singular leading coefficient only adds
    mu = 0 (t infinite).
    """
    d = len(P) - 1
    n = P[0].shape[0]
    norms = [float(np.linalg.norm(C, 2)) for C in P]
    bounds = [(norms[k] / norms[d]) ** (1.0 / (d - k))
              for k in range(d) if norms[k] > 0.0 and norms[d] > 0.0]
    scale = max(bounds, default=1.0)
    for unit in _SHIFTS:
        s = scale * unit
        # C[j] = P^(j)(s) / j!, the coefficients of P(s + r) in r
        C = [sum(comb(k, j) * s ** (k - j) * P[k] for k in range(j, d + 1))
             for j in range(d + 1)]
        sv = np.linalg.svd(C[0], compute_uv=False)
        if sv[-1] > rank_tol * float(sv[0]):
            break
    else:
        return None
    companion = np.zeros((d * n, d * n))
    companion[:n] = -np.linalg.solve(C[0], np.hstack(C[1:]))
    companion[n:, :(d - 1) * n] = np.eye((d - 1) * n)
    mu = np.linalg.eigvals(companion)
    tau = s + 1.0 / mu[np.abs(mu) * scale > _INFINITE_RTOL]
    keep = (tau.real > 0.0) & (np.abs(tau.imag) <= _PENCIL_RTOL * np.abs(tau))
    return np.sort(tau.real[keep]), scale


def _solutions_at(tau, F, B, Q, beta, w, rhs, isolated):
    """Candidate y at one eigenvalue tau, worth polishing.

    Solves (F - tau B) y = -rhs with beta y^T Q y = tau: the SVD particular
    solution plus at most a one-dimensional null-space term.  Keeps the
    solutions that also solve (F - tau B) y = -w to _POLISH_RTOL.  When
    ``isolated`` (rhs = w), a null space of dimension >= 2 that meets the
    quadric in more than one point raises PreconditionError; otherwise a
    null space of dimension >= 2 gives nothing.
    """
    M = F - tau * B
    U, sv, Vt = np.linalg.svd(M)
    null = sv <= _PENCIL_RTOL * float(sv[0])
    keep = ~null
    y = -Vt[keep].T @ ((U[:, keep].T @ rhs) / sv[keep])

    def consistent(y):
        return np.linalg.norm(M @ y + w) <= _POLISH_RTOL * (
            sv[0] * np.linalg.norm(y) + np.linalg.norm(w))

    def solves(y):
        return (abs(beta * float(y @ Q @ y) - tau) <= _POLISH_RTOL * tau
                and consistent(y))

    if np.count_nonzero(null) >= 2:
        if not isolated or not consistent(y):
            return []
        # the point of y + range(N) where beta y^T Q y is least
        N = Vt[null].T
        y = y - N @ np.linalg.solve(N.T @ Q @ N, N.T @ Q @ y)
        if beta * float(y @ Q @ y) < (1.0 - _POLISH_RTOL) * tau:
            raise PreconditionError(
                f"interior equilibria are not isolated: F - tau B has a null "
                f"space of dimension {np.count_nonzero(null)} at tau = {tau:.6g}")
        return [y] if solves(y) else []
    ys = [y]
    if null[-1]:
        # y + t v with beta (y + t v)^T Q (y + t v) = tau
        v = Vt[-1]
        a, b = beta * float(v @ Q @ v), 2.0 * beta * float(y @ Q @ v)
        root = np.sqrt(max(b * b - 4.0 * a * (beta * float(y @ Q @ y) - tau), 0.0))
        ys = [y + ((-b - root) / (2.0 * a)) * v, y + ((-b + root) / (2.0 * a)) * v]
    return [y for y in ys if solves(y)]


def _interior_candidates(problem):
    """Every interior root of f_nom - p gamma(V) G grad V, to eigenvalue accuracy.

    With y = x - c_V, F the constant Jacobian of f_nom, B = G Q_V and
    beta = 2 p k_gamma, the roots solve (F - tau B) y = -w, w = F c_V, with
    tau = beta y^T Q_V y.  x = c_V is a root iff w = 0, and then every
    other root has tau > 0 a real eigenvalue of F - tau B.  Otherwise every
    root has tau > 0 a real eigenvalue of the cubic matrix polynomial
    tau (F - tau B) Q_V^{-1} (F - tau B)^T - beta w w^T.  That polynomial
    has every eigenvalue of F - tau B as a double eigenvalue when w = 0,
    and nearly so when w is small, where eig resolves them poorly; so the
    centre and the solutions from F - tau B are always candidates too.
    Without a CLF the field is F x, whose only root is x = 0.

    Raises PreconditionError when the roots are not isolated: the rank of
    [F | B] is below n, the governing polynomial is singular, or F - tau B
    has a null space of dimension >= 2 at one of its eigenvalues whose
    solutions meet the quadric in a continuum.
    """
    tol = problem.tolerances
    certs = problem.certificates
    n = problem.n
    F = problem.f_nom_jacobian()
    B = np.zeros((n, n))
    if certs.has_clf:
        Q, c = certs.clf.shape, certs.clf.center
        G = problem.gram()
        B = G @ Q
    sv = np.linalg.svd(np.hstack([F, B]), compute_uv=False)
    rank = int(np.sum(sv > tol.rank * max(1.0, float(sv[0]))))
    if rank < n:
        raise PreconditionError(
            f"interior equilibria are not isolated: numerical rank of [F | B] "
            f"is {rank} < n = {n}")
    if not certs.has_clf:
        return [np.zeros(n)]
    beta = 2.0 * problem.params.p * certs.gamma.gain
    w = F @ c
    centre_is_root = float(np.max(np.abs(w))) <= tol.newton_residual
    # (coefficients, right-hand side, whether its roots must be isolated)
    pencils = [((F, -B), np.zeros(n), centre_is_root)]
    if not centre_is_root:
        GF = G @ F.T
        cubic = (-beta * np.outer(w, w), F @ np.linalg.solve(Q, F.T),
                 -(GF + GF.T), G @ Q @ G)
        pencils.append((cubic, w, True))
    candidates = [c.copy()]
    for P, rhs, isolated in pencils:
        spectrum = _positive_eigenvalues(P, tol.rank)
        if spectrum is None:
            if isolated:
                raise PreconditionError(
                    "interior equilibria are not isolated: the eigenvalue "
                    "pencil is singular")
            continue
        taus, scale = spectrum
        for tau in taus:
            # an eigenvalue within rounding of 0 is the root x = c_V
            isolated_here = isolated and tau > _PENCIL_RTOL * scale
            candidates += [c + y for y in _solutions_at(
                tau, F, B, Q, beta, w, rhs, isolated_here)]
    return candidates


def find_interior_equilibria(problem, config):
    """Equilibria strictly inside the safe set: roots of f_nom - p gamma(V) G grad V.

    The roots are enumerated exhaustively from one eigenvalue problem (see
    :func:`_interior_candidates`) and each is polished by Newton on the
    interior field.  Survivors must keep every barrier above the interior
    margin and the QP at the root must leave every barrier row inactive;
    roots failing either test are spurious for the closed loop and are
    dropped.  ``config`` supplies the Newton settings only: the search draws
    no seeds, so ``interior_seeds``, ``seed`` and ``box`` do not affect it.

    Raises
    ------
    PreconditionError
        If the interior roots are not isolated: the numerical rank of
        [F | B] is below n, the eigenvalue pencil is singular, or F - tau B
        has a null space of dimension >= 2 at an eigenvalue tau whose
        solutions form a continuum.
    """
    tol = problem.tolerances
    certs = problem.certificates
    system = _EquilibriumSystem(problem, ())
    roots = []
    for x in _newton(system, np.array(_interior_candidates(problem)),
                     tol.newton_residual, tol.newton_step,
                     config.newton_max_iter, config.max_halvings):
        if x is None:
            continue
        if not any(np.linalg.norm(x - seen) <= tol.dedup for seen in roots):
            roots.append(x)
    if not roots:
        return []

    reports = []
    for x_e, F in zip(roots, system(np.array(roots))[0]):
        if float(np.min(certs.barrier_values(x_e))) <= tol.interior:
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
            lambda0_e=_clf_multiplier(problem, x_e),
            residual_field=float(np.max(np.abs(F))),
            residual_boundary=None,
            validated=True,
        ))
    reports.sort(key=_report_order)
    return reports
