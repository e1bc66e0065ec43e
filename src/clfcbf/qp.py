"""Pointwise CLF-CBF quadratic program: active-set solutions and certificates.

At each state the controller solves

    min_{u, delta}  (u - u_nom)^T H (u - u_nom) / 2  +  p delta^2 / 2
    s.t.            L_f V + L_g V u  <=  -gamma(V) + delta        (CLF row)
                    L_f h_i + L_g h_i u  >=  -alpha_i(h_i),  i = 1..N

with the relaxation slack ``delta`` penalized by ``p > 0``.  Strong duality
holds (linear constraints), and the unique optimizer is recovered from the
multipliers as

    u* = u_nom + H^{-1} g^T (-lambda_0 grad V + sum_i lambda_i grad h_i),
    delta* = lambda_0 / p.

:func:`solve_pointwise` enumerates candidate active sets in ascending
cardinality and accepts the first that satisfies every KKT condition;
:func:`oracle_solve` solves the same program by accelerated projected
gradient ascent on the dual and shares no factorization with the direct
path — it exists to audit the former.  :func:`check_feasibility_condition`
evaluates the sufficient feasibility certificate obtained by eliminating
the CLF multiplier from the dual normal equations.

Modes
-----
``safety_filter``
    No CLF (V = 0 substituted); the CLF row degenerates to ``0 <= delta``
    and is kept active by convention, with multiplier p * gamma(V) = 0.
``clf_cbf``
    CLF present, nominal control forced to zero.
``generalized``
    CLF present and a zero or linear-feedback nominal controller.
"""

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import FrozenSet

import numpy as np

from .certificates import CertificateSet, _quadrics
from .errors import (
    DimensionMismatchError,
    InfeasibleQPError,
    InvalidParameterError,
    OracleFailureError,
)
from .systems import DynamicsModel, NominalController, _as_state, _eval_drift
from .tolerances import Tolerances

__all__ = [
    "MODES",
    "ControllerParams",
    "ControlProblem",
    "QpSolution",
    "FeasibilityReport",
    "solve_pointwise",
    "oracle_solve",
    "check_feasibility_condition",
    "closed_loop_field",
]

MODES = ("safety_filter", "clf_cbf", "generalized")

#: index used for the CLF row inside active sets (CBFs are 1..N).
CLF_ROW = 0


@dataclass(frozen=True)
class ControllerParams:
    """Mode, slack penalty p, control cost metric H, and nominal controller."""

    mode: str
    p: float
    cost_metric: np.ndarray
    nominal: NominalController

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParameterError(
                f"mode must be one of {MODES}, got {self.mode!r}")
        if not (float(self.p) > 0.0):
            raise InvalidParameterError(f"p must be > 0, got p={self.p}")
        H = np.atleast_2d(np.asarray(self.cost_metric, dtype=float))
        if H.shape != (self.nominal.m, self.nominal.m):
            raise DimensionMismatchError(
                f"cost_metric has shape {H.shape}, expected ({self.nominal.m},) * 2")
        if not np.allclose(H, H.T, rtol=0.0, atol=1e-12):
            raise InvalidParameterError("cost_metric must be symmetric")
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise InvalidParameterError("cost_metric must be positive definite")
        if self.mode == "clf_cbf" and self.nominal.kind != "zero":
            raise InvalidParameterError("clf_cbf mode requires a zero nominal controller")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "cost_metric", H)


@dataclass(frozen=True)
class ControlProblem:
    """A plant, its certificates, and the controller parameters, bound together."""

    model: DynamicsModel
    certificates: CertificateSet
    params: ControllerParams
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if self.certificates.n != self.model.n:
            raise DimensionMismatchError(
                f"certificates live in R^{self.certificates.n}, model in R^{self.model.n}")
        if self.params.nominal.m != self.model.m:
            raise DimensionMismatchError(
                f"nominal controller has m={self.params.nominal.m}, model m={self.model.m}")
        gain = self.params.nominal.gain
        if gain is not None and gain.shape[1] != self.model.n:
            raise DimensionMismatchError(
                f"gain has {gain.shape[1]} columns, model n={self.model.n}")
        if (self.params.mode == "safety_filter") == self.certificates.has_clf:
            if self.params.mode == "safety_filter":
                raise InvalidParameterError("safety_filter mode requires no CLF")
            raise InvalidParameterError(f"{self.params.mode} mode requires a CLF")

    @property
    def n(self):
        return self.model.n

    @property
    def n_barriers(self):
        return self.certificates.n_barriers

    @cached_property
    def _input_maps(self):
        """(g, g^T, H^{-1} g^T, G); the input map is constant."""
        g = self.model.input_matrix
        Hinv_gT = np.linalg.solve(self.params.cost_metric, g.T)
        G = g @ Hinv_gT
        return g, g.T, Hinv_gT, 0.5 * (G + G.T)

    def gram(self, x):
        """Symmetrized g H^{-1} g^T at x."""
        return self._input_maps[3]

    def f_nom(self, x):
        """Nominal closed-loop field f(x) + g u_nom(x)."""
        x = _as_state(x, self.n)
        return _eval_drift(self.model, x) + self.model.input_matrix @ self.u_nom(x)

    def f_nom_jacobian(self, x):
        """State Jacobian of the nominal field: the constant A + g K."""
        J = np.zeros((self.n, self.n))
        if self.model.drift_matrix is not None:
            J += self.model.drift_matrix
        if self.params.nominal.gain is not None:
            J += self.model.input_matrix @ self.params.nominal.gain
        return J

    def u_nom(self, x):
        return self.params.nominal(x)


@dataclass(frozen=True)
class QpSolution:
    """Primal-dual solution of the pointwise program.

    ``active_set`` is a frozen subset of {0, 1, .., N}: 0 is the CLF row,
    i >= 1 is CBF i.  ``lam`` always has length N with zeros at inactive
    entries.  ``kkt_residual`` is the largest violation among stationarity,
    primal feasibility, dual feasibility and complementary slackness.
    ``xdot`` is the closed-loop field f + g u* at the solved state,
    assembled from the multipliers as f_nom + G (-lambda0 grad V + U lam)
    in the same pass that built the solution.
    """

    u_star: np.ndarray
    delta_star: float
    lambda0: float
    lam: np.ndarray
    active_set: FrozenSet[int]
    kkt_residual: float
    xdot: np.ndarray

    @property
    def active_mask(self):
        """Bitmask: bit 0 = CLF row, bit i = CBF i."""
        return sum(1 << i for i in self.active_set)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the sufficient feasibility certificate at one state.

    ``holds`` asserts the reduced right-hand side lies in the image of the
    reduced dual matrix, which implies the QP is feasible; the converse is
    not asserted anywhere (the condition is sufficient only).
    """

    holds: bool
    residual: float
    rank: int


class _PointData:
    """Everything the pointwise QP needs at one state, computed once.

    V, grad V, h and U come from one evaluation of all N+1 rows of the
    certificate table (row 0 the CLF, zero in safety-filter mode), and the
    margins gamma(V) and alpha_i(h_i) are the table gains times those rows.
    """

    __slots__ = ("x", "f", "g", "gT", "Hinv_gT", "G", "u_nom", "f_nom",
                 "gradV", "gamma_val", "h", "U", "H", "alpha", "c",
                 "gT_gradV", "gT_U", "Hg_gradV", "Hg_U", "M_full", "v_full",
                 "F_V", "F_h")

    def __init__(self, problem, x):
        certs = problem.certificates
        self.x = x = np.asarray(x, dtype=float).ravel()
        if x.shape != (problem.n,):
            raise DimensionMismatchError(
                f"x has shape {x.shape}, expected ({problem.n},)")
        self.f = _eval_drift(problem.model, x)
        self.g, self.gT, self.Hinv_gT, self.G = problem._input_maps
        self.u_nom = problem.u_nom(x)
        self.f_nom = self.f + self.g @ self.u_nom
        values, grads = _quadrics(certs.row_shapes, certs.row_centers,
                                  certs.row_offsets, x[None])
        margins = certs.row_gains * values[0]
        self.gamma_val = float(margins[0])
        self.h, self.alpha = values[0, 1:], margins[1:]
        self.gradV, self.U = grads[0, 0], grads[0, 1:].T
        self.H = problem.params.cost_metric
        G_gradV = self.G @ self.gradV
        self.c = 1.0 / problem.params.p + float(self.gradV @ G_gradV)
        self.gT_gradV = self.gT @ self.gradV
        self.gT_U = self.gT @ self.U
        self.Hg_gradV = self.Hinv_gT @ self.gradV
        self.Hg_U = self.Hinv_gT @ self.U
        GU = self.G @ self.U
        self.M_full = self.U.T @ GU
        self.v_full = self.U.T @ G_gradV
        self.F_V = float(self.gradV @ self.f_nom) + self.gamma_val
        self.F_h = self.U.T @ self.f_nom + self.alpha

    def control(self, lambda0, indices, lam_active):
        u = self.u_nom - lambda0 * self.Hg_gradV
        if indices:
            u = u + self.Hg_U[:, [i - 1 for i in indices]] @ lam_active
        return u

    def closed_loop(self, lambda0, lam):
        """Closed-loop field f_nom + G (-lambda0 grad V + U lam)."""
        return self.f_nom + self.G @ (-lambda0 * self.gradV + self.U @ lam)

    def rows(self, u, delta):
        """(clf_row, cbf_rows): feasible iff all >= 0."""
        xdot = self.f + self.g @ u
        clf_row = delta - (float(self.gradV @ xdot) + self.gamma_val)
        cbf_rows = self.U.T @ xdot + self.alpha
        return clf_row, cbf_rows


def _deflation(d):
    """I - G grad V grad V^T / c at an assembled point ``d``.

    ``d.c = 1/p + ||grad V||_G^2`` is the dual-cost curvature of the CLF
    row.  Multiplying a field by this matrix performs the Gauss-elimination
    step that removes the CLF multiplier from the dual normal equations; it
    is the identity whenever grad V = 0 (safety-filter mode or the CLF
    center).
    """
    return np.eye(d.x.shape[0]) - np.outer(d.G @ d.gradV, d.gradV) / d.c


def _dual(d):
    """Dual matrices (A, b) at an assembled point ``d``.

    The dual program is max -l^T A l / 2 + b^T l, l >= 0.  A is symmetric
    positive semidefinite within 1e-10; its leading entry is the CLF-row
    curvature ``c`` and the trailing block is U^T G U.
    """
    N = d.h.shape[0]
    A = np.empty((N + 1, N + 1))
    A[0, 0] = d.c
    A[0, 1:] = -d.v_full
    A[1:, 0] = -d.v_full
    A[1:, 1:] = d.M_full
    A = 0.5 * (A + A.T)
    b = np.concatenate(([d.F_V], -d.F_h))
    return A, b


@lru_cache(maxsize=None)
def _candidate_active_sets(n_barriers, clf_optional):
    """Subsets of {0, 1, .., N} in ascending cardinality, lexicographic within."""
    universe = list(range(1, n_barriers + 1))
    candidates = []
    for r in range(n_barriers + 1):
        for comb in itertools.combinations(universe, r):
            if clf_optional:
                candidates.append(comb)
            candidates.append((CLF_ROW,) + comb)
    candidates.sort(key=lambda s: (len(s), s))
    return tuple(candidates)


def _normalize_candidate(active, n_barriers, clf_optional):
    """Turn an active-set guess into canonical candidate form, or None."""
    try:
        rows = sorted({int(i) for i in active})
    except (TypeError, ValueError):
        return None
    if any(i < 0 or i > n_barriers for i in rows):
        return None
    if not clf_optional and CLF_ROW not in rows:
        rows = [CLF_ROW] + rows
    return tuple(rows)


def _solve_candidate(d, candidate):
    """Multipliers (lambda0, lam_active, indices) for one candidate active set."""
    clf_active = candidate and candidate[0] == CLF_ROW
    indices = candidate[1:] if clf_active else candidate
    cols = [i - 1 for i in indices]
    r = len(cols)
    if clf_active and r:
        A = np.empty((r + 1, r + 1))
        A[0, 0] = d.c
        A[0, 1:] = -d.v_full[cols]
        A[1:, 0] = -d.v_full[cols]
        A[1:, 1:] = d.M_full[np.ix_(cols, cols)]
        rhs = np.concatenate(([d.F_V], -d.F_h[cols]))
    elif clf_active:
        return d.F_V / d.c, np.zeros(0), indices
    elif r:
        A = d.M_full[np.ix_(cols, cols)]
        rhs = -d.F_h[cols]
    else:
        return 0.0, np.zeros(0), indices
    try:
        sol = np.linalg.solve(A, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
    if clf_active:
        return float(sol[0]), sol[1:], indices
    return 0.0, sol, indices


def solve_pointwise(problem, x, first_guess=None):
    """Solve the pointwise QP by reduced-KKT active-set enumeration.

    Candidate active sets are tried in ascending cardinality and
    lexicographic order (the CLF row always active in safety-filter mode);
    the first candidate whose multipliers and primal rows satisfy every
    KKT condition wins, which resolves degenerate ties deterministically.

    ``first_guess`` (an iterable of row indices, e.g. the active set of
    the solution at a nearby state) is tried before the enumeration; any
    KKT-consistent candidate yields the same optimal ``(u*, delta*)``
    because the primal program is strictly convex, so warm starting only
    reorders the search.

    Raises
    ------
    InfeasibleQPError
        If no candidate satisfies the KKT conditions; carries the
        feasibility-certificate report for the state.
    """
    d = _PointData(problem, x)
    tol = problem.tolerances
    p = problem.params.p
    clf_optional = problem.params.mode != "safety_filter"
    candidates = _candidate_active_sets(d.h.shape[0], clf_optional)
    if first_guess is not None:
        guess = _normalize_candidate(first_guess, d.h.shape[0], clf_optional)
        if guess is not None:
            # lazy: a warm hit never walks the cached enumeration
            candidates = itertools.chain(
                (guess,), (c for c in candidates if c != guess))
    for candidate in candidates:
        lambda0, lam_active, indices = _solve_candidate(d, candidate)
        clf_active = bool(candidate) and candidate[0] == CLF_ROW
        # dual feasibility, with a tiny clamp for roundoff
        if lambda0 < -tol.multiplier:
            continue
        if lam_active.size and float(np.min(lam_active)) < -tol.multiplier:
            continue
        lambda0 = max(lambda0, 0.0)
        lam_active = np.maximum(lam_active, 0.0)
        u = d.control(lambda0, indices, lam_active)
        delta = lambda0 / p
        clf_row, cbf_rows = d.rows(u, delta)
        # primal feasibility of every row
        if clf_row < -tol.active or np.any(cbf_rows < -tol.active):
            continue
        # active rows must actually be tight
        if clf_active and abs(clf_row) > tol.active:
            continue
        if indices and np.any(np.abs(cbf_rows[[i - 1 for i in indices]]) > tol.active):
            continue
        lam = np.zeros(d.h.shape[0])
        for i, val in zip(indices, lam_active):
            lam[i - 1] = val
        residual = _kkt_residual(d, p, u, delta, lambda0, lam, clf_row, cbf_rows)
        return QpSolution(
            u_star=u,
            delta_star=delta,
            lambda0=lambda0,
            lam=lam,
            active_set=frozenset(candidate),
            kkt_residual=residual,
            xdot=d.closed_loop(lambda0, lam),
        )
    report = check_feasibility_condition(problem, x)
    raise InfeasibleQPError(
        f"no KKT-consistent active set at x={d.x}; QP infeasible",
        x=d.x, feasibility=report)


def _kkt_residual(d, p, u, delta, lambda0, lam, clf_row, cbf_rows):
    """Largest violation among the four KKT condition groups."""
    # stationarity in u: H (u - u_nom) - g^T (-lambda0 gradV + U lam) = 0
    stationarity = d.H @ (u - d.u_nom) - (-lambda0 * d.gT_gradV + d.gT_U @ lam)
    return max(
        float(np.max(np.abs(stationarity))),
        abs(p * delta - lambda0),
        max(0.0, -clf_row),
        float(max(0.0, -np.min(cbf_rows, initial=0.0))),
        max(0.0, -lambda0),
        float(max(0.0, -np.min(lam, initial=0.0))),
        abs(lambda0 * clf_row),
        float(np.max(np.abs(lam * cbf_rows), initial=0.0)),
    )


def oracle_solve(problem, x, max_iter=200_000):
    """Reference solution via accelerated projected gradient on the dual.

    Structurally independent of :func:`solve_pointwise`: no active sets,
    no reduced linear solves — the full dual quadratic is maximized over
    the nonnegative orthant with FISTA-style acceleration and adaptive
    restart, then the primal is recovered from stationarity.  Intended for
    audits and tests; raises :class:`OracleFailureError` on non-convergence
    or a detectably unbounded dual so that it can never silently pass.
    """
    d = _PointData(problem, x)
    A, b = _dual(d)
    tol = problem.tolerances.oracle_residual * max(1.0, float(np.max(np.abs(b))))
    lipschitz = float(np.max(np.linalg.eigvalsh(A)))
    if lipschitz <= 0.0:
        # A = 0 only when G = 0 and 1/p = 0, which parameters forbid; guard anyway
        if np.all(b <= tol):
            lam_bar = np.zeros_like(b)
            return _solution_from_dual(problem, d, lam_bar)
        raise OracleFailureError("dual has zero curvature but a positive gradient")
    step = 1.0 / lipschitz
    lam = np.zeros_like(b)
    momentum = lam.copy()
    t = 1.0
    for _ in range(max_iter):
        grad = A @ momentum - b
        nxt = np.maximum(momentum - step * grad, 0.0)
        # natural residual at the new iterate
        residual = nxt - np.maximum(nxt - (A @ nxt - b), 0.0)
        if float(np.max(np.abs(residual))) <= tol:
            return _solution_from_dual(problem, d, nxt)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        direction = nxt - lam
        if float(grad @ direction) > 0.0:
            # adaptive restart: momentum is pointing uphill
            momentum = nxt.copy()
            t_next = 1.0
        else:
            momentum = nxt + ((t - 1.0) / t_next) * direction
        lam, t = nxt, t_next
        if float(np.max(np.abs(lam))) > 1e14:
            raise OracleFailureError(
                f"dual iterates diverge at x={d.x}; the QP is likely infeasible")
    raise OracleFailureError(
        f"dual ascent did not reach residual {tol:g} in {max_iter} iterations at x={d.x}")


def _solution_from_dual(problem, d, lam_bar):
    p = problem.params.p
    lambda0 = float(lam_bar[0])
    lam = np.asarray(lam_bar[1:], dtype=float)
    indices = tuple(range(1, lam.shape[0] + 1))
    u = d.control(lambda0, indices, lam)
    delta = lambda0 / p
    clf_row, cbf_rows = d.rows(u, delta)
    eps = problem.tolerances.active
    active = set()
    if problem.params.mode == "safety_filter" or abs(clf_row) <= eps:
        active.add(CLF_ROW)
    active.update(i + 1 for i in range(lam.shape[0]) if abs(cbf_rows[i]) <= eps)
    residual = _kkt_residual(d, p, u, delta, lambda0, lam, clf_row, cbf_rows)
    return QpSolution(
        u_star=u,
        delta_star=delta,
        lambda0=lambda0,
        lam=lam,
        active_set=frozenset(active),
        kkt_residual=residual,
        xdot=d.closed_loop(lambda0, lam),
    )


def check_feasibility_condition(problem, x):
    """Sufficient feasibility certificate at ``x``.

    Eliminating the CLF multiplier from the dual normal equations leaves the
    reduced system M y = b2 with M = U^T P G U (P the CLF-gradient deflation)
    and b2 = U^T (gamma(V) G grad V / c - P f_nom) - alpha.  Membership of b2
    in the image of M bounds the dual, hence the primal QP is feasible.
    ``holds -> solve_pointwise succeeds`` is asserted by the scan command;
    the converse direction is deliberately not claimed.
    """
    d = _PointData(problem, x)
    P = _deflation(d)
    PG = P @ d.G
    M = d.U.T @ PG @ d.U
    M = 0.5 * (M + M.T)
    b2 = d.U.T @ ((d.gamma_val / d.c) * (d.G @ d.gradV) - P @ d.f_nom) - d.alpha
    svals_U, svals, _ = np.linalg.svd(M)
    cutoff = problem.tolerances.rank * max(1.0, float(svals[0]) if svals.size else 1.0)
    rank = int(np.sum(svals > cutoff))
    # distance of b2 from the numerical column space of M
    basis = svals_U[:, :rank]
    residual = float(np.linalg.norm(b2 - basis @ (basis.T @ b2)))
    holds = residual <= problem.tolerances.image * max(1.0, float(np.linalg.norm(b2)))
    return FeasibilityReport(holds=holds, residual=residual, rank=rank)


def closed_loop_field(problem, x, solution=None):
    """Closed-loop vector field f(x) + g(x) u*(x), assembled from multipliers.

    Returns ``solution.xdot``, i.e. f_nom + G (-lambda0 grad V + U lam),
    which equals f + g u* identically; the equality within 1e-8 is one of
    the audited invariants.  ``solution`` must be the one solved at ``x``;
    when omitted the QP is solved at ``x`` first.
    """
    if solution is None:
        solution = solve_pointwise(problem, x)
    return solution.xdot
