"""Pointwise CLF-CBF quadratic program: active-set solutions and certificates.

At each state the controller solves

    min_{u, delta}  (u - u_nom)^T H (u - u_nom) / 2  +  p delta^2 / 2
    s.t.            L_f V + L_g V u  <=  -gamma(V) + delta        (CLF row)
                    L_f h_i + L_g h_i u  >=  -alpha_i(h_i),  i = 1..N

with the relaxation slack ``delta`` penalized by ``p > 0``.  The rows are
numbered like the certificate table, row 0 the CLF.  Written with the
row-signed gradients D = [-grad V | U] (n, N+1) and the signed margins
s = (-gamma(V), alpha_1(h_1), .., alpha_N(h_N)), every row reads
D^T (f + g u) + s + delta e_0 >= 0.  Strong duality holds (linear
constraints), and the unique optimizer is recovered from the multipliers
l = (lambda_0, lambda_1, .., lambda_N) >= 0 as

    u* = u_nom + H^{-1} g^T D l,    delta* = lambda_0 / p.

Substituting them gives the dual program max -l^T A l / 2 + b^T l, l >= 0,
with

    A = D^T G D + e_0 e_0^T / p,    b = -(D^T f_nom + s),

G = g H^{-1} g^T, and the row values at multipliers l are A l - b: the
dual is a linear complementarity problem in (A, b).  :func:`solve_pointwise`
enumerates its principal subsystems A[R, R] l_R = b[R] over candidate row
sets R in ascending cardinality and accepts the first whose multipliers
and row values satisfy every KKT condition; :func:`oracle_solve` maximizes
the same dual by accelerated projected gradient ascent and shares no
factorization with the direct path — it exists to audit the former.
:func:`check_feasibility_condition` evaluates the sufficient feasibility
certificate obtained by eliminating the CLF multiplier from the dual
normal equations, the Schur complement of A on row 0.

Modes
-----
``safety_filter``
    No CLF: row 0 of the certificate table is the zero quadric with gain
    0, so the CLF row degenerates to ``0 <= delta``; it is kept active by
    convention, with multiplier 0.
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
        """(g, H^{-1} g^T, G); the input map is constant."""
        g = self.model.input_matrix
        Hinv_gT = np.linalg.solve(self.params.cost_metric, g.T)
        G = g @ Hinv_gT
        return g, Hinv_gT, 0.5 * (G + G.T)

    def gram(self):
        """Symmetrized g H^{-1} g^T; the input map is constant."""
        return self._input_maps[2]

    def f_nom(self, x):
        """Nominal closed-loop field f(x) + g u_nom(x)."""
        x = _as_state(x, self.n)
        return _eval_drift(self.model, x) + self.model.input_matrix @ self.u_nom(x)

    def f_nom_jacobian(self):
        """State Jacobian of the nominal field: the constant A + g K."""
        J = np.zeros((self.n, self.n))
        if self.model.drift_matrix is not None:
            J += self.model.drift_matrix
        if self.params.nominal.gain is not None:
            J += self.model.input_matrix @ self.params.nominal.gain
        return J

    def u_nom(self, x):
        return self.params.nominal(x)


@dataclass(frozen=True, init=False)
class QpSolution:
    """Primal-dual solution of the pointwise program.

    ``active_set`` is a frozen subset of {0, 1, .., N}: 0 is the CLF row,
    i >= 1 is CBF i.  ``lam`` always has length N with zeros at inactive
    entries.  ``kkt_residual`` is the largest violation among stationarity,
    primal feasibility, dual feasibility and complementary slackness,
    measured on the primal rows of f + g u*, not on A l - b, so it checks
    the dual's screening independently.  ``xdot`` is the closed-loop field
    f + g u* at the solved state, assembled from the multipliers
    l = (lambda0, lam) as f_nom + G D l.

    A solution is built with the field, delta* and the multipliers, and
    keeps the state, l and the certificate table's row values there.
    ``u_star``, ``kkt_residual`` and, without a winning row set,
    ``active_set`` (the rows tight within the active tolerance, and row 0
    always in safety-filter mode) are filled in on first read, the latter
    two from the point assembled again at the state, bit for bit the
    same.  So a caller that needs only the field and the active set (an
    RK4 stage) pays neither for u* nor for the KKT audit, and a solution
    holds no more than a few vectors.
    """

    u_star: np.ndarray
    delta_star: float
    lambda0: float
    lam: np.ndarray
    active_set: FrozenSet[int]
    kkt_residual: float
    xdot: np.ndarray

    def __init__(self, point, l, active=None):
        problem = point.problem
        Dl = point.D @ l
        lambda0 = float(l[0])
        # frozen: the fields are written past __setattr__, as dataclasses do
        self.__dict__.update(
            _problem=problem, _x=point.x.copy(), _values=point.values, _l=l,
            _Dl=Dl, delta_star=lambda0 / problem.params.p, lambda0=lambda0,
            lam=l[1:], xdot=point.f_nom + problem._input_maps[2] @ Dl)
        if active is not None:
            self.__dict__["active_set"] = frozenset(active)

    def __getattr__(self, name):
        # only reached for a field not yet filled in
        if name == "u_star":
            problem = self._problem
            self.__dict__[name] = (problem.u_nom(self._x)
                                   + problem._input_maps[1] @ self._Dl)
        elif name in ("active_set", "kkt_residual"):
            self._audit()
        else:
            raise AttributeError(name)
        return self.__dict__[name]

    def _audit(self):
        """Fill in ``kkt_residual``, and ``active_set`` if still unset, from
        the primal rows D^T (f + g u*) + s + delta* e_0."""
        d = _PointData(self._problem, self._x)
        g = d.problem._input_maps[0]
        params = d.problem.params
        l, u = self._l, self.u_star
        rows = (d.f + g @ u) @ d.D + d.s
        rows[0] += self.delta_star
        # stationarity in u: H (u - u_nom) - g^T D l = 0
        stationarity = params.cost_metric @ (u - d.u_nom) - self._Dl @ g
        self.__dict__["kkt_residual"] = max(
            float(abs(stationarity).max()),
            abs(params.p * self.delta_star - self.lambda0),
            float(max(0.0, -rows.min(), -l.min(), abs(l * rows).max())),
        )
        if "active_set" not in self.__dict__:
            tight = np.abs(rows) <= d.problem.tolerances.active
            if params.mode == "safety_filter":
                tight[CLF_ROW] = True
            self.__dict__["active_set"] = frozenset(np.flatnonzero(tight).tolist())

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
    """The pointwise QP's dual at one state, computed once.

    ``values`` (N+1,) holds the raw table rows (V(x), h_1(x), ..), ``D``
    (n, N+1) the row-signed gradients [-grad V | U] and ``s`` (N+1,) the
    signed margins (-gamma(V), alpha_1(h_1), ..), all from one evaluation
    of the N+1 rows of the certificate table (row 0 the zero quadric with
    gain 0 in safety-filter mode); ``A`` and ``b`` are the dual matrices of
    the module docstring, indexed like the table.
    """

    __slots__ = ("problem", "x", "f", "u_nom", "f_nom", "values", "D", "s", "A", "b")

    def __init__(self, problem, x):
        certs = problem.certificates
        self.problem = problem
        self.x = x = np.asarray(x, dtype=float).ravel()
        if x.shape != (problem.n,):
            raise DimensionMismatchError(
                f"x has shape {x.shape}, expected ({problem.n},)")
        g, _, G = problem._input_maps
        self.f = _eval_drift(problem.model, x)
        self.u_nom = problem.u_nom(x)
        self.f_nom = self.f + g @ self.u_nom
        values, grads = _quadrics(certs.row_shapes, certs.row_centers,
                                  certs.row_offsets, x[None])
        self.values = values = values[0]
        self.s = s = certs.row_gains * values
        self.D = D = grads[0].T
        s[0] = -s[0]
        D[:, 0] = -D[:, 0]
        self.A = D.T @ (G @ D)
        self.A[0, 0] += 1.0 / problem.params.p
        self.b = -(self.f_nom @ D + s)


def _schur(d):
    """(S, b2): the CLF multiplier eliminated from A l = b at an assembled
    point ``d``.

    S = A/A[0, 0] is the Schur complement of A on row 0 (symmetrized), an
    (N, N) matrix over the barrier rows, and b2 the matching reduced
    right-hand side, so S y = b2 holds for the barrier multipliers y of
    every l with A l = b.
    """
    A, b = d.A, d.b
    S = A[1:, 1:] - np.outer(A[1:, 0], A[0, 1:]) / A[0, 0]
    return 0.5 * (S + S.T), b[1:] - A[1:, 0] * (b[0] / A[0, 0])


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


def _block_solve(A, b, R):
    """l_R with A[R, R] l_R = b[R]: in closed form for one row, else by LU
    with a least-squares fallback when the block is singular."""
    if len(R) == 1:
        a = A[R[0], R[0]]
        return np.array([b[R[0]] / a if a != 0.0 else 0.0])
    block, rhs = A[R][:, R], b[R]
    try:
        sol = np.linalg.solve(block, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(block, rhs, rcond=None)[0]
    return sol


def solve_pointwise(problem, x, first_guess=None):
    """Solve the pointwise QP by reduced-KKT active-set enumeration.

    Candidate active sets R are tried in ascending cardinality and
    lexicographic order (the CLF row always active in safety-filter mode).
    Each solves the principal subsystem A[R, R] l_R = b[R] of the dual;
    the first candidate whose multipliers are nonnegative and whose row
    values A l - b are nonnegative, and zero on R, wins, which resolves
    degenerate ties deterministically.

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
    A, b = d.A, d.b
    n_barriers = b.shape[0] - 1
    clf_optional = problem.params.mode != "safety_filter"
    candidates = _candidate_active_sets(n_barriers, clf_optional)
    if first_guess is not None:
        guess = _normalize_candidate(first_guess, n_barriers, clf_optional)
        if guess is not None:
            # lazy: a warm hit never walks the cached enumeration
            candidates = itertools.chain(
                (guess,), (c for c in candidates if c != guess))
    for candidate in candidates:
        R = list(candidate)
        l = np.zeros(n_barriers + 1)
        if R:
            l_R = _block_solve(A, b, R)
            # dual feasibility, with a tiny clamp for roundoff
            if l_R.min() < -tol.multiplier:
                continue
            l[R] = np.maximum(l_R, 0.0)
        # every row feasible, and the candidate's rows tight
        rows = A @ l - b
        if rows.min() >= -tol.active and (not R or abs(rows[R]).max() <= tol.active):
            return QpSolution(d, l, candidate)
    raise InfeasibleQPError(
        f"no KKT-consistent active set at x={d.x}; QP infeasible",
        x=d.x, feasibility=_feasibility(d))


def oracle_solve(problem, x, max_iter=200_000):
    """Reference solution via accelerated projected gradient on the dual.

    Structurally independent of :func:`solve_pointwise`: no active sets,
    no reduced linear solves -- the full dual quadratic is maximized over
    the nonnegative orthant with FISTA-style acceleration and adaptive
    restart, then the primal is recovered from stationarity.  Intended for
    audits and tests; raises :class:`OracleFailureError` on non-convergence
    or a detectably unbounded dual so that it can never silently pass.
    """
    d = _PointData(problem, x)
    A, b = d.A, d.b
    tol = problem.tolerances.oracle_residual * max(1.0, float(np.max(np.abs(b))))
    lipschitz = float(np.max(np.linalg.eigvalsh(A)))
    if lipschitz <= 0.0:
        # A = 0 only when G = 0 and 1/p = 0, which parameters forbid; guard anyway
        if np.all(b <= tol):
            return QpSolution(d, np.zeros_like(b))
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
            return QpSolution(d, nxt)
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


def check_feasibility_condition(problem, x):
    """Sufficient feasibility certificate at ``x``.

    Eliminating the CLF multiplier from the dual normal equations A l = b
    leaves the reduced system M y = b2 over all N barrier rows: M is the
    Schur complement of A on row 0, which equals U^T P G U with P the
    CLF-gradient deflation I - G grad V grad V^T / A[0, 0], and
    b2 = b[1:] - A[1:, 0] b[0] / A[0, 0].  Membership of b2 in the image of
    M bounds the dual, hence the primal QP is feasible.
    ``holds -> solve_pointwise succeeds`` is asserted by the scan command;
    the converse direction is deliberately not claimed.
    """
    return _feasibility(_PointData(problem, x))


def _feasibility(d):
    """The :class:`FeasibilityReport` of an assembled point ``d``."""
    tol = d.problem.tolerances
    M, b2 = _schur(d)
    svals_U, svals, _ = np.linalg.svd(M)
    cutoff = tol.rank * max(1.0, float(svals[0]) if svals.size else 1.0)
    rank = int(np.sum(svals > cutoff))
    # distance of b2 from the numerical column space of M
    basis = svals_U[:, :rank]
    residual = float(np.linalg.norm(b2 - basis @ (basis.T @ b2)))
    holds = residual <= tol.image * max(1.0, float(np.linalg.norm(b2)))
    return FeasibilityReport(holds=holds, residual=residual, rank=rank)


def closed_loop_field(problem, x, solution=None):
    """Closed-loop vector field f(x) + g(x) u*(x), assembled from multipliers.

    Returns ``solution.xdot``, i.e. f_nom + G D l with l = (lambda0, lam),
    which equals f + g u* identically; the equality within 1e-8 is one of
    the audited invariants.  ``solution`` must be the one solved at ``x``;
    when omitted the QP is solved at ``x`` first.
    """
    if solution is None:
        solution = solve_pointwise(problem, x)
    return solution.xdot
