"""Stability analysis of boundary equilibria via the closed-loop Jacobian.

Inside the region where the rows R = (0,) + A of the pointwise QP's dual
stay optimal, the closed loop is f_nom + G D_R l_R with A_RR l_R = b_R.
Differentiating that linear system at an equilibrium (f_cl = 0) gives

    J_fcl = J_A - G D_R A_RR^{-1} (D_R^T J_A + diag(gains_R) D_R^T),

where J_A = F + G sum_k l_k H_k is the Jacobian with the multipliers
frozen at their equilibrium values (H_k the row-signed Hessian: -hess V
for row 0, hess h_i for barrier i, and l_0 = p gamma(V)) and gains_R the
class-K slopes of the rows; it takes one solve on the (r+1)-square block.
Two structural facts drive the classification:

* every active-barrier gradient is a left eigenvector of the closed-loop
  Jacobian with eigenvalue -alpha'_i(0) < 0, so the constraint directions
  are always attracting;
* on the orthogonal complement of the active gradients, the sign of the
  largest eigenvalue mu_max of the symmetrized equilibrium-field Jacobian
  decides between asymptotic stability (mu_max < 0) and instability
  (mu_max > 0, Chetaev direction available as a witness).

:func:`classify` implements the tangent-space test with a guard band
around zero ("marginal"); :func:`spectrum_cross_check` compares the
verdict against eigenvalues of a finite-difference Jacobian of the actual
closed loop, which knows nothing about the dual system.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certificates import _check_indices, _quadrics
from .errors import DimensionMismatchError, PreconditionError
from .qp import _PointData, closed_loop_field
from .systems import _as_state, _finite_difference_jacobian

__all__ = [
    "JacobianBundle",
    "StabilityVerdict",
    "SpectrumCheck",
    "equilibrium_field_jacobian",
    "closed_loop_jacobian",
    "classify",
    "spectrum_cross_check",
]

#: condition-number ceiling for the dual block A_RR on the rows (0,) + A.
MAX_DUAL_BLOCK_CONDITION = 1e12


@dataclass(frozen=True)
class JacobianBundle:
    """State Jacobians at one boundary equilibrium."""

    J_A: np.ndarray        # multiplier-frozen Jacobian at (lambda0_e, lambda_e)
    J_fA: np.ndarray       # Jacobian of the equilibrium field (CLF row eliminated)
    J_fcl: np.ndarray      # closed-loop Jacobian


@dataclass(frozen=True)
class StabilityVerdict:
    """Three-way classification with the tangent-space statistic."""

    verdict: str  # "stable" | "unstable" | "marginal"
    mu_max: float
    witness: Optional[np.ndarray]  # unit tangent direction, present iff unstable
    spectrum: np.ndarray  # eigenvalues of the analytic closed-loop Jacobian


@dataclass(frozen=True)
class SpectrumCheck:
    """Finite-difference eigenvalues and their agreement with a verdict."""

    agree: bool
    eigenvalues: np.ndarray


class _EquilibriumSystem:
    """The augmented system [f_A; h_A] of one active set A, on stacks of points.

    Calling it on a (K, n + r) stack of points z = [x; lam] (r = |A|)
    returns the (K, n + r) values [f_A(x, lam); h_A(x)] and the
    (K, n + r, n + r) Jacobians [[J_fA, G U_A], [U_A^T, 0]], where

        f_A(x, lam) = f_nom(x) - p gamma(V(x)) G grad V(x) + G U_A(x) lam,
        J_fA = F - p gamma'(V) G grad V grad V^T
               + sum_k mu_k G hess q_k,   mu = (-p gamma(V), lam),

    F the constant Jacobian of f_nom and q_0 = V, q_k = h_{a_k} the
    certificate-table rows (0,) + A.  The CLF multiplier is eliminated at
    its equilibrium value p gamma(V), which adds the rank-one gamma' term;
    without a CLF row 0 is the zero quadric with gain 0.  Every product is
    elementwise or a matmul over a leading batch axis, so row k is computed
    by the same operations whatever K is: a stack evaluates bit for bit
    like its rows one at a time.  The constant factors are formed once,
    when the system is built.
    """

    def __init__(self, problem, indices):
        certs = problem.certificates
        rows = [0, *_check_indices(indices, certs.n_barriers)]
        n = problem.n
        G = problem.gram()
        self.n, self.r, self.p = n, len(rows) - 1, problem.params.p
        self.F, self.G = problem.f_nom_jacobian(), G
        self.shapes = certs.row_shapes[rows]
        self.centers = certs.row_centers[rows]
        self.offsets = certs.row_offsets[rows]
        # gamma is linear: gamma(V) = gain V and gamma'(V) = gain
        self.gain = certs.row_gains[0]
        self.G_hess = (G @ (2.0 * self.shapes)).reshape(self.r + 1, n * n)

    def curvature(self, mu):
        """sum_k mu_k G hess q_k for a (K, 1 + r) stack of row multipliers."""
        return (mu[:, None, :] @ self.G_hess).reshape(mu.shape[0], self.n, self.n)

    def __call__(self, Z):
        n, r, p, G = self.n, self.r, self.p, self.G
        Z = np.ascontiguousarray(Z, dtype=float)
        K = Z.shape[0]
        values, grads = _quadrics(self.shapes, self.centers, self.offsets, Z[:, :n])
        gamma = self.gain * values[:, :1]
        grad_V = grads[:, 0, :, None]
        G_grad_V = G @ grad_V
        GU = G @ grads[:, 1:].transpose(0, 2, 1)
        field = self.F @ Z[:, :n, None] - (p * gamma)[..., None] * G_grad_V \
            + GU @ Z[:, n:, None]
        J = np.zeros((K, n + r, n + r))
        J[:, :n, :n] = (self.F - (p * self.gain) * (G_grad_V @ grad_V.transpose(0, 2, 1))
                        + self.curvature(np.hstack([-p * gamma, Z[:, n:]])))
        J[:, :n, n:] = GU
        J[:, n:, :n] = grads[:, 1:]
        return np.concatenate([field[..., 0], values[:, 1:]], axis=1), J


def _stack_of_one(problem, x, lam, indices):
    """(system, z): the system of ``indices`` and the point [x; lam] as a
    stack of one."""
    system = _EquilibriumSystem(problem, indices)
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.shape[0] != system.r:
        raise DimensionMismatchError(
            f"{lam.shape[0]} multipliers for {system.r} active indices")
    return system, np.concatenate([_as_state(x, problem.n), lam])[None]


def equilibrium_field_jacobian(problem, x, lam, indices):
    """State Jacobian of the equilibrium field f_A at frozen barrier multipliers.

    Unlike the multiplier-frozen Jacobian the CLF multiplier is the
    state-dependent p gamma(V(x)) here, which contributes the rank-one
    term p gamma'(V) G grad V grad V^T on top of the curvature terms.
    """
    system, z = _stack_of_one(problem, x, lam, indices)
    return system(z)[1][0, :system.n, :system.n]


def closed_loop_jacobian(problem, x_e, lam, indices):
    """Assemble the closed-loop Jacobian at a validated boundary equilibrium.

    Parameters
    ----------
    problem : ControlProblem
    x_e : (n,) array_like
        Equilibrium state on the active boundaries.
    lam : (r,) array_like
        Active barrier multipliers (ordered like ``indices``).
    indices : sequence of int
        Active barrier indices, 1-based.

    Returns
    -------
    JacobianBundle
        ``J_A``, ``J_fA`` and ``J_fcl``.

    Raises
    ------
    PreconditionError
        If the active set is empty, the active gradients are dependent, the
        input map has no authority on them, or the dual block on (0,) + A
        is ill-conditioned.
    """
    return _closed_loop_jacobian(problem, x_e, lam, indices)[0]


def _closed_loop_jacobian(problem, x_e, lam, indices):
    """(bundle, basis): :func:`closed_loop_jacobian` and an orthonormal
    (n, n - r) basis of the complement of the active gradients at x_e."""
    indices = _check_indices(indices, problem.n_barriers)
    lam = np.asarray(lam, dtype=float).ravel()
    d = _PointData(problem, x_e)
    r = len(indices)
    if r == 0:
        raise PreconditionError("closed_loop_jacobian needs a nonempty active set")
    # the columns of D are the table rows: -grad V, then the barrier gradients
    U_A = d.D[:, indices]
    left, sv, _ = np.linalg.svd(U_A)
    if int(np.sum(sv > problem.tolerances.rank * max(1.0, float(sv[0])))) < r:
        raise PreconditionError("active barrier gradients are linearly dependent")
    if float(np.max(np.abs(U_A.T @ problem.model.input_matrix))) < 1e-14:
        raise PreconditionError("input map has no authority on the active gradients")

    R = [0, *indices]
    A_RR = d.A[np.ix_(R, R)]
    a_sv = np.linalg.svd(A_RR, compute_uv=False)
    cond = float(a_sv[0] / a_sv[-1]) if a_sv[-1] > 0.0 else np.inf
    if not np.isfinite(cond) or cond > MAX_DUAL_BLOCK_CONDITION:
        raise PreconditionError(
            f"dual block is numerically singular (condition {cond:.3e})")
    system, z = _stack_of_one(problem, d.x, lam, indices)
    n = system.n
    J_fA = system(z)[1][0, :n, :n]
    # multipliers frozen at (p gamma(V), lam), the CLF row signed: mu_0 = -p gamma(V)
    J_A = system.F + system.curvature(
        np.concatenate(([problem.params.p * d.s[0]], lam))[None])[0]
    D_R = d.D[:, R]
    # d/dx of A_RR l_R = b_R at f_cl = 0, the class-K slopes from the table gains
    rhs = D_R.T @ J_A + problem.certificates.row_gains[R][:, None] * D_R.T
    J_fcl = J_A - system.G @ (D_R @ np.linalg.solve(A_RR, rhs))
    return JacobianBundle(J_A=J_A, J_fA=J_fA, J_fcl=J_fcl), left[:, r:]


def classify(problem, x_e, lam, indices):
    """Classify a boundary equilibrium by the tangent-space curvature test.

    The active gradients span r always-attracting directions; stability is
    decided by mu_max, the largest eigenvalue of the symmetrized
    equilibrium-field Jacobian restricted to their orthogonal complement.
    ``mu_max > eps`` is unstable with a Chetaev witness direction,
    ``mu_max < -eps`` stable, in between marginal (no claim).  The special
    case r = n has no tangent space and is always stable.

    The two verdicts carry different strength.  An unstable verdict is
    definitive: the witness direction certifies a genuine escape.  A
    stable verdict rests on a curvature condition evaluated in the
    Euclidean inner product, and when the closed loop's invariant
    splitting is strongly oblique to the active gradients that condition
    can hold at a genuinely unstable equilibrium.  Stable verdicts should
    therefore be corroborated with :func:`spectrum_cross_check` (the CLI
    does, flagging any disagreement) rather than taken as proof alone.
    """
    indices = tuple(int(i) for i in indices)
    lam = np.asarray(lam, dtype=float).ravel()
    bundle, B = _closed_loop_jacobian(problem, x_e, lam, indices)
    spectrum = _sorted_eigenvalues(bundle.J_fcl)
    n = bundle.J_fcl.shape[0]
    r = len(indices)
    eps = problem.tolerances.stability
    if r == n:
        return StabilityVerdict(
            verdict="stable", mu_max=-np.inf, witness=None, spectrum=spectrum)
    J_sym = 0.5 * (bundle.J_fA + bundle.J_fA.T)
    M = B.T @ J_sym @ B
    vals, vecs = np.linalg.eigh(M)
    mu_max = float(vals[-1])
    if mu_max > eps:
        witness = B @ vecs[:, -1]
        witness = witness / np.linalg.norm(witness)
        lead = np.flatnonzero(np.abs(witness) > 1e-12)
        if lead.size and witness[lead[0]] < 0.0:
            witness = -witness
        return StabilityVerdict(
            verdict="unstable", mu_max=mu_max, witness=witness, spectrum=spectrum)
    if mu_max < -eps:
        return StabilityVerdict(
            verdict="stable", mu_max=mu_max, witness=None, spectrum=spectrum)
    return StabilityVerdict(
        verdict="marginal", mu_max=mu_max, witness=None, spectrum=spectrum)


def _sorted_eigenvalues(J):
    eigs = np.linalg.eigvals(J)
    order = np.lexsort((eigs.imag, eigs.real))[::-1]
    return eigs[order]


def spectrum_cross_check(problem, x_e, lam, indices, verdict):
    """Compare a verdict against the finite-difference closed-loop spectrum.

    Differentiates the actual closed loop (QP solve at every probe state)
    numerically and checks sign agreement of the largest real part, over
    and above the structurally negative constraint directions.  Requires a
    non-marginal verdict.
    """
    if verdict.verdict == "marginal":
        raise PreconditionError("spectrum cross-check needs a non-marginal verdict")
    x_e = np.asarray(x_e, dtype=float).ravel()
    J_fd = _finite_difference_jacobian(lambda y: closed_loop_field(problem, y), x_e)
    eigs = _sorted_eigenvalues(J_fd)
    eps = problem.tolerances.spectrum
    max_real = float(np.max(eigs.real))
    if verdict.verdict == "unstable":
        agree = max_real > eps
    else:
        agree = max_real < -eps
    return SpectrumCheck(agree=agree, eigenvalues=eigs)

