"""Stability analysis of boundary equilibria via the closed-loop Jacobian.

Inside the region where a fixed active set A stays optimal, the closed
loop is smooth and its Jacobian at an equilibrium factors through the
Schur complement S_A = U_A^T P G U_A of the reduced dual system (P the
CLF-gradient deflation), which is the dual matrix on the rows (0,) + A
with the CLF row eliminated.  Two structural facts drive the
classification:

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
closed loop, which knows nothing about the factorization.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certificates import _check_indices, _quadrics
from .errors import DimensionMismatchError, PreconditionError
from .qp import _deflation, _PointData, _schur, closed_loop_field
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

#: condition-number ceiling for the active-set Schur complement.
MAX_SCHUR_CONDITION = 1e12


@dataclass(frozen=True)
class JacobianBundle:
    """Matrices assembled at one boundary equilibrium."""

    J_A: np.ndarray        # multiplier-frozen Jacobian at (lambda0_e, lambda_e)
    J_fA: np.ndarray       # Jacobian of the equilibrium field (CLF row eliminated)
    S_A: np.ndarray        # active-set Schur complement U_A^T P G U_A
    P_V: np.ndarray        # CLF-gradient deflation
    P_UA: np.ndarray       # active-gradient deflation built from S_A
    J_fcl: np.ndarray      # closed-loop Jacobian
    lambda_prime: np.ndarray  # alpha'_i(h_i) over the active set
    cond_S_A: float
    cond_B_V: float        # nan when grad V = 0 or G is singular


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

    Raises
    ------
    PreconditionError
        If the active gradients are dependent, the input map has no
        authority on them, or the Schur complement is ill-conditioned.
    """
    return _closed_loop_jacobian(problem, x_e, lam, indices)[0]


def _closed_loop_jacobian(problem, x_e, lam, indices):
    """(bundle, d): :func:`closed_loop_jacobian` and the point ``d`` it
    assembled at x_e, whose columns ``d.D[:, indices]`` are U_A."""
    indices = _check_indices(indices, problem.n_barriers)
    lam = np.asarray(lam, dtype=float).ravel()
    d = _PointData(problem, x_e)
    tol = problem.tolerances
    n = d.x.shape[0]
    r = len(indices)
    if r == 0:
        raise PreconditionError("closed_loop_jacobian needs a nonempty active set")
    # the columns of D are the table rows: -grad V, then the barrier gradients
    U_A = d.D[:, indices]
    sv = np.linalg.svd(U_A, compute_uv=False)
    if int(np.sum(sv > tol.rank * max(1.0, float(sv[0])))) < r:
        raise PreconditionError("active barrier gradients are linearly dependent")
    if float(np.max(np.abs(U_A.T @ problem.model.input_matrix))) < 1e-14:
        raise PreconditionError("input map has no authority on the active gradients")

    G = problem.gram()
    gradV = -d.D[:, 0]
    lambda0_e = -problem.params.p * d.s[0]
    P_V = _deflation(d)
    S_A, _ = _schur(d, (0,) + indices)
    s_sv = np.linalg.svd(S_A, compute_uv=False)
    cond_S = float(s_sv[0] / s_sv[-1]) if s_sv[-1] > 0.0 else np.inf
    if not np.isfinite(cond_S) or cond_S > MAX_SCHUR_CONDITION:
        raise PreconditionError(
            f"Schur complement is numerically singular (condition {cond_S:.3e})")
    S_inv = np.linalg.inv(S_A)
    # the class-K functions are linear: their slopes are the table gains
    gains = problem.certificates.row_gains
    lam_prime = gains[list(indices)]

    PVG_UA = P_V @ G @ U_A
    P_UA = np.eye(n) - PVG_UA @ S_inv @ U_A.T
    system, z = _stack_of_one(problem, d.x, lam, indices)
    J_fA = system(z)[1][0, :n, :n]
    # multipliers frozen at (lambda0_e, lam): d/dx of f_nom + G(-lambda0 grad V + U_A lam)
    J_A = system.F + system.curvature(np.concatenate(([-lambda0_e], lam))[None])[0]
    core = P_V @ J_A - (gains[0] / d.A[0, 0]) * np.outer(G @ gradV, gradV)
    J_fcl = P_UA @ core - PVG_UA @ S_inv @ np.diag(lam_prime) @ U_A.T

    cond_B_V = np.nan
    g_sv = np.linalg.svd(G, compute_uv=False)
    grad_norm = float(np.max(np.abs(gradV)))
    if grad_norm > 1e-12 and g_sv[-1] > tol.rank * max(1.0, float(g_sv[0])):
        W = _orthogonal_complement_basis([G @ gradV])
        B_V = np.column_stack([gradV, W])
        cond_B_V = float(np.linalg.cond(B_V))

    return JacobianBundle(
        J_A=J_A, J_fA=J_fA, S_A=S_A, P_V=P_V, P_UA=P_UA, J_fcl=J_fcl,
        lambda_prime=lam_prime, cond_S_A=cond_S, cond_B_V=cond_B_V), d


def _orthogonal_complement_basis(vectors):
    """Orthonormal basis of the complement of span(vectors).

    Parameters
    ----------
    vectors : sequence of (n,) arrays or (n, r) ndarray
        Spanning vectors (columns).  Must be linearly independent.

    Returns
    -------
    (n, n - r) ndarray
        Orthonormal columns w with w^T v = 0 for every input vector.
        Deterministic: built by ordered elimination of the canonical basis
        against the inputs.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        V = np.asarray(vectors, dtype=float)
    else:
        V = np.column_stack([np.asarray(v, dtype=float).ravel() for v in vectors])
    n, r = V.shape
    basis = []
    for col in V.T:
        w = col.astype(float)
        for b in basis:
            w = w - float(b @ w) * b
        norm2 = float(w @ w)
        if norm2 <= 1e-20:
            raise PreconditionError("input vectors are dependent")
        basis.append(w / np.sqrt(norm2))
    complement = []
    for k in range(n):
        if len(complement) == n - r:
            break
        w = np.zeros(n)
        w[k] = 1.0
        for b in basis + complement:
            w = w - float(b @ w) * b
        norm2 = float(w @ w)
        if norm2 > 1e-20:
            complement.append(w / np.sqrt(norm2))
    if len(complement) != n - r:
        raise PreconditionError("could not complete the complement basis")
    if complement:
        return np.column_stack(complement)
    return np.zeros((n, 0))


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
    bundle, d = _closed_loop_jacobian(problem, x_e, lam, indices)
    spectrum = _sorted_eigenvalues(bundle.J_fcl)
    n = bundle.J_fcl.shape[0]
    r = len(indices)
    eps = problem.tolerances.stability
    if r == n:
        return StabilityVerdict(
            verdict="stable", mu_max=-np.inf, witness=None, spectrum=spectrum)
    B = _orthogonal_complement_basis(d.D[:, indices])
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

