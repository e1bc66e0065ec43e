"""Control-affine plant models and nominal controllers.

Plants have the form ``xdot = f(x) + g u``: the drift ``f`` is zero or
linear (``A x``) and the input map ``g`` is a constant matrix.  A nominal controller is zero or
linear state feedback ``u = K x``.  Plants and controllers are declarative
only, so every state derivative the toolkit needs is exact.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, NumericalError

__all__ = [
    "DynamicsModel",
    "NominalController",
]


def _as_state(x, n, what="x"):
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (n,):
        raise DimensionMismatchError(
            f"{what} has shape {x.shape}, expected ({n},)")
    return x


@dataclass(frozen=True)
class DynamicsModel:
    """Control-affine plant ``xdot = f(x) + g u`` with zero or linear drift.

    Build instances with :meth:`driftless` or :meth:`linear` rather than
    the raw constructor.

    Attributes
    ----------
    n, m : int
        State and input dimensions.
    drift_matrix : (n, n) ndarray, optional
        Present iff the drift is linear.
    input_matrix : (n, m) ndarray
        The constant input map g.
    """

    n: int
    m: int
    drift_matrix: Optional[np.ndarray] = None
    input_matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise InvalidParameterError(f"n, m must be >= 1, got n={self.n} m={self.m}")
        if self.input_matrix is None:
            raise InvalidParameterError("input_matrix is required")
        if self.drift_matrix is not None:
            A = np.asarray(self.drift_matrix, dtype=float)
            if A.shape != (self.n, self.n):
                raise DimensionMismatchError(
                    f"drift_matrix has shape {A.shape}, expected ({self.n}, {self.n})")
            object.__setattr__(self, "drift_matrix", A)
        g0 = np.asarray(self.input_matrix, dtype=float)
        if g0.shape != (self.n, self.m):
            raise DimensionMismatchError(
                f"input_matrix has shape {g0.shape}, expected ({self.n}, {self.m})")
        object.__setattr__(self, "input_matrix", g0)

    @classmethod
    def driftless(cls, input_matrix):
        g0 = np.atleast_2d(np.asarray(input_matrix, dtype=float))
        return cls(n=g0.shape[0], m=g0.shape[1], input_matrix=g0)

    @classmethod
    def linear(cls, drift_matrix, input_matrix):
        A = np.atleast_2d(np.asarray(drift_matrix, dtype=float))
        g0 = np.atleast_2d(np.asarray(input_matrix, dtype=float))
        return cls(n=A.shape[0], m=g0.shape[1], drift_matrix=A, input_matrix=g0)

    @property
    def drift_kind(self):
        return "linear" if self.drift_matrix is not None else "zero"


@dataclass(frozen=True)
class NominalController:
    """Nominal control law ``u_nom(x)``: zero or ``K x``."""

    m: int
    gain: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.gain is not None:
            K = np.atleast_2d(np.asarray(self.gain, dtype=float))
            if K.shape[0] != self.m:
                raise DimensionMismatchError(
                    f"gain has {K.shape[0]} rows, expected m={self.m}")
            object.__setattr__(self, "gain", K)

    @classmethod
    def zero(cls, m):
        return cls(m=m)

    @classmethod
    def linear_feedback(cls, gain):
        K = np.atleast_2d(np.asarray(gain, dtype=float))
        return cls(m=K.shape[0], gain=K)

    @property
    def kind(self):
        return "linear_feedback" if self.gain is not None else "zero"

    def __call__(self, x):
        x = np.asarray(x, dtype=float).ravel()
        if self.gain is None:
            return np.zeros(self.m)
        if self.gain.shape[1] != x.shape[0]:
            raise DimensionMismatchError(
                f"gain has {self.gain.shape[1]} columns, state has {x.shape[0]}")
        return self.gain @ x


def _eval_drift(model, x):
    """Drift A x, or zeros when the plant is driftless."""
    if model.drift_matrix is None:
        return np.zeros(model.n)
    return model.drift_matrix @ x


def _finite_difference_jacobian(fn, x, h=None):
    """Central-difference Jacobian of ``fn`` at ``x``.

    The independent reference against which the analytic Jacobians are
    checked.  ``fn`` is called 2n times, at the probes only: central
    differences never read the value at ``x``.

    Parameters
    ----------
    fn : callable
        Maps (n,) -> (k,).
    x : (n,) array_like
    h : float, optional
        Step; defaults to ``1e-6 * max(1, ||x||)``.

    Returns
    -------
    (k, n) ndarray
    """
    x = np.asarray(x, dtype=float).ravel()
    if h is None:
        h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    cols = []
    for j in range(x.shape[0]):
        step = np.zeros_like(x)
        step[j] = h
        fp = np.asarray(fn(x + step), dtype=float).ravel()
        fm = np.asarray(fn(x - step), dtype=float).ravel()
        col = (fp - fm) / (2.0 * h)
        if not np.all(np.isfinite(col)):
            raise NumericalError(
                f"non-finite finite-difference column for coordinate {j} at x={x}")
        cols.append(col)
    return np.column_stack(cols)
