"""Quadratic Lyapunov and barrier certificates with linear class-K margins.

A certificate evaluates to ``(x - center)^T shape (x - center) + offset``;
its gradient and Hessian are exact.  A CLF has positive-definite shape and
zero offset (so V >= 0 with V = 0 only at the center).  A barrier is any
symmetric quadric; the bundled scenarios use positive-definite shapes with
offset -1, i.e. ellipsoidal obstacles where ``h < 0`` inside.

CBFs are numbered 1..N throughout the package: active sets are subsets of
{0, 1, .., N} with 0 denoting the CLF row, matching the trajectory-log
bitmask (bit 0 = CLF row, bit i = CBF i).  :class:`CertificateSet` stacks
the certificates in the same numbering, as a table of N+1 quadrics whose
row 0 is the CLF (the zero quadric in safety-filter mode), and
:func:`_quadrics` evaluates rows of it at a stack of states: V, grad V, h
and U all come from that one evaluator.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError

__all__ = ["ClassKappa", "QuadraticCertificate", "CertificateSet"]

MAX_BARRIERS = 8


@dataclass(frozen=True)
class ClassKappa:
    """Linear class-K function ``s -> gain * s`` with gain > 0."""

    gain: float

    def __post_init__(self):
        if not (float(self.gain) > 0.0):
            raise InvalidParameterError(f"class-K gain must be > 0, got {self.gain}")
        object.__setattr__(self, "gain", float(self.gain))

    def value(self, s):
        return self.gain * float(s)

    def slope(self, s):
        return self.gain


@dataclass(frozen=True)
class QuadraticCertificate:
    """Quadric ``(x - center)^T shape (x - center) + offset``."""

    kind: str  # "clf" | "cbf"
    shape: np.ndarray
    center: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        S = np.atleast_2d(np.asarray(self.shape, dtype=float))
        c = np.asarray(self.center, dtype=float).ravel()
        if S.shape[0] != S.shape[1]:
            raise DimensionMismatchError(f"shape must be square, got {S.shape}")
        if c.shape[0] != S.shape[0]:
            raise DimensionMismatchError(
                f"center has dim {c.shape[0]}, shape is {S.shape}")
        if not np.allclose(S, S.T, rtol=0.0, atol=1e-12):
            raise InvalidParameterError("certificate shape matrix must be symmetric")
        if self.kind == "clf":
            if float(self.offset) != 0.0:
                raise InvalidParameterError("CLF offset must be 0")
            if np.any(np.linalg.eigvalsh(S) <= 0.0):
                raise InvalidParameterError("CLF shape matrix must be positive definite")
        elif self.kind != "cbf":
            raise InvalidParameterError(f"unknown certificate kind {self.kind!r}")
        object.__setattr__(self, "shape", S)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "offset", float(self.offset))

    @classmethod
    def clf(cls, shape, center):
        return cls(kind="clf", shape=shape, center=center, offset=0.0)

    @classmethod
    def barrier(cls, shape, center, offset=-1.0):
        return cls(kind="cbf", shape=shape, center=center, offset=offset)

    @property
    def n(self):
        return self.center.shape[0]

    def value(self, x):
        d = np.asarray(x, dtype=float).ravel() - self.center
        return float(d @ self.shape @ d) + self.offset

    def gradient(self, x):
        d = np.asarray(x, dtype=float).ravel() - self.center
        return 2.0 * (self.shape @ d)

    def hessian(self, x=None):
        return 2.0 * self.shape


def _check_indices(indices, n_barriers):
    idx = tuple(int(i) for i in indices)
    for i in idx:
        if not 1 <= i <= n_barriers:
            raise InvalidParameterError(
                f"CBF index {i} out of range 1..{n_barriers}")
    if len(set(idx)) != len(idx):
        raise InvalidParameterError(f"repeated CBF index in {idx}")
    return idx


def _quadrics(shapes, centers, offsets, X):
    """Values (K, r) and gradients (K, r, n) of r stacked quadrics at K states.

    Every product is a matmul over leading batch axes whose items are the
    vector-matrix, matrix-vector and dot products of
    :meth:`QuadraticCertificate.value` and :meth:`QuadraticCertificate.gradient`,
    so each entry equals that method at that state, bit for bit, whatever K.
    """
    d = X[:, None, :] - centers
    values = ((d[:, :, None, :] @ shapes) @ d[..., None])[..., 0, 0] + offsets
    return values, 2.0 * (shapes @ d[..., None])[..., 0]


@dataclass(frozen=True)
class CertificateSet:
    """A CLF (optional, absent exactly in safety-filter mode) plus N >= 1 CBFs.

    ``gamma`` is the CLF's class-K margin, ``alphas[i]`` the margin of CBF
    i+1.

    The certificates are also held, built once, as one read-only table of
    N+1 quadrics indexed by QP row: ``row_shapes`` (N+1, n, n),
    ``row_centers`` (N+1, n), ``row_offsets`` (N+1,) and the class-K gains
    ``row_gains`` (N+1,).  Row 0 is the CLF with gain gamma; without a CLF
    it is the all-zero quadric with gain 0, which is exactly the
    safety-filter substitution V = 0.  Row i is CBF i with the gain of
    alpha_i, and ``shapes``, ``centers``, ``offsets`` and ``alpha_gains``
    are views of rows 1..N.  Every class-K function here is linear, so the
    margins gamma(V) and alpha_i(h_i) at a state are ``row_gains`` times
    the row values there.
    """

    cbfs: Tuple[QuadraticCertificate, ...]
    alphas: Tuple[ClassKappa, ...]
    clf: Optional[QuadraticCertificate] = None
    gamma: Optional[ClassKappa] = None

    def __post_init__(self):
        cbfs = tuple(self.cbfs)
        alphas = tuple(self.alphas)
        if len(cbfs) < 1:
            raise InvalidParameterError("at least one CBF is required")
        if len(cbfs) > MAX_BARRIERS:
            raise InvalidParameterError(
                f"N={len(cbfs)} CBFs exceeds the supported cap {MAX_BARRIERS}")
        if len(alphas) != len(cbfs):
            raise DimensionMismatchError(
                f"{len(alphas)} class-K margins for {len(cbfs)} CBFs")
        n = cbfs[0].n
        for b in cbfs:
            if b.kind != "cbf":
                raise InvalidParameterError("cbfs must all have kind 'cbf'")
            if b.n != n:
                raise DimensionMismatchError("CBFs live in different dimensions")
        if (self.clf is None) != (self.gamma is None):
            raise InvalidParameterError("clf and gamma must be present together")
        if self.clf is None:
            row0 = (np.zeros((n, n)), np.zeros(n), 0.0, 0.0)
        else:
            if self.clf.kind != "clf":
                raise InvalidParameterError("clf must have kind 'clf'")
            if self.clf.n != n:
                raise DimensionMismatchError("CLF dimension differs from CBFs")
            row0 = (self.clf.shape, self.clf.center, 0.0, self.gamma.gain)
        object.__setattr__(self, "cbfs", cbfs)
        object.__setattr__(self, "alphas", alphas)
        rows = [row0] + [(b.shape, b.center, b.offset, a.gain)
                         for b, a in zip(cbfs, alphas)]
        names = (("row_shapes", "shapes"), ("row_centers", "centers"),
                 ("row_offsets", "offsets"), ("row_gains", "alpha_gains"))
        for k, (table, view) in enumerate(names):
            arr = np.array([row[k] for row in rows])
            arr.setflags(write=False)
            object.__setattr__(self, table, arr)
            object.__setattr__(self, view, arr[1:])

    @property
    def n(self):
        return self.centers.shape[1]

    @property
    def n_barriers(self):
        return self.centers.shape[0]

    @property
    def has_clf(self):
        return self.clf is not None

    def barrier(self, i):
        """CBF number i (1-based)."""
        (i,) = _check_indices((i,), self.n_barriers)
        return self.cbfs[i - 1]

    def _rows_at(self, x):
        """Values (N+1,) and gradients (N+1, n) of every table row at x."""
        X = np.asarray(x, dtype=float).reshape(1, -1)
        values, grads = _quadrics(self.row_shapes, self.row_centers,
                                  self.row_offsets, X)
        return values[0], grads[0]

    def values(self, x):
        """Every table row at x: V(x) (0 without a CLF), then h_1(x) .. h_N(x)."""
        return self._rows_at(x)[0]

    def barrier_values(self, x):
        """All N barrier values h_1(x) .. h_N(x)."""
        return self.values(x)[1:]
