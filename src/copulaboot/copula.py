"""Gaussian copula: correlation matrices and the latent uniforms.

Validates the correlation matrix, factors it (Cholesky, with a
semidefinite fallback so singular matrices like perfect correlation work),
and turns stream uniforms into copula uniforms: latent multivariate normals
mapped back through the standard normal CDF. The engine's sampler applies
the marginal inverse CDFs to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import std_normal_cdf, std_normal_quantile
from .errors import InvalidCorrelationError
from .rng import _U_HIGH, _U_LOW, RngStream

__all__ = [
    "CorrelationMatrix",
    "CorrelationFactor",
    "validate_correlation_matrix",
    "factor_correlation",
]

# smallest eigenvalue tolerated before a matrix is rejected as not PSD
PSD_TOL = 1e-10

# max-norm reconstruction tolerance for the factor
FACTOR_TOL = 1e-8


@dataclass(frozen=True)
class CorrelationMatrix:
    """A validated correlation matrix (symmetric, unit diagonal, PSD)."""

    entries: np.ndarray

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other):
        return isinstance(other, CorrelationMatrix) and np.array_equal(
            self.entries, other.entries
        )


@dataclass(frozen=True)
class CorrelationFactor:
    """Lower-triangular L with L @ L.T reproducing the correlation matrix."""

    L: np.ndarray
    rank: int


def validate_correlation_matrix(raw) -> CorrelationMatrix:
    """Validate a candidate correlation matrix.

    Checks, in order: squareness, finiteness, exact symmetry, exact unit
    diagonal, off-diagonals in [-1, 1], and positive semi-definiteness (min
    eigenvalue >= -1e-10). The error names the first violated invariant.
    """
    m = np.array(raw, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidCorrelationError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidCorrelationError("matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        i, j = np.argwhere(m != m.T)[0]
        raise InvalidCorrelationError(
            f"matrix is not symmetric: entry ({i},{j})={m[i, j]!r} "
            f"vs ({j},{i})={m[j, i]!r}"
        )
    diag = np.diag(m)
    if not np.all(diag == 1.0):
        i = int(np.argwhere(diag != 1.0)[0][0])
        raise InvalidCorrelationError(f"diagonal not unit: entry ({i},{i})={diag[i]!r}")
    if np.any(np.abs(m) > 1.0):
        i, j = np.argwhere(np.abs(m) > 1.0)[0]
        raise InvalidCorrelationError(
            f"correlation out of [-1, 1]: entry ({i},{j})={m[i, j]!r}"
        )
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -PSD_TOL:
        raise InvalidCorrelationError(
            f"matrix is not positive semi-definite: min eigenvalue {min_eig:.3e}"
        )
    m.setflags(write=False)
    return CorrelationMatrix(entries=m)


def _semidefinite_cholesky(m: np.ndarray) -> np.ndarray:
    # column-wise Cholesky that zeroes columns whose pivot is ~0, so exactly
    # or nearly singular matrices (e.g. perfect correlation) factor cleanly
    d = m.shape[0]
    L = np.zeros((d, d))
    for j in range(d):
        pivot = m[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= PSD_TOL:
            continue  # leave column j at zero
        L[j, j] = np.sqrt(pivot)
        if j + 1 < d:
            L[j + 1 :, j] = (m[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def factor_correlation(sigma: CorrelationMatrix) -> CorrelationFactor:
    """Factor a validated correlation matrix as L @ L.T with L lower-triangular."""
    m = sigma.entries
    try:
        L = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        L = _semidefinite_cholesky(m)
    err = float(np.max(np.abs(L @ L.T - m)))
    if err > FACTOR_TOL:
        raise InvalidCorrelationError(
            f"factorization failed to reproduce the matrix (max error {err:.3e})"
        )
    rank = int(np.count_nonzero(np.diag(L)))
    L.setflags(write=False)
    return CorrelationFactor(L=L, rank=rank)


def _draw_uniform_block(
    factor: CorrelationFactor, n: int, d: int, rng: RngStream
) -> np.ndarray:
    """The n x d copula uniforms for draws consuming positions [c, c + n*d)."""
    raw = rng.uniforms(n * d).reshape(n, d)
    if np.array_equal(factor.L, np.eye(d)):
        return np.clip(raw, _U_LOW, _U_HIGH)
    g = std_normal_quantile(np.clip(raw, _U_LOW, _U_HIGH))
    # z = g @ L.T added term by term in a fixed order (L is lower-triangular):
    # BLAS rounds a one-row product unlike a taller one, and a draw must not
    # depend on the chunk that holds it
    z = np.empty((d, n))
    for i in range(d):
        z[i] = g[:, 0] * factor.L[i, 0]
        for j in range(1, i + 1):
            z[i] += g[:, j] * factor.L[i, j]
    return np.clip(std_normal_cdf(z.T), _U_LOW, _U_HIGH)
