"""Gaussian copula: correlation matrices and the latent uniforms.

Validates the correlation matrix, factors it by one pivot-dropping Cholesky
(so singular matrices like perfect correlation factor too), and turns
stream uniforms into copula uniforms: latent multivariate normals
mapped back through the standard normal CDF. A coordinate that no earlier
coordinate correlates with (its row of the factor is a unit vector) skips
that round trip and reads its clamped stream uniform directly, or the one
it copies under perfect correlation. The engine's sampler applies the
marginal inverse CDFs to the copula uniforms.
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
    try:
        m = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows or non-numeric entries
        raise InvalidCorrelationError(
            f"matrix must be equal-length rows of numbers: {exc}"
        ) from None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidCorrelationError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidCorrelationError("matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        i, j = np.argwhere(m != m.T)[0]
        raise InvalidCorrelationError(
            f"matrix is not symmetric: entry ({i},{j})={float(m[i, j])!r} "
            f"vs ({j},{i})={float(m[j, i])!r}"
        )
    diag = np.diag(m)
    if not np.all(diag == 1.0):
        i = int(np.argwhere(diag != 1.0)[0][0])
        raise InvalidCorrelationError(
            f"diagonal not unit: entry ({i},{i})={float(diag[i])!r}"
        )
    if np.any(np.abs(m) > 1.0):
        i, j = np.argwhere(np.abs(m) > 1.0)[0]
        raise InvalidCorrelationError(
            f"correlation out of [-1, 1]: entry ({i},{j})={float(m[i, j])!r}"
        )
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -PSD_TOL:
        raise InvalidCorrelationError(
            f"matrix is not positive semi-definite: min eigenvalue {min_eig:.3e}"
        )
    m.setflags(write=False)
    return CorrelationMatrix(entries=m)


def factor_correlation(sigma: CorrelationMatrix) -> CorrelationFactor:
    """Factor a validated correlation matrix as L @ L.T with L lower-triangular.

    One pivot-dropping column Cholesky for every matrix: a column whose pivot
    is at most ``PSD_TOL`` stays zero, so singular matrices (e.g. perfect
    correlation) factor too, and the rank counts the pivots above it.
    """
    m = sigma.entries
    d = m.shape[0]
    L = np.zeros((d, d))
    for j in range(d):
        pivot = m[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= PSD_TOL:
            continue  # leave column j at zero
        L[j, j] = np.sqrt(pivot)
        if j + 1 < d:
            L[j + 1 :, j] = (m[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    err = float(np.max(np.abs(L @ L.T - m)))
    if err > FACTOR_TOL:
        raise InvalidCorrelationError(
            f"factorization failed to reproduce the matrix (max error {err:.3e})"
        )
    rank = int(np.count_nonzero(np.diag(L)))
    L.setflags(write=False)
    return CorrelationFactor(L=L, rank=rank)


def _draw_uniform_block(
    factor: CorrelationFactor, rng: RngStream, start: int, stop: int
) -> np.ndarray:
    """The copula uniforms of draws start..stop-1, one row per draw.

    Draw i reads stream positions [i*d, (i+1)*d), the package's only map from
    draws to positions, so any split of the draws gives the same rows.
    Coordinate i whose row of L is a unit vector e_j keeps the clamped stream
    uniform of coordinate j; any other row is Phi(sum_j L[i, j] Phi^-1(u_j)).
    """
    n, d = stop - start, factor.L.shape[0]
    u = rng.uniforms(start * d, n * d).reshape(n, d)
    np.clip(u, _U_LOW, _U_HIGH, out=u)
    g = {}  # Phi^-1 of a stream column, taken at most once per chunk
    # row i reads only columns j <= i, so walking the rows from the last one
    # lets each row overwrite its own column: the rows still to come read
    # only columns before it
    for i in reversed(range(d)):
        row = factor.L[i]
        used = np.flatnonzero(row)
        if used.size == 1 and row[used[0]] == 1.0:
            if used[0] < i:  # perfect correlation with an earlier coordinate
                u[:, i] = u[:, used[0]]
            continue
        for j in used:
            if j not in g:
                g[j] = std_normal_quantile(u[:, j])
        # z = sum_j g_j L[i, j] added term by term in a fixed order: BLAS
        # rounds a one-row product unlike a taller one, and a draw must not
        # depend on the chunk that holds it; a zero term would add nothing
        z = g[used[0]] * row[used[0]]
        for j in used[1:]:
            z += g[j] * row[j]
        np.clip(std_normal_cdf(z), _U_LOW, _U_HIGH, out=u[:, i])
    return u
