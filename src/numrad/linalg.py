"""Dense complex-matrix kernels.

Operator norm, certified Hermitian eigendecomposition, SVD, spectral
functional calculus, and the Cartesian (Hermitian / skew-Hermitian) split.

Everything operates on plain ``numpy`` arrays in IEEE double precision.
Decomposition residuals are certified against bounds of the form
``RESIDUAL_FACTOR * n * eps * scale``; a decomposition that misses its bound
raises :class:`ConvergenceError` instead of returning silently degraded
factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# Relative max-norm slack tolerated before an input is rejected as
# non-Hermitian.  Inputs inside the gate are symmetrized before use.
HERMITICITY_RTOL = 1e-12

# Residual certificates allow RESIDUAL_FACTOR * n * EPS * scale.
RESIDUAL_FACTOR = 64.0


class NotHermitianError(ValueError):
    """Matrix is farther from self-adjoint than the hermiticity gate allows."""


class ConvergenceError(RuntimeError):
    """A decomposition finished without meeting its residual certificate."""


class DomainError(ValueError):
    """A scalar function is undefined somewhere on a matrix spectrum."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.size == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def max_abs(a) -> float:
    """Entrywise max norm of a non-empty array."""
    return float(np.abs(a).max())


def operator_norm(a) -> float:
    """Largest singular value of A."""
    m = as_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])


@dataclass(eq=False)
class SvdResult:
    """Factors of A = U diag(s) V* with s sorted descending."""

    singular_values: np.ndarray
    left_vectors: np.ndarray   # columns of U
    right_vectors: np.ndarray  # columns of V


def svd(a) -> SvdResult:
    """Full SVD with a Frobenius-residual certificate on the reconstruction."""
    m = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    n = max(m.shape)
    fro = float(np.linalg.norm(m))
    resid = float(np.linalg.norm(m - (u[:, : s.size] * s) @ vh[: s.size]))
    if resid > RESIDUAL_FACTOR * n * EPS * fro:
        raise ConvergenceError(
            f"SVD residual {resid:.3e} exceeds certificate "
            f"{RESIDUAL_FACTOR * n * EPS * fro:.3e}"
        )
    return SvdResult(s, u, vh.conj().T)


def _hermitize(m: np.ndarray) -> np.ndarray:
    # halving first: exact for normal numbers, and finite whenever the
    # symmetrized matrix is, where m + m* can overflow
    return 0.5 * m + 0.5 * m.conj().T


def _gated_hermitian(a) -> np.ndarray:
    """Reject inputs outside the hermiticity gate, symmetrize the rest."""
    m = as_square(a)
    gap = max_abs(m - m.conj().T)
    tol = HERMITICITY_RTOL * max_abs(m)
    if gap > tol:
        raise NotHermitianError(
            f"max |H - H*| = {gap:.3e} exceeds hermiticity tolerance {tol:.3e}"
        )
    return _hermitize(m)


@dataclass(eq=False)
class HermEigen:
    """Spectral factors H = V diag(w) V* with w ascending and V unitary."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns of V


def herm_eigen(h) -> HermEigen:
    """Certified eigendecomposition of a Hermitian matrix.

    The input must pass the hermiticity gate (max-norm, relative tolerance
    ``HERMITICITY_RTOL``); it is symmetrized before factoring.  The returned
    factors satisfy a per-column residual bound
    ``||H v_k - w_k v_k|| <= RESIDUAL_FACTOR * n * eps * max|w|`` and an
    orthonormality bound of the same size, else :class:`ConvergenceError`.
    """
    m = _gated_hermitian(h)
    n = m.shape[0]
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    bound = RESIDUAL_FACTOR * n * EPS * max(max_abs(w), 1e-300)
    # each column divided by its largest entry before squaring, which would
    # overflow for entries past about 1e154
    r = np.abs(m @ v - v * w)
    peak = r.max(axis=0)
    peak[peak == 0] = 1.0
    resid = float((peak * np.sqrt(np.sum((r / peak) ** 2, axis=0))).max())
    ortho = max_abs(v.conj().T @ v - np.eye(n))
    if resid > bound or ortho > RESIDUAL_FACTOR * n * EPS:
        raise ConvergenceError(
            f"eigendecomposition residual {resid:.3e} / orthonormality {ortho:.3e} "
            f"exceed certificates"
        )
    return HermEigen(w, v)


def _apply_to_values(f: Callable[[np.ndarray], np.ndarray], w: np.ndarray) -> np.ndarray:
    """Evaluate a scalar function on a real spectrum, elementwise fallback."""
    with np.errstate(all="ignore"):
        try:
            vals = np.asarray(f(w), dtype=np.float64)
            if vals.shape != w.shape:
                raise ValueError
        except DomainError:
            raise
        except Exception:
            try:
                vals = np.array([float(f(x)) for x in w], dtype=np.float64)
            except DomainError:
                raise
            except Exception as exc:
                raise DomainError(f"function failed on spectrum: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        bad = w[~np.isfinite(vals)]
        raise DomainError(f"function undefined at eigenvalue(s) {bad[:4]}")
    return vals


def from_spectrum(v: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """V diag(vals) V* for real ``vals``, symmetrized to be exactly Hermitian."""
    return _hermitize((v * vals) @ v.conj().T)


def apply_herm_fn(h, f: Callable) -> np.ndarray:
    """Spectral functional calculus f(H) = V f(diag w) V* for Hermitian H."""
    eig = herm_eigen(h)
    vals = _apply_to_values(f, eig.eigenvalues)
    return from_spectrum(eig.eigenvectors, vals)


def cartesian_decomp(a) -> tuple[np.ndarray, np.ndarray]:
    """Split A = B + iC with B = (A+A*)/2 and C = (A-A*)/(2i), both Hermitian."""
    m = as_square(a)
    b = _hermitize(m)
    c = (m - m.conj().T) / 2j
    return b, c
