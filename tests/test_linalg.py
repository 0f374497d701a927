import math

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from numrad.bounds import MatrixContext
from numrad.linalg import (
    ConvergenceError,
    DomainError,
    NotHermitianError,
    apply_herm_fn,
    as_matrix,
    as_square,
    cartesian_decomp,
    herm_eigen,
    operator_norm,
    svd,
)

from conftest import random_complex, square_matrices

J = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf + 0j, 0], [0, 0]]))


def test_as_square_rejects_rectangular():
    with pytest.raises(ValueError):
        as_square(np.zeros((2, 3)))


def test_operator_norm_closed_forms():
    assert operator_norm(J) == pytest.approx(1.0, abs=1e-14)
    assert operator_norm(np.diag([3.0, -4.0]).astype(complex)) == pytest.approx(4.0)
    assert operator_norm(np.eye(5, dtype=complex)) == pytest.approx(1.0)


def test_operator_norm_dual_route(rng):
    # largest singular value squared must match the top eigenvalue of A*A
    for n in (2, 5, 9):
        a = random_complex(rng, n)
        s = operator_norm(a)
        lam = herm_eigen(a.conj().T @ a).eigenvalues[-1]
        assert s ** 2 == pytest.approx(float(lam), rel=1e-12)


def test_svd_reconstruction(rng):
    a = random_complex(rng, 6)
    r = svd(a)
    recon = (r.left_vectors * r.singular_values) @ r.right_vectors.conj().T
    assert np.linalg.norm(recon - a) < 1e-12 * np.linalg.norm(a)
    assert np.all(np.diff(r.singular_values) <= 0)
    assert np.all(r.singular_values >= 0)


def test_svd_failures_raise_convergence_error(rng, monkeypatch):
    a = random_complex(rng, 4)
    real = np.linalg.svd

    def inflated(m, *args, **kwargs):
        u, s, vh = real(m, *args, **kwargs)
        return u, s * (1 + 1e-6), vh

    monkeypatch.setattr(np.linalg, "svd", inflated)
    with pytest.raises(ConvergenceError, match="SVD residual .* exceeds certificate"):
        svd(a)

    def diverged(m, *args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "svd", diverged)
    with pytest.raises(ConvergenceError, match="SVD did not converge: no convergence"):
        svd(a)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_svd_certificate_holds_at_extreme_scales(rng, monkeypatch, scale):
    # squared entries underflow to 0 or overflow to inf unless the
    # certificate rescales; either way perturbed factors would pass
    a = scale * random_complex(rng, 4)
    assert svd(a).singular_values[0] > 0
    real = np.linalg.svd

    def perturbed(m, *args, **kwargs):
        u, s, vh = real(m, *args, **kwargs)
        return u * (1 + 1e-6), s, vh

    monkeypatch.setattr(np.linalg, "svd", perturbed)
    with pytest.raises(ConvergenceError, match="SVD residual .* exceeds certificate"):
        svd(a)


def test_herm_eigen_failures_raise_convergence_error(rng, monkeypatch):
    g = random_complex(rng, 4)
    h = g + g.conj().T
    real = np.linalg.eigh

    def diverged(m):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigh", diverged)
    with pytest.raises(ConvergenceError, match="eigendecomposition did not converge"):
        herm_eigen(h)
    # shifted eigenvalues miss the residual certificate, rescaled vectors
    # the orthonormality certificate
    for perturb in (lambda w, v: (w + 1e-6, v), lambda w, v: (w, v * (1 + 1e-6))):
        monkeypatch.setattr(np.linalg, "eigh", lambda m: perturb(*real(m)))
        with pytest.raises(ConvergenceError, match="exceed certificates"):
            herm_eigen(h)


def test_herm_eigen_residual(rng):
    g = random_complex(rng, 8)
    h = 0.5 * (g + g.conj().T)
    e = herm_eigen(h)
    assert np.all(np.diff(e.eigenvalues) >= 0)
    for k in range(8):
        v = e.eigenvectors[:, k]
        res = np.linalg.norm(h @ v - e.eigenvalues[k] * v)
        assert res < 1e-12 * max(1.0, np.abs(e.eigenvalues).max())


def test_herm_eigen_residual_at_huge_scale(rng):
    # residual entries near 1e300 would overflow if squared unscaled
    g = random_complex(rng, 4)
    h = 1e300 * (0.5 * g + 0.5 * g.conj().T)
    e = herm_eigen(h)
    assert_allclose(e.eigenvalues, 1e300 * herm_eigen(h / 1e300).eigenvalues, rtol=1e-12)


def test_herm_eigen_gate():
    with pytest.raises(NotHermitianError):
        herm_eigen(J)
    # asymmetry below the gate is symmetrized away
    h = np.array([[1.0, 0.5], [0.5 + 1e-15, 2.0]], dtype=complex)
    e = herm_eigen(h)
    assert e.eigenvalues.shape == (2,)


def test_abs_ops_on_jordan():
    al, ar = MatrixContext(J).abs_pair
    assert_allclose(al, np.diag([0.0, 1.0]).astype(complex), atol=1e-14)
    assert_allclose(ar, np.diag([1.0, 0.0]).astype(complex), atol=1e-14)


def test_abs_ops_square_to_gram(rng):
    for n in (2, 4, 7):
        a = random_complex(rng, n)
        al, ar = MatrixContext(a).abs_pair
        scale = max(1.0, operator_norm(a) ** 2)
        assert np.linalg.norm(al @ al - a.conj().T @ a) < 1e-12 * scale
        assert np.linalg.norm(ar @ ar - a @ a.conj().T) < 1e-12 * scale
        # PSD
        assert herm_eigen(al).eigenvalues[0] > -1e-12 * scale
        assert herm_eigen(ar).eigenvalues[0] > -1e-12 * scale


def test_f_abs_square_is_gram(rng):
    # f(|A|), f(|A*|) for f(x) = x^2 are A*A and AA*, in that order
    for n in (2, 4, 7):
        a = random_complex(rng, n)
        fl, fr = MatrixContext(a).f_abs(lambda x: x ** 2)
        scale = max(1.0, operator_norm(a) ** 2)
        assert np.linalg.norm(fl - a.conj().T @ a) < 1e-12 * scale
        assert np.linalg.norm(fr - a @ a.conj().T) < 1e-12 * scale
    fl, fr = MatrixContext(J).f_abs(lambda x: x ** 2)
    assert_allclose(fl, np.diag([0.0, 1.0]).astype(complex), atol=1e-14)
    assert_allclose(fr, np.diag([1.0, 0.0]).astype(complex), atol=1e-14)


def test_apply_herm_fn_diagonal():
    h = np.diag([0.0, 1.0, 4.0]).astype(complex)
    out = apply_herm_fn(h, lambda x: x + np.sqrt(x))
    assert_allclose(out, np.diag([0.0, 2.0, 6.0]).astype(complex), atol=1e-13)


def test_apply_herm_fn_domain_error():
    h = np.diag([-1.0, 1.0]).astype(complex)
    with pytest.raises(DomainError):
        apply_herm_fn(h, np.sqrt)
    with pytest.raises(DomainError):
        apply_herm_fn(h, lambda x: 1.0 / x * 0 + np.log(x))


def test_apply_herm_fn_fallback_keeps_domain_errors():
    # a scalar-only function takes the element-wise fallback, and a
    # DomainError it raises there reaches the caller unchanged
    err = DomainError("negative input")

    def scalar_sqrt(x):
        if x < 0:
            raise err
        return math.sqrt(x)

    h = np.diag([4.0, 1.0]).astype(complex)
    assert_allclose(apply_herm_fn(h, scalar_sqrt), np.diag([2.0, 1.0]), atol=1e-14)
    with pytest.raises(DomainError) as info:
        apply_herm_fn(np.diag([-1.0, 1.0]).astype(complex), scalar_sqrt)
    assert info.value is err


def test_apply_herm_fn_falls_back_on_a_wrong_shape():
    # on the whole spectrum this returns one number, on each eigenvalue its square
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    out = apply_herm_fn(h, lambda x: float(np.max(x)) ** 2)
    assert_allclose(out, np.diag([1.0, 4.0, 9.0]), atol=1e-13)


def test_apply_herm_fn_passes_a_vectorized_domain_error():
    # the element-wise fallback would succeed; the vectorized error wins
    err = DomainError("arrays not accepted")

    def scalars_only(x):
        if np.ndim(x):
            raise err
        return x

    with pytest.raises(DomainError) as info:
        apply_herm_fn(np.eye(2, dtype=complex), scalars_only)
    assert info.value is err


def test_apply_herm_fn_element_wise_failure_is_a_domain_error():
    # math.sqrt rejects the array, then raises ValueError on -1
    with pytest.raises(DomainError, match="function failed on spectrum: math domain error") as info:
        apply_herm_fn(np.diag([-1.0, 1.0]).astype(complex), math.sqrt)
    assert isinstance(info.value.__cause__, ValueError)


def test_cartesian_decomp(rng):
    a = random_complex(rng, 5)
    b, c = cartesian_decomp(a)
    assert np.linalg.norm(b - b.conj().T) == 0.0
    assert np.linalg.norm(c - c.conj().T) == 0.0
    assert np.linalg.norm(a - (b + 1j * c)) < 1e-15 * np.linalg.norm(a)


def test_cartesian_quadratic_forms(rng):
    # x*Bx and x*Cx are the real and imaginary parts of x*Ax
    a = random_complex(rng, 6)
    b, c = cartesian_decomp(a)
    for _ in range(20):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x /= np.linalg.norm(x)
        z = x.conj() @ a @ x
        assert np.real(x.conj() @ b @ x) == pytest.approx(z.real, abs=1e-12)
        assert np.real(x.conj() @ c @ x) == pytest.approx(z.imag, abs=1e-12)


def test_gram_identity(rng):
    # |A|^2 + |A*|^2 equals A*A + AA* without any decomposition
    a = random_complex(rng, 5)
    al, ar = MatrixContext(a).abs_pair
    lhs = al @ al + ar @ ar
    rhs = a.conj().T @ a + a @ a.conj().T
    assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, operator_norm(a) ** 2)


def test_psd_norm_is_top_eigenvalue(rng):
    g = random_complex(rng, 6)
    p = g.conj().T @ g
    p = 0.5 * (p + p.conj().T)
    assert operator_norm(p) == pytest.approx(float(herm_eigen(p).eigenvalues[-1]), rel=1e-12)


@settings(deadline=None, max_examples=40)
@given(square_matrices(max_dim=4))
def test_norm_of_adjoint_matches(a):
    assert operator_norm(a.conj().T) == pytest.approx(
        operator_norm(a), rel=1e-10, abs=1e-10
    )
