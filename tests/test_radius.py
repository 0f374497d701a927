import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import numrad
import numrad.radius
from numrad.ensembles import FAMILIES, EnsembleSpec, generate
from numrad.linalg import EPS, RESIDUAL_FACTOR, operator_norm
from numrad.radius import (
    EnclosureNotReached,
    GRID_CAP,
    TWO_PI,
    RadiusConfig,
    _ascend,
    _envelope_eigh,
    _envelope_gvals,
    _grid_upper,
    _lmi_upper,
    _sweep_chunk,
    herm_envelope,
    numerical_radius,
    radius_sample_oracle,
)

from conftest import random_complex, square_matrices

J = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

# loose but still certified; keeps property runs quick
FAST = RadiusConfig(grid_points=64, target_width_rel=1e-7)


def shift_matrix(n):
    return np.diag(np.ones(n - 1), 1).astype(complex)


def test_config_validation():
    with pytest.raises(ValueError):
        RadiusConfig(grid_points=7)
    with pytest.raises(ValueError):
        RadiusConfig(target_width=0.0)
    with pytest.raises(ValueError):
        RadiusConfig(target_width_rel=-1e-9)


def test_config_default_relative_width():
    assert RadiusConfig() == RadiusConfig(target_width_rel=1e-9)
    assert RadiusConfig().resolve_target(4.0) == 4e-9


def test_herm_envelope_definition(rng):
    a = random_complex(rng, 5)
    theta = 0.7
    h = herm_envelope(a, theta)
    want = 0.5 * (np.exp(1j * theta) * a + np.exp(-1j * theta) * a.conj().T)
    assert np.linalg.norm(h - want) < 1e-14 * np.linalg.norm(want)
    assert np.linalg.norm(h - h.conj().T) == 0.0
    # angle zero picks out the Hermitian part of a
    b = 0.5 * (a + a.conj().T)
    assert np.linalg.norm(herm_envelope(a, 0.0) - b) < 1e-14 * np.linalg.norm(b)


def test_herm_envelope_special_angles():
    # Hermitian input at a quarter turn cancels up to phase rounding
    h = np.array([[2.0, 1.0], [1.0, -1.0]], dtype=complex)
    assert np.linalg.norm(herm_envelope(h, math.pi / 2)) <= 1e-15 * np.linalg.norm(h)
    env = herm_envelope(J, 0.0)
    assert np.allclose(env, np.array([[0.0, 0.5], [0.5, 0.0]]), atol=1e-15)


def test_envelope_routes_agree(rng):
    # herm_envelope, the batched sweep and the ascent's eigh all build H(theta)
    # through one formula, so their top eigenvalues agree to rounding
    for a in (J, shift_matrix(4), random_complex(rng, 5), random_complex(rng, 9, 1e3)):
        ah = a.conj().T
        tol = 1e-13 * max(1.0, operator_norm(a))
        for theta in (0.0, 0.7, math.pi / 2, 2.0, 5.5):
            h = herm_envelope(a, theta)
            dense = np.linalg.eigvalsh(h)[-1]
            w, v = _envelope_eigh(a, ah, theta)
            top, v = w[-1], v[:, -1]
            assert _envelope_gvals(a, ah, np.array([theta]))[0] == pytest.approx(dense, abs=tol)
            assert top == pytest.approx(dense, abs=tol)
            assert np.real(np.vdot(v, h @ v)) == pytest.approx(top, abs=tol)


def test_public_names_resolve():
    assert [name for name in numrad.__all__ if not hasattr(numrad, name)] == []


def test_oracle_bounds_radius():
    val = radius_sample_oracle(J, 100000, seed=1)
    assert 0.49 <= val <= 0.5 + 1e-12
    with pytest.raises(ValueError):
        radius_sample_oracle(J, 0)


def test_radius_jordan_default():
    est = numerical_radius(J)
    assert est.lower == pytest.approx(0.5, abs=1e-12)
    assert est.upper - est.lower <= 1e-9
    assert est.upper >= 0.5


def test_radius_identity():
    est = numerical_radius(np.eye(3, dtype=complex))
    assert est.lower == pytest.approx(1.0, abs=1e-12)
    assert est.width <= 1e-9


def test_radius_zero_matrix():
    est = numerical_radius(np.zeros((4, 4), dtype=complex))
    assert est.lower == 0.0
    assert est.upper == 0.0


def test_radius_hermitian_equals_norm(rng):
    g = random_complex(rng, 6)
    h = 0.5 * (g + g.conj().T)
    est = numerical_radius(h)
    assert est.lower == pytest.approx(operator_norm(h), rel=1e-11)


def test_radius_shift_closed_form():
    # w of the n-dimensional nilpotent shift is cos(pi/(n+1))
    for n in (2, 3, 5, 8):
        est = numerical_radius(shift_matrix(n))
        assert est.lower == pytest.approx(math.cos(math.pi / (n + 1)), abs=2e-10)
        assert est.width <= 1e-9


def test_normal_matrix_radius_is_spectral(rng):
    d = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    q, _ = np.linalg.qr(random_complex(rng, 5))
    a = (q * d) @ q.conj().T
    est = numerical_radius(a)
    assert est.lower == pytest.approx(float(np.abs(d).max()), rel=1e-9)


def test_enclosure_not_reached_carries_estimate():
    with pytest.raises(EnclosureNotReached) as info:
        numerical_radius(J, RadiusConfig(target_width=1e-16))
    est = info.value.estimate
    assert est is not None
    assert est.grid_points == GRID_CAP
    assert est.lower == pytest.approx(0.5, abs=1e-12)
    assert est.width > 1e-16
    # ||J|| = 1 is never scaled; 4^100 J is, and its estimate and message
    # come back in the caller's units
    s = 4.0 ** 100
    with pytest.raises(EnclosureNotReached) as info:
        numerical_radius(s * J, RadiusConfig(target_width=s * 1e-16))
    big = info.value.estimate
    assert (big.lower, big.upper) == (s * est.lower, s * est.upper)
    assert (big.theta_star, big.grid_points) == (est.theta_star, est.grid_points)
    assert np.array_equal(big.witness, est.witness)
    assert f"above target {s * 1e-16:.3e}" in str(info.value)
    assert f"width {big.width:.3e}" in str(info.value)


def test_witness_attains_lower(rng):
    for n in (2, 4, 7):
        a = random_complex(rng, n)
        est = numerical_radius(a, FAST)
        got = abs(np.vdot(est.witness, a @ est.witness))
        assert got == pytest.approx(est.lower, abs=1e-12 * max(1.0, est.lower))


def test_determinism(rng):
    a = random_complex(rng, 5)
    cfg = RadiusConfig(grid_points=256)
    e1 = numerical_radius(a, cfg)
    e2 = numerical_radius(a, cfg)
    assert (e1.lower, e1.upper, e1.theta_star) == (e2.lower, e2.upper, e2.theta_star)
    assert np.array_equal(e1.witness, e2.witness)


@settings(deadline=None, max_examples=25)
@given(square_matrices(max_dim=4))
def test_enclosure_soundness(a):
    nrm = operator_norm(a)
    est = numerical_radius(a, FAST)
    tol = 1e-9 * max(1.0, nrm)
    # norm sandwich
    assert est.upper >= 0.5 * nrm - tol
    assert est.lower <= nrm + tol
    # enclosure is ordered and meets its target
    assert est.lower <= est.upper
    assert est.width <= 1e-7 * max(1.0, nrm) + 1e-15


@settings(deadline=None, max_examples=20)
@given(square_matrices(max_dim=4))
def test_oracle_never_beats_upper(a):
    est = numerical_radius(a, FAST)
    val = radius_sample_oracle(a, 2000, seed=3)
    assert val <= est.upper + 1e-9 * max(1.0, est.upper)


@settings(deadline=None, max_examples=20)
@given(square_matrices(max_dim=4))
def test_scale_and_adjoint_invariance(a):
    est = numerical_radius(a, FAST)
    tol = 1e-6 * max(1.0, est.upper)
    est_adj = numerical_radius(a.conj().T, FAST)
    assert est_adj.lower == pytest.approx(est.lower, abs=tol)
    c = 0.5 - 1.25j
    est_sc = numerical_radius(c * a, FAST)
    assert est_sc.lower == pytest.approx(abs(c) * est.lower, abs=abs(c) * tol + 1e-12)


def test_unitary_invariance(rng):
    a = random_complex(rng, 6)
    q, r = np.linalg.qr(random_complex(rng, 6))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    est = numerical_radius(a, FAST)
    est_rot = numerical_radius(u.conj().T @ a @ u, FAST)
    tol = 1e-6 * max(1.0, est.upper)
    assert est_rot.lower == pytest.approx(est.lower, abs=tol)


def test_power_inequality_spot(rng):
    for n in (2, 3, 5):
        a = random_complex(rng, n)
        base = numerical_radius(a, FAST)
        for p in (2, 3):
            powered = numerical_radius(np.linalg.matrix_power(a, p), FAST)
            tol = 1e-7 * max(1.0, base.upper ** p)
            assert powered.lower <= base.upper ** p + tol


def test_secant_certificate_never_looser_than_lipschitz(rng):
    # the fact that makes a first-order fallback g + ||A|| h / 2 dead: on every
    # non-negative envelope value at every allowed grid, the secant bound wins
    mats = [J, shift_matrix(4)] + [random_complex(rng, n) for n in (1, 2, 3, 5, 8)]
    for a in mats:
        nrm = operator_norm(a)
        for nn in (8, 16, 32, 64, 128, 256, 512, 1024):
            h = TWO_PI / nn
            g = _envelope_gvals(a, a.conj().T, np.arange(nn) * h)
            g = g[g >= 0.0]
            assert g.size
            assert np.all(g / np.cos(h / 2.0) <= g + nrm * h / 2.0)


def _kite_pairs(rng, h):
    """Envelope end values (a, b) >= 0: independent draws, pairs within the
    factor cos h of each other (the lines meet inside the sector), zeros and
    extreme scales."""
    pairs = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, math.cos(h))]
    pairs += [(1e300, 1e300), (1e-300, 2e-300)]
    for _ in range(20):
        a = rng.uniform(0.0, 1.0)
        pairs.append((a, rng.uniform(0.0, 1.0)))
        pairs.append((a, a * rng.uniform(math.cos(h), 1.0 / math.cos(h))))
    return pairs


def test_kite_certificate_holds_the_kite_and_stays_inside_the_secant():
    # the kite {s = -arg z - theta_k in [0, h], |z| <= min(a / cos s,
    # b / cos(h - s))}: its largest |z| over 10^4 sampled s, formed in
    # extended precision, never exceeds the certificate (slack 0, so the
    # rounding factor alone covers rounding), and the certificate never
    # exceeds the secant bound of the same raised values
    rng = np.random.default_rng(12)
    for e in range(3, 21):
        h = TWO_PI / 2 ** e
        s = np.linspace(0.0, h, 10 ** 4, dtype=np.longdouble)
        for a, b in _kite_pairs(rng, h):
            a_s, b_s = np.longdouble(a) / np.cos(s), np.longdouble(b) / np.cos(h - s)
            kite = np.max(np.minimum(a_s, b_s))
            assert np.longdouble(_grid_upper(a, b, h, 0.0)) >= kite, (e, a, b)
            slack = RESIDUAL_FACTOR * EPS * max(a, b)
            secant = (max(a, b) + slack) / math.cos(h / 2.0)
            assert _grid_upper(a, b, h, slack) <= secant * (1 + 64 * EPS), (e, a, b)
    # arrays, as the grid loop passes them, give the scalar values
    gl, gr = rng.uniform(-0.5, 1.0, 64), rng.uniform(-0.5, 1.0, 64)
    h = TWO_PI / 64
    want = [_grid_upper(x, y, h, 1e-14) for x, y in zip(gl, gr)]
    assert np.array_equal(_grid_upper(gl, gr, h, 1e-14), want)


@pytest.mark.parametrize("family", ["gue", "normal"])
def test_normal_inputs_stop_at_the_sweep(monkeypatch, family):
    # the farthest point of W(A) is an eigenvalue, a corner that both support
    # lines of its interval touch: the kite is exact, so one sweep batch
    # meets the width with no refinement batch, and the enclosure holds the
    # spectral radius
    nn = RadiusConfig().grid_points
    for n in (5, 32):
        spec = EnsembleSpec(family, n, 3, seed=5)
        for index in range(3):
            a = generate(spec, index)
            est, batches, _ = _counted(monkeypatch, a)
            assert est.grid_points == nn
            assert batches == [nn // 2]
            rho = float(np.abs(np.linalg.eigvals(a)).max())
            tol = 1e-12 * operator_norm(a)
            assert est.lower - tol <= rho <= est.upper + tol, (n, index)
            assert est.width <= 1e-9 * max(1.0, operator_norm(a))


def test_one_by_one_ascent_stops_at_its_first_eigh():
    # W([[a]]) = {a}: the first eigh already gives lower = |a| = w(A)
    for family in ("ginibre", "normal", "rank1"):
        for seed in range(3):
            a = generate(EnsembleSpec(family, 1, 1, seed=seed), 0)
            est = numerical_radius(a)
            assert est.refinement_iters == 1, (family, seed)
            assert est.lower == pytest.approx(abs(a[0, 0]), rel=1e-15)
            assert est.grid_points == RadiusConfig().grid_points


def _counted(monkeypatch, a, cfg=None):
    """numerical_radius(a, cfg) with the angle count of each envelope sweep
    batch and the angle of each ascent eigh recorded."""
    batches, eighs = [], []
    gvals, eigh = numrad.radius._envelope_gvals, numrad.radius._envelope_eigh

    def counting_gvals(m, mh, thetas, *args, **kwargs):
        batches.append(thetas.size)
        return gvals(m, mh, thetas, *args, **kwargs)

    def counting_eigh(m, mh, theta):
        eighs.append(theta)
        return eigh(m, mh, theta)

    with monkeypatch.context() as patch:
        patch.setattr(numrad.radius, "_envelope_gvals", counting_gvals)
        patch.setattr(numrad.radius, "_envelope_eigh", counting_eigh)
        est = numerical_radius(a, cfg)
    return est, batches, eighs


@pytest.mark.parametrize("nilpotent,max_eigh", [(False, 4), (True, 6)])
def test_eigensolve_budget(rng, monkeypatch, nilpotent, max_eigh):
    # the default enclosure of a 32x32 draw: one sweep of half the grid's
    # angles (each eigensolve also gives the value half a turn on), a few
    # refinement levels over the surviving intervals, and a Newton ascent of
    # 2-3 eigh calls from the sweep peak, nilpotent draws included
    a = random_complex(rng, 32)
    if nilpotent:
        a = np.triu(a, 1)
    est, batches, eighs = _counted(monkeypatch, a)
    assert batches[0] == RadiusConfig().grid_points // 2
    assert sum(batches) <= 80
    assert len(eighs) <= max_eigh
    assert est.width <= 1e-9 * max(1.0, operator_norm(a))


def test_antipodal_sweep_matches_per_angle_values():
    # g(theta + pi) = -lambda_min(H(theta)): the half sweep with its
    # antipodal values equals a sweep over every angle
    nn = RadiusConfig().grid_points
    thetas = np.arange(nn) * (TWO_PI / nn)
    for family in FAMILIES:
        for n in (2, 5, 13):
            a = generate(EnsembleSpec(family, n, 1, seed=4), 0)
            ah = a.conj().T
            half = _envelope_gvals(a, ah, thetas[: nn // 2], antipodal=True)
            full = _envelope_gvals(a, ah, thetas)
            tol = 1e-13 * max(1.0, operator_norm(a))
            assert np.max(np.abs(half - full)) <= tol, (family, n)


def test_odd_grid_sweeps_every_angle(rng, monkeypatch):
    a = random_complex(rng, 6)
    default = numerical_radius(a)
    for nn in (9, 33):
        cfg = RadiusConfig(grid_points=nn)
        est, batches, _ = _counted(monkeypatch, a, cfg)
        assert batches[0] == nn
        assert max(est.lower, default.lower) <= min(est.upper, default.upper)
        assert est.width <= 1e-9 * max(1.0, operator_norm(a))


def test_newton_ascent_never_below_its_start(rng, monkeypatch):
    # zero gap at the top (I_3, diag(1, 1, -1)), two separate peaks
    # (diag(1, -0.99)) and a normal matrix, whose isolated top eigenvalue the
    # first eigh already attains
    d = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    q, _ = np.linalg.qr(random_complex(rng, 5))
    normal = (q * d) @ q.conj().T
    mats = [np.eye(3), np.diag([1.0, 1.0, -1.0]), np.diag([1.0, -0.99]), normal]
    for a in mats:
        a = a.astype(complex)
        ah = a.conj().T
        stop = 0.01 * RadiusConfig().resolve_target(operator_norm(a))
        for theta in np.arange(16) * (TWO_PI / 16):
            start = float(_envelope_gvals(a, ah, np.array([theta]))[0])
            theta = float(theta)
            lower, x, th, steps = _ascend(a, ah, theta, start, None, theta, stop)
            assert lower >= start
            assert 1 <= steps <= numrad.radius._ASCENT_STEPS
            got = (np.exp(1j * th) * np.vdot(x, a @ x)).real
            assert got == pytest.approx(lower, abs=1e-13 * max(1.0, lower))
    # at theta = 0 the top eigenvalue of both is double: the ascent stops
    # after its first eigh
    for a in mats[:2]:
        a = a.astype(complex)
        assert _ascend(a, a.conj().T, 0.0, 1.0, None, 0.0, 1e-11)[3] == 1
    est, _, eighs = _counted(monkeypatch, normal)
    assert len(eighs) <= 3
    assert est.lower == pytest.approx(float(np.abs(d).max()), rel=1e-12)


def test_ascent_improves_the_estimate_it_is_given(rng):
    # _ascend takes the best (lower, witness, angle) and returns the best: a
    # lower bound no step can reach (2 ||A||) comes back with the same
    # witness object and angle after one eigh, and a second ascent from
    # elsewhere keeps or raises the first one's estimate
    mats = (J, shift_matrix(5), random_complex(rng, 6), np.triu(random_complex(rng, 8), 1))
    for a in mats:
        ah = a.conj().T
        n = a.shape[0]
        stop = 0.01 * RadiusConfig().resolve_target(operator_norm(a))
        x = random_complex(rng, n)[:, 0]
        x /= np.linalg.norm(x)
        top = 2.0 * operator_norm(a)
        for start in np.arange(8) * (TWO_PI / 8):
            lower, y, th, steps = _ascend(a, ah, float(start), top, x, 1.25, stop)
            assert (lower, th, steps) == (top, 1.25, 1) and y is x
        g0 = float(_envelope_gvals(a, ah, np.zeros(1))[0])
        first = _ascend(a, ah, 0.0, g0, None, 0.0, stop)
        for start in np.arange(8) * (TWO_PI / 8) + 0.3:
            lower, y, th, steps = _ascend(a, ah, float(start), *first[:3], stop)
            assert lower >= first[0]
            assert 1 <= steps <= numrad.radius._ASCENT_STEPS
            got = (np.exp(1j * th) * np.vdot(y, a @ y)).real
            assert got == pytest.approx(lower, abs=1e-13 * max(1.0, lower))


def test_extreme_scales_are_homogeneous():
    # s G for a 5x5 ginibre draw G at s = 1e300, 1e150 and 1e-150: no floating
    # point exception anywhere (the kite certificate's hypot and
    # sqrt(a) sqrt(b) included), and every enclosure holds s w(G)
    g = generate(EnsembleSpec("ginibre", 5, 1, seed=0), 0)
    base = numerical_radius(g)
    for s in (1e300, 1e150, 1e-150):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            est = numerical_radius(s * g)
        tol = max(est.width, s * base.width)
        assert abs(est.lower - s * base.lower) <= tol
        assert abs(est.upper - s * base.upper) <= tol


def test_enclosure_near_the_double_range_does_not_warn():
    # the 5x5 shift times 1.7e308: its envelope's eigenvalues span +-1.47e308,
    # but the engine runs on A / 2^1024, so the disk-shaped range stops at the
    # sweep on the LMI certificate, and the enclosure holds s cos(pi/6)
    s = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = numerical_radius(s * shift_matrix(5))
    w = s * math.cos(math.pi / 6)
    assert est.lower * (1.0 - 8.0 * EPS) <= w <= est.upper
    assert est.grid_points == RadiusConfig().grid_points
    assert est.width <= RadiusConfig().resolve_target(s)


def test_enclosures_scale_exactly_by_powers_of_four():
    # w(4^k A) = 4^k w(A), and the engine runs on the same normalized matrix
    # for both, so every field agrees bit for bit with the target scaled
    # alike; at k = -500 the target itself is subnormal
    for family in FAMILIES:
        for n in (1, 2, 5, 13):
            a = generate(EnsembleSpec(family, n, 1, seed=0), 0)
            t = 1e-9 * max(1.0, operator_norm(a))
            base = numerical_radius(a, RadiusConfig(target_width=t))
            for k in (60, -60, 250, -250, 500, -500):
                s = 4.0 ** k
                est = numerical_radius(s * a, RadiusConfig(target_width=s * t))
                case = (family, n, k)
                assert (est.lower, est.upper) == (s * base.lower, s * base.upper), case
                assert (est.theta_star, est.grid_points) == (base.theta_star, base.grid_points), case
                assert est.refinement_iters == base.refinement_iters, case
                assert np.array_equal(est.witness, base.witness), case


def test_sweep_chunk_byte_budget():
    # small inputs keep the 8192-matrix batches; large ones stay within 64 MiB
    budget = 64 * 2 ** 20
    for n in (1, 2, 13, 22):
        assert _sweep_chunk(n) == 8192
    for n in (23, 64, 128, 1000, 3000):
        assert 1 <= _sweep_chunk(n) < 8192
        assert _sweep_chunk(n) * 16 * n * n <= max(budget, 16 * n * n)
    assert _sweep_chunk(128) == 256


def test_chunked_sweep_matches_single_batch(rng, monkeypatch):
    a = random_complex(rng, 4)
    thetas = np.arange(50) * (TWO_PI / 50)
    whole = _envelope_gvals(a, a.conj().T, thetas)
    monkeypatch.setattr(numrad.radius, "_SWEEP_BYTES", 7 * 16 * 4 * 4)
    assert _sweep_chunk(4) == 7
    assert np.array_equal(_envelope_gvals(a, a.conj().T, thetas), whole)


def _ellipse_radius(a):
    """w(A) of a 2x2 matrix from the elliptical range theorem: W(A) is the
    ellipse with foci l1, l2 and minor axis sqrt(tr(A*A) - |l1|^2 - |l2|^2);
    its farthest boundary point from 0 is found by a dense sample refined by
    golden-section search around every sampled local maximum."""
    l1, l2 = np.linalg.eigvals(a)
    center = 0.5 * (l1 + l2)
    half_focal = 0.5 * abs(l1 - l2)
    minor = math.sqrt(max(0.0, float(np.sum(np.abs(a) ** 2)) - abs(l1) ** 2 - abs(l2) ** 2))
    b = 0.5 * minor
    major = math.hypot(b, half_focal)
    rot = np.exp(1j * np.angle(l1 - l2)) if l1 != l2 else 1.0

    def mod(t):
        return np.abs(center + rot * (major * np.cos(t) + 1j * b * np.sin(t)))

    n = 4096
    dt = TWO_PI / n
    ts = np.arange(n) * dt
    vals = mod(ts)
    peaks = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    best = float(vals.max())
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for k in peaks:
        lo, hi = ts[k] - dt, ts[k] + dt
        for _ in range(80):
            c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
            if mod(c) > mod(d):
                hi = d
            else:
                lo = c
        best = max(best, float(mod(0.5 * (lo + hi))))
    return best


def test_two_by_two_elliptical_range_oracle():
    rng = np.random.default_rng(2023)
    for k in range(50):
        scale = 10.0 ** rng.uniform(-3, 3)
        a = random_complex(rng, 2, scale)
        if k % 5 == 0:
            a[1, 0] = 0.0  # triangular: the minor axis is |a01|
        w = _ellipse_radius(a)
        est = numerical_radius(a)
        tol = 1e-13 * max(1.0, w)
        assert est.lower <= w + tol, (k, est.lower - w)
        assert w <= est.upper + tol, (k, w - est.upper)
        assert est.width <= 1e-9 * max(1.0, operator_norm(a))


def test_elliptical_oracle_closed_forms():
    # Jordan block: a disk of radius 1/2; diag(1, -2): the segment [-2, 1]
    assert _ellipse_radius(J) == pytest.approx(0.5, abs=1e-15)
    assert _ellipse_radius(np.diag([1.0, -2.0]).astype(complex)) == pytest.approx(2.0, abs=1e-15)
    # [[0, 2], [0, 1]]: foci 0 and 1, minor axis 2; the far vertex of the
    # major axis gives w = 1/2 + sqrt(1 + 1/4), the golden ratio
    a = np.array([[0.0, 2.0], [0.0, 1.0]], dtype=complex)
    assert _ellipse_radius(a) == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-14)


def test_warm_start_never_below_sweep(rng, monkeypatch):
    # lower is never below the peak of the sweep that ran, which the engine
    # takes on A / 4^k.  A sweep of another size is no reference: on J the
    # 64-point peak is 0.5000000000000001, one ulp above w(J)
    sweeps = []

    def recording(m, mh, thetas, *args, **kwargs):
        sweeps.append(gvals(m, mh, thetas, *args, **kwargs))
        return sweeps[-1]

    gvals = numrad.radius._envelope_gvals
    monkeypatch.setattr(numrad.radius, "_envelope_gvals", recording)
    mats = [J, shift_matrix(6)] + [random_complex(rng, n) for n in (2, 3, 5, 8, 13, 20)]
    mats.append(np.triu(random_complex(rng, 12), 1))
    for a in mats:
        sweeps.clear()
        est = numerical_radius(a)
        assert sweeps[0].size == RadiusConfig().grid_points
        assert est.lower >= sweeps[0].max() * _normalized(a)[1]
        got = abs(np.vdot(est.witness, a @ est.witness))
        assert got == pytest.approx(est.lower, abs=1e-13 * max(1.0, est.lower))


def _grid_only(monkeypatch, a):
    """The default enclosure with the LMI certificate switched off: the grid
    alone sets ``upper``."""
    with monkeypatch.context() as patch:
        patch.setattr(numrad.radius, "_lmi_upper", lambda m, r, target: math.inf)
        return numerical_radius(a)


def test_lmi_upper_is_sound_across_families(monkeypatch):
    # the LMI bound shares no code with the grid, so each is an independent
    # upper oracle for the other: below, at and above w(A) it never falls
    # under the grid enclosure's lower end
    for family in FAMILIES:
        for n in (2, 5, 13):
            spec = EnsembleSpec(family, n, 3, seed=8)
            for index in range(3):
                a = generate(spec, index)
                est = _grid_only(monkeypatch, a)
                target = RadiusConfig().resolve_target(operator_norm(a))
                w = est.lower
                for r in (w * (1 - 1e-2), w * (1 - 1e-6), w, w * (1 + 1e-10)):
                    got = _lmi_upper(a, r, target)
                    assert got >= est.lower, (family, n, index, r, got - est.lower)


def test_lmi_failure_exits_stay_sound(monkeypatch):
    # a failed or non-finite cyclic-reduction step ends it with the last
    # finite X, which only loosens the bound; a failed eigensolve of M~ gives
    # inf.  Every exit stays >= w(A) at trial radii below, at and above w(A),
    # and with the LMI failing, numerical_radius encloses by the grid alone
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def failing_solve(y, rhs):
        calls.append("raise")
        raise np.linalg.LinAlgError("rigged")

    def nan_solve(y, rhs):
        calls.append("nan")
        return np.full(rhs.shape, np.nan, dtype=complex)

    def failing_on_m(h):
        # the sweeps stay batched (3-d); only M~ is a single matrix
        if h.ndim == 2:
            raise np.linalg.LinAlgError("rigged")
        return eigvalsh(h)

    for a, w in ((J, 0.5), (shift_matrix(5), math.cos(math.pi / 6))):
        target = RadiusConfig().resolve_target(operator_norm(a))
        for r in (w * (1 - 1e-6), w, w * (1 + 1e-10), w + target / 2.0):
            for solve in (failing_solve, nan_solve):
                calls.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(np.linalg, "solve", solve)
                    got = _lmi_upper(a, r, target)
                assert len(calls) == 1
                assert w <= got < math.inf
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", failing_on_m)
            assert _lmi_upper(a, w + target / 2.0, target) == math.inf
            est = numerical_radius(a)
        assert est.grid_points == 65536
        assert est.lower - 1e-15 <= w <= est.upper
        assert est.width <= target


def _hexagon_like(rng):
    """A normal matrix with eigenvalues near the vertices of a regular
    hexagon, plus a small strictly upper triangular perturbation: six local
    maxima of nearly equal height on the envelope."""
    angles = np.arange(6) * (math.pi / 3) + 1e-3 * rng.standard_normal(6)
    vals = (1 + 1e-3 * rng.standard_normal(6)) * np.exp(1j * angles)
    q, _ = np.linalg.qr(random_complex(rng, 6))
    return (q * vals) @ q.conj().T + 1e-3 * np.triu(random_complex(rng, 6), 1)


def _disk_ranges(rng):
    weights = rng.uniform(0.5, 2.0, 4) * np.exp(1j * rng.uniform(0.0, TWO_PI, 4))
    return 1.5j * shift_matrix(8), np.diag(weights, 1)


def test_grid_fallback_witness_matches_theta_star(rng, monkeypatch):
    # with the LMI off, a disk-shaped range refines its grid, and at nearly
    # every level some midpoint beats lower by rounding alone; the ascent
    # started there gains nothing, and its start vector must not replace the
    # witness that lower and theta_star describe
    for a in _disk_ranges(rng):
        est = _grid_only(monkeypatch, a)
        assert est.grid_points > RadiusConfig().grid_points
        x = est.witness
        got = (np.exp(1j * est.theta_star) * np.vdot(x, a @ x)).real
        assert got == pytest.approx(est.lower, abs=1e-12)


def test_no_reascent_on_rounding_level_gains(rng, monkeypatch):
    # on a constant envelope the midpoints beat lower by rounding alone; only
    # a gain above the ascent's stop threshold starts a new ascent
    for a in _disk_ranges(rng):
        with monkeypatch.context() as patch:
            patch.setattr(numrad.radius, "_lmi_upper", lambda m, r, target: math.inf)
            est, _, eighs = _counted(patch, a)
        assert est.grid_points > RadiusConfig().grid_points
        assert len(eighs) <= 2
        x = est.witness
        got = (np.exp(1j * est.theta_star) * np.vdot(x, a @ x)).real
        assert got == pytest.approx(est.lower, abs=1e-12)


def test_lmi_fallback_keeps_enclosure(rng, monkeypatch):
    # at a local maximum below w(A), where a stalled ascent would leave r, the
    # LMI bound stays above w(A) and misses the width, so the grid decides
    diag = np.diag([1.0, -0.99]).astype(complex)
    est = numerical_radius(diag)
    assert est.lower == 1.0 <= est.upper
    for a, local in ((diag, 0.99), (_hexagon_like(rng), None)):
        # w(A) lies in both enclosures
        grid = _grid_only(monkeypatch, a)
        est = numerical_radius(a)
        assert max(est.lower, grid.lower) <= min(est.upper, grid.upper)
        assert est.width <= 1e-9 * max(1.0, operator_norm(a))
        target = RadiusConfig().resolve_target(operator_norm(a))
        if local is None:
            g = _envelope_gvals(a, a.conj().T, np.arange(4096) * (TWO_PI / 4096))
            peaks = np.sort(g[(g >= np.roll(g, 1)) & (g >= np.roll(g, -1))])
            local = float(peaks[-2])
            assert local < grid.lower - 10 * target
        got = _lmi_upper(a, local + target / 2, target)
        assert got >= grid.lower
        assert got - local > target


def test_failed_lmi_falls_back_to_the_same_grid(monkeypatch):
    # a certificate that misses the width leaves the grid loop exactly as it
    # runs without one, from the same sweep
    for a in (J, 0.5j * J):
        grid = _grid_only(monkeypatch, a)
        with monkeypatch.context() as patch:
            patch.setattr(
                numrad.radius, "_lmi_upper", lambda m, r, target: _lmi_upper(m, 0.9 * r, target)
            )
            est = numerical_radius(a)
        assert est.grid_points == grid.grid_points > RadiusConfig().grid_points
        fields = ("lower", "upper", "theta_star", "refinement_iters")
        assert [getattr(est, f) for f in fields] == [getattr(grid, f) for f in fields]


def test_disk_ranges_take_the_lmi_path(rng, monkeypatch):
    # a constant envelope keeps every sweep interval, and one LMI certificate
    # replaces the 65k-131k point refinement; a generic draw never calls it
    calls = []

    def counting(m, r, target):
        calls.append(r)
        return _lmi_upper(m, r, target)

    monkeypatch.setattr(numrad.radius, "_lmi_upper", counting)
    weighted = np.diag(rng.uniform(0.5, 2.0, 12), 1).astype(complex)
    for a, w in ((J, 0.5), (1.5j * shift_matrix(8), 1.5 * math.cos(math.pi / 9)), (weighted, None)):
        calls.clear()
        est = numerical_radius(a)
        assert len(calls) == 1
        assert est.grid_points == RadiusConfig().grid_points
        assert est.width <= 1e-9 * max(1.0, operator_norm(a))
        if w is not None:
            assert est.lower - 1e-15 <= w <= est.upper
    calls.clear()
    est = numerical_radius(random_complex(rng, 32))
    assert calls == []
    assert est.grid_points > RadiusConfig().grid_points


def _normalized(a):
    """A / 4^k as numerical_radius forms it, with the power 4^k."""
    parts = np.ascontiguousarray(a).view(np.float64)
    e = math.frexp(float(np.abs(parts).max()))[1] & ~1
    return np.ldexp(parts, -e).view(np.complex128), math.ldexp(1.0, e)


def test_lmi_path_at_extreme_scales():
    # J * 1e300 and J * 1e-200: either the LMI meets the width or the grid
    # does, and the enclosure holds w = scale / 2 either way, also with a
    # target small enough that the sweep alone cannot meet it.  The LMI
    # itself only ever sees the normalized matrix
    for scale in (1e300, 1e-200):
        a = J * scale
        w = 0.5 * scale
        for cfg in (RadiusConfig(), RadiusConfig(target_width=1e-12 * scale)):
            est = numerical_radius(a, cfg)
            assert est.lower <= w * (1 + 1e-15) and w <= est.upper
            assert est.width <= cfg.resolve_target(scale)
        m, power = _normalized(a)
        ws = w / power
        for r in (ws * (1 - 1e-6), ws, ws * (1 + 1e-10)):
            assert _lmi_upper(m, r, 1e-12 * ws) >= ws


def test_finite_matrix_whose_norm_overflows():
    # ||A|| = 1.4e308 sqrt(2) is past the double range, w(A) = 1.4e308
    # (1 + sqrt 2) / 2 is not: the scale comes from the largest entry, and
    # the enclosure meets the relative target
    a = 1.4e308 * np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    est = numerical_radius(a)
    w = 0.7e308 * (1.0 + math.sqrt(2.0))
    assert est.lower * (1.0 - 8.0 * EPS) <= w <= est.upper < math.inf
    assert est.width <= 1e-9 * (1.4e308 * math.sqrt(2.0))
    # w(1e308 ones((2, 2))) = 2e308 overflows: lower is the largest double
    # and upper is inf, with no error on the way
    est = numerical_radius(1e308 * np.ones((2, 2)))
    assert (est.lower, est.upper) == (sys.float_info.max, math.inf)


def test_subnormal_results_round_outward():
    # w(c 2^-1074 J) = c 2^-1075 lies halfway between subnormals for odd c;
    # lower rounds down to the grid and upper up, never to the nearest
    tiny = math.ldexp(1.0, -1074)
    for c in (1, 3, 7, 1001, 2 ** 40 + 1):
        est = numerical_radius(c * tiny * J)
        assert 2.0 * est.lower <= c * tiny <= 2.0 * est.upper, c


def test_flat_trigger_fires_on_disk_ranges_only(rng, monkeypatch):
    # the LMI is tried when the sweep's envelope is flat: at the default size
    # on every disk-shaped range (weighted shifts, c J_n, 2x2 nilpotent
    # draws), which then end at the sweep, and on no other draw of the
    # sample.  At 8 points it also fires on some generic draws; that costs
    # time only, and those enclosures still hold w(A), which the LMI-free
    # grid enclosure shows
    calls = []

    def counting(m, r, target):
        calls.append(r)
        return _lmi_upper(m, r, target)

    monkeypatch.setattr(numrad.radius, "_lmi_upper", counting)
    nn = RadiusConfig().grid_points
    coarse = RadiusConfig(grid_points=8)
    disks = [
        np.diag(rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0.0, TWO_PI, n)), 1)
        for n in (1, 4, 12)
    ]
    disks += [c * shift_matrix(n) for c, n in ((1.5j, 3), (-0.7 + 0.2j, 8), (2.0, 20))]
    for a in disks:
        calls.clear()
        est = numerical_radius(a)
        assert len(calls) == 1
        assert est.grid_points == nn
    coarse_generic = 0
    for family in FAMILIES:
        for n in (2, 3, 5, 8, 13, 20, 32):
            spec = EnsembleSpec(family, n, 3, seed=11)
            for index in range(3):
                a = generate(spec, index)
                case = (family, n, index)
                calls.clear()
                est = numerical_radius(a)
                disk = family == "nilpotent-shift-random" and n == 2
                assert len(calls) == disk, case
                if disk:
                    assert est.grid_points == nn, case
                calls.clear()
                got = numerical_radius(a, coarse)
                if calls:
                    coarse_generic += not disk
                    grid = _grid_only(monkeypatch, a)
                    assert max(got.lower, grid.lower) <= min(got.upper, grid.upper), case
    assert coarse_generic > 0
