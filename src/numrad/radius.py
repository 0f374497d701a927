"""Numerical radius engine with certified enclosures.

The numerical radius w(A) = sup_{||x||=1} |<Ax, x>| equals
max_theta lambda_max(H(theta)) for the Hermitian envelope
H(theta) = (e^{i theta} A + e^{-i theta} A*) / 2.

Every envelope eigenvalue g(theta) is a valid lower bound.  The upper
certificate comes from the support-plane picture: each numerical-range point
z satisfies Re(e^{i theta_k} z) <= g(theta_k) for every grid angle, and some
grid angle lies within h/2 of -arg(z), so

    w(A) <= max_k g(theta_k) / cos(h/2),            h = 2 pi / N.

That bound is second order in h, and the reported upper endpoint is it plus
a kernel-accuracy slack of RESIDUAL_FACTOR * n * eps * ||A||.  It is never
looser than the first-order Lipschitz bound max_k g + ||A|| h / 2 (g is
||A||-Lipschitz): for 0 <= g <= ||A||, g (sec(h/2) - 1) <= ||A|| h / 2 at
every allowed h, so no fallback to it is needed.

Grid refinement doubles the conceptual grid until the enclosure meets the
requested width, but only re-evaluates intervals whose local certificate
max(g_left, g_right, 0)/cos(h/2) still exceeds the best certified lower
bound; discarded intervals provably cannot contain the maximizer, so the
enclosure stays sound.  Rayleigh ascent (theta <- -arg<Ax,x>, x <- top
eigenvector of H(theta)) only ever raises the lower bound.  It starts from
the vertex of the parabola through the sweep peak and its two neighbours
when the top eigenvalue there beats the peak; every lambda_max(H(theta)) is
a lower bound, so the warm start cannot break the certificate.

When the numerical range is a disk centred at 0 (the Jordan block, weighted
shifts, every 2x2 nilpotent matrix) the envelope is constant, nothing is
pruned, and the grid would have to double to 65536-131072 points.  Such
inputs are recognised after the sweep: if on at least half of its intervals
the envelope stays within the factor cos(pi / 64) of lower (at the default
64 points: the first pass keeps half its intervals), a grid-free certificate
is tried once, at the trial radius r = lower + target / 2.  By Ando's
theorem (Acta Sci. Math. 34, 1973), w(A) <= r iff some Hermitian Z makes

    M(Z) = [[r I + Z, A], [A*, r I - Z]]

positive semidefinite, and M(Z) + mu I is the same matrix at the radius
r + mu.  So for ANY Hermitian Z, w(A) <= r + max(0, -lambda_min(M(Z))).  A good Z comes from
the maximal solution X of X + A X^{-1} A* = 2 r I (Z = r I - X makes the
Schur complement of X vanish); cyclic reduction (Meini, Math. Comp. 71,
2002) finds it with n x n solves.  Soundness does not depend on that solver:
a poor Z only loosens the bound.

Rounding is covered by Weyl's inequality, |lambda_k(P + E) - lambda_k(P)|
<= ||E||_2 for Hermitian P, E.  The stored matrix M~ is exactly Hermitian
(Z is symmetrized, A and A* are copied) and differs from M(Z) only on the
diagonal, where r +- z_ii is rounded: M~ = M(Z) + D with |D_jj| <= u |M~_jj|
(u = eps / 2), so ||D||_2 <= eps ||M~||_inf.  eigvalsh returns the exact
eigenvalues of M~ + E with ||E||_2 <= RESIDUAL_FACTOR * 2n * eps * ||M~||_2,
the same kernel-accuracy allowance the grid uses, and ||M~||_2 <= ||M~||_inf
for a Hermitian matrix.  Hence

    lambda_min(M(Z)) >= lambda_min~ - (RESIDUAL_FACTOR * 2n + 1) eps ||M~||_inf.

Forming upper = r + mu + slack takes three roundings, each under u times a
sum of at most 2.5 ||M~||_inf (r is at most the larger of r +- z_ii, and
mu = -lambda_min~ at most about ||M~||_2), and summing ||M~||_inf in floating
point loses a relative (2n + 1) u of the slack term: under 5 eps ||M~||_inf
in all.  The reported bound is

    upper = r + max(0, -lambda_min~) + (RESIDUAL_FACTOR * 2n + 6) eps ||M~||_inf.

When it is within the target width of lower, the enclosure ends there and
``grid_points`` stays the sweep's size; otherwise (a loose Z, or an ascent
stalled below w(A) so that r < w(A)) grid refinement runs unchanged from the
same sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import EPS, RESIDUAL_FACTOR, _hermitize, as_square, operator_norm

TWO_PI = 2.0 * np.pi

# Hard cap on the conceptual grid size during enclosure refinement.
GRID_CAP = 2 ** 20

# Batch limits for vectorized envelope eigenvalue sweeps: at most this many
# matrices, and at most this many bytes of n x n complex matrices, per batch.
_SWEEP_CHUNK = 8192
_SWEEP_BYTES = 64 * 2 ** 20

# Sample batch for the randomized Rayleigh oracle.
_ORACLE_CHUNK = 20000

# Step cap of each Rayleigh ascent.
_ASCENT_STEPS = 200

# Step cap of the cyclic reduction behind the LMI certificate.  It converges
# quadratically for r > w(A); disk-shaped inputs need a handful of steps, and
# even r = w(A) (linear convergence, rate 1/2) meets the stop rule in fewer.
_LMI_STEPS = 50

# The envelope counts as flat when, on at least half of the sweep's
# intervals, the larger endpoint value is within this factor of the lower
# bound.  It is the secant factor cos(h/2) of the default 64-point sweep: at
# that size the rule reads "the first pass keeps half its intervals", and a
# coarser sweep does not loosen it.
_FLAT = math.cos(math.pi / 64)

# Folds negative or oversized seeds into numpy's unsigned 64-bit seed range.
_SEED_MASK = (1 << 64) - 1


class EnclosureNotReached(RuntimeError):
    """Raised when the grid cap is hit before the requested width; carries
    the best estimate found so far in ``estimate``."""

    def __init__(self, message: str, estimate: "RadiusEstimate"):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class RadiusConfig:
    """Knobs for the enclosure engine.

    ``target_width`` is an absolute enclosure width; when ``None`` the width
    resolves to ``target_width_rel * max(1, ||A||)``.  ``oracle_samples > 0``
    adds a randomized Rayleigh lower-bound pass seeded by ``seed``.
    """

    grid_points: int = 64
    target_width: float | None = None
    target_width_rel: float = 1e-9
    oracle_samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.grid_points < 8:
            raise ValueError("grid_points must be at least 8")
        if self.target_width is not None and not self.target_width > 0:
            raise ValueError("target_width must be positive")
        if not self.target_width_rel > 0:
            raise ValueError("target_width_rel must be positive")
        if self.oracle_samples < 0:
            raise ValueError("oracle_samples must be non-negative")

    def resolve_target(self, norm: float) -> float:
        if self.target_width is not None:
            return self.target_width
        return self.target_width_rel * max(1.0, norm)


@dataclass(eq=False)
class RadiusEstimate:
    """Certified enclosure lower <= w(A) <= upper.

    ``witness`` is a unit vector with |<A witness, witness>| equal to
    ``lower`` (to rounding), ``theta_star`` the angle in [0, 2 pi) at which
    the maximum was located, ``grid_points`` the resolution of the grid the
    upper certificate refers to; when the LMI certificate sets ``upper``, it
    is the initial sweep's size, the grid was never refined.
    """

    lower: float
    upper: float
    theta_star: float
    witness: np.ndarray
    grid_points: int
    refinement_iters: int = 0

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _envelope(m: np.ndarray, mh: np.ndarray, ph) -> np.ndarray:
    """(ph A + conj(ph) A*) / 2 for the phase ph = e^{i theta}: one matrix for
    a scalar phase, a stack of them for phases shaped (k, 1, 1)."""
    return 0.5 * (ph * m + np.conj(ph) * mh)


def herm_envelope(a, theta: float) -> np.ndarray:
    """H(theta) = (e^{i theta} A + e^{-i theta} A*) / 2 (exactly Hermitian)."""
    m = as_square(a)
    return _envelope(m, m.conj().T, np.exp(1j * float(theta)))


def _envelope_gvals(m: np.ndarray, mh: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max(H(theta)) for a batch of angles."""
    out = np.empty(thetas.size)
    chunk = _sweep_chunk(m.shape[0])
    for s in range(0, thetas.size, chunk):
        ph = np.exp(1j * thetas[s : s + chunk])
        # h stays bound until the next batch replaces it: passing the temporary
        # straight to eigvalsh measured more page faults and a few percent
        # more time on disk-shaped inputs
        h = _envelope(m, mh, ph[:, None, None])
        out[s : s + chunk] = np.linalg.eigvalsh(h)[:, -1]
    return out


def _sweep_chunk(n: int) -> int:
    """Matrices per sweep batch for n x n inputs, within both batch limits."""
    return max(1, min(_SWEEP_CHUNK, _SWEEP_BYTES // (16 * n * n)))


def _top_vector(m: np.ndarray, mh: np.ndarray, theta: float) -> tuple[float, np.ndarray]:
    w, v = np.linalg.eigh(_envelope(m, mh, np.exp(1j * theta)))
    return float(w[-1]), v[:, -1]


def _warm_start(
    m: np.ndarray, mh: np.ndarray, gl: np.ndarray, h: float
) -> tuple[float, np.ndarray, float]:
    """Starting point for the ascent from the uniform sweep ``gl`` at angles
    k h, peaking (first) at index k.

    Fits a parabola through gl[k] and its two periodic neighbours and takes
    the top eigenpair at its vertex when that eigenvalue beats gl[k]; else the
    top eigenpair at angle k h.  Either value is some lambda_max(H(.)), so it
    is a valid lower bound.  Returns (lower, x, angle).
    """
    k = int(np.argmax(gl))
    theta = k * h
    left, peak, right = gl[k - 1], gl[k], gl[(k + 1) % gl.size]
    curv = left - 2.0 * peak + right
    if curv < 0.0:
        # k is the argmax, so the vertex lies within h/2 of theta
        vertex = theta + 0.5 * h * (left - right) / curv
        val, x = _top_vector(m, mh, vertex)
        if val > peak:
            return val, x, vertex % TWO_PI
    _, x = _top_vector(m, mh, theta)
    return float(peak), x, theta


def _ascend(
    m: np.ndarray, mh: np.ndarray, x: np.ndarray, lower: float, theta: float, stop_delta: float
) -> tuple[float, np.ndarray, float, int]:
    """Alternating Rayleigh ascent of at most ``_ASCENT_STEPS`` steps;
    monotone in the lower bound."""
    iters = 0
    for _ in range(_ASCENT_STEPS):
        z = complex(np.vdot(x, m @ x))
        th = 0.0 if z == 0 else float(-np.angle(z))
        _, v = _top_vector(m, mh, th)
        z2 = complex(np.vdot(v, m @ v))
        cand = abs(z2)
        iters += 1
        delta = cand - lower
        if cand > lower:
            lower = cand
            x = v
            theta = float(-np.angle(z2)) % TWO_PI if z2 != 0 else th % TWO_PI
        if abs(delta) <= stop_delta:
            break
    return lower, x, theta, iters


def _oracle_max(m: np.ndarray, samples: int, seed: int) -> tuple[float, np.ndarray | None]:
    """Best |<Ax,x>| over Haar-random unit vectors; deterministic in seed."""
    n = m.shape[0]
    rng = np.random.default_rng(int(seed) & _SEED_MASK)
    best = -1.0
    best_vec = None
    left = int(samples)
    while left > 0:
        k = min(left, _ORACLE_CHUNK)
        left -= k
        x = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
        nrm = np.linalg.norm(x, axis=1)
        nrm[nrm == 0] = 1.0
        x /= nrm[:, None]
        vals = np.abs(np.einsum("ij,ij->i", x.conj(), x @ m.T))
        j = int(np.argmax(vals))
        if float(vals[j]) > best:
            best = float(vals[j])
            best_vec = x[j].copy()
    return best, best_vec


def radius_sample_oracle(a, samples: int, seed: int = 0) -> float:
    """Randomized lower-bound estimate max_j |<A x_j, x_j>| over ``samples``
    Haar-random unit vectors.  Never exceeds w(A) beyond rounding."""
    m = as_square(a)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    best, _ = _oracle_max(m, samples, seed)
    return best


def _grid_upper(peak, h: float, slack: float):
    """Certified upper bound over an angle interval of width h whose envelope
    maximum at the grid points is ``peak`` (scalar or array)."""
    return np.maximum(peak, 0.0) / np.cos(h / 2.0) + slack


def _lmi_upper(m: np.ndarray, r: float, target: float) -> float:
    """Certified upper bound on w(A) from Ando's LMI at the trial radius r
    (see the module docstring); ``math.inf`` when M is not finite or its
    eigensolve fails.

    Cyclic reduction for the maximal solution X of X + A X^{-1} A* = 2 r I
    (Meini's X + B* X^{-1} B = Q with B = A*) runs on the equation divided by
    the power of two 2^k <= r < 2^(k+1), so neither huge nor tiny inputs
    overflow or underflow the iteration.  It stops once ||B_k||_F^2 <= 0.1
    target 2 r, after ``_LMI_STEPS`` steps, or on a failed or non-finite step,
    keeping the last finite X.
    """
    n = m.shape[0]
    scale = math.ldexp(1.0, math.frexp(r)[1] - 1)
    q = 2.0 * (r / scale)
    eye = np.eye(n)
    b = m.conj().T / scale
    x = q * eye
    y = q * eye
    # ||B_k||^2 <= 0.1 target 2r in scaled units, without squaring
    stop = math.sqrt(0.1 * target / scale) * math.sqrt(q)
    for _ in range(_LMI_STEPS):
        # also ends on a non-finite B_k
        if not np.linalg.norm(b) > stop:
            break
        bh = b.conj().T
        try:
            sol = np.linalg.solve(y, np.concatenate([b, bh], axis=1))
        except np.linalg.LinAlgError:
            break
        yb, ybh = sol[:, :n], sol[:, n:]
        bhyb = bh @ yb
        x_next = x - bhyb
        if not np.all(np.isfinite(x_next)):
            break
        x, y, b = x_next, y - b @ ybh - bhyb, b @ yb

    z = _hermitize(r * eye - scale * x)
    mm = np.block([[r * eye + z, m], [m.conj().T, r * eye - z]])
    if not np.all(np.isfinite(mm)):
        return math.inf
    try:
        lam = float(np.linalg.eigvalsh(mm)[0])
    except np.linalg.LinAlgError:
        return math.inf
    norm_inf = float(np.abs(mm).sum(axis=1).max())
    return r + max(0.0, -lam) + (RESIDUAL_FACTOR * 2 * n + 6) * EPS * norm_inf


def numerical_radius(a, cfg: RadiusConfig | None = None) -> RadiusEstimate:
    """Certified enclosure of w(A): sweep, Rayleigh refinement from a
    parabolic warm start, one try of the LMI certificate when the envelope is
    flat, then grid doubling (with interval pruning) until upper - lower <=
    target width.

    Raises :class:`EnclosureNotReached` carrying the best estimate if the
    grid cap of 2**20 points is insufficient.
    """
    m = as_square(a)
    cfg = cfg or RadiusConfig()
    mh = m.conj().T
    n = m.shape[0]
    norm = operator_norm(m)
    target = cfg.resolve_target(norm)
    stop = 0.01 * target
    slack = RESIDUAL_FACTOR * n * EPS * norm

    nn = cfg.grid_points
    h = TWO_PI / nn
    lefts = np.arange(nn) * h
    gl = _envelope_gvals(m, mh, lefts)
    gr = np.roll(gl, -1)

    lower, x, theta = _warm_start(m, mh, gl, h)
    lower, x, theta, iters = _ascend(m, mh, x, lower, theta, stop)

    if cfg.oracle_samples > 0:
        val, vec = _oracle_max(m, cfg.oracle_samples, cfg.seed)
        if vec is not None and val > lower:
            lower, x, theta, it2 = _ascend(m, mh, vec, val, theta, stop)
            iters += it2

    while True:
        # lefts is never empty: a refinement pass only runs when some
        # certificate exceeds lower + target, and it keeps that interval
        certs = _grid_upper(np.maximum(gl, gr), h, slack)
        upper = max(lower, float(certs.max()))
        if upper - lower <= target:
            break
        # refining a flat envelope would prune nothing: try the grid-free
        # certificate once instead
        flat = nn == cfg.grid_points and 2 * np.count_nonzero(
            np.maximum(gl, gr) > _FLAT * lower
        ) >= nn
        if flat:
            lmi = _lmi_upper(m, lower + target / 2.0, target)
            if lmi - lower <= target:
                upper = lmi
                break
        if 2 * nn > GRID_CAP:
            best = RadiusEstimate(lower, upper, theta % TWO_PI, x, nn, iters)
            raise EnclosureNotReached(
                f"enclosure width {upper - lower:.3e} above target {target:.3e} "
                f"at grid cap {GRID_CAP}",
                best,
            )
        keep = certs > lower
        lefts, gl, gr = lefts[keep], gl[keep], gr[keep]
        mids = lefts + h / 2.0
        gm = _envelope_gvals(m, mh, mids)
        j = int(np.argmax(gm))
        if float(gm[j]) > lower:
            _, v = _top_vector(m, mh, float(mids[j]))
            lower, x, theta, it3 = _ascend(m, mh, v, lower, theta, stop)
            iters += it3
        # each midpoint lies inside its own interval, so interleaving keeps
        # the angles sorted
        lefts = np.column_stack([lefts, mids]).ravel()
        gl, gr = np.column_stack([gl, gm]).ravel(), np.column_stack([gm, gr]).ravel()
        h /= 2.0
        nn *= 2

    return RadiusEstimate(
        lower=float(lower),
        upper=float(upper),
        theta_star=float(theta % TWO_PI),
        witness=x,
        grid_points=nn,
        refinement_iters=iters,
    )
