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
enclosure stays sound.  Since H(theta + pi) = -H(theta), each eigensolve of
an even sweep gives two grid values, g(theta) = lambda_max(H(theta)) and
g(theta + pi) = -lambda_min(H(theta)), so the sweep solves only its first
half of the angles.  From the sweep peak a safeguarded Newton ascent on g
(one eigh per step, g' and g'' from eigenvalue perturbation; it stops at
crossings and where g'' >= 0) raises the lower bound; it accepts only values
|<Ax, x>| above it, so lower never falls below the sweep peak.

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

# Eigensolve cap of each ascent, its largest Newton step (radians), how
# often a step that gains nothing is halved, and the relative gap
# lambda_1 - lambda_2 below which a crossing stops it.
_ASCENT_STEPS = 200
_MAX_STEP = 0.2
_HALVINGS = 3
_GAP = 1e-8

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
    resolves to ``target_width_rel * max(1, ||A||)``.
    """

    grid_points: int = 64
    target_width: float | None = None
    target_width_rel: float = 1e-9

    def __post_init__(self):
        if self.grid_points < 8:
            raise ValueError("grid_points must be at least 8")
        if self.target_width is not None and not self.target_width > 0:
            raise ValueError("target_width must be positive")
        if not self.target_width_rel > 0:
            raise ValueError("target_width_rel must be positive")

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
    ``refinement_iters`` counts the eigensolves of all ascents.
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


def _envelope_gvals(
    m: np.ndarray, mh: np.ndarray, thetas: np.ndarray, antipodal: bool = False
) -> np.ndarray:
    """lambda_max(H(theta)) for a batch of angles.  With ``antipodal`` the
    values at theta + pi follow, from the same eigensolves:
    H(theta + pi) = -H(theta), so g(theta + pi) = -lambda_min(H(theta))."""
    out = np.empty((1 + antipodal, thetas.size))
    chunk = _sweep_chunk(m.shape[0])
    for s in range(0, thetas.size, chunk):
        ph = np.exp(1j * thetas[s : s + chunk])
        # h stays bound until the next batch replaces it: passing the temporary
        # straight to eigvalsh measured more page faults and a few percent
        # more time on disk-shaped inputs
        h = _envelope(m, mh, ph[:, None, None])
        ev = np.linalg.eigvalsh(h)
        out[0, s : s + chunk] = ev[:, -1]
        if antipodal:
            out[1, s : s + chunk] = -ev[:, 0]
    return out.ravel()


def _sweep_chunk(n: int) -> int:
    """Matrices per sweep batch for n x n inputs, within both batch limits."""
    return max(1, min(_SWEEP_CHUNK, _SWEEP_BYTES // (16 * n * n)))


def _envelope_eigh(m: np.ndarray, mh: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of H(theta); the ascent's
    only eigensolve."""
    return np.linalg.eigh(_envelope(m, mh, np.exp(1j * theta)))


def _ascend(
    m: np.ndarray, mh: np.ndarray, theta: float, lower: float, stop: float
) -> tuple[float, np.ndarray, float, int]:
    """Safeguarded Newton ascent on g(theta) = lambda_max(H(theta)) from the
    angle ``theta``; returns (lower, x, theta, eigensolves).

    Each step is one eigh of H(theta) = V diag(w) V*, top pair (g, x).  With
    H' = dH/dtheta = (i e^{i theta} A - i e^{-i theta} A*) / 2 and H'' = -H,
    eigenvalue perturbation gives g' = x* H' x and
    g'' = -g + 2 sum_{j>1} |v_j* H' x|^2 / (g - w_j), formed in units of
    ||H(theta)||_2 so that no square overflows.  The next angle is
    theta - g'/g'' clipped to _MAX_STEP.  |<Ax, x>| is a lower bound for
    w(A), and is accepted only when it beats ``lower``, with
    theta = -arg<Ax, x>, so Re(e^{i theta}<Ax, x>) = lower.  A step that does
    not raise lower is halved, at most _HALVINGS times.  The ascent stops when
    the local model's predicted peak g + g' step / 2 is at most
    lower + ``stop``, after _ASCENT_STEPS eigensolves, at a crossing
    (g - w_2 tiny) or where g'' >= 0; grid refinement covers any gain left
    there.  When nothing beats ``lower``, x is the top eigenvector
    at the start angle.
    """
    x = None
    th = theta
    for steps in range(1, _ASCENT_STEPS + 1):
        w, v = _envelope_eigh(m, mh, th)
        y = v[:, -1]
        z = complex(np.vdot(y, m @ y))
        gained = abs(z) > lower
        if gained:
            lower, x, theta = abs(z), y, float(-np.angle(z))
        elif x is None:
            x = y
        scale = max(abs(w[0]), abs(w[-1]))
        if scale == 0.0:
            break
        gaps = (w[-1] - w[:-1]) / scale
        if gaps.size and gaps[-1] <= _GAP:
            break
        c = v.conj().T @ (_envelope(m, mh, 1j * np.exp(1j * th)) @ y) / scale
        slope = c[-1].real
        curv = 2.0 * float(np.sum(np.abs(c[:-1]) ** 2 / gaps)) - w[-1] / scale
        if curv >= 0.0:
            break
        nxt = min(_MAX_STEP, max(-_MAX_STEP, -slope / curv))
        if w[-1] + 0.5 * scale * slope * nxt <= lower + stop:
            break
        if gained or steps == 1:
            base, step, halvings = th, nxt, 0
        elif halvings < _HALVINGS:
            step, halvings = 0.5 * step, halvings + 1
        else:
            break
        th = base + step
    return lower, x, theta % TWO_PI, steps


def radius_sample_oracle(a, samples: int, seed: int = 0) -> float:
    """Randomized lower-bound estimate max_j |<A x_j, x_j>| over ``samples``
    Haar-random unit vectors, deterministic in ``seed``.  Never exceeds w(A)
    beyond rounding."""
    m = as_square(a)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    n = m.shape[0]
    rng = np.random.default_rng(int(seed) & _SEED_MASK)
    best = -1.0
    left = int(samples)
    while left > 0:
        k = min(left, _ORACLE_CHUNK)
        left -= k
        x = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
        nrm = np.linalg.norm(x, axis=1)
        nrm[nrm == 0] = 1.0
        x /= nrm[:, None]
        best = max(best, float(np.abs(np.einsum("ij,ij->i", x.conj(), x @ m.T)).max()))
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
    """Certified enclosure of w(A): sweep (half the angles on an even grid,
    each eigensolve giving g at theta and theta + pi), Newton ascent from the
    sweep peak, one try of the LMI certificate when the envelope is flat,
    then grid doubling (with interval pruning) until upper - lower <= target
    width; a refinement midpoint more than 0.01 target above lower starts a
    new ascent.

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
    if nn % 2:
        gl = _envelope_gvals(m, mh, lefts)
    else:
        gl = _envelope_gvals(m, mh, lefts[: nn // 2], antipodal=True)
    gr = np.roll(gl, -1)

    k = int(np.argmax(gl))
    lower, x, theta, iters = _ascend(m, mh, float(lefts[k]), float(gl[k]), stop)

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
        # a midpoint within stop of lower would only repeat the ascent that
        # found lower
        if float(gm[j]) > lower + stop:
            cand, v, th, it = _ascend(m, mh, float(mids[j]), lower, stop)
            iters += it
            # an ascent that gains nothing returns its start vector, which
            # lower and theta do not describe: keep the old witness then
            if cand > lower:
                lower, x, theta = cand, v, th
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
