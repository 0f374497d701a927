"""Numerical radius engine with certified enclosures.

The numerical radius w(A) = sup_{||x||=1} |<Ax, x>| equals
max_theta lambda_max(H(theta)) for the Hermitian envelope
H(theta) = (e^{i theta} A + e^{-i theta} A*) / 2.

The engine runs on one scale.  w is positively homogeneous, so
numerical_radius divides A by 4^k, with 2k the exponent (frexp) of the largest
real or imaginary part of an entry rounded down to even.  That part is finite
even where ||A|| overflows, it lands in [1/2, 2), and ||A|| / 4^k in
[1/2, 2 sqrt(2) n); the norm, the target width, the ascent's stop threshold
and the kernel slack are taken on A / 4^k, and lower, upper (and the estimate
an EnclosureNotReached carries) are multiplied back.
The division acts on the real and imaginary parts with ldexp, exactly over
the whole double range, subnormal ||A|| included, except where an entry of a
huge A underflows: each part then moves by at most 2^-1075, so the normalized
matrix is off by an E with w(E) <= ||E||_F <= sqrt(2) n 2^-1075, far below
the slack delta >= RESIDUAL_FACTOR n eps / 2 that upper carries.  Every step
below commutes with multiplication by a power of four (one of two would not:
sqrt(a) sqrt(b) in the kite bound rounds differently at an odd exponent), and
A and 4^j A normalize to the same matrix, so the enclosure of 4^j A is
exactly 4^j times that of A unless a result leaves the double range or
lands on the subnormal grid; there the product is rounded outward, lower
toward 0 (the largest double past the range) and upper toward +inf.  With
||A|| < 2 sqrt(2) n no eigenvalue gap, square or LMI matrix overflows, and no
function here computes a scale of its own.

Every envelope eigenvalue g(theta) is a valid lower bound.  The upper
certificate uses the support lines Re(e^{i theta_k} z) <= g(theta_k) that every
numerical-range point z obeys at the node angles (width h = 2 pi / 16 at the
sweep).  With s = -arg z - theta_k in [0, h], the lines at both ends of its
interval give |z| <= min(a / cos s, b / cos(h - s)) for any
a >= g(theta_k), b >= g(theta_{k+1}).  The first term grows with s and the second falls, so
this kite's far point is where the lines meet, a vertex of Johnson's outer
polygon (SIAM J. Numer. Anal. 15, 1978), at the distance

    V(a, b) = hypot((a - b) / sin h, sqrt(a) sqrt(b) / cos(h/2))

while that lies in the sector (a cos h <= b <= a / cos h), and
min(a, b) / cos h otherwise.  Clipping a to b / cos h and b to a / cos h moves
the meeting point onto the sector's edge, so V of the clipped pair is the
kite's maximum throughout, and a - b stays small.  That maximum is monotone
in (a, b), so a = max(g, 0) + delta (b alike), with delta = RESIDUAL_FACTOR *
n * eps * ||A||, covers the eigensolver's error and the rounding of H(theta)
itself; a value certified by Cholesky (below) may stand in for g.  The kite
lies inside the secant bound max(a, b) / cos(h/2) (some node angle is within
h/2 of -arg z) and is exact when both lines touch W(A) at one corner, as at
the extreme eigenvalue of a normal matrix once both angles lie in its normal
cone.  Nor is a Lipschitz fallback max_k g + ||A|| h / 2 needed (g is
||A||-Lipschitz): for 0 <= g <= ||A||, g (sec(h/2) - 1) <= ||A|| h / 2 at
every h <= pi / 8.

Rounding, with u = eps / 2 (+, -, *, /, sqrt exact to u; sin, cos, hypot to
2u): a and b lose u, the clip 4u; the clipped values are within a factor 2, so
a - b is exact; the hypot arguments carry 4u and 7u, hypot 2u.  The maximum is
positively homogeneous and at most V, so this costs a relative factor under
1 + 15u.  Every node angle is theta = p c for an integer numerator p over
GRID_CAP = 2^20 and the stored c = fl(2 pi) / 2^20, with one rounding (under
2 pi u), and the phase e^{i theta} adds an angle error under 2u; a width
h = (q - p) c is one rounding too (u h), dyadic or not.  So the angle that
an interval's two support lines really span differs from the h its kite uses
by under 4 pi u + 4u + u h < 18u, at every node and every pass, and the
maximum grows with h at a relative rate at most tan h <= tan(pi / 8) < 0.42,
which costs under 8u.  Both hypot arguments carry the factor
1 + 32 eps = 1 + 64u, which covers the two.

Refinement holds the kept intervals as numerator pairs [p, q] with their end
values.  An interval whose kite is at most lower is pruned: it cannot contain
the maximizer, and lower never falls, so the enclosure stays sound.  One whose
kite is in (lower, lower + target] is kept but not split.  Since
H(theta + pi) = -H(theta), each eigensolve of the sweep gives two grid values,
g(theta) = lambda_max(H(theta)) and g(theta + pi) = -lambda_min(H(theta)), so
the sweep solves only its first half of the angles.  From the sweep peak a
safeguarded Newton ascent on g (one eigh per step, g' and g'' from eigenvalue
perturbation; it stops at crossings, where g'' >= 0 and at a step that gains
nothing) raises the lower bound; it accepts only values |<Ax, x>| above it,
so lower never falls below the sweep peak.

After an ascent raises lower, the next pass puts nodes on a geometric ladder
around its peak theta*.  There rho = g + g'' >= 0 (formed by the ascent's last
eigh) is the radius of curvature of W(A)'s boundary, and the osculating circle
gives g(theta* + d) ~ rho + (lower - rho) cos d.  On such circle values, the
kite of an interval at distances d1 < d2 on one side of the peak stays under
the peak when 4 (lower - rho) d1 d2 >= rho (d2 - d1)^2 (to second order in
d), that is for a ratio R = d2 / d1 with 4 (lower - rho) R >= rho (R - 1)^2.
The ladder puts nodes at theta* and theta* +- d0 R^j out to one sweep
spacing, rounded to numerators, with R the largest power 2^(j/2) <= 16 that
passes for the loosened radius rho' = rho + (lower - rho) / 4 (sqrt 2 when
none does), and d0 where the kite at the peak rises target / 2 on that
circle.  Each node's value mu is the rho' circle's value plus target / 4:
above the model, so that the model's error seldom makes a certificate fail.
A peak with rho below lower / 256 is a corner of W(A) (rho = 0 at an
eigenvalue of a normal matrix), where the kite is nearly exact once both its
angles lie in the corner's normal cone; it is bisected instead.  One
Cholesky certifies mu (below); only nodes whose factorization fails are
eigensolved, and only eigensolved values may start an ascent.  Every other
pass bisects, with one eigvalsh batch, the intervals whose kite still exceeds
lower + target.  The circle only places nodes and the kite decides, so a
wrong rho costs passes, never soundness.  An interval one numerator wide is
at the grid cap and is not split.  Once no interval that needs splitting can
be, the ends of those still too wide trade their certified values, which
carry the ladder's loosening, for eigensolved ones, and EnclosureNotReached
is raised if the width is still missed.

A node is certified without an eigensolve: if np.linalg.cholesky (LAPACK's
potrf) factors the stored C~ = mu_s I - H~ + D, with mu_s = fl(mu - s), H~
the stored envelope (exactly Hermitian) and D the rounding of the diagonal,
then lambda_max(H~) <= mu.  The computed factor satisfies R* R = C~ + E with
|E| <= gamma_{n+1} |R*| |R| in real arithmetic, in any summation order
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3;
gamma_k = k u / (1 - k u)); in complex arithmetic a product conj(r_ki) r_kj
errs by at most sqrt(2) gamma_2 < gamma_3 where a real one errs by u (section
3.6), so gamma = gamma_{n+4} covers it.  Rump's trace argument (BIT 46, 2006)
turns this into a norm bound: ||E||_2 <= gamma || |R*| |R| ||_2 <= gamma
||R||_F^2, and |E_jj| <= gamma (|R*| |R|)_jj gives

    ||R||_F^2 = tr(C~ + E) <= tr(C~) + gamma ||R||_F^2,

so ||E||_2 <= gamma' tr(C~) with gamma' = gamma / (1 - gamma).  R* R is
positive semidefinite, so lambda_min(C~) >= -gamma' tr(C~), and
|D_jj| <= u (|mu_s| + ||H~||_2).  With tr(C~) <= n (|mu_s| + ||H~||_2)(1 + u),
||H~||_2 <= 2 ||A||, n below 10^6 (so gamma' <= 1.03 (n + 4) u, and s is
below 0.03 (|mu| + 2 ||A||)) and mu_s <= mu - s + u |mu - s|, the shift

    s = (n (n + 4) + 2) eps (|mu| + 2 ||A||)

exceeds the sum of these terms with a factor near 2 to spare, which also
covers the rounding of s and of ||A||.  At n = 128 and ||A|| = 1 it is about
1.1e-11, a hundredth of the default target.  At most _CERT_BYTES of matrices
are factored in one call; a batch that fails is split in halves until its
failing nodes are found.

When the numerical range is a disk centred at 0 (the Jordan block, weighted
shifts, every 2x2 nilpotent matrix) the envelope is constant, nothing is
pruned, and the grid would have to double to 65536-131072 points.  Such
inputs are recognised after the sweep: if on at least half of its intervals
the envelope stays within the fixed factor cos(pi / 64) of lower, a
grid-free certificate is tried once, at the trial radius r = lower + target / 2.
On the 16-point sweep this fires on disk-shaped ranges and on no generic draw
of the tests' sample.  By Ando's theorem (Acta Sci. Math. 34, 1973),
w(A) <= r iff some Hermitian Z makes

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
from typing import ClassVar

import numpy as np

from .linalg import EPS, RESIDUAL_FACTOR, _hermitize, as_square, max_abs

TWO_PI = 2.0 * np.pi

# Hard cap on the conceptual grid size during enclosure refinement.  Every
# node angle is an integer numerator p over it: theta = p * _UNIT.
GRID_CAP = 2 ** 20
_UNIT = TWO_PI / GRID_CAP

# Batch limits for vectorized envelope eigenvalue sweeps: at most this many
# matrices, and at most this many bytes of n x n complex matrices, per batch.
_SWEEP_CHUNK = 8192
_SWEEP_BYTES = 64 * 2 ** 20

# Bytes of n x n complex matrices per Cholesky (and fallback eigvalsh) batch
# of a ladder pass: one matrix at n = 128, where a call's overhead is lost in
# its work.  A 2 MiB batch read 3 MB more peak RSS on the enclose-large cycle.
_CERT_BYTES = 2 ** 18

# A ladder node certifies the osculating circle's value moved this share of
# the way up toward lower (plus a quarter of the target), and its ratio is at
# most 2^_LADDER_BITS.
_LOOSEN = 0.25
_LADDER_BITS = 4

# A peak whose radius of curvature rho is below this share of lower is a
# corner of W(A) (rho = 0 at an eigenvalue of a normal matrix): a kite there
# is exact once both its angles lie in the corner's normal cone, so
# bisection needs a few passes where a ladder would certify many nodes.
_CORNER = 2.0 ** -8

# Sample batch for the randomized Rayleigh oracle.
_ORACLE_CHUNK = 20000

# Eigensolve cap of each ascent, its largest Newton step (radians), and the
# relative gap lambda_1 - lambda_2 below which a crossing stops it.
_ASCENT_STEPS = 200
_MAX_STEP = 0.2
_GAP = 1e-8

# Step cap of the cyclic reduction behind the LMI certificate.  It converges
# quadratically for r > w(A); disk-shaped inputs need a handful of steps, and
# even r = w(A) (linear convergence, rate 1/2) meets the stop rule in fewer.
_LMI_STEPS = 50

# The envelope counts as flat when, on at least half of the sweep's
# intervals, the larger endpoint value is within this factor of the lower
# bound.  A constant envelope meets it to rounding; a generic envelope that
# meets it on half the circle varies by under 0.12% there, and a wrong
# trigger costs one LMI try, never soundness.
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
    resolves to ``target_width_rel * max(1, ||A||)``.  ``grid_points`` is the
    first sweep's size, a constant rather than a knob: 16 points measured the
    fastest first sweep.
    """

    grid_points: ClassVar[int] = 16
    target_width: float | None = None
    target_width_rel: float = 1e-9

    def __post_init__(self):
        if self.target_width is not None and not self.target_width > 0:
            raise ValueError("target_width must be positive")
        if not self.target_width_rel > 0:
            raise ValueError("target_width_rel must be positive")

    def resolve_target(self, norm: float, f: float = 1.0) -> float:
        """Target width for A / f^2, given norm = ||A / f^2|| (f a power of
        two; by default the caller's units)."""
        if self.target_width is not None:
            return self.target_width / f / f
        return self.target_width_rel * max(1.0 / f / f, norm)


@dataclass(eq=False)
class RadiusEstimate:
    """Certified enclosure lower <= w(A) <= upper.

    ``witness`` is a unit vector with |<A witness, witness>| equal to
    ``lower`` (to rounding), ``theta_star`` the angle in [0, 2 pi) at which
    the maximum was located, ``grid_points`` 2 pi over the finest kept
    interval's width, rounded up to a power of two (at least the sweep's
    16); when the LMI certificate sets ``upper`` it is the sweep's size,
    nothing was refined.
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
    m: np.ndarray,
    mh: np.ndarray,
    start: float,
    lower: float,
    x: np.ndarray | None,
    theta: float,
    stop: float,
) -> tuple[float, np.ndarray, float, int, float]:
    """Safeguarded Newton ascent on g(theta) = lambda_max(H(theta)) from the
    angle ``start``: improves the best estimate ``lower``, which the witness
    ``x`` attains at ``theta``, and returns (lower, x, theta, eigensolves,
    rho), rho = g + g'' at the last step that formed it (nan if none did).

    Each step is one eigh of H(theta) = V diag(w) V*, top pair (g, y).  With
    H' = dH/dtheta = (i e^{i theta} A - i e^{-i theta} A*) / 2 and H'' = -H,
    eigenvalue perturbation gives g' = y* H' y and
    g'' = -g + 2 sum_{j>1} |v_j* H' y|^2 / (g - w_j), formed in units of
    ||H(theta)||_2 (numerical_radius passes ||A|| < 2 sqrt(2) n, so no square
    overflows); H' y comes from the products A y and A* y.  The next angle is
    theta - g'/g'' clipped to _MAX_STEP.  |<Ay, y>| is a lower bound for
    w(A), and is accepted only when it beats ``lower``, with
    theta = -arg<Ay, y>, so Re(e^{i theta}<Ay, y>) = lower.  The ascent stops
    at its first step after the first that does not raise lower, when the
    local model's predicted peak g + g' step / 2 is at most lower + ``stop``,
    after _ASCENT_STEPS eigensolves, at a crossing (g - w_2 tiny) or where
    g'' >= 0; grid refinement covers any gain left there.  An ``x`` of None
    (``lower`` the sweep value at ``start == theta``) takes the first eigh's
    top eigenvector, which attains that value to rounding.  rho is the
    radius of curvature of W(A)'s boundary, which the ladder reads.
    """
    th = start
    rho = math.nan
    for steps in range(1, _ASCENT_STEPS + 1):
        w, v = _envelope_eigh(m, mh, th)
        y = v[:, -1]
        ay = m @ y
        z = complex(np.vdot(y, ay))
        if abs(z) > lower:
            lower, x, theta = abs(z), y, float(-np.angle(z))
        elif steps > 1:
            break
        elif x is None:
            x = y
        unit = max(abs(w[0]), abs(w[-1]))
        if unit == 0.0:
            break
        gaps = (w[-1] - w[:-1]) / unit
        # at a crossing, and at once for a 1x1 input (lower = |a| = w(A))
        if not gaps.size or gaps[-1] <= _GAP:
            break
        c = v.conj().T @ _envelope(ay, mh @ y, 1j * np.exp(1j * th)) / unit
        slope = c[-1].real
        bend = 2.0 * float((np.abs(c[:-1]) ** 2 / gaps).sum())
        rho = bend * unit
        curv = bend - w[-1] / unit
        if curv >= 0.0:
            break
        nxt = min(_MAX_STEP, max(-_MAX_STEP, -slope / curv))
        if w[-1] + 0.5 * unit * slope * nxt <= lower + stop:
            break
        th += nxt
    return lower, x, theta % TWO_PI, steps, rho


def radius_sample_oracle(a, samples: int, seed: int = 0) -> float:
    """Randomized lower-bound estimate max_j |<A x_j, x_j>| / ||x_j||^2 over
    ``samples`` complex Gaussian vectors, whose directions are Haar-random,
    deterministic in ``seed``.  Never exceeds w(A) beyond rounding."""
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
        # one real draw viewed as complex: interleaved parts of k Gaussian rows
        parts = rng.standard_normal((k, 2 * n))
        x = parts.view(np.complex128)
        sq = np.einsum("ij,ij->i", parts, parts)  # ||x_j||^2
        sq[sq == 0] = 1.0
        quad = np.abs(np.einsum("ij,ij->i", x.conj(), x @ m.T))
        best = max(best, float((quad / sq).max()))
    return best


def _grid_upper(gl, gr, h, slack: float):
    """Certified bound on |z| over the z in W(A) with -arg z in angle intervals
    of widths h and envelope end values ``gl``, ``gr`` (the module docstring)."""
    a = np.maximum(gl, 0.0) + slack
    b = np.maximum(gr, 0.0) + slack
    k, r = 1.0 / np.cos(h), 1.0 + 32.0 * EPS
    a, b = np.minimum(a, k * b), np.minimum(b, k * a)
    return np.hypot((a - b) * (r / np.sin(h)), np.sqrt(a) * np.sqrt(b) * (r / np.cos(0.5 * h)))


def _split(lo, hi, gl, gr, q, gq):
    """The intervals [lo, hi] (sorted numerators, end values gl, gr) split at
    the nodes q, each strictly inside one of them, with node values gq.  The
    intervals are disjoint, so the k-th smallest left end pairs with the k-th
    smallest right end."""
    left = np.argsort(np.concatenate((lo, q)))
    right = np.argsort(np.concatenate((q, hi)))
    return (
        np.concatenate((lo, q))[left],
        np.concatenate((q, hi))[right],
        np.concatenate((gl, gq))[left],
        np.concatenate((gq, gr))[right],
    )


def _ladder(theta: float, lower: float, rho: float, target: float, lo, hi):
    """Nodes of a geometric ladder around the peak angle ``theta`` that fall
    strictly inside the kept intervals [lo, hi], and the value each is to be
    certified at (the module docstring); None when rho gives no ladder or no
    node falls inside."""
    if not _CORNER * lower <= rho < lower:
        return None
    # the certified values follow the osculating circle of radius `loose`
    loose = rho + _LOOSEN * (lower - rho)
    # the largest ratio R = 2^(j/2) whose kites stay under that circle's
    # peak: 4 (lower - loose) R >= loose (R - 1)^2
    half = 1
    while half < 2 * _LADDER_BITS:
        r = 2.0 ** (0.5 * (half + 1))
        if 4.0 * (lower - loose) * r < loose * (r - 1.0) ** 2:
            break
        half += 1
    # the innermost rungs, at +-d0 from the node at the peak: the kite of
    # [theta, theta + d0] rises about loose^2 d0^2 / (8 lower) over the peak;
    # keep that to target / 2.  The rungs end within a sweep spacing.
    span = GRID_CAP / RadiusConfig.grid_points
    d0 = min(span, max(1.0, math.sqrt(4.0 * target * lower) / loose / _UNIT))
    count = max(1, math.ceil(2.0 * math.log2(span / d0) / half))
    rungs = d0 * 2.0 ** (0.5 * half * np.arange(count))
    t = theta / _UNIT
    q = np.unique(np.rint(t + np.concatenate(([0.0], rungs, -rungs))))
    d = (q - t) * _UNIT
    mu = lower + 0.25 * target - (1.0 - _LOOSEN) * (lower - rho) * 2.0 * np.sin(0.5 * d) ** 2
    q = q.astype(np.int64) % GRID_CAP
    owner = np.searchsorted(lo, q, side="right") - 1
    inside = (owner >= 0) & (q > lo[owner]) & (q < hi[owner])
    if not inside.any():
        return None
    q, keep = np.unique(q[inside], return_index=True)
    return q, mu[inside][keep]


def _factors(c: np.ndarray) -> np.ndarray:
    """Mask of the matrices in the stack c whose Cholesky factorization
    succeeds; a failed batch is split in halves."""
    try:
        np.linalg.cholesky(c)
        return np.ones(c.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        if c.shape[0] == 1:
            return np.zeros(1, dtype=bool)
        half = c.shape[0] // 2
        return np.concatenate((_factors(c[:half]), _factors(c[half:])))


def _certify(m: np.ndarray, mh: np.ndarray, thetas, mu, norm: float):
    """Certified upper bounds on lambda_max(H(theta)) at ``thetas``: mu where
    one Cholesky of (mu - s) I - H(theta) succeeds (the module docstring),
    else eigvalsh's value; returns the values and the mask of eigensolved
    nodes."""
    n = m.shape[0]
    vals, solved = mu.copy(), np.zeros(mu.size, dtype=bool)
    shift = (n * (n + 4) + 2) * EPS * (np.abs(mu) + 2.0 * norm)
    diag = np.arange(n)
    chunk = max(1, _CERT_BYTES // (16 * n * n))
    for s in range(0, mu.size, chunk):
        # -H(theta) formed as (-ph / 2) A + conj(-ph / 2) A*: exactly
        # Hermitian, with a real diagonal, like _envelope's H(theta)
        ph = -0.5 * np.exp(1j * thetas[s : s + chunk])[:, None, None]
        c = ph * m
        c += np.conj(ph) * mh
        c[:, diag, diag] += (mu[s : s + chunk] - shift[s : s + chunk])[:, None]
        bad = ~_factors(c)
        if bad.any():
            solved[s : s + chunk] = bad
            vals[s : s + chunk][bad] = np.linalg.eigvalsh(_envelope(m, mh, -2.0 * ph[bad]))[:, -1]
    return vals, solved


def _lmi_upper(m: np.ndarray, r: float, target: float) -> float:
    """Certified upper bound on w(A) from Ando's LMI at the trial radius r
    (see the module docstring); ``math.inf`` when the eigensolve of M fails.

    Cyclic reduction for the maximal solution X of X + A X^{-1} A* = 2 r I
    (Meini's X + B* X^{-1} B = Q with B = A*) runs on the normalized matrix
    that ``numerical_radius`` passes, so ||A|| < 2 sqrt(2) n and r is near
    w(A): neither the iteration nor M overflows or underflows.  It stops once
    ||B_k||_F^2 <= 0.1 target 2 r, after ``_LMI_STEPS`` steps, or on a failed
    or non-finite step, keeping the last finite X.
    """
    n = m.shape[0]
    eye = np.eye(n)
    ri = r * eye
    mh = m.conj().T
    b = mh
    x = 2.0 * r * eye
    y = x
    stop = math.sqrt(0.1 * target * 2.0 * r)
    for _ in range(_LMI_STEPS):
        # ||B_k||_F as np.linalg.norm forms it; also ends on a non-finite B_k
        v = b.ravel(order="K")
        if not math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag)) > stop:
            break
        bh = b.conj().T
        try:
            sol = np.linalg.solve(y, np.concatenate([b, bh], axis=1))
        except np.linalg.LinAlgError:
            break
        yb, ybh = sol[:, :n], sol[:, n:]
        bhyb = bh @ yb
        x_next = x - bhyb
        if not np.isfinite(x_next).all():
            break
        x, y, b = x_next, y - b @ ybh - bhyb, b @ yb

    # M~ = [[r I + Z, A], [A*, r I - Z]] assembled in place: Z is exactly
    # Hermitian and the off-diagonal blocks are copies, so M~ is too
    z = _hermitize(ri - x)
    mm = np.empty((2 * n, 2 * n), dtype=np.complex128)
    np.add(ri, z, out=mm[:n, :n])
    mm[:n, n:] = m
    mm[n:, :n] = mh
    np.subtract(ri, z, out=mm[n:, n:])
    try:
        lam = float(np.linalg.eigvalsh(mm)[0])
    except np.linalg.LinAlgError:
        return math.inf
    norm_inf = float(np.abs(mm).sum(axis=1).max())
    return r + max(0.0, -lam) + (RESIDUAL_FACTOR * 2 * n + 6) * EPS * norm_inf


def _scale_back(v: float, f: float, toward: float) -> float:
    """v * f * f in the caller's units, moved one ulp ``toward`` 0 (a lower
    bound) or +inf (an upper bound) where the product rounded: on the
    subnormal grid or past the double range."""
    r = v * f * f
    return r if r / f / f == v else math.nextafter(r, toward)


def numerical_radius(a, cfg: RadiusConfig | None = None) -> RadiusEstimate:
    """Certified enclosure of w(A): sweep (half the grid's angles, each
    eigensolve giving g at theta and theta + pi), Newton ascent from the
    sweep peak, one try of the LMI certificate when the envelope is flat,
    then refinement passes (with interval pruning) until upper - lower <=
    target width: a Cholesky-certified ladder around the peak after each
    ascent that raised lower, bisection otherwise; an eigensolved node more
    than 0.01 target above lower starts a new ascent.

    All of this runs on A / 4^k (the module docstring); the results come
    back in the caller's units.  Raises :class:`EnclosureNotReached`
    carrying the best estimate if intervals of 2 pi / 2**20 are
    insufficient.
    """
    m = as_square(a)
    cfg = cfg or RadiusConfig()
    n = m.shape[0]
    # the engine runs on A / 4^k, with 2k the exponent of the largest real or
    # imaginary part rounded down to even (finite where ||A|| may not be),
    # and f * f = 4^k scales its results back (the module docstring)
    parts = np.ascontiguousarray(m).view(np.float64)
    e = math.frexp(max_abs(parts))[1] & ~1
    f = 2.0 ** (e // 2)
    m = np.ldexp(parts, -e).view(np.complex128)
    mh = m.conj().T
    norm = float(np.linalg.svd(m, compute_uv=False)[0])
    target = cfg.resolve_target(norm, f)
    stop = 0.01 * target
    slack = RESIDUAL_FACTOR * n * EPS * norm

    nn = RadiusConfig.grid_points
    lo = np.arange(0, GRID_CAP, GRID_CAP // nn)
    hi = lo + GRID_CAP // nn
    gl = _envelope_gvals(m, mh, lo[: nn // 2] * _UNIT, antipodal=True)
    gr = np.concatenate((gl[1:], gl[:1]))

    k = int(gl.argmax())
    theta = float(lo[k] * _UNIT)
    lower, x, theta, iters, rho = _ascend(m, mh, theta, float(gl[k]), None, theta, stop)
    ladder = lower > gl[k]
    first = True
    while True:
        certs = _grid_upper(gl, gr, (hi - lo) * _UNIT, slack)
        upper = max(lower, float(certs.max()))
        if upper - lower <= target:
            break
        # refining a flat envelope would prune nothing: try the grid-free
        # certificate once instead
        if first and 2 * np.count_nonzero(np.maximum(gl, gr) > _FLAT * lower) >= nn:
            lmi = _lmi_upper(m, lower + target / 2.0, target)
            if lmi - lower <= target:
                upper = lmi
                break
        first = False
        # the intervals are never all pruned: a pass only runs when some
        # certificate exceeds lower + target, and it keeps that interval
        keep = certs > lower
        lo, hi, gl, gr, certs = lo[keep], hi[keep], gl[keep], gr[keep], certs[keep]
        rungs = _ladder(theta, lower, rho, target, lo, hi) if ladder else None
        if rungs is not None:
            q = rungs[0]
            gq, solved = _certify(m, mh, q * _UNIT, rungs[1], norm)
        else:
            # an interval one numerator wide is at the grid cap: the others
            # still split, and the cap ends the loop once none can, after the
            # ends of the intervals still too wide trade their loosened
            # certified values for eigensolved ones
            wide = certs > lower + target
            split = wide & (hi - lo > 1)
            if not split.any():
                g = _envelope_gvals(m, mh, np.concatenate((lo[wide], hi[wide])) * _UNIT)
                gl[wide] = np.minimum(gl[wide], g[: g.size // 2])
                gr[wide] = np.minimum(gr[wide], g[g.size // 2 :])
                upper = max(lower, float(_grid_upper(gl, gr, (hi - lo) * _UNIT, slack).max()))
                break
            q = (lo[split] + hi[split]) // 2
            gq = _envelope_gvals(m, mh, q * _UNIT)
            solved = np.ones(q.size, dtype=bool)
        lo, hi, gl, gr = _split(lo, hi, gl, gr, q, gq)
        ladder = False
        # only eigensolved values may start an ascent; one within stop of
        # lower would only repeat the ascent that found lower
        start = np.where(solved, gq, -math.inf)
        j = int(start.argmax())
        if start[j] > lower + stop:
            before = lower
            lower, x, theta, it, rho = _ascend(m, mh, q[j] * _UNIT, lower, x, theta, stop)
            iters += it
            ladder = lower > before

    # 2 pi over the finest kept width, rounded up to a power of two
    nn = GRID_CAP >> (int(np.min(hi - lo)).bit_length() - 1)
    est = RadiusEstimate(
        _scale_back(lower, f, 0.0), _scale_back(upper, f, math.inf), theta % TWO_PI, x, nn, iters
    )
    if upper - lower > target:
        raise EnclosureNotReached(
            f"enclosure width {est.width:.3e} above target {target * f * f:.3e}"
            f" at grid cap {GRID_CAP}",
            est,
        )
    return est
