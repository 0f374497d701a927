"""Catalog of numerical-radius inequalities as machine-checkable reports.

Registry ids (stable, used by the CLI and the study harness):

    B0, KIT, SQ, LEM1+, LEM1-, T1, LEM-SUM, T2, LEM-POSDIFF, T3,
    T3-PRINTED, FUNC, COR

Each entry is one function of the radii it reads, evaluated at the lower and
at the upper endpoints of their enclosures.  A report shows each term's
smaller value; a term's larger value scales the tolerance, and for a link's
right-hand side the violation check also accepts it, so that enclosure
uncertainty can never manufacture a false violation.  The widening is folded
into ``tolerance_used`` which keeps ``violated == (lhs - rhs >
tolerance_used)`` literally true for the reported numbers.

T3-PRINTED is a deliberately retained diagnostic: the variant of the squared
radius upper bound with both correction terms halved.  It is refuted by the
2x2 Jordan block (lhs 0.25 against rhs 0) and fails on a large fraction of
random draws; evaluating it reports the violation but never raises and never
drives a process exit code.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import (
    DomainError,
    apply_herm_fn,
    as_square,
    cartesian_decomp,
    from_spectrum,
    herm_eigen,
    operator_norm,
    svd,
    _apply_to_values,
    _hermitize,
)
from .radius import RadiusConfig, RadiusEstimate, numerical_radius


class NotPositiveError(ValueError):
    """An operand that must be positive semidefinite is not."""


class HypothesisFailed(ValueError):
    """A function pair failed its monotonicity/convexity grid check."""


class IdentityCheckError(RuntimeError):
    """Two evaluation routes that must agree disagreed beyond tolerance."""


def default_tolerance(*scales: float) -> float:
    """1e-9 times the largest magnitude involved, floored at 1; NaN scales
    are ignored."""
    return 1e-9 * max([1.0, *(abs(float(s)) for s in scales)])


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality lhs <= rhs."""

    bound_id: str
    lhs: float
    rhs: float
    slack: float
    violated: bool
    tolerance_used: float


@dataclass(frozen=True)
class ChainReport:
    """A chain of inequalities terms[0] <= terms[1] <= ...; ``links[k]``
    reports the comparison terms[k] <= terms[k+1]."""

    chain_id: str
    terms: tuple[float, ...]
    links: tuple[BoundReport, ...]

    @property
    def violated(self) -> bool:
        return any(link.violated for link in self.links)


def _chain(chain_id: str, terms: Callable, *enclosures: RadiusEstimate) -> ChainReport:
    """terms[0] <= terms[1] <= ... with ``terms`` a function of the radii the
    ``enclosures`` enclose, evaluated at both of their endpoints (the module
    docstring)."""
    lo = [float(t) for t in terms(*(e.lower for e in enclosures))]
    hi = [float(t) for t in terms(*(e.upper for e in enclosures))]
    lows = [min(pair) for pair in zip(lo, hi)]
    highs = [max(pair) for pair in zip(lo, hi)]
    tol = default_tolerance(*highs)
    links = []
    for k in range(len(lows) - 1):
        lhs, rhs = lows[k], lows[k + 1]
        used = tol + max(0.0, highs[k + 1] - rhs)
        links.append(BoundReport(f"{chain_id}[{k}]", lhs, rhs, rhs - lhs, lhs - rhs > used, used))
    return ChainReport(chain_id, tuple(lows), tuple(links))


def _bound(bound_id: str, terms: Callable, *enclosures: RadiusEstimate) -> BoundReport:
    """lhs <= rhs: the one link of a chain, reported under its own id."""
    return dataclasses.replace(_chain(bound_id, terms, *enclosures).links[0], bound_id=bound_id)


@dataclass(frozen=True)
class FunctionPair:
    """Scalar functions (f, g, g^{-1}) driving the functional bound chain.

    Expected hypotheses: f continuous non-negative on [0, inf), g increasing
    concave, and g o f increasing convex.  Construction verifies the inverse
    round trip |g^{-1}(g(x)) - x| <= 1e-12 max(1, x) on a small grid, then
    spot-checks the monotonicity/convexity hypotheses on a grid (a necessary
    condition only), so a pair that exists has passed both.
    """

    f: Callable
    g: Callable
    g_inverse: Callable
    name: str = "custom"

    def __post_init__(self):
        for x in (0.0, 0.5, 1.0, 2.0, 10.0):
            back = float(self.g_inverse(self.g(x)))
            if abs(back - x) > 1e-12 * max(1.0, x):
                raise ValueError(
                    f"g_inverse(g({x})) = {back} is not an inverse to 1e-12"
                )
        _check_pair_hypotheses(self)


def identity_pair() -> FunctionPair:
    """f = g = g^{-1} = identity; reduces the functional chain to KIT."""
    ident = lambda x: x
    return FunctionPair(ident, ident, ident, name="identity")


def _exponent(r: float) -> float:
    """``r`` as a float; raises ValueError unless it is finite and >= 2."""
    r = float(r)
    if not (math.isfinite(r) and r >= 2):
        raise ValueError(f"exponent r must be finite and at least 2, got {r:g}")
    return r


def power_sqrt_pair(r: float) -> FunctionPair:
    """f(x) = x^r with g(x) = x + sqrt(x), the pair behind the COR bound.

    The pair is immutable, so each exponent is built and checked once per
    process; an invalid exponent raises on every call."""
    return _power_sqrt_pair(_exponent(r))


@lru_cache(maxsize=64)
def _power_sqrt_pair(r: float) -> FunctionPair:
    return FunctionPair(
        f=lambda x: x ** r,
        g=lambda x: x + np.sqrt(x),
        g_inverse=lambda x: x + 0.5 - np.sqrt(x + 0.25),
        name=f"x^{r:g}|x+sqrt(x)",
    )


_HYPOTHESIS_GRID = np.arange(17) * 0.25  # 0, 0.25, ..., 4


def _check_pair_hypotheses(fp: FunctionPair) -> None:
    """Grid check: g o f increasing and midpoint-convex, g increasing and
    midpoint-concave, g^{-1} increasing, on {0, 0.25, ..., 4}.  Necessary
    conditions only.  Each first and second difference is judged against
    1e-9 max(1, |values it is formed from|), so one large value elsewhere on
    the grid cannot hide a dip."""
    xs = _HYPOTHESIS_GRID
    gof = np.array([float(fp.g(fp.f(x))) for x in xs])
    gv = np.array([float(fp.g(x)) for x in xs])
    gi = np.array([float(fp.g_inverse(x)) for x in xs])
    if np.any(np.diff(gof) < -_window_tol(gof, 2)):
        raise HypothesisFailed(f"g o f is not increasing on the check grid ({fp.name})")
    if np.any(gof[:-2] + gof[2:] - 2.0 * gof[1:-1] < -_window_tol(gof, 3)):
        raise HypothesisFailed(f"g o f is not midpoint-convex on the check grid ({fp.name})")
    if np.any(np.diff(gv) < -_window_tol(gv, 2)):
        raise HypothesisFailed(f"g is not increasing on the check grid ({fp.name})")
    if np.any(gv[:-2] + gv[2:] - 2.0 * gv[1:-1] > _window_tol(gv, 3)):
        raise HypothesisFailed(f"g is not midpoint-concave on the check grid ({fp.name})")
    if np.any(np.diff(gi) < -_window_tol(gi, 2)):
        raise HypothesisFailed(f"g_inverse is not increasing on the check grid ({fp.name})")


def _window_tol(v: np.ndarray, k: int) -> np.ndarray:
    """1e-9 max(1, |values|) over each run of k consecutive entries of v: the
    tolerance of the differences formed from them."""
    return 1e-9 * np.maximum(1.0, sliding_window_view(np.abs(v), k).max(axis=1))


def _finite(name: str, compute: Callable):
    """``compute()``, with overflow silenced; raises DomainError if an entry
    of the result is not finite, so the failure names the quantity instead of
    the generic input gate of the enclosure that would read it."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = compute()
    if not np.all(np.isfinite(value)):
        raise DomainError(f"{name} is not finite in double precision (entries overflow)")
    return value


class MatrixContext:
    """Caches the decompositions shared by the bound evaluations of one
    matrix: adjoint, SVD, polar absolute values, Cartesian split, the
    radius enclosures of A and of the derived fourth-order products, and
    the functional chain of each exponent."""

    def __init__(self, a, cfg: RadiusConfig | None = None):
        if isinstance(a, MatrixContext):
            raise TypeError("a MatrixContext already has its own cfg; pass its matrix ctx.a")
        self.a = as_square(a)
        self.cfg = cfg or RadiusConfig()
        self._functional: dict[float, ChainReport] = {}

    def functional_chain(self, r: float) -> ChainReport:
        """FUNC's chain for the pair (x^r, x + sqrt(x)), evaluated once per
        exponent; a failed evaluation is not kept."""
        r = _exponent(r)
        if r not in self._functional:
            self._functional[r] = eval_functional_chain(self, power_sqrt_pair(r))
        return self._functional[r]

    @cached_property
    def ah(self) -> np.ndarray:
        return self.a.conj().T

    @cached_property
    def norm(self) -> float:
        return float(self._svd.singular_values[0])

    @cached_property
    def _svd(self):
        return svd(self.a)

    def f_abs(self, f: Callable) -> tuple[np.ndarray, np.ndarray]:
        """(f(|A|), f(|A*|)) = (V f(S) V*, U f(S) U*) for the SVD A = U S V*."""
        vals = _apply_to_values(f, self._svd.singular_values)
        return (
            from_spectrum(self._svd.right_vectors, vals),
            from_spectrum(self._svd.left_vectors, vals),
        )

    @cached_property
    def abs_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """(|A|, |A*|)."""
        return self.f_abs(lambda x: x)

    @cached_property
    def gram_sum(self) -> np.ndarray:
        """|A|^2 + |A*|^2 computed exactly as A*A + AA*."""
        return _finite("A*A + AA*", lambda: _hermitize(self.ah @ self.a + self.a @ self.ah))

    @cached_property
    def gram_norm(self) -> float:
        return operator_norm(self.gram_sum, "||A*A + AA*||")

    # ||A +- A*|| / 2 as ||A/2 +- A*/2||, finite even where A +- A* overflows
    @cached_property
    def half_norm_plus(self) -> float:
        return operator_norm(0.5 * self.a + 0.5 * self.ah, "||A + A*|| / 2")

    @cached_property
    def half_norm_minus(self) -> float:
        return operator_norm(0.5 * self.a - 0.5 * self.ah, "||A - A*|| / 2")

    @cached_property
    def cartesian(self) -> tuple[np.ndarray, np.ndarray]:
        return cartesian_decomp(self.a)

    @cached_property
    def omega(self) -> RadiusEstimate:
        return numerical_radius(self.a, self.cfg)

    @cached_property
    def quad_product(self) -> np.ndarray:
        """(A* - A)^2 (A* + A)^2, the factors formed inside the gate too."""

        def product():
            d, s = self.ah - self.a, self.ah + self.a
            return d @ d @ s @ s

        return _finite("(A* - A)^2 (A* + A)^2", product)

    @cached_property
    def omega_quad(self) -> RadiusEstimate:
        return numerical_radius(self.quad_product, self.cfg)

    @cached_property
    def c2b2(self) -> np.ndarray:
        b, c = self.cartesian
        return _finite("C^2 B^2", lambda: c @ c @ b @ b)

    @cached_property
    def omega_c2b2(self) -> RadiusEstimate:
        return numerical_radius(self.c2b2, self.cfg)

    @cached_property
    def abs_diff_sq_min(self) -> float:
        """m((|A| - |A*|)^2), the smallest eigenvalue of the squared gap."""
        d = np.subtract(*self.abs_pair)
        return float(herm_eigen(_hermitize(d @ d)).eigenvalues[0])


def _ctx(a) -> MatrixContext:
    """``a`` itself when it is a MatrixContext, which carries its own cfg;
    otherwise a context with the default cfg."""
    return a if isinstance(a, MatrixContext) else MatrixContext(a)


def eval_chain_b0(a) -> ChainReport:
    """||A||/2 <= w(A) <= ||A||."""
    c = _ctx(a)
    return _chain("B0", lambda w: (0.5 * c.norm, w, c.norm), c.omega)


def eval_bound_kit(a) -> BoundReport:
    """w(A) <= || |A| + |A*| || / 2."""
    c = _ctx(a)
    # halved first, as half_norm_plus is: the sum cannot overflow, and
    # operator_norm names the norm if it does
    rhs = operator_norm(0.5 * c.abs_pair[0] + 0.5 * c.abs_pair[1], "|| |A| + |A*| || / 2")
    return _bound("KIT", lambda w: (w, rhs), c.omega)


def eval_chain_sq(a) -> ChainReport:
    """|| |A|^2 + |A*|^2 || / 4 <= w(A)^2 <= || |A|^2 + |A*|^2 || / 2."""
    c = _ctx(a)
    return _chain("SQ", lambda w: (0.25 * c.gram_norm, w ** 2, 0.5 * c.gram_norm), c.omega)


def eval_bound_lem1(a, sign: int) -> BoundReport:
    """||A + sign A*|| / 2 <= w(A) for sign in {+1, -1}."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    c = _ctx(a)
    lhs = c.half_norm_plus if sign == 1 else c.half_norm_minus
    return _bound("LEM1+" if sign == 1 else "LEM1-", lambda w: (lhs, w), c.omega)


def eval_chain_t1(a) -> ChainReport:
    """|| |A|^2+|A*|^2 ||/4 <= (||A+A*||^2 + ||A-A*||^2)/8 <= w(A)^2."""
    c = _ctx(a)
    gram = c.gram_norm  # first, so an overflowing A*A + AA* is named before the middle term
    # (p^2 + m^2) / 2 for the half-norms p, m: at most gram / 2 up to rounding
    squares = lambda: (np.float64(c.half_norm_plus) ** 2 + np.float64(c.half_norm_minus) ** 2) / 2
    mid = float(_finite("(||A+A*||^2 + ||A-A*||^2)/8", squares))
    return _chain("T1", lambda w: (0.25 * gram, mid, w ** 2), c.omega)


def eval_lemma_norm_sum(a, b, cfg: RadiusConfig | None = None) -> BoundReport:
    """||A + B|| <= sqrt(||A*A + B*B|| + 2 w(B*A))."""
    ma = as_square(a)
    mb = as_square(b)
    if ma.shape != mb.shape:
        raise ValueError(f"operands must share a shape, got {ma.shape} and {mb.shape}")
    lhs = operator_norm(ma + mb)
    gram = operator_norm(_hermitize(ma.conj().T @ ma + mb.conj().T @ mb))
    west = numerical_radius(mb.conj().T @ ma, cfg)
    return _bound("LEM-SUM", lambda w: (lhs, math.sqrt(gram + 2.0 * w)), west)


def cartesian_radius_pair(a, cfg: RadiusConfig | None = None) -> tuple[RadiusEstimate, RadiusEstimate]:
    """Enclosures of w(C^2 B^2) and w((A*-A)^2 (A*+A)^2) of the matrix ``a``
    (not a MatrixContext, which has its own cfg); the first equals one
    sixteenth of the second in exact arithmetic."""
    c = MatrixContext(a, cfg)
    return c.omega_c2b2, c.omega_quad


def eval_chain_t2(a) -> ChainReport:
    """|| |A|^2+|A*|^2 ||/4 <= sqrt(2 w(A)^4 + w((A*-A)^2(A*+A)^2)/8)/2 <= w(A)^2.

    Also cross-checks (A*-A)^2 (A*+A)^2 = -16 C^2 B^2 through the Cartesian
    split, on the matrices themselves, and raises :class:`IdentityCheckError`
    if the residual norm exceeds tolerance.  Since |w(X) - w(Y)| <= ||X - Y||,
    this implies w(C^2 B^2) = w((A*-A)^2 (A*+A)^2) / 16 without a third
    enclosure."""
    c = _ctx(a)
    gap = operator_norm(c.quad_product + 16.0 * c.c2b2)
    allow = default_tolerance(operator_norm(c.quad_product))
    if gap > allow:
        raise IdentityCheckError(
            f"||(A*-A)^2(A*+A)^2 + 16 C^2B^2|| = {gap:.3e} above {allow:.3e}"
        )

    def terms(w, wq):
        quarter = 0.25 * c.gram_norm  # first, so an overflowing A*A + AA* is named first
        inner = _finite(
            "2 w(A)^4 + w((A*-A)^2 (A*+A)^2)/8",
            lambda: 2.0 * np.float64(w) ** 4 + np.float64(wq) / 8.0,
        )
        return quarter, 0.5 * math.sqrt(inner), w ** 2

    return _chain("T2", terms, c.omega, c.omega_quad)


def eval_lemma_pos_diff(p, q, cfg: RadiusConfig | None = None) -> BoundReport:
    """||P - Q|| <= max(||P||, ||Q||) - min(m(P), m(Q)) for PSD P, Q.

    Operands must be Hermitian with smallest eigenvalue >= -tolerance; small
    negative eigenvalues inside the gate are clipped to zero.  No radius is
    enclosed, so ``cfg`` is unused; it stays so both two-matrix lemmas take
    the same arguments."""
    ep = herm_eigen(p)
    eq = herm_eigen(q)
    if ep.eigenvalues.size != eq.eigenvalues.size:
        raise ValueError("operands must share a dimension")
    scale = max(
        float(np.abs(ep.eigenvalues).max()), float(np.abs(eq.eigenvalues).max())
    )
    tol = default_tolerance(scale)
    wmin = min(float(ep.eigenvalues[0]), float(eq.eigenvalues[0]))
    if wmin < -tol:
        raise NotPositiveError(f"smallest eigenvalue {wmin:.3e} below -{tol:.3e}")
    wp = np.maximum(ep.eigenvalues, 0.0)
    wq = np.maximum(eq.eigenvalues, 0.0)
    pc = from_spectrum(ep.eigenvectors, wp)
    qc = from_spectrum(eq.eigenvectors, wq)
    lhs = operator_norm(pc - qc)
    rhs = max(float(wp[-1]), float(wq[-1])) - min(float(wp[0]), float(wq[0]))
    return _bound("LEM-POSDIFF", lambda: (lhs, rhs))


def eval_bound_t3(a) -> BoundReport:
    """w(A)^2 <= || (|A|^2 + |A*|^2) / 2 || - m( ((|A| - |A*|)/2)^2 ).

    The form the surrounding chain results support; tight on the 2x2 Jordan
    block (both sides 1/4)."""
    c = _ctx(a)
    rhs = 0.5 * c.gram_norm - 0.25 * c.abs_diff_sq_min
    return _bound("T3", lambda w: (w ** 2, rhs), c.omega)


def eval_bound_t3_printed(a) -> BoundReport:
    """Diagnostic variant: w(A)^2 <= ( || |A|^2+|A*|^2 || - m((|A|-|A*|)^2) ) / 2.

    Halving the subtracted minimum together with the norm makes the statement
    false in general; the 2x2 Jordan block gives lhs 0.25 against rhs 0.
    Violations are reported normally and are exempt from process exit codes."""
    c = _ctx(a)
    rhs = 0.5 * (c.gram_norm - c.abs_diff_sq_min)
    return _bound("T3-PRINTED", lambda w: (w ** 2, rhs), c.omega)


def eval_functional_chain(a, fp: FunctionPair) -> ChainReport:
    """f(w(A)) <= || g^{-1}( (g(f(|A|)) + g(f(|A*|))) / 2 ) || <= || f(|A|) + f(|A*|) || / 2.

    Matrix functions go through the singular spectrum of A; the midpoint
    matrix gets its own spectral decomposition for g^{-1}.  With the identity
    pair the chain collapses to KIT."""
    c = _ctx(a)
    gof = lambda x: fp.g(fp.f(x))
    # halving before adding keeps a representable mean finite
    x_mid = np.add(*(0.5 * m for m in c.f_abs(gof)))
    mid = operator_norm(apply_herm_fn(x_mid, fp.g_inverse))
    right = operator_norm(np.add(*(0.5 * m for m in c.f_abs(fp.f))))

    def terms(w):
        return _finite("f(w(A))", lambda: np.float64(fp.f(np.float64(w)))), mid, right

    return _chain("FUNC", terms, c.omega)


def eval_chain_cor(a, r: float = 2.0) -> ChainReport:
    """w(A)^r <= || S + I - sqrt(2 S + I) || / 2 <= || |A|^r + |A*|^r || / 2
    with S = |A|^r + |A*|^r + |A|^{r/2} + |A*|^{r/2} and r >= 2.

    The middle term is assembled literally (matrix powers, explicit square
    root of 2S + I, matrix subtraction) and asserted equal, within tolerance,
    to the middle of the functional chain for the pair (x^r, x + sqrt(x));
    disagreement raises :class:`IdentityCheckError`.  The functional chain
    comes from the context's memo, which FUNC at the same exponent shares."""
    r = _exponent(r)
    c = _ctx(a)
    pw = lambda x: x ** r + x ** (r / 2.0)
    eye = np.eye(c.a.shape[0])

    def sums():
        s = np.add(*c.f_abs(pw))
        return s, 2.0 * s + eye

    s_mat, twice = _finite("2S + I, S = |A|^r+|A*|^r+|A|^{r/2}+|A*|^{r/2}", sums)
    root = apply_herm_fn(twice, np.sqrt)
    mid = 0.5 * operator_norm(s_mat + eye - root)

    func = c.functional_chain(r)
    tol_mid = default_tolerance(mid, func.terms[1])
    if abs(mid - func.terms[1]) > tol_mid:
        raise IdentityCheckError(
            f"corollary middle {mid!r} disagrees with functional middle "
            f"{func.terms[1]!r} beyond {tol_mid:.3e}"
        )
    # FUNC's right-hand term is || |A|^r + |A*|^r || / 2 for this pair, and
    # its left-hand term is w(A)^r, already checked finite at both ends
    return _chain("COR", lambda w: (w ** r, mid, func.terms[2]), c.omega)


@dataclass(frozen=True)
class CatalogEntry:
    """One registry entry.

    ``evaluator(ctx)`` checks the entry on a :class:`MatrixContext`, or
    ``evaluator(ctx, r)`` with ``r`` the exponent when ``takes_r``; the
    arity-2 lemmas have none.  Violations of a ``diagnostic`` entry never
    drive a process exit code and keep it out of the default study list."""

    bound_id: str
    description: str
    arity: int
    evaluator: Callable | None = None
    diagnostic: bool = False
    takes_r: bool = False


_CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("B0", "||A||/2 <= w(A) <= ||A||", 1, eval_chain_b0),
    CatalogEntry("KIT", "w(A) <= || |A| + |A*| || / 2", 1, eval_bound_kit),
    CatalogEntry("SQ", "|| |A|^2+|A*|^2 ||/4 <= w(A)^2 <= || |A|^2+|A*|^2 ||/2", 1, eval_chain_sq),
    CatalogEntry("LEM1+", "||A + A*||/2 <= w(A)", 1, partial(eval_bound_lem1, sign=1)),
    CatalogEntry("LEM1-", "||A - A*||/2 <= w(A)", 1, partial(eval_bound_lem1, sign=-1)),
    CatalogEntry(
        "T1",
        "|| |A|^2+|A*|^2 ||/4 <= (||A+A*||^2 + ||A-A*||^2)/8 <= w(A)^2",
        1,
        eval_chain_t1,
    ),
    CatalogEntry("LEM-SUM", "||A+B|| <= sqrt(||A*A + B*B|| + 2 w(B*A))", 2),
    CatalogEntry(
        "T2",
        "|| |A|^2+|A*|^2 ||/4 <= sqrt(2 w(A)^4 + w((A*-A)^2(A*+A)^2)/8)/2 <= w(A)^2",
        1,
        eval_chain_t2,
    ),
    CatalogEntry(
        "LEM-POSDIFF", "||P - Q|| <= max(||P||,||Q||) - min(m(P), m(Q)) for PSD P, Q", 2
    ),
    CatalogEntry("T3", "w(A)^2 <= || (|A|^2+|A*|^2)/2 || - m(((|A|-|A*|)/2)^2)", 1, eval_bound_t3),
    CatalogEntry(
        "T3-PRINTED",
        "w(A)^2 <= (|| |A|^2+|A*|^2 || - m((|A|-|A*|)^2))/2  [diagnostic, fails on the Jordan block]",
        1,
        eval_bound_t3_printed,
        diagnostic=True,
    ),
    CatalogEntry(
        "FUNC",
        "f(w(A)) <= || g^{-1}((g(f(|A|)) + g(f(|A*|)))/2) || <= || f(|A|)+f(|A*|) ||/2",
        1,
        MatrixContext.functional_chain,
        takes_r=True,
    ),
    CatalogEntry(
        "COR",
        "w(A)^r <= || S + I - sqrt(2S+I) ||/2 <= || |A|^r+|A*|^r ||/2, "
        "S = |A|^r+|A*|^r+|A|^{r/2}+|A*|^{r/2}",
        1,
        eval_chain_cor,
        takes_r=True,
    ),
)

_BY_ID = {entry.bound_id: entry for entry in _CATALOG}


def catalog_list() -> tuple[CatalogEntry, ...]:
    """The 13 registry entries, in catalog order."""
    return _CATALOG


def parse_bound_id(token: str) -> tuple[str, float | None]:
    """Split an id token like ``COR:3`` into base id and optional exponent."""
    base, sep, suffix = token.partition(":")
    if base not in _BY_ID:
        valid = ", ".join(entry.bound_id for entry in _CATALOG)
        raise ValueError(f"unknown bound id {token!r}; valid ids: {valid}")
    r = None
    if sep:
        try:
            r = float(suffix)
        except ValueError:
            raise ValueError(f"bad exponent suffix in {token!r}") from None
        if not _BY_ID[base].takes_r:
            raise ValueError(f"bound {base} takes no exponent suffix")
        _exponent(r)
    return base, r


def resolve_bound_id(token: str, r: float = 2.0) -> tuple[CatalogEntry, tuple[float, ...]]:
    """The single-matrix registry entry an id token such as ``COR:3`` names,
    and the arguments its evaluator takes after the context: the exponent,
    from the suffix or else ``r``, when the entry takes one.  Raises
    ValueError for an unknown id, a bad exponent or an arity-2 lemma."""
    base, suffix_r = parse_bound_id(token)
    entry = _BY_ID[base]
    if entry.evaluator is None:
        raise ValueError(f"bound {base} needs two matrices")
    if not entry.takes_r:
        return entry, ()
    return entry, (suffix_r if suffix_r is not None else _exponent(r),)


def evaluate(token: str, a, *, r: float = 2.0):
    """Evaluate a single-matrix catalog entry by id on a matrix or a
    :class:`MatrixContext` (``COR:3`` style suffixes override the exponent)."""
    entry, args = resolve_bound_id(token, r)
    return entry.evaluator(_ctx(a), *args)


def summary_row(report) -> tuple[float, float, float, bool]:
    """(lhs, rhs, slack, violated) of a report on one line: a chain shows its
    binding link (the smallest slack) and is violated if any link is."""
    link = report
    if isinstance(report, ChainReport):
        link = min(report.links, key=lambda link: link.slack)
    return link.lhs, link.rhs, link.slack, report.violated


def report_dict(token: str, report) -> dict:
    """JSON-ready form of a report, filed under the id token that asked for it."""
    if isinstance(report, ChainReport):
        return {
            "bound_id": token,
            "kind": "chain",
            "terms": list(report.terms),
            "links": [dataclasses.asdict(link) for link in report.links],
            "violated": report.violated,
        }
    fields = dataclasses.asdict(report)
    del fields["bound_id"]
    return {"bound_id": token, "kind": "bound", **fields}


# The registry-cased name tests/test_acceptance.py imports.
eval_bound_T3_printed = eval_bound_t3_printed
