"""Seeded random-matrix families and ensemble studies of the bound catalog.

Families are generated from ``numpy.random.default_rng`` seeded with the
sequence ``[seed, family_code, dimension, index]``, so any single draw can be
reproduced without replaying the ones before it and two families never share
a stream.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import bounds
from .linalg import ConvergenceError, DomainError, _hermitize
from .matio import g17, json_encode
from .radius import _SEED_MASK, EnclosureNotReached, RadiusConfig

_FAMILY_CODES = {
    "ginibre": 1,
    "gue": 2,
    "nilpotent-shift-random": 3,
    "normal": 4,
    "real-gaussian": 5,
    "rank1": 6,
    "hermitian-psd": 7,
}

FAMILIES = tuple(_FAMILY_CODES)

MAX_DIMENSION = 512
MAX_COUNT = 10 ** 6

TIGHT_REL = 1e-6


def is_tight(slack: float, rhs: float) -> bool:
    """Whether a report's slack is within ``TIGHT_REL * max(1, |rhs|)`` of 0."""
    return abs(slack) <= TIGHT_REL * max(1.0, abs(rhs))


@dataclass(frozen=True)
class EnsembleSpec:
    """A reproducible batch: ``count`` draws of one family at one size."""

    family: str
    dimension: int
    count: int
    seed: int = 0

    def __post_init__(self):
        if self.family not in _FAMILY_CODES:
            valid = ", ".join(FAMILIES)
            raise ValueError(f"unknown family {self.family!r}; valid families: {valid}")
        if not 1 <= int(self.dimension) <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}")
        if not 1 <= int(self.count) <= MAX_COUNT:
            raise ValueError(f"count must be in 1..{MAX_COUNT}")


def _complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _haar_unitary(rng, n: int) -> np.ndarray:
    # QR of a complex Gaussian, with R's diagonal phases folded into Q so the
    # distribution is exactly Haar rather than QR-convention dependent
    q, r = np.linalg.qr(_complex_gaussian(rng, (n, n)))
    d = np.diagonal(r)
    absd = np.abs(d)
    safe = np.where(absd > 0, absd, 1.0)
    phases = np.where(absd > 0, d / safe, 1.0)
    return q * phases


def generate(spec: EnsembleSpec, index: int) -> np.ndarray:
    """Draw number ``index`` (0-based) of the batch, independent of the rest."""
    if not 0 <= index < spec.count:
        raise IndexError(f"index {index} outside 0..{spec.count - 1}")
    n = spec.dimension
    rng = np.random.default_rng(
        [spec.seed & _SEED_MASK, _FAMILY_CODES[spec.family], n, index]
    )
    if spec.family == "ginibre":
        return _complex_gaussian(rng, (n, n))
    if spec.family == "gue":
        return _hermitize(_complex_gaussian(rng, (n, n)))
    if spec.family == "nilpotent-shift-random":
        return np.triu(_complex_gaussian(rng, (n, n)), 1)
    if spec.family == "normal":
        u = _haar_unitary(rng, n)
        vals = _complex_gaussian(rng, n)
        return (u * vals) @ u.conj().T
    if spec.family == "real-gaussian":
        return rng.standard_normal((n, n)).astype(np.complex128)
    if spec.family == "rank1":
        u = _complex_gaussian(rng, n)
        v = _complex_gaussian(rng, n)
        return np.outer(u, v.conj())
    if spec.family == "hermitian-psd":
        g = _complex_gaussian(rng, (n, n))
        return _hermitize(g.conj().T @ g)
    raise AssertionError(f"unhandled family {spec.family}")


def matrices(spec: EnsembleSpec):
    """Iterate the whole batch in index order."""
    for index in range(spec.count):
        yield generate(spec, index)


@dataclass(frozen=True)
class StudyRow:
    """One bound on one draw.  For a chain this is its binding link (the
    smallest slack); ``violated`` is true if any link failed."""

    index: int
    bound_id: str
    lhs: float
    rhs: float
    slack: float
    violated: bool


@dataclass(frozen=True)
class StudyReport:
    spec: EnsembleSpec
    bound_ids: tuple[str, ...]
    rows: tuple[StudyRow, ...]
    failures: tuple[tuple[int, str], ...]
    violations: tuple[StudyRow, ...]
    slack_stats: dict
    tight_fraction: float
    elapsed_seconds: float


def _rel_slack(row: StudyRow) -> float:
    return row.slack / max(1.0, abs(row.rhs))


# Failures that end one draw; the study records them and moves on.
_DRAW_FAILURES = (
    ConvergenceError,
    EnclosureNotReached,
    np.linalg.LinAlgError,
    bounds.IdentityCheckError,
    DomainError,
    bounds.HypothesisFailed,
    bounds.NotPositiveError,
)


def run_study(
    spec: EnsembleSpec,
    bound_ids: tuple[str, ...] | list[str],
    cfg: RadiusConfig | None = None,
    r: float = 2.0,
) -> StudyReport:
    """Evaluate the given catalog entries on every draw of the batch.

    ``r`` is the exponent for COR/FUNC ids given without a ``:r`` suffix.
    Draws where a decomposition fails to certify, the radius enclosure
    cannot reach its target, or a catalog entry rejects the matrix (identity
    cross-check, function domain, hypothesis or positivity gate) are recorded
    under ``failures`` and skipped; a violated bound is data, not a failure.
    """
    cfg = cfg or RadiusConfig()
    tokens = tuple(bound_ids)
    if not tokens:
        raise ValueError("bound_ids must name at least one catalog entry")
    for token in tokens:
        bounds.resolve_bound_id(token, r)  # before any draw, so no draw failure can hide it

    start = time.perf_counter()
    rows: list[StudyRow] = []
    failures: list[tuple[int, str]] = []
    for index in range(spec.count):
        a = generate(spec, index)
        ctx = bounds.MatrixContext(a, cfg)
        try:
            draw = []
            for token in tokens:
                report = bounds.evaluate(token, ctx, r=r)
                draw.append(StudyRow(index, token, *bounds.summary_row(report)))
        except _DRAW_FAILURES as exc:
            failures.append((index, repr(exc)))
            continue
        rows.extend(draw)
    elapsed = time.perf_counter() - start

    violations = tuple(r for r in rows if r.violated)
    rels = [_rel_slack(r) for r in rows]
    if rels:
        stats = {
            "min": float(min(rels)),
            "median": float(np.median(rels)),
            "max": float(max(rels)),
        }
        tight = sum(1 for r in rows if is_tight(r.slack, r.rhs)) / len(rows)
    else:
        stats = {"min": 0.0, "median": 0.0, "max": 0.0}
        tight = 0.0
    return StudyReport(
        spec=spec,
        bound_ids=tokens,
        rows=tuple(rows),
        failures=tuple(failures),
        violations=violations,
        slack_stats=stats,
        tight_fraction=float(tight),
        elapsed_seconds=float(elapsed),
    )


def to_csv(report: StudyReport) -> str:
    """Per-row table, fully determined by the seeds (no timing column)."""
    lines = ["index,bound_id,lhs,rhs,slack,violated"]
    for r in report.rows:
        flag = "true" if r.violated else "false"
        lines.append(
            f"{r.index},{r.bound_id},{g17(r.lhs)},{g17(r.rhs)},{g17(r.slack)},{flag}"
        )
    return "\n".join(lines) + "\n"


def to_json(report: StudyReport) -> str:
    obj = {
        "family": report.spec.family,
        "dimension": report.spec.dimension,
        "count": report.spec.count,
        "bound_ids": list(report.bound_ids),
        "rows": [asdict(r) for r in report.rows],
        "failures": [{"index": i, "error": msg} for i, msg in report.failures],
        "violations": [
            {k: getattr(r, k) for k in ("index", "bound_id", "lhs", "rhs")}
            for r in report.violations
        ],
        "slack_stats": report.slack_stats,
        "tight_fraction": report.tight_fraction,
        "elapsed_seconds": report.elapsed_seconds,
        "seeds_used": [report.spec.seed],
    }
    return json_encode(obj) + "\n"


def tightness_compare(a, cfg: RadiusConfig | None = None) -> dict:
    """Compare every lower and upper refinement of w(A)^2 on the matrix ``a``
    (not a MatrixContext, which has its own cfg).

    Returns the squared radius, the candidate bounds on its either side, and
    which candidate is sharpest (largest lower, smallest upper)."""
    ctx = bounds.MatrixContext(a, cfg)
    rep = {bid: bounds.evaluate(bid, ctx) for bid in ("B0", "SQ", "T1", "T2", "T3", "KIT")}
    lower = {
        "B0": rep["B0"].terms[0] ** 2,
        "SQ": rep["SQ"].terms[0],
        "T1": rep["T1"].terms[1],
        "T2": rep["T2"].terms[1],
    }
    upper = {
        "SQ": rep["SQ"].terms[2],
        "T3": rep["T3"].rhs,
        "KIT": rep["KIT"].rhs ** 2,
    }
    return {
        "omega_sq": rep["SQ"].terms[1],
        "lower_bounds_sq": lower,
        "upper_bounds_sq": upper,
        "sharpest_lower": max(lower, key=lower.get),
        "sharpest_upper": min(upper, key=upper.get),
    }
