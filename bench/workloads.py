"""The three benchmark workloads: their inputs, their operations and the
independent oracle that checks every operation's output.

A workload is a fixed *cycle* of operations built from the seed at set-up.
Operations run in cycle order; timing is kept per slot of the cycle, so a
run that stops part-way through a cycle still reports the cost of the whole
mix.  Every function that belongs to numrad is looked up on its module at
call time, so the traced run sees calls through the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import numrad.cli
import numrad.ensembles
import numrad.radius

# Oracles run on numpy's own routines, captured before any tracing wraps them.
_eigvals = np.linalg.eigvals
_eigvalsh = np.linalg.eigvalsh
_svd = np.linalg.svd

STUDY_FAMILIES = ("ginibre", "gue", "nilpotent-shift-random", "normal", "rank1")
STUDY_DIMS = (2, 3, 5, 8, 13, 20)
# The criterion-3 bound list; none of these ids is diagnostic.
STUDY_IDS = ("B0", "KIT", "SQ", "LEM1+", "LEM1-", "T1", "T2", "T3", "FUNC", "COR:2", "COR:3")
# Draws per (family, dim) cell in one cycle.  The dim-2 nilpotent cell takes
# the disk path, whose cost jumps with |z|; several draws per cell keep the
# cycle's cost nearly the same for every seed.
STUDY_DRAWS = 4

LARGE_FAMILIES = ("ginibre", "nilpotent-shift-random", "gue", "normal")
LARGE_DIMS = (32, 64, 128)

DISK_DIMS = (2, 3, 5, 8, 13)
DISK_NILPOTENT_DRAWS = 2

SMOKE = {
    "study_dims": (2, 3),
    "study_draws": 1,
    "large_dims": (12,),
    "disk_dims": (2, 3),
    "disk_nilpotent_draws": 1,
}

# Slack for comparisons against an exact or independently computed value:
# the enclosure's own rounding is far below this, its target width far above.
ORACLE_RTOL = 1e-12


@dataclass
class Op:
    """One operation: ``run`` does the work that is timed; ``check`` returns
    what the result failed (empty when correct): ``oracle:<check>`` labels,
    or the class names of the failures a study recorded."""

    slot: str
    run: Callable[[], object]
    check: Callable[[object], list]
    prepare: Callable[[], None] = lambda: None


@dataclass
class Workload:
    warmup: Op
    cycle: list


def _complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _contains(lower: float, upper: float, exact: float, scale: float) -> bool:
    tol = ORACLE_RTOL * max(1.0, scale)
    return lower - tol <= exact <= upper + tol


# --- study-mix --------------------------------------------------------------


def _study_op(family: str, dim: int, seed: int) -> Op:
    spec = numrad.ensembles.EnsembleSpec(family, dim, 1, seed)

    def run():
        return numrad.ensembles.run_study(spec, STUDY_IDS)

    def check(report) -> list:
        bad = [msg.partition("(")[0] for _, msg in report.failures]
        if report.violations:
            bad.append("oracle:violation")
        if not report.failures and len(report.rows) != len(STUDY_IDS):
            bad.append("oracle:missing-rows")
        return bad

    return Op(f"{family}/{dim}", run, check)


def study_mix(seed: int, workdir: str, smoke: bool = False) -> Workload:
    dims = SMOKE["study_dims"] if smoke else STUDY_DIMS
    draws = SMOKE["study_draws"] if smoke else STUDY_DRAWS
    # draw k of every cell uses ensemble seed seed * 2**16 + k, so cells and
    # seeds never share a stream
    cycle = [
        _study_op(family, dim, seed * 65536 + k)
        for k in range(draws)
        for dim in dims
        for family in STUDY_FAMILIES
    ]
    warmup = _study_op("ginibre", 5, seed * 65536 + draws)
    return Workload(warmup, cycle)


# --- enclose-large ------------------------------------------------------------


def _large_matrix(family: str, n: int, rng) -> np.ndarray:
    if family == "ginibre":
        return _complex_gaussian(rng, (n, n))
    if family == "nilpotent-shift-random":
        return np.triu(_complex_gaussian(rng, (n, n)), 1)
    if family == "gue":
        g = _complex_gaussian(rng, (n, n))
        return 0.5 * (g + g.conj().T)
    if family == "normal":
        q, r = np.linalg.qr(_complex_gaussian(rng, (n, n)))
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        return (u * _complex_gaussian(rng, n)) @ u.conj().T
    raise ValueError(f"unknown family {family!r}")


def _write_matrix_market(path: str, a: np.ndarray) -> None:
    """Column-major ``array complex general`` with 17 significant digits, so
    the file round-trips every entry exactly."""
    lines = ["%%MatrixMarket matrix array complex general", f"{a.shape[0]} {a.shape[1]}"]
    lines.extend(f"{z.real:.17g} {z.imag:.17g}" for z in a.T.reshape(-1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cli_op(family: str, n: int, seed: int, workdir: str) -> Op:
    code = LARGE_FAMILIES.index(family) + 1
    a = _large_matrix(family, n, np.random.default_rng([seed, code, n]))
    src = os.path.join(workdir, f"{family}-{n}.mtx")
    out = os.path.join(workdir, f"{family}-{n}.json")
    _write_matrix_market(src, a)
    norm = float(_svd(a, compute_uv=False)[0])
    # normal and Hermitian matrices have w(A) equal to the spectral radius
    exact = float(np.abs(_eigvals(a)).max()) if family in ("gue", "normal") else None
    argv = ["radius", "--input", src, "--output", "json", "--out", out]

    def prepare():
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)

    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = numrad.cli.main(argv)
        return status, stdout.getvalue()

    def check(result) -> list:
        status, printed = result
        if status != 0:
            return [f"oracle:exit-{status}"]
        if printed != f"wrote {out}\n":
            return ["oracle:stdout"]
        try:
            with open(out, encoding="utf-8") as fh:
                est = json.load(fh)
            lower, upper = float(est["lower"]), float(est["upper"])
        except (OSError, ValueError, KeyError, TypeError):
            return ["oracle:json"]
        bad = []
        if upper - lower > 1e-9 * max(1.0, norm):
            bad.append("oracle:width")
        if not (0.5 * norm <= upper and lower <= norm * (1.0 + ORACLE_RTOL)):
            bad.append("oracle:norm-bounds")
        if exact is not None and not _contains(lower, upper, exact, norm):
            bad.append("oracle:spectral-radius")
        return bad

    return Op(f"{family}/{n}", run, check, prepare)


def enclose_large(seed: int, workdir: str, smoke: bool = False) -> Workload:
    dims = SMOKE["large_dims"] if smoke else LARGE_DIMS
    cycle = [_cli_op(family, n, seed, workdir) for n in dims for family in LARGE_FAMILIES]
    return Workload(cycle[0], cycle)


# --- enclose-disk -------------------------------------------------------------


def _weighted_shift(weights: np.ndarray) -> np.ndarray:
    n = weights.size + 1
    a = np.zeros((n, n), dtype=np.complex128)
    a[np.arange(n - 1), np.arange(1, n)] = weights
    return a


def _shift_radius(weights: np.ndarray) -> float:
    """w of a weighted shift: lambda_max of the real tridiagonal matrix with
    off-diagonals |w_k|/2, since a diagonal unitary maps the shift onto it."""
    n = weights.size + 1
    t = np.zeros((n, n))
    i = np.arange(n - 1)
    t[i, i + 1] = t[i + 1, i] = np.abs(weights) / 2.0
    return float(_eigvalsh(t)[-1])


def _radius_op(slot: str, a: np.ndarray, exact: float) -> Op:
    norm = float(_svd(a, compute_uv=False)[0])

    def run():
        return numrad.radius.numerical_radius(a)

    def check(est) -> list:
        return [] if _contains(est.lower, est.upper, exact, norm) else ["oracle:exact-radius"]

    return Op(slot, run, check)


def enclose_disk(seed: int, workdir: str, smoke: bool = False) -> Workload:
    dims = SMOKE["disk_dims"] if smoke else DISK_DIMS
    draws = SMOKE["disk_nilpotent_draws"] if smoke else DISK_NILPOTENT_DRAWS
    rng = np.random.default_rng([seed, 7])
    cycle = []
    for n in dims:
        # Random complex weights, scaled so that w(A) = rho in [0.25, 0.5].
        # Then ||A|| <= 2 rho <= 1, the target width is the absolute 1e-9 and
        # every seed refines to the same grid, so the cost per slot is fixed.
        w = _complex_gaussian(rng, n - 1)
        w *= rng.uniform(0.25, 0.5) / _shift_radius(w)
        cycle.append(_radius_op(f"shift/{n}", _weighted_shift(w), _shift_radius(w)))
    for n in dims:
        # c J_n with |c| in [1, 2]: w = |c| cos(pi / (n + 1)) exactly
        c = rng.uniform(1.0, 2.0) * np.exp(2j * np.pi * rng.uniform())
        exact = abs(c) * math.cos(math.pi / (n + 1))
        cycle.append(_radius_op(f"jordan/{n}", _weighted_shift(np.full(n - 1, c)), exact))
    for k in range(draws):
        # a dim-2 nilpotent-shift-random draw [[0, z], [0, 0]]: w = |z| / 2
        z = _complex_gaussian(rng, 1)
        cycle.append(_radius_op(f"nilpotent/2#{k}", _weighted_shift(z), _shift_radius(z)))
    return Workload(cycle[0], cycle)


WORKLOADS = {
    "study-mix": study_mix,
    "enclose-large": enclose_large,
    "enclose-disk": enclose_disk,
}
