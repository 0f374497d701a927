#!/usr/bin/env python3
"""Write numrad's user-visible outputs on fixed inputs to a directory and
print one sha256 per file, so two checkouts can be compared byte for byte.

A refactor that must not change any output runs this on both checkouts and
compares the printed lines (or ``diff -r`` the two directories):

    PYTHONPATH=src python3 scripts/output_fingerprint.py OUTDIR

or lets the script do both runs and the comparison in one command:

    python3 scripts/output_fingerprint.py --against REV

which extracts ``git archive REV src`` into a temporary directory, runs this
same script (and so the same ``bench/workloads.py`` inputs) once with
``PYTHONPATH`` at that ``src`` and once at the working tree's, prints every
path whose digest differs or that only one side wrote, and exits 1 if there
is one, else 0.

Covered: study CSV and failures for every family at dims 2/5/13 with the
default and the ``COR:3,FUNC:3`` id lists; ``bounds --bounds all`` in json,
csv and human on the 2x2 Jordan block and a seeded 6x6 ginibre draw;
``radius --output json`` on the 12 seed-1 ``enclose-large`` inputs of
``bench/workloads.py``; every field of the ``numerical_radius`` estimates of
the seed-1 smoke ``enclose-disk`` cycle (disk-shaped ranges, where no
interval is ever pruned); the two-matrix lemmas and ``tightness_compare``.
Through the CLI as well: ``radius`` in human and csv, and ``bounds --bounds
B0,T3-PRINTED,COR:3,FUNC --r 2.5`` in all three formats, on the Jordan block
and the ginibre draw; ``study`` in human and json on ginibre and nilpotent
draws (``elapsed_seconds`` masked);
``catalog`` in all three formats; the exit status and standard error of a
missing input file, an unknown bound id, an unknown family, ``bounds --r
inf`` and ``study --r nan``.  The
non-default ``RadiusConfig`` path as well: ``evaluate`` of every arity-1 id
plus ``COR:3`` and ``FUNC:3`` on a ``MatrixContext`` built with
``CONTEXT_CFG``, and ``tightness_compare`` and every field of the
``cartesian_radius_pair`` enclosures under that cfg, on the Jordan block and
the ginibre draw.
"""

import os

# One BLAS thread, set before numpy loads, so LAPACK results do not depend
# on the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import pathlib
import re
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
# numrad from PYTHONPATH when it is set, else from this checkout's src
sys.path.append(str(ROOT / "src"))

import workloads  # noqa: E402  (bench/workloads.py)
from numrad import bounds, cli, ensembles, matio  # noqa: E402
from numrad.radius import RadiusConfig  # noqa: E402

STUDY_IDS = (cli.STUDY_DEFAULT_BOUNDS, ("COR:3", "FUNC:3"))
STUDY_DIMS = (2, 5, 13)
SUBSET_IDS = "B0,T3-PRINTED,COR:3,FUNC"
CONTEXT_CFG = RadiusConfig(target_width=1e-6)
CONTEXT_IDS = [e.bound_id for e in bounds.catalog_list() if e.arity == 1] + ["COR:3", "FUNC:3"]
# (family, dim, count, seed) of the `numrad study` runs
STUDY_CLI_RUNS = (
    ("ginibre", "4", "3", "2"),
    ("nilpotent-shift-random", "3", "3", "2"),
)


def _cli(argv) -> str:
    """Exit status and standard error of an in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return f"exit {status}\n{err.getvalue()}"


def _estimate_text(est) -> str:
    """Every field of a RadiusEstimate, the witness as its raw bytes."""
    fields = (est.lower, est.upper, est.theta_star, est.grid_points, est.refinement_iters)
    return "".join(f"{v!r}\n" for v in fields) + est.witness.tobytes().hex() + "\n"


def write_outputs(out: pathlib.Path) -> None:
    for family in ensembles.FAMILIES:
        for dim in STUDY_DIMS:
            for k, ids in enumerate(STUDY_IDS):
                spec = ensembles.EnsembleSpec(family, dim, 3, seed=dim)
                rep = ensembles.run_study(spec, ids)
                stem = out / f"study-{family}-{dim}-{k}"
                stem.with_suffix(".csv").write_text(ensembles.to_csv(rep))
                stem.with_suffix(".failures").write_text(repr(rep.failures))

    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    ginibre = ensembles.generate(ensembles.EnsembleSpec("ginibre", 6, 1, seed=7), 0)
    for name, a in (("jordan", jordan), ("ginibre6", ginibre)):
        src = out / f"{name}.json"
        src.write_text(matio.dumps_json_matrix(a))
        for fmt in ("json", "csv", "human"):
            dst = out / f"bounds-{name}.{fmt}"
            argv = ["bounds", "--input", str(src), "--bounds", "all", "--output", fmt]
            (out / f"bounds-{name}-{fmt}.status").write_text(_cli(argv + ["--out", str(dst)]))
            dst = out / f"bounds-subset-{name}.{fmt}"
            argv = ["bounds", "--input", str(src), "--bounds", SUBSET_IDS, "--r", "2.5"]
            argv += ["--output", fmt, "--out", str(dst)]
            (out / f"bounds-subset-{name}-{fmt}.status").write_text(_cli(argv))
        for fmt in ("human", "csv"):
            dst = out / f"radius-plain-{name}.{fmt}"
            argv = ["radius", "--input", str(src), "--output", fmt, "--out", str(dst)]
            (out / f"radius-plain-{name}-{fmt}.status").write_text(_cli(argv))
        lemmas = {
            "LEM-SUM": bounds.report_dict("LEM-SUM", bounds.eval_lemma_norm_sum(a, a.conj().T @ a)),
            "LEM-POSDIFF": bounds.report_dict(
                "LEM-POSDIFF",
                bounds.eval_lemma_pos_diff(a.conj().T @ a, a @ a.conj().T),
            ),
            "tightness": ensembles.tightness_compare(a),
        }
        (out / f"lemmas-{name}.json").write_text(matio.json_encode(lemmas))
        ctx = bounds.MatrixContext(a, CONTEXT_CFG)
        reports = [bounds.report_dict(bid, bounds.evaluate(bid, ctx)) for bid in CONTEXT_IDS]
        reports.append(ensembles.tightness_compare(a, CONTEXT_CFG))
        (out / f"context-{name}.json").write_text(matio.json_encode(reports))
        pair = bounds.cartesian_radius_pair(a, CONTEXT_CFG)
        (out / f"cartesian-{name}.txt").write_text("".join(map(_estimate_text, pair)))

    for k, (family, dim, count, seed) in enumerate(STUDY_CLI_RUNS):
        for fmt in ("human", "json"):
            dst = out / f"study-cli-{k}.{fmt}"
            argv = ["study", "--family", family, "--dim", dim, "--count", count, "--seed", seed]
            argv += ["--output", fmt, "--out", str(dst)]
            (out / f"study-cli-{k}-{fmt}.status").write_text(_cli(argv))
            # the one timing field; every other byte is fixed by the seeds
            dst.write_text(re.sub(r"(elapsed_seconds\W+)[-+.\deE]+", r"\1*", dst.read_text()))

    for fmt in ("human", "json", "csv"):
        dst = out / f"catalog.{fmt}"
        (out / f"catalog-{fmt}.status").write_text(
            _cli(["catalog", "--output", fmt, "--out", str(dst)])
        )

    # input errors: exit status and message, which name no OUTDIR path
    errors = {
        "missing-input": ["radius", "--input", "no-such-matrix.json"],
        "unknown-id": ["bounds", "--input", str(out / "jordan.json"), "--bounds", "NOPE"],
        "unknown-family": ["study", "--family", "nope", "--dim", "2", "--count", "1"],
        "exponent-inf": [
            "bounds", "--input", str(out / "jordan.json"), "--bounds", "FUNC,COR", "--r", "inf",
        ],
        "exponent-nan": [
            "study", "--family", "ginibre", "--dim", "3", "--count", "2",
            "--bounds", "FUNC", "--r", "nan", "--output", "csv",
        ],
    }
    for name, argv in errors.items():
        (out / f"error-{name}.status").write_text(_cli(argv))

    large = out / "enclose-large"
    large.mkdir()
    # each op runs `numrad radius --output json --out <family>-<n>.json`
    for op in workloads.enclose_large(1, str(large)).cycle:
        status, _ = op.run()
        (large / (op.slot.replace("/", "-") + ".status")).write_text(f"exit {status}\n")

    disk = out / "enclose-disk"
    disk.mkdir()
    for op in workloads.enclose_disk(1, str(disk), smoke=True).cycle:
        text = _estimate_text(op.run())
        (disk / (op.slot.replace("/", "-").replace("#", "-") + ".txt")).write_text(text)


def _fingerprint(src: pathlib.Path, out: pathlib.Path) -> dict[str, str]:
    """{path: digest} of a run of this script with numrad imported from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, __file__, str(out)], env=env, check=True, capture_output=True, text=True
    )
    return {path: digest for digest, path in (line.split("  ", 1) for line in run.stdout.splitlines())}


def compare_against(rev: str) -> int:
    """Print each output path that differs between ``rev`` and the working tree."""
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev, "src"], check=True, capture_output=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base / "rev", filter="data")
        old = _fingerprint(base / "rev" / "src", base / "out-rev")
        new = _fingerprint(ROOT / "src", base / "out-tree")
    differ = sorted(p for p in old.keys() | new.keys() if old.get(p) != new.get(p))
    for path in differ:
        print(path)
    print(f"{len(differ)} of {len(old.keys() | new.keys())} paths differ from {rev}", file=sys.stderr)
    return 1 if differ else 0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--against":
        return compare_against(sys.argv[2])
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: output_fingerprint.py OUTDIR (must not exist)", file=sys.stderr)
        print("       output_fingerprint.py --against REV", file=sys.stderr)
        return 2
    out = pathlib.Path(sys.argv[1])
    out.mkdir(parents=True)
    write_outputs(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
