"""Tests of the benchmark itself (not collected by the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402


@pytest.fixture
def workdir():
    path = ROOT / ".bench_work" / "test"
    path.mkdir(parents=True, exist_ok=True)
    yield str(path)
    shutil.rmtree(path)


def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_smoke_emits_every_declared_metric():
    done = _run(str(BENCH / "run.py"), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count(": ok") == 6


def test_counts_repeat_and_workloads_keep_their_character():
    done = _run(str(BENCH / "check_counts.py"), "--smoke", "--seconds", "0")
    assert done.returncode == 0, done.stdout + done.stderr


def test_fails_without_sources(workdir):
    fresh = pathlib.Path(workdir) / "fresh"
    shutil.copytree(BENCH, fresh / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", fresh)
    done = _run("bench/run.py", "--workload", "study-mix", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=fresh)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_study_oracle_flags_violations_and_failures(workdir):
    op = workloads.study_mix(1, workdir, smoke=True).cycle[0]
    report = op.run()
    assert op.check(report) == []
    row = report.rows[0]
    assert op.check(dataclasses.replace(report, violations=(row,))) == ["oracle:violation"]
    failed = dataclasses.replace(report, rows=(), failures=((0, "ConvergenceError('x')"),))
    assert op.check(failed) == ["ConvergenceError"]


def test_large_oracle_checks_exit_code_and_enclosure(workdir):
    large = workloads.enclose_large(1, workdir, smoke=True)
    op = next(o for o in large.cycle if o.slot.startswith("gue/"))
    op.prepare()
    result = op.run()
    assert op.check(result) == []
    assert op.check((1, result[1])) == ["oracle:exit-1"]
    out = result[1].split(" ", 1)[1].strip()
    with open(out, encoding="utf-8") as fh:
        est = json.load(fh)
    est["lower"] = est["upper"] = 2.0 * est["upper"]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(est, fh)
    assert set(op.check(result)) == {"oracle:norm-bounds", "oracle:spectral-radius"}


def test_disk_oracle_uses_the_exact_radius(workdir):
    for op in workloads.enclose_disk(1, workdir, smoke=True).cycle:
        est = op.run()
        assert op.check(est) == [], op.slot
        shifted = SimpleNamespace(lower=est.upper + 1e-6, upper=est.upper + 2e-6)
        assert op.check(shifted) == ["oracle:exact-radius"], op.slot
