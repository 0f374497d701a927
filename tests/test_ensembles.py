import json
import math
import re

import numpy as np
import pytest

import numrad.bounds
import numrad.ensembles
from numrad.bounds import HypothesisFailed, IdentityCheckError, MatrixContext, NotPositiveError
from numrad.ensembles import (
    FAMILIES,
    EnsembleSpec,
    generate,
    is_tight,
    matrices,
    run_study,
    tightness_compare,
    to_csv,
    to_json,
)
from numrad.linalg import DomainError
from numrad.radius import RadiusConfig

J = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

FAST = RadiusConfig(target_width_rel=1e-6)


def test_spec_validation():
    with pytest.raises(ValueError, match="valid families"):
        EnsembleSpec("weibull", 2, 1)
    with pytest.raises(ValueError):
        EnsembleSpec("gue", 0, 1)
    with pytest.raises(ValueError):
        EnsembleSpec("gue", 513, 1)
    with pytest.raises(ValueError):
        EnsembleSpec("gue", 2, 0)
    with pytest.raises(ValueError):
        EnsembleSpec("gue", 2, 10 ** 6 + 1)


def test_generate_is_deterministic_and_order_free():
    spec = EnsembleSpec("ginibre", 4, 10, seed=42)
    a5 = generate(spec, 5)
    for idx in (0, 3, 9):
        generate(spec, idx)
    assert np.array_equal(generate(spec, 5), a5)
    assert a5.tobytes() == generate(spec, 5).tobytes()


def test_generate_index_range():
    spec = EnsembleSpec("ginibre", 2, 3)
    with pytest.raises(IndexError):
        generate(spec, 3)
    with pytest.raises(IndexError):
        generate(spec, -1)


def test_families_distinct_streams():
    a = generate(EnsembleSpec("ginibre", 3, 1, seed=0), 0)
    b = generate(EnsembleSpec("nilpotent-shift-random", 3, 1, seed=0), 0)
    assert not np.array_equal(a, b)


def test_matrices_iterator():
    spec = EnsembleSpec("rank1", 3, 4, seed=1)
    batch = list(matrices(spec))
    assert len(batch) == 4
    assert all(m.shape == (3, 3) for m in batch)


def test_family_shapes_and_structure():
    n = 6
    for family in FAMILIES:
        a = generate(EnsembleSpec(family, n, 1, seed=3), 0)
        assert a.shape == (n, n)
        assert a.dtype == np.complex128
        assert np.all(np.isfinite(a.view(np.float64)))

    gue = generate(EnsembleSpec("gue", n, 1, seed=3), 0)
    assert np.array_equal(gue, gue.conj().T)

    nil = generate(EnsembleSpec("nilpotent-shift-random", n, 1, seed=3), 0)
    assert np.allclose(np.tril(nil), 0.0)
    assert np.linalg.norm(np.linalg.matrix_power(nil, n)) == 0.0

    psd = generate(EnsembleSpec("hermitian-psd", n, 1, seed=3), 0)
    assert np.array_equal(psd, psd.conj().T)
    assert np.linalg.eigvalsh(psd)[0] > -1e-12

    real = generate(EnsembleSpec("real-gaussian", n, 1, seed=3), 0)
    assert np.all(real.imag == 0.0)

    r1 = generate(EnsembleSpec("rank1", n, 1, seed=3), 0)
    s = np.linalg.svd(r1, compute_uv=False)
    assert s[1] < 1e-12 * s[0]

    nrm = generate(EnsembleSpec("normal", n, 1, seed=3), 0)
    comm = nrm @ nrm.conj().T - nrm.conj().T @ nrm
    assert np.linalg.norm(comm) < 1e-12 * np.linalg.norm(nrm) ** 2


def test_run_study_sound_bounds():
    spec = EnsembleSpec("ginibre", 3, 8, seed=5)
    report = run_study(spec, ["B0", "SQ", "T1", "T3"], FAST)
    assert len(report.rows) == 8 * 4
    assert report.violations == ()
    assert report.failures == ()
    assert set(report.slack_stats) == {"min", "median", "max"}
    assert 0.0 <= report.tight_fraction <= 1.0
    assert report.elapsed_seconds > 0.0


def test_tight_fraction_is_the_share_of_tight_rows():
    # a normal draw mixes tight rows with loose ones
    report = run_study(EnsembleSpec("normal", 3, 4, seed=5), ["B0", "KIT", "SQ", "T1"], FAST)
    tight = sum(is_tight(r.slack, r.rhs) for r in report.rows)
    assert 0 < tight < len(report.rows)
    assert report.tight_fraction == tight / len(report.rows)


def test_run_study_finds_misprint_violations():
    spec = EnsembleSpec("ginibre", 2, 50, seed=7)
    report = run_study(spec, ["T3-PRINTED"], FAST)
    assert len(report.violations) >= 1
    for row in report.violations:
        assert row.bound_id == "T3-PRINTED"
        assert row.lhs > row.rhs


def test_run_study_rejects_bad_ids():
    spec = EnsembleSpec("ginibre", 2, 1)
    with pytest.raises(ValueError):
        run_study(spec, [], FAST)
    with pytest.raises(ValueError):
        run_study(spec, ["LEM-SUM"], FAST)
    with pytest.raises(ValueError):
        run_study(spec, ["NOPE"], FAST)


@pytest.mark.parametrize(
    "ids, r, message",
    [
        (["B0", "LEM-SUM"], 2.0, "bound LEM-SUM needs two matrices"),
        (["B0", "COR:1"], 2.0, "exponent r must be finite and at least 2, got 1"),
        (["B0", "FUNC"], math.nan, "exponent r must be finite and at least 2, got nan"),
    ],
)
def test_run_study_rejects_ids_before_the_first_draw(ids, r, message, monkeypatch):
    def no_draw(spec, index):
        raise AssertionError("a matrix was drawn before the ids were checked")

    monkeypatch.setattr(numrad.ensembles, "generate", no_draw)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_study(EnsembleSpec("ginibre", 2, 3), ids, FAST, r=r)


def test_run_study_records_failures():
    # unreachable width drives every draw into the failure list
    spec = EnsembleSpec("ginibre", 2, 1, seed=9)
    cfg = RadiusConfig(target_width=1e-16)
    report = run_study(spec, ["B0"], cfg)
    assert len(report.failures) == 1
    assert report.rows == ()
    assert "EnclosureNotReached" in report.failures[0][1]


@pytest.mark.parametrize(
    "exc", [IdentityCheckError, DomainError, HypothesisFailed, NotPositiveError]
)
def test_run_study_records_catalog_failures(exc, monkeypatch):
    # a catalog entry rejecting one draw ends that draw, not the study
    real = numrad.bounds.evaluate

    def flaky(token, ctx, *args, **kwargs):
        if np.array_equal(ctx.a, generate(spec, 1)):
            raise exc("rejected")
        return real(token, ctx, *args, **kwargs)

    spec = EnsembleSpec("ginibre", 2, 3, seed=4)
    monkeypatch.setattr(numrad.bounds, "evaluate", flaky)
    report = run_study(spec, ["B0", "KIT"], FAST)
    assert [r.index for r in report.rows] == [0, 0, 2, 2]
    assert report.failures == ((1, repr(exc("rejected"))),)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_study_records_overflowing_draw(monkeypatch):
    # at scale 1e150 the fourth-order product of T2 overflows, and at 1e300
    # A*A + AA* itself; on 1e100 I every product is finite but T2's w(A)^4
    # is not.  Each ends the draw with a DomainError naming the quantity, not
    # the whole study.  At 3.5e153 ||A + A*||^2 overflows, but T1 squares
    # the half-norms, and its middle term is finite
    real = numrad.ensembles.generate
    spec = EnsembleSpec("ginibre", 3, 3, seed=0)
    cases = (
        (lambda a: a * 1e150, ["B0", "T2"], "(A* - A)^2 (A* + A)^2"),
        (lambda a: a * 3.5e153, ["T1"], None),
        (lambda a: a * 1e300, ["SQ", "T1", "T3"], "A*A + AA*"),
        (lambda a: 1e100 * np.eye(2), ["B0", "T2"], "2 w(A)^4 + w((A*-A)^2 (A*+A)^2)/8"),
    )
    for replace, ids, product in cases:
        def patched(s, index):
            a = real(s, index)
            return replace(a) if index == 1 else a

        monkeypatch.setattr(numrad.ensembles, "generate", patched)
        report = run_study(spec, ids)
        if product is None:
            assert [r.index for r in report.rows] == [0, 1, 2]
            assert report.failures == () and not report.violations
            continue
        assert [r.index for r in report.rows] == [0] * len(ids) + [2] * len(ids)
        assert len(report.failures) == 1
        index, text = report.failures[0]
        assert index == 1
        assert text.startswith("DomainError(") and product in text


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_context_products_reject_overflow():
    a = generate(EnsembleSpec("ginibre", 3, 1, seed=0), 0)
    ctx = MatrixContext(a * 1e150)
    with pytest.raises(DomainError, match=r"\(A\* - A\)\^2"):
        ctx.quad_product
    with pytest.raises(DomainError, match=r"C\^2 B\^2"):
        ctx.c2b2
    with pytest.raises(DomainError, match=r"A\*A \+ AA\*"):
        MatrixContext(a * 1e300).gram_sum


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gram_sum_finite_below_overflow():
    # A*A + AA* = diag(1.28e308, 0) is finite; symmetrizing it must not pass
    # through the overflowing sum of the matrix and its adjoint
    gram = MatrixContext(np.diag([8e153, 0.0])).gram_sum
    assert np.array_equal(gram, np.diag([8e153 ** 2 * 2, 0.0]))


def test_csv_deterministic():
    spec = EnsembleSpec("ginibre", 3, 6, seed=11)
    r1 = run_study(spec, ["B0", "T2", "COR:2"], FAST)
    r2 = run_study(spec, ["B0", "T2", "COR:2"], FAST)
    c1, c2 = to_csv(r1), to_csv(r2)
    assert c1 == c2
    lines = c1.splitlines()
    assert lines[0] == "index,bound_id,lhs,rhs,slack,violated"
    assert len(lines) == 1 + 6 * 3
    assert r1.elapsed_seconds != r2.elapsed_seconds or True  # timing may differ


def test_json_report_round_trip():
    spec = EnsembleSpec("gue", 3, 4, seed=2)
    report = run_study(spec, ["B0", "KIT"], FAST)
    obj = json.loads(to_json(report))
    assert obj["family"] == "gue"
    assert obj["dimension"] == 3
    assert obj["count"] == 4
    assert obj["bound_ids"] == ["B0", "KIT"]
    assert len(obj["rows"]) == 8
    assert obj["violations"] == []
    assert obj["seeds_used"] == [2]
    # 17-digit floats survive the round trip exactly
    for row_obj, row in zip(obj["rows"], report.rows):
        assert row_obj["lhs"] == row.lhs
        assert row_obj["slack"] == row.slack


def _assert_reads_catalog(out, a, cfg=None):
    ctx = MatrixContext(a, cfg)
    ids = ("B0", "SQ", "T1", "T2", "T3", "KIT")
    rep = {bid: numrad.bounds.evaluate(bid, ctx) for bid in ids}
    assert out["omega_sq"] == ctx.omega.lower ** 2
    assert out["lower_bounds_sq"] == {
        "B0": rep["B0"].terms[0] ** 2,
        "SQ": rep["SQ"].terms[0],
        "T1": rep["T1"].terms[1],
        "T2": rep["T2"].terms[1],
    }
    assert out["upper_bounds_sq"] == {
        "SQ": rep["SQ"].terms[2],
        "T3": rep["T3"].rhs,
        "KIT": rep["KIT"].rhs ** 2,
    }


def test_tightness_compare_jordan():
    out = tightness_compare(J)
    _assert_reads_catalog(out, J)
    assert out["omega_sq"] == pytest.approx(0.25, abs=1e-9)
    for val in out["lower_bounds_sq"].values():
        assert val == pytest.approx(0.25, abs=1e-9)
    assert out["upper_bounds_sq"]["T3"] == pytest.approx(0.25, abs=1e-9)
    assert out["upper_bounds_sq"]["KIT"] == pytest.approx(0.25, abs=1e-9)
    assert out["upper_bounds_sq"]["SQ"] == pytest.approx(0.5, abs=1e-9)
    assert out["sharpest_upper"] in ("T3", "KIT")


def test_tightness_compare_hermitian():
    h = generate(EnsembleSpec("gue", 5, 1, seed=13), 0)
    out = tightness_compare(h, FAST)
    _assert_reads_catalog(out, h, FAST)
    # Hermitian case: the T2 refinement strictly beats T1
    assert out["lower_bounds_sq"]["T2"] > out["lower_bounds_sq"]["T1"]
    assert out["sharpest_lower"] == "T2"
    w2 = out["omega_sq"]
    for val in out["lower_bounds_sq"].values():
        assert val <= w2 * (1 + 1e-6)
    for val in out["upper_bounds_sq"].values():
        assert val >= w2 * (1 - 1e-6)
