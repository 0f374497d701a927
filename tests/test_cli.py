import json
import subprocess
import sys

import numpy as np
import pytest

import numrad.bounds
import numrad.cli
from numrad.bounds import BoundReport
from numrad.cli import STUDY_DEFAULT_BOUNDS, main
from numrad.ensembles import EnsembleSpec, generate, run_study, to_csv
from numrad.matio import save_matrix
from numrad.radius import RadiusConfig, numerical_radius

J = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

CATALOG_CSV = """\
id,arity,description
B0,1,"||A||/2 <= w(A) <= ||A||"
KIT,1,"w(A) <= || |A| + |A*| || / 2"
SQ,1,"|| |A|^2+|A*|^2 ||/4 <= w(A)^2 <= || |A|^2+|A*|^2 ||/2"
LEM1+,1,"||A + A*||/2 <= w(A)"
LEM1-,1,"||A - A*||/2 <= w(A)"
T1,1,"|| |A|^2+|A*|^2 ||/4 <= (||A+A*||^2 + ||A-A*||^2)/8 <= w(A)^2"
LEM-SUM,2,"||A+B|| <= sqrt(||A*A + B*B|| + 2 w(B*A))"
T2,1,"|| |A|^2+|A*|^2 ||/4 <= sqrt(2 w(A)^4 + w((A*-A)^2(A*+A)^2)/8)/2 <= w(A)^2"
LEM-POSDIFF,2,"||P - Q|| <= max(||P||,||Q||) - min(m(P), m(Q)) for PSD P, Q"
T3,1,"w(A)^2 <= || (|A|^2+|A*|^2)/2 || - m(((|A|-|A*|)/2)^2)"
T3-PRINTED,1,"w(A)^2 <= (|| |A|^2+|A*|^2 || - m((|A|-|A*|)^2))/2  [diagnostic, fails on the Jordan block]"
FUNC,1,"f(w(A)) <= || g^{-1}((g(f(|A|)) + g(f(|A*|)))/2) || <= || f(|A|)+f(|A*|) ||/2"
COR,1,"w(A)^r <= || S + I - sqrt(2S+I) ||/2 <= || |A|^r+|A*|^r ||/2, S = |A|^r+|A*|^r+|A|^{r/2}+|A*|^{r/2}"
"""


@pytest.fixture
def jordan_mtx(tmp_path):
    path = tmp_path / "jordan2.mtx"
    save_matrix(J, str(path))
    return str(path)


@pytest.fixture
def eye3_json(tmp_path):
    path = tmp_path / "eye3.json"
    save_matrix(np.eye(3, dtype=complex), str(path))
    return str(path)


@pytest.fixture
def upper_json(tmp_path):
    # w = (1 + sqrt 2)/2 + 1/2 and ||A|| = 1 + sqrt 2; B0 is not tight on it
    path = tmp_path / "upper.json"
    save_matrix(np.array([[1, 2], [0, 1j]]), str(path))
    return str(path)


def test_radius_human(jordan_mtx, capsys):
    assert main(["radius", "--input", jordan_mtx]) == 0
    out = capsys.readouterr().out
    assert "lower            0.5" in out
    assert "upper            0.5" in out
    assert "theta_star" in out
    assert "grid_points" in out


def test_radius_json(jordan_mtx, capsys):
    assert main(["radius", "--input", jordan_mtx, "--output", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["lower"] == pytest.approx(0.5, abs=1e-9)
    assert obj["upper"] - obj["lower"] <= 1e-9
    assert set(obj) >= {"lower", "upper", "width", "theta_star", "grid_points"}


def test_radius_default_grid_is_config_default(jordan_mtx, capsys):
    # without --grid the CLI runs exactly the library's default enclosure
    assert main(["radius", "--input", jordan_mtx, "--output", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    est = numerical_radius(J, RadiusConfig())
    want = {
        "lower": est.lower, "upper": est.upper, "width": est.width,
        "theta_star": est.theta_star, "grid_points": est.grid_points,
        "refinement_iters": est.refinement_iters,
    }
    assert obj == want
    parser = numrad.cli.build_parser()
    assert parser.parse_args(["radius", "--input", jordan_mtx]).grid == RadiusConfig().grid_points
    study = parser.parse_args(["study", "--family", "gue", "--dim", "2", "--count", "1"])
    assert study.grid == RadiusConfig().grid_points


def test_radius_identity(eye3_json, capsys):
    assert main(["radius", "--input", eye3_json, "--output", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["lower"] == pytest.approx(1.0, abs=1e-9)


def test_radius_norm_past_the_double_range(tmp_path, capsys):
    # ||A|| overflows but w(A) = 0.7e308 (1 + sqrt 2) does not
    path = tmp_path / "huge.json"
    save_matrix(1.4e308 * np.array([[1.0, 1.0], [0.0, 0.0]]), str(path))
    assert main(["radius", "--input", str(path), "--output", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    w = 0.7e308 * (1.0 + np.sqrt(2.0))
    assert obj["lower"] * (1.0 - 1e-15) <= w <= obj["upper"] < np.inf


def test_radius_unreachable_width_exits_2(jordan_mtx, capsys):
    code = main(["radius", "--input", jordan_mtx, "--width", "1e-15"])
    captured = capsys.readouterr()
    assert code == 2
    assert "lower" in captured.out  # best estimate still printed
    assert "warning" in captured.err


def test_radius_csv(jordan_mtx, capsys):
    # one header and one row, every float in 17 significant digits, so the
    # row gives back the library's estimate exactly
    assert main(["radius", "--input", jordan_mtx, "--output", "csv"]) == 0
    head, row = capsys.readouterr().out.splitlines()
    est = numerical_radius(J)
    fields = ["lower", "upper", "width", "theta_star", "grid_points", "refinement_iters"]
    assert head.split(",") == fields
    values = row.split(",")
    assert [float(v) for v in values] == [getattr(est, f) for f in fields]
    assert values[4:] == [str(est.grid_points), str(est.refinement_iters)]


def test_radius_flags(jordan_mtx, capsys):
    assert main(["radius", "--input", jordan_mtx, "--grid", "256", "--width", "1e-6"]) == 0
    assert "0.5" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["radius", "--samples", "5"], ["radius", "--seed", "5"], ["bounds", "--seed", "5"]],
)
def test_removed_oracle_flags_are_usage_errors(jordan_mtx, capsys, argv):
    assert main([argv[0], "--input", jordan_mtx, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: numrad")
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err


def test_radius_nonsquare_exits_1(tmp_path, capsys):
    path = tmp_path / "rect.json"
    path.write_text('{"rows": 1, "cols": 2, "data": [[1,0],[2,0]]}')
    assert main(["radius", "--input", str(path)]) == 1
    assert "square" in capsys.readouterr().err


def test_radius_malformed_file_names_line(tmp_path, capsys):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix array complex general\n2 2\n1 0\nbroken\n0 0\n0 0\n"
    )
    assert main(["radius", "--input", str(path)]) == 1
    assert "line 4" in capsys.readouterr().err


def test_radius_missing_file_exits_1(tmp_path, capsys):
    assert main(["radius", "--input", str(tmp_path / "nope.mtx")]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_1_with_usage(capsys):
    assert main(["catalog", "--nope"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_missing_subcommand_exits_1(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_bounds_jordan_tight_rows(jordan_mtx, capsys):
    assert main(["bounds", "--input", jordan_mtx, "--bounds", "T1,T2,SQ,T3"]) == 0
    out = capsys.readouterr().out.splitlines()
    data = [l for l in out if not l.startswith("bound_id")]
    assert len(data) == 4
    assert all("TIGHT" in l for l in data)


def test_bounds_diagnostic_violation_keeps_exit_0(jordan_mtx, capsys):
    assert main(["bounds", "--input", jordan_mtx, "--bounds", "T3-PRINTED"]) == 0
    assert "VIOLATED" in capsys.readouterr().out


def test_bounds_all_skips_arity_two(jordan_mtx, capsys):
    assert main(["bounds", "--input", jordan_mtx, "--bounds", "all"]) == 0
    out = capsys.readouterr().out
    assert "LEM-SUM" in out and "skipped" in out
    assert "LEM-POSDIFF" in out
    data = [l for l in out.splitlines() if l and not l.startswith("bound_id")]
    assert len(data) == 13  # 11 evaluated + 2 skipped


def test_bounds_json_output(jordan_mtx, capsys):
    assert main(
        ["bounds", "--input", jordan_mtx, "--bounds", "T2,T3", "--output", "json"]
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [b["bound_id"] for b in obj["bounds"]] == ["T2", "T3"]
    chain = obj["bounds"][0]
    assert chain["kind"] == "chain"
    assert len(chain["terms"]) == 3
    assert len(chain["links"]) == 2


def test_bounds_csv_output(jordan_mtx, upper_json, capsys):
    # one row per id in the order given, lhs/rhs/slack in 17 significant
    # digits, and the status the human table prints: every chain is tight on
    # the Jordan block, and B0 is not on [[1, 2], [0, i]]
    cells = []
    for src, ids in ((jordan_mtx, "T3,T3-PRINTED"), (upper_json, "B0")):
        assert main(["bounds", "--input", src, "--bounds", ids, "--output", "csv"]) == 0
        head, *rows = capsys.readouterr().out.splitlines()
        assert head == "bound_id,lhs,rhs,slack,status"
        cells += [row.split(",") for row in rows]
    assert [c[0] for c in cells] == ["T3", "T3-PRINTED", "B0"]
    assert [c[4] for c in cells] == ["TIGHT", "VIOLATED", "OK"]
    for c in cells:
        assert [format(float(v), ".17g") for v in c[1:4]] == c[1:4]
    # B0's lhs ||A||/2
    assert float(cells[2][1]) == pytest.approx((1 + 2 ** 0.5) / 2, abs=1e-15)


def test_bounds_unreachable_width_exits_2(upper_json, capsys):
    # EnclosureNotReached reaches main from the catalog: bounds prints no
    # table, only the error line
    code = main(["bounds", "--input", upper_json, "--bounds", "B0", "--width", "1e-300"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: enclosure width ")
    assert captured.err.endswith("at grid cap 1048576\n")


def test_bounds_unknown_id_exits_1(jordan_mtx, capsys):
    assert main(["bounds", "--input", jordan_mtx, "--bounds", "NOPE"]) == 1
    assert "valid ids" in capsys.readouterr().err


def test_bounds_empty_list_exits_1(jordan_mtx, capsys):
    assert main(["bounds", "--input", jordan_mtx, "--bounds", ","]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty bound list\n"


def test_svd_failure_exits_1(jordan_mtx, capsys, monkeypatch):
    # LAPACK failing inside linalg.svd (B0 reads ||A|| from the full SVD)
    # surfaces as the ConvergenceError message, not a traceback; the
    # enclosure's singular-value-only norm still runs
    full_svd = np.linalg.svd

    def failing_svd(m, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            raise np.linalg.LinAlgError("rigged")
        return full_svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    assert main(["bounds", "--input", jordan_mtx, "--bounds", "B0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SVD did not converge: rigged\n"


def test_bounds_r_flag(jordan_mtx, capsys):
    assert main(
        ["bounds", "--input", jordan_mtx, "--bounds", "COR", "--r", "3",
         "--output", "json"]
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    # w(J)^3 = 0.125 heads the r = 3 chain
    assert obj["bounds"][0]["terms"][0] == pytest.approx(0.125, abs=1e-6)


def test_bounds_violation_exit_3(jordan_mtx, capsys, monkeypatch):
    # a sound bound cannot fail on real data, so force one
    fake = BoundReport("T3", 1.0, 0.0, -1.0, True, 1e-9)
    monkeypatch.setattr(numrad.bounds, "evaluate", lambda *a, **k: fake)
    assert main(["bounds", "--input", jordan_mtx, "--bounds", "T3"]) == 3


def test_study_json(capsys):
    assert main(
        ["study", "--family", "ginibre", "--dim", "2", "--count", "3",
         "--seed", "5", "--bounds", "B0,SQ"]
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["family"] == "ginibre"
    assert len(obj["rows"]) == 6
    assert obj["violations"] == []


def test_study_csv_deterministic(capsys):
    argv = ["study", "--family", "ginibre", "--dim", "3", "--count", "4",
            "--seed", "5", "--bounds", "B0,T1", "--output", "csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "index,bound_id,lhs,rhs,slack,violated"


def test_study_radius_flags_reach_the_config(capsys):
    argv = ["study", "--family", "ginibre", "--dim", "3", "--count", "2", "--seed", "5",
            "--grid", "16", "--width", "1e-6"]
    spec = EnsembleSpec("ginibre", 3, 2, 5)
    cfg = RadiusConfig(grid_points=16, target_width=1e-6)
    want = to_csv(run_study(spec, STUDY_DEFAULT_BOUNDS, cfg))
    # the flags change the output, so matching it shows they were applied
    assert want != to_csv(run_study(spec, STUDY_DEFAULT_BOUNDS))
    assert main(argv + ["--output", "csv"]) == 0
    assert capsys.readouterr().out == want
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["seeds_used"] == [5]


def test_study_misprint_scan_keeps_exit_0(capsys):
    assert main(
        ["study", "--family", "ginibre", "--dim", "2", "--count", "40",
         "--seed", "7", "--bounds", "T3-PRINTED"]
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["violations"]) >= 1


def test_study_invalid_family_exits_1(capsys):
    assert main(["study", "--family", "foo", "--dim", "2", "--count", "1"]) == 1
    assert "valid families" in capsys.readouterr().err


def test_study_human_summary(capsys):
    assert main(
        ["study", "--family", "gue", "--dim", "2", "--count", "2",
         "--output", "human"]
    ) == 0
    out = capsys.readouterr().out
    assert "violations       0" in out
    assert "tight_fraction" in out


def test_study_out_file(tmp_path, capsys):
    dest = tmp_path / "report.csv"
    assert main(
        ["study", "--family", "rank1", "--dim", "2", "--count", "2",
         "--bounds", "B0", "--output", "csv", "--out", str(dest)]
    ) == 0
    assert "wrote" in capsys.readouterr().out
    assert dest.read_text().startswith("index,bound_id")


def test_study_violation_exit_3(monkeypatch, capsys):
    from numrad.ensembles import StudyRow

    real_run = numrad.cli.ensembles.run_study

    def rigged(spec, bound_ids, cfg=None, r=2.0):
        report = real_run(spec, bound_ids, cfg, r)
        bad = StudyRow(0, "T1", 1.0, 0.0, -1.0, True)
        return type(report)(
            spec=report.spec, bound_ids=report.bound_ids, rows=report.rows,
            failures=report.failures, violations=(bad,),
            slack_stats=report.slack_stats, tight_fraction=report.tight_fraction,
            elapsed_seconds=report.elapsed_seconds,
        )

    monkeypatch.setattr(numrad.cli.ensembles, "run_study", rigged)
    assert main(
        ["study", "--family", "ginibre", "--dim", "2", "--count", "1",
         "--bounds", "B0"]
    ) == 3


def test_catalog_13_lines(capsys):
    assert main(["catalog"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 13
    assert lines[0].startswith("B0")


def test_catalog_csv_text(capsys):
    assert main(["catalog", "--output", "csv"]) == 0
    assert capsys.readouterr().out == CATALOG_CSV


def test_study_default_bounds():
    assert numrad.cli.STUDY_DEFAULT_BOUNDS == (
        "B0", "KIT", "SQ", "LEM1+", "LEM1-", "T1", "T2", "T3", "FUNC", "COR",
    )


def test_study_r_flag_reaches_bare_ids(capsys):
    base = ["study", "--family", "ginibre", "--dim", "3", "--count", "1",
            "--seed", "0", "--output", "csv"]
    assert main(base + ["--bounds", "COR,FUNC", "--r", "3"]) == 0
    bare = [l.split(",") for l in capsys.readouterr().out.splitlines()[1:]]
    assert main(base + ["--bounds", "COR:3,FUNC:3"]) == 0
    suffixed = [l.split(",") for l in capsys.readouterr().out.splitlines()[1:]]
    # the token stays as typed; the numbers are the r = 3 ones
    assert [row[1] for row in bare] == ["COR", "FUNC"]
    assert [row[2:] for row in bare] == [row[2:] for row in suffixed]
    assert float(bare[0][2]) == pytest.approx(26.64, abs=0.01)


def test_identity_check_error_exits_1(jordan_mtx, capsys, monkeypatch):
    def broken(*a, **k):
        raise numrad.bounds.IdentityCheckError("routes disagree")

    monkeypatch.setattr(numrad.bounds, "evaluate", broken)
    assert main(["bounds", "--input", jordan_mtx, "--bounds", "T2"]) == 1
    assert "error: routes disagree" in capsys.readouterr().err


def test_arithmetic_error_exits_1(jordan_mtx, capsys, monkeypatch):
    # no known input overflows past the named DomainErrors any more; main
    # still maps a bare ArithmeticError to exit 1 with an error line
    def overflowing(*a, **k):
        raise OverflowError("math range error")

    monkeypatch.setattr(numrad.bounds, "evaluate", overflowing)
    assert main(["bounds", "--input", jordan_mtx, "--bounds", "T2"]) == 1
    assert capsys.readouterr().err == "error: math range error\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_exits_1_without_traceback(tmp_path, capsys):
    # every entry is finite, yet a quantity the bound needs overflows
    cases = (
        # A*A + AA*: the error names that product, not the user's matrix
        (generate(EnsembleSpec("ginibre", 3, 1, seed=0), 0) * 1e300, ("SQ", "T3", "T1"), "A*A + AA*"),
        # A*A + AA* is finite, T1's middle term is not
        (3.87e153 * np.ones((2, 2)), ("T1",), "||A+A*||^2 + ||A-A*||^2"),
        # every product T2 gates is finite, 2 w(A)^4 is not
        (1e100 * np.eye(2), ("T2",), "2 w(A)^4 + w((A*-A)^2 (A*+A)^2)/8"),
    )
    for k, (a, ids, product) in enumerate(cases):
        path = tmp_path / f"huge{k}.json"
        save_matrix(a, str(path))
        for bid in ids:
            assert main(["bounds", "--input", str(path), "--bounds", bid]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {product} is not finite in double precision (entries overflow)\n"
    # f(w) = w^20 at the upper end of a loose enclosure passes the double
    # range while |A|^20 does not: the eigenvalues c and c e^{i pi/4} sit on
    # adjacent angles of an 8-point sweep, whose support lines there meet at
    # c / cos(pi/8), the upper end.  COR names it too, as it evaluates FUNC's
    # chain first, whose left-hand term is COR's w(A)^r
    path = tmp_path / "power.json"
    c = 4e307 ** (1 / 20)
    save_matrix(np.diag([c, c * np.exp(1j * np.pi / 4)]), str(path))
    argv = ["--r", "20", "--grid", "8", "--width", "1e300"]
    for bid in ("FUNC", "COR"):
        assert main(["bounds", "--input", str(path), "--bounds", bid, *argv]) == 1
        err = capsys.readouterr().err
        assert err == "error: f(w(A)) is not finite in double precision (entries overflow)\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["--bounds", "FUNC,COR", "--r", "inf"],
        ["--bounds", "FUNC,COR", "--r", "1e400"],
        ["--bounds", "FUNC,COR", "--r", "nan"],
        ["--bounds", "COR:nan"],
    ],
    ids=["r-inf", "r-1e400", "r-nan", "cor-nan"],
)
def test_bounds_non_finite_exponent_exits_1(jordan_mtx, capsys, argv):
    assert main(["bounds", "--input", jordan_mtx, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: exponent r must be finite and at least 2")


def test_study_non_finite_exponent_exits_1(capsys):
    argv = ["study", "--family", "ginibre", "--dim", "3", "--count", "2"]
    argv += ["--bounds", "FUNC", "--r", "nan", "--output", "csv"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exponent r must be finite and at least 2, got nan\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_func_and_cor_sums_do_not_blame_the_matrix(tmp_path, capsys):
    # every entry of [[(1e308)^(1/20)]] is about 2.6e15, and |A|^20 is finite,
    # but |A|^20 + |A*|^20 is not: FUNC halves before adding, COR names its
    # sum, and neither warns nor reports the input as non-finite
    path = tmp_path / "edge.json"
    save_matrix(np.array([[1e308 ** (1 / 20)]]), str(path))
    for bid in ("FUNC", "COR"):
        main(["bounds", "--input", str(path), "--bounds", bid, "--r", "20"])
        err = capsys.readouterr().err
        assert "matrix entries must be finite" not in err
    assert err == (
        "error: 2S + I, S = |A|^r+|A*|^r+|A|^{r/2}+|A*|^{r/2} is not finite "
        "in double precision (entries overflow)\n"
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_func_power_20_at_the_double_range_is_tight(tmp_path, capsys):
    # g^{-1}(x) = x + 1/2 - sqrt(x + 1/4) stays finite up to the double
    # range: on [[(1e308)^(1/20)]] both FUNC terms are |a|^20 = 1e308
    path = tmp_path / "edge.json"
    save_matrix(np.array([[1e308 ** (1 / 20)]]), str(path))
    assert main(["bounds", "--input", str(path), "--bounds", "FUNC", "--r", "20"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    head, row = captured.out.splitlines()
    assert row.split()[0] == "FUNC"
    assert row.split()[-1] == "TIGHT"


def test_catalog_json(capsys):
    assert main(["catalog", "--output", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj) == 13
    assert set(obj[0]) == {"id", "description", "arity"}


def test_module_entry_point(jordan_mtx):
    proc = subprocess.run(
        [sys.executable, "-m", "numrad", "radius", "--input", jordan_mtx],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "0.5" in proc.stdout
