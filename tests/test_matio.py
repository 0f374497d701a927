import io

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import numrad.matio
from numrad.matio import (
    MatrixFormatError,
    dumps_json_matrix,
    dumps_matrix_market,
    g17,
    json_encode,
    load_matrix,
    loads_json_matrix,
    loads_matrix_market,
    save_matrix,
)

from conftest import random_complex


def test_mm_round_trip_bit_identical(rng):
    a = random_complex(rng, 5)
    back = loads_matrix_market(dumps_matrix_market(a))
    assert back.tobytes() == a.tobytes()


def test_mm_round_trip_rectangular(rng):
    a = random_complex(rng, 4)[:, :2]
    back = loads_matrix_market(dumps_matrix_market(np.ascontiguousarray(a)))
    assert back.shape == (4, 2)
    assert np.array_equal(back, a)


def test_json_round_trip_bit_identical(rng):
    a = random_complex(rng, 6)
    back = loads_json_matrix(dumps_json_matrix(a))
    assert back.tobytes() == a.tobytes()


def test_mm_cross_check_against_scipy(rng, tmp_path):
    a = random_complex(rng, 4)
    ours = tmp_path / "ours.mtx"
    save_matrix(a, str(ours))
    assert np.array_equal(scipy.io.mmread(str(ours)), a)

    theirs = tmp_path / "theirs.mtx"
    scipy.io.mmwrite(str(theirs), np.asarray(a))
    assert np.allclose(load_matrix(str(theirs)), a, rtol=0, atol=1e-14)


def test_mm_accepts_comments_blanks_and_case():
    text = (
        "%%MatrixMarket MATRIX Array Complex GENERAL\n"
        "% a comment\n"
        "\n"
        "% another\n"
        "2 2\n"
        "1.0 0.0\n"
        "% inline comment row\n"
        "0.0 0.0\n"
        "0.0 -1.0\n"
        "2.5E-1 1e3\n"
    )
    m = loads_matrix_market(text)
    assert m[0, 0] == 1.0
    assert m[1, 0] == 0.0
    assert m[0, 1] == -1.0j
    assert m[1, 1] == complex(0.25, 1000.0)


def test_mm_column_major_order():
    # entries run down column 0 first
    text = "%%MatrixMarket matrix array complex general\n2 3\n" + "\n".join(
        f"{k}.0 0.0" for k in range(1, 7)
    )
    m = loads_matrix_market(text)
    assert np.array_equal(m.real, np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]))


def test_mm_real_field():
    text = "%%MatrixMarket matrix array real general\n2 1\n1.5\n-2.5\n"
    m = loads_matrix_market(text)
    assert m.dtype == np.complex128
    assert np.array_equal(m, np.array([[1.5], [-2.5]]))


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("not a header\n2 2\n", 1),
        ("%%MatrixMarket matrix coordinate complex general\n2 2\n", 1),
        ("%%MatrixMarket matrix array complex general\n%only comments\n", 3),
        ("%%MatrixMarket matrix array complex general\ntwo two\n1 0\n", 2),
        ("%%MatrixMarket matrix array complex general\n2\n", 2),
        ("%%MatrixMarket matrix array complex general\n0 2\n", 2),
        ("%%MatrixMarket matrix array complex general\n1 1\n1.0\n", 3),
        ("%%MatrixMarket matrix array complex general\n1 1\nx 0\n", 3),
        ("%%MatrixMarket matrix array complex general\n1 1\nnan 0\n", 3),
        ("%%MatrixMarket matrix array complex general\n1 1\n1 0\n2 0\n", 4),
        ("%%MatrixMarket matrix array complex general\n2 1\n1 0\n", 4),
    ],
)
def test_mm_malformed_names_line(text, line):
    with pytest.raises(MatrixFormatError, match=f"line {line}:"):
        loads_matrix_market(text)


@pytest.mark.parametrize(
    "entry,real",
    [("inf 0", "inf"), ("0 -inf", "-inf"), ("nan nan", "nan"), ("1e999 0", "-1e999")],
)
def test_mm_non_finite_names_line(entry, real):
    text = f"%%MatrixMarket matrix array complex general\n% note\n2 1\n1 0\n{entry}\n"
    with pytest.raises(MatrixFormatError, match="^line 5: non-finite value$"):
        loads_matrix_market(text)
    text = f"%%MatrixMarket matrix array real general\n1 1\n{real}\n"
    with pytest.raises(MatrixFormatError, match="^line 3: non-finite value$"):
        loads_matrix_market(text)


def _refuse(*args, **kwargs):
    raise ValueError("fast path refused")


def _outcome(text):
    """The bits read from a Matrix Market text, or the error it raises."""
    try:
        return loads_matrix_market(text).tobytes()
    except MatrixFormatError as exc:
        return f"error: {exc}"


def _loop_outcome(text):
    """The same, read by the per-line loop alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", _refuse)
        return _outcome(text)


def _mm_text(a, entry):
    """Matrix Market text for ``a``, each component written by ``entry``."""
    rows, cols = a.shape
    lines = ["%%MatrixMarket matrix array complex general", f"{rows} {cols}"]
    lines += [f"{entry(z.real)} {entry(z.imag)}" for z in a.T.reshape(-1)]
    return "\n".join(lines) + "\n"


def _mmwrite_text(a):
    buf = io.BytesIO()
    scipy.io.mmwrite(buf, a, symmetry="general")
    return buf.getvalue().decode()


_doubles = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(deadline=None, max_examples=60)
@given(
    hnp.arrays(
        np.complex128,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
        elements=st.builds(complex, _doubles, _doubles),
    )
)
def test_mm_writers_read_back_bit_identical(a):
    texts = [
        (dumps_matrix_market(a), a),
        (_mm_text(a, lambda x: repr(float(x))), a),
        (_mmwrite_text(a), a),
        (_mmwrite_text(a.real.copy()), a.real.astype(np.complex128)),
    ]
    for text, want in texts:
        back = loads_matrix_market(text)
        assert back.dtype == np.complex128 and back.shape == want.shape
        assert back.tobytes() == want.tobytes()
        assert _loop_outcome(text) == back.tobytes()


_MM_COMPLEX = "%%MatrixMarket matrix array complex general\n"
_MM_REAL = "%%MatrixMarket matrix array real general\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text,expect",
    [
        (_MM_COMPLEX + "1 2\n1_0 0\n\u0661 0\n", [10.0, 1.0]),
        (_MM_COMPLEX + "1 1\n0x1p3 0\n", "error: line 3: unparseable number"),
        (_MM_COMPLEX + "1 1\n1e999 0\n", "error: line 3: non-finite value"),
        (_MM_COMPLEX + "1 1\n0 nan\n", "error: line 3: non-finite value"),
        (_MM_COMPLEX + "1 3\n+1 0\n.5 0\n5. 0\n", [1.0, 0.5, 5.0]),
        (_MM_COMPLEX + "2 1\n1\t2\n3 \t 4\n", [1 + 2j, 3 + 4j]),
        (_MM_COMPLEX + "2 1\n1\x0b2\n3 4\n", "error: line 3: expected 2 number(s), got 1"),
        (_MM_REAL + "1 1\n1.5-2\n", "error: line 3: unparseable number"),
        (_MM_COMPLEX + "2 1\n1 2 3\n4\n", "error: line 3: expected 2 number(s), got 3"),
        (_MM_COMPLEX + "2 1\n1 0\n2 0\n\n", [1.0, 2.0]),
        (_MM_COMPLEX + "2 1\n1 0\n\n", "error: line 5: expected 2 entries, file ends after 1"),
        (_MM_COMPLEX + "1 1\n   \n", "error: line 4: expected 1 entries, file ends after 0"),
        (_MM_COMPLEX + "3 1\n1 0\n\n2 0\n", "error: line 6: expected 3 entries, file ends after 2"),
        (_MM_COMPLEX + "2 1\n1 0\n% note\n2 0\n", [1.0, 2.0]),
        (_MM_COMPLEX + "2 1\n1 0\n%\n", "error: line 5: expected 2 entries, file ends after 1"),
    ],
    ids=[
        "underscore", "hex", "overflow", "nan", "signs-and-points", "tabs",
        "vertical-tab", "no-exponent-letter", "three-then-one", "trailing-blank",
        "blank-last-entry", "whitespace-only", "blank-inside", "comment-inside",
        "percent-last",
    ],
)
def test_mm_adversarial_tokens_read_as_the_loop_does(text, expect):
    got = _outcome(text)
    assert got == _loop_outcome(text)
    if isinstance(expect, str):
        assert got == expect
    else:
        assert got == np.array(expect, dtype=np.complex128).reshape(-1, 1).tobytes()


def test_mm_written_files_take_the_fast_path(rng, monkeypatch):
    def loop(*args):
        raise AssertionError("per-line loop ran")

    monkeypatch.setattr(numrad.matio, "_mm_body_loop", loop)
    a = np.ascontiguousarray(random_complex(rng, 7)[:, :5])
    assert loads_matrix_market(dumps_matrix_market(a)).tobytes() == a.tobytes()
    assert loads_matrix_market(_mmwrite_text(a)).tobytes() == a.tobytes()
    assert np.array_equal(loads_matrix_market(_mmwrite_text(a.real.copy())), a.real)


def test_mm_size_line_past_the_file_allocates_only_its_lines():
    # 10^12 entries would need 16 TB; the file holds one
    text = _MM_COMPLEX + "1000000 1000000\n1 0\n"
    with pytest.raises(
        MatrixFormatError, match="^line 4: expected 1000000000000 entries, file ends after 1$"
    ):
        loads_matrix_market(text)


def test_json_reader_validation():
    with pytest.raises(MatrixFormatError, match="line 2:"):
        loads_json_matrix('{"rows": 1,\n "cols": }')
    with pytest.raises(MatrixFormatError, match="missing key"):
        loads_json_matrix('{"rows": 1, "cols": 1}')
    with pytest.raises(MatrixFormatError):
        loads_json_matrix('{"rows": 0, "cols": 1, "data": []}')
    with pytest.raises(MatrixFormatError):
        loads_json_matrix('{"rows": 1, "cols": 2, "data": [[1, 0]]}')
    with pytest.raises(MatrixFormatError):
        loads_json_matrix('{"rows": 1, "cols": 1, "data": [[1]]}')
    with pytest.raises(MatrixFormatError):
        loads_json_matrix('{"rows": 1, "cols": 1, "data": [[1, true]]}')
    with pytest.raises(MatrixFormatError):
        loads_json_matrix('{"rows": 1, "cols": 1, "data": [[1, NaN]]}')
    with pytest.raises(MatrixFormatError):
        loads_json_matrix('[1, 2]')


@pytest.mark.parametrize("rows,cols", [("true", "true"), ("1", "true"), ("false", "1")])
def test_json_boolean_dimensions_are_refused(rows, cols):
    text = f'{{"rows": {rows}, "cols": {cols}, "data": [[1, 0]]}}'
    with pytest.raises(
        MatrixFormatError, match="^line 1: 'rows' and 'cols' must be positive integers$"
    ):
        loads_json_matrix(text)


def test_json_huge_integer_names_its_entry():
    # JSON reads these digits as a Python int that no double holds
    big = "1" + "0" * 400
    text = f'{{"rows": 1, "cols": 2, "data": [[0, 0], [{big}, 0]]}}'
    with pytest.raises(MatrixFormatError, match=r"^line 1: data\[1\] is outside the double range$"):
        loads_json_matrix(text)


def test_json_row_major_order():
    m = loads_json_matrix(
        '{"rows": 2, "cols": 2, "data": [[1,0],[2,0],[3,0],[4,0]]}'
    )
    assert np.array_equal(m.real, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_file_helpers_and_format_inference(rng, tmp_path):
    a = random_complex(rng, 3)
    for name in ("m.mtx", "m.mm", "m.json"):
        path = tmp_path / name
        save_matrix(a, str(path))
        assert load_matrix(str(path)).tobytes() == a.tobytes()
    odd = tmp_path / "m.txt"
    with pytest.raises(ValueError, match="extension"):
        save_matrix(a, str(odd))
    save_matrix(a, str(odd), fmt="mm")
    assert load_matrix(str(odd), fmt="mm").tobytes() == a.tobytes()
    with pytest.raises(ValueError):
        load_matrix(str(odd), fmt="yaml")


def test_g17_round_trips_doubles(rng):
    vals = list(rng.standard_normal(50)) + [0.0, 1e-308, 1e308, -2.5e-17]
    for v in vals:
        assert float(g17(v)) == v


def test_json_encode_formats():
    text = json_encode({"a": 0.1, "flags": [True, False], "n": 3, "s": "x"})
    assert "0.10000000000000001" in text
    assert "true" in text and "false" in text
    import json as j

    obj = j.loads(text)
    assert obj["a"] == 0.1
    assert obj["n"] == 3
    with pytest.raises(TypeError):
        json_encode({"bad": object()})


def test_json_encode_writes_non_finite_floats_as_strings():
    # JSON has no number for them; strict parsers refuse bare inf and nan
    values = [float("inf"), -float("inf"), float("nan"), np.float64("inf"), 1.5]
    text = json_encode({"v": values})
    assert '"v": ["inf", "-inf", "nan", "inf", 1.5]' in text
    import json as j

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    assert j.loads(text, parse_constant=refuse)["v"][:3] == ["inf", "-inf", "nan"]
