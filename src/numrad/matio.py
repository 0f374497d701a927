"""Reading and writing dense complex matrices.

Two interchange formats:

* Matrix Market ``array complex general`` (also accepts ``real``): header
  line, optional ``%`` comment lines, a ``rows cols`` size line, then one
  entry per line in column-major order, ``re im`` for complex files.
* JSON: ``{"rows": m, "cols": n, "data": [[re, im], ...]}`` with ``data``
  flattened in row-major order.

Writers emit 17 significant digits so that a write/read round trip
reproduces every float bit-for-bit.  Reader errors carry 1-based line
numbers.

The Matrix Market reader parses a body of exactly ``rows*cols`` lines in
one ``np.loadtxt`` call and keeps the result when it has one entry per line
and every value is finite.  Otherwise (comment or blank lines inside the
body, a wrong token count, a token ``loadtxt`` refuses, a non-finite value)
it reads the body again one line at a time; that loop alone words the
errors.  ``loadtxt`` rounds as ``float()`` does and refuses some tokens
``float()`` takes (``1_0``, non-ASCII digits), which the loop then reads,
so both paths give the same bits and the same errors.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .linalg import as_matrix


class MatrixFormatError(ValueError):
    """Malformed matrix file; the message names the offending line."""


def g17(x: float) -> str:
    """17 significant digits: enough to reproduce any double exactly."""
    return format(float(x), ".17g")



def json_encode(value, indent: int = 0) -> str:
    """JSON text with every float at 17 significant digits.

    The stock encoder prints shortest round-trip representations; machine
    reports here promise a fixed digit count instead.  JSON has no number
    for inf or nan, so a non-finite float is the string "inf", "-inf" or
    "nan".  Lists of objects get one element per line, everything else
    stays inline.
    """
    pad = " " * indent
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        text = g17(value)
        return text if math.isfinite(value) else f'"{text}"'
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if any(isinstance(v, dict) for v in value):
            items = [json_encode(v, indent + 2) for v in value]
            inner = (",\n" + pad + "  ").join(items)
            return "[\n" + pad + "  " + inner + "\n" + pad + "]"
        return "[" + ", ".join(json_encode(v, indent) for v in value) + "]"
    if isinstance(value, dict):
        items = [
            f"{json.dumps(str(k))}: {json_encode(v, indent + 2)}"
            for k, v in value.items()
        ]
        inner = (",\n" + pad + "  ").join(items)
        return "{\n" + pad + "  " + inner + "\n" + pad + "}"
    raise TypeError(f"cannot encode {type(value).__name__} as JSON")


# --- Matrix Market ---------------------------------------------------------

_MM_BANNER = "%%matrixmarket"


def loads_matrix_market(text: str):
    lines = text.splitlines()
    if not lines:
        raise MatrixFormatError("line 1: empty file, expected a MatrixMarket header")
    header = lines[0].strip().lower().split()
    if not header or not header[0].startswith(_MM_BANNER):
        raise MatrixFormatError("line 1: missing %%MatrixMarket header")
    if header not in (
        [_MM_BANNER, "matrix", "array", "complex", "general"],
        [_MM_BANNER, "matrix", "array", "real", "general"],
    ):
        raise MatrixFormatError(
            "line 1: unsupported header, expected "
            "'%%MatrixMarket matrix array complex general' (or field 'real')"
        )
    field = header[3]

    # skip comment/blank lines to the size line
    i = 1
    while i < len(lines) and (not lines[i].strip() or lines[i].lstrip().startswith("%")):
        i += 1
    if i >= len(lines):
        raise MatrixFormatError(f"line {len(lines) + 1}: missing size line")
    parts = lines[i].split()
    if len(parts) != 2:
        raise MatrixFormatError(f"line {i + 1}: size line must hold two integers")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixFormatError(f"line {i + 1}: size line must hold two integers") from None
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"line {i + 1}: dimensions must be positive")

    want = rows * cols
    per_line = 2 if field == "complex" else 1
    body = lines[i + 1 :]
    values = None
    # one loadtxt call, else the loop (module docstring).  A blank last line
    # means too few entries and goes straight to the loop: loadtxt warns on
    # an all-blank body
    if len(body) == want and body[-1].strip():
        try:
            parsed = np.loadtxt(body, dtype=np.float64, comments=None, ndmin=2)
            if parsed.shape == (want, per_line) and np.isfinite(parsed).all():
                values = parsed.view(np.complex128) if per_line == 2 else parsed.astype(complex)
        except ValueError:
            pass
    if values is None:
        values = _mm_body_loop(lines, i + 1, want, per_line)
    # column-major: consecutive entries run down each column
    return values.reshape((cols, rows)).T.copy()


def _mm_body_loop(lines, start: int, want: int, per_line: int) -> np.ndarray:
    """Entries from ``lines[start:]`` one line at a time, naming any bad line."""
    # each entry takes a line, so a size line larger than the file allocates
    # no more than the file can fill
    values = np.empty(min(want, len(lines) - start), dtype=np.complex128)
    got = 0
    for j in range(start, len(lines)):
        stripped = lines[j].strip()
        if not stripped or stripped.startswith("%"):
            continue
        if got >= want:
            raise MatrixFormatError(f"line {j + 1}: extra entry beyond {want}")
        parts = stripped.split()
        if len(parts) != per_line:
            raise MatrixFormatError(
                f"line {j + 1}: expected {per_line} number(s), got {len(parts)}"
            )
        try:
            if per_line == 2:
                z = complex(float(parts[0]), float(parts[1]))
            else:
                z = complex(float(parts[0]), 0.0)
        except ValueError:
            raise MatrixFormatError(f"line {j + 1}: unparseable number") from None
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise MatrixFormatError(f"line {j + 1}: non-finite value")
        values[got] = z
        got += 1
    if got != want:
        raise MatrixFormatError(
            f"line {len(lines) + 1}: expected {want} entries, file ends after {got}"
        )
    return values


def dumps_matrix_market(a) -> str:
    m = as_matrix(a)
    rows, cols = m.shape
    out = ["%%MatrixMarket matrix array complex general", f"{rows} {cols}"]
    flat = m.T.reshape(-1)  # column-major
    out.extend(f"{g17(z.real)} {g17(z.imag)}" for z in flat)
    return "\n".join(out) + "\n"


# --- JSON ------------------------------------------------------------------


def loads_json_matrix(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"line {exc.lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise MatrixFormatError("line 1: top-level value must be an object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise MatrixFormatError(f"line 1: missing key {key!r}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    # bool is an int subclass, refused here as in data
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in (rows, cols)):
        raise MatrixFormatError("line 1: 'rows' and 'cols' must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise MatrixFormatError(
            f"line 1: 'data' must list {rows * cols} [re, im] pairs"
        )
    values = np.empty(rows * cols, dtype=np.complex128)
    for k, pair in enumerate(data):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise MatrixFormatError(f"line 1: data[{k}] is not a [re, im] number pair")
        try:
            values[k] = complex(pair[0], pair[1])
        except OverflowError:
            # an integer too large for a double
            raise MatrixFormatError(f"line 1: data[{k}] is outside the double range") from None
    if not np.all(np.isfinite(values.view(np.float64))):
        raise MatrixFormatError("line 1: data holds a non-finite value")
    # row-major
    return values.reshape((rows, cols)).copy()


def dumps_json_matrix(a) -> str:
    m = as_matrix(a)
    rows, cols = m.shape
    pairs = ", ".join(
        f"[{g17(z.real)}, {g17(z.imag)}]" for z in m.reshape(-1)
    )
    return f'{{"rows": {rows}, "cols": {cols}, "data": [{pairs}]}}\n'


# --- file-level helpers ----------------------------------------------------

_EXT_FORMATS = {".mtx": "mm", ".mm": "mm", ".json": "json"}


def _resolve_format(path: str, fmt: str) -> str:
    if fmt != "auto":
        if fmt not in ("mm", "json"):
            raise ValueError(f"unknown format {fmt!r}, expected 'mm', 'json' or 'auto'")
        return fmt
    ext = os.path.splitext(path)[1].lower()
    if ext in _EXT_FORMATS:
        return _EXT_FORMATS[ext]
    raise ValueError(
        f"cannot infer format from extension {ext!r}; pass fmt='mm' or fmt='json'"
    )


def load_matrix(path: str, fmt: str = "auto"):
    """Load a dense complex matrix from a Matrix Market or JSON file."""
    kind = _resolve_format(path, fmt)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if kind == "mm":
        return loads_matrix_market(text)
    return loads_json_matrix(text)


def save_matrix(a, path: str, fmt: str = "auto") -> None:
    """Write a matrix with 17 significant digits per component."""
    kind = _resolve_format(path, fmt)
    text = dumps_matrix_market(a) if kind == "mm" else dumps_json_matrix(a)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
