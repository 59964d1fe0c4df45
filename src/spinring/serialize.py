"""Deterministic text output: real formatting that round-trips binary64, a JSON emitter,
a CSV emitter of level tables straight from their arrays, and atomic file writes.

Reals are printed with 17 significant digits so parsing the output recovers the exact
double.  Identical inputs produce byte-identical output.
"""

import math
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii as _quoted  # what json.dumps runs for a str

import numpy as np

SCHEMA_VERSION = 1

JSON_INFINITY = "Infinity"   # accepted by json.loads
CSV_INFINITY = "inf"


def format_real(value: float, infinity_token: str = CSV_INFINITY) -> str:
    """17-significant-digit decimal form of a finite or infinite double."""
    value = float(value)
    if math.isnan(value):
        raise ValueError("NaN has no serialized form")
    if math.isinf(value):
        return infinity_token if value > 0 else "-" + infinity_token
    text = "%.17g" % value
    if "." not in text and "e" not in text:  # %g never prints "E"
        text += ".0"
    return text


def _emit(obj, out, indent: int, infinity_token: str) -> None:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(inner + _quoted(str(key)) + ": ")
            _emit(value, out, indent + 2, infinity_token)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _emit(value, out, indent + 2, infinity_token)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_real(obj, infinity_token))
    elif isinstance(obj, str):
        out.append(_quoted(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit_json(document) -> str:
    """Pretty JSON with deterministic key order (insertion order) and exact
    reals.  Infinities use the ``Infinity`` token python's parser accepts."""
    out: list = []
    _emit(document, out, 0, JSON_INFINITY)
    out.append("\n")
    return "".join(out)


def _real_rows(values: np.ndarray) -> list:
    """Each row of the R x k reals as ``format_real`` prints them, comma-joined, by one template
    a row: %.1f where %.17g prints no point or exponent (integral, below 1e17 in size)."""
    if np.isnan(values).any():
        raise ValueError("NaN has no serialized form")
    width = values.shape[1]  # bit j of a row's code picks %.1f for its cell j
    templates = [",".join(("%.17g", "%.1f")[code >> j & 1] for j in range(width))
                 for code in range(2 ** width)]
    codes = ((values == np.trunc(values)) & (np.abs(values) < 1e17)) @ (1 << np.arange(width))
    text = "\n".join([templates[c] for c in codes.tolist()]) % tuple(values.ravel().tolist())
    return text.split("\n") if len(values) else []


def emit_csv(header, tables) -> str:
    """CSV with '\\n' line endings of (alpha, energies, multiplicities, cells) level tables: a row
    (alpha, level index, energy, multiplicity) a level, with levels x separations x k ``cells``
    also (separation, its k cells) a level and separation; alpha and energies formatted once."""
    lines = [",".join(header)]
    for alpha, energies, multiplicities, cells in tables:
        alpha = format_real(alpha)
        rows = [f"{alpha},{li},{energy},{m}" for li, (energy, m) in enumerate(
            zip(_real_rows(energies[:, None]), multiplicities.tolist()))]
        if cells is not None:
            rows = [f"{row},{sep}," for row in rows for sep in range(1, cells.shape[1] + 1)]
            rows = map(str.__add__, rows, _real_rows(cells.reshape(len(rows), -1)))
        lines += rows
    return "\n".join(lines) + "\n"


def parse_real(text: str) -> float:
    """Inverse of format_real for both infinity tokens, which float reads in any case."""
    return float(text)


def atomic_write(path: str, text: str) -> None:
    """Write via a temporary file in the same directory plus rename, so a
    crash never leaves a half-written file at ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_output(text: str, path: str | None) -> None:
    """Write to the path atomically, or to stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write(path, text)
