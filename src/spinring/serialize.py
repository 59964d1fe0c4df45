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


class Fragment(str):
    """JSON text that ``_emit`` writes as it stands, already indented for its place."""


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
        out.append(obj if isinstance(obj, Fragment) else _quoted(obj))
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


def _real_text(values: np.ndarray, pattern: str, separator: str,
               infinity_token: str = CSV_INFINITY) -> str:
    """The rows of ``values`` by ``pattern``, joined by ``separator``: its %s slots print the first
    columns as ``format_real`` does, by one template a row (%.1f where %.17g prints no point or
    exponent: integral, below 1e17 in size), and its %d slots the integral columns after them."""
    if np.isnan(values).any():
        raise ValueError("NaN has no serialized form")
    parts, infinite, width = pattern.split("%s"), np.isinf(values), pattern.count("%s")
    reals = values[:, :width]
    kinds = ((reals == np.trunc(reals)) & (np.abs(reals) < 1e17)) + 2 * infinite[:, :width]
    codes = (kinds @ 3 ** np.arange(width)).tolist()  # digit j: %.17g, %.1f or %s
    templates = {code: parts[0] + "".join(("%.17g", "%.1f", "%s")[code // 3 ** j % 3] + part
                                          for j, part in enumerate(parts[1:]))
                 for code in set(codes)}
    cells = values.ravel().tolist()
    for i in np.flatnonzero(infinite).tolist():
        cells[i] = format_real(cells[i], infinity_token)
    return separator.join([templates[code] for code in codes]) % tuple(cells)


def emit_rows(entry: dict, values: np.ndarray, indent: int) -> Fragment:
    """The JSON list at ``indent`` of an ``entry`` a row of ``values``, as ``emit_json`` writes it:
    Fragment("%s") in ``entry`` takes a real of the row, Fragment("%d") an integer after them."""
    pattern, pad = [], "\n" + " " * (indent + 2)
    _emit(entry, pattern, indent + 2, JSON_INFINITY)
    text = _real_text(values, "".join(pattern), "," + pad, JSON_INFINITY)
    return Fragment(f"[{pad}{text}\n{' ' * indent}]" if len(values) else "[]")


def emit_csv(header, tables) -> str:
    """CSV with '\\n' line endings of (alpha, energies, multiplicities, cells) level tables: a row
    (alpha, level index, energy, multiplicity) a level, with levels x separations x k ``cells``
    also (separation, its k cells) a level and separation; alpha and energies formatted once."""
    lines = [",".join(header)]
    for alpha, energies, multiplicities, cells in tables:
        alpha = format_real(alpha)
        rows = [f"{alpha},{li},{energy},{m}" for li, (energy, m) in enumerate(
            zip(_real_text(energies[:, None], "%s", "\n").split("\n"), multiplicities.tolist()))]
        if cells is not None:
            rows = [f"{row},{sep}," for row in rows for sep in range(1, cells.shape[1] + 1)]
            pattern = ",".join(["%s"] * cells.shape[2])
            rows = map(str.__add__, rows, _real_text(cells.reshape(len(rows), -1), pattern,
                                                     "\n").split("\n"))
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
