"""Output checks run on every benchmark call.

Two layers of checking:

* Invariants that hold at any seed, computed from the output alone plus an
  independent evaluation of the coupling weights:
  - the multiplicities at each alpha add up to 2^N;
  - for ``spectrum``, tr H = sum m E = 0 and tr H^2 = sum m E^2 =
    3 * 2^N * sum over pairs of w^2;
  - for ``concurrence``, 2a + 2b = 1, the Werner identity c = a - b,
    C = max(0, 2(|c| - a)), and the energy-correlator identity
    E = sum_d w_d n_d <s.s>_d with <s.s> = 2a - 2b + 4c, n_d pairs at
    separation d;
  - for ``report``, the alpha grid asked for, the histogram summing to
    2^N, Meyer-Wallach = 1 for every level, and well-formed events.
* At the default seed, a comparison with the reference output captured
  from the program (``reference/``): structure exactly (row keys, level
  counts, multiplicities, census and curve membership, event kinds),
  floats within FLOAT_ATOL, and located event positions within the
  report's bisection resolution.
"""

import csv
import io
import json
import math

# reference comparison, every float except located event positions; one and
# two BLAS threads differ by at most 1e-13 on these outputs
FLOAT_ATOL = 1e-9
# per-row identities on (a, b, c, C), which are of order one
IDENTITY_ATOL = 1e-10
# trace and energy identities, relative to the size of the summed terms
SUM_RTOL = 1e-9
# the CLI's default bound on a pair reduction's deviation from its structure
STRUCTURE_TOLERANCE = 1e-10

SPECTRUM_HEADER = ("alpha", "level_index", "energy", "multiplicity")
CONCURRENCE_HEADER = ("alpha", "level_index", "energy", "multiplicity",
                      "separation", "concurrence", "a", "b", "c",
                      "structure_residual")
INT_COLUMNS = {"level_index", "multiplicity", "separation"}
REPORT_KEYS = (
    "schema_version", "command", "n_sites", "variant", "settings",
    "alpha_grid", "generic_level_count", "counts_per_alpha",
    "representative_alpha", "projector_dimension_histogram",
    "entangled_level_census", "entangled_projector_census", "crossings",
    "last_crossing", "entanglement_boundaries", "separation_gaps",
    "max_distance_onset", "nn_linear_fit", "global_measures",
    "sweep_warnings")


class CheckError(AssertionError):
    """The program's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def coupling_weights(n_sites: int, alpha: float) -> dict:
    """Separation d -> (1/r_d)^alpha, r_d the chord distance with r_1 = 1."""
    weights = {}
    for d in range(1, n_sites // 2 + 1):
        if math.isinf(alpha):
            weights[d] = 1.0 if d == 1 else 0.0
        else:
            ratio = math.sin(math.pi / n_sites) / math.sin(math.pi * d / n_sites)
            weights[d] = 1.0 if d == 1 else ratio ** alpha
    return weights


def pair_counts(n_sites: int) -> dict:
    """Separation d -> number of site pairs of the ring at that separation."""
    return {d: n_sites // 2 if 2 * d == n_sites else n_sites
            for d in range(1, n_sites // 2 + 1)}


def _parse_csv(text: str, header: tuple) -> list:
    reader = csv.reader(io.StringIO(text))
    got = tuple(next(reader, ()))
    _require(got == header, f"CSV header {got} != {header}")
    rows = []
    for cells in reader:
        _require(len(cells) == len(header), f"CSV row has {len(cells)} cells")
        rows.append({key: int(cell) if key in INT_COLUMNS else float(cell)
                     for key, cell in zip(header, cells)})
    return rows


def _by_alpha(rows: list, alphas: tuple) -> dict:
    groups = {}
    for row in rows:
        groups.setdefault(row["alpha"], []).append(row)
    _require(tuple(groups) == tuple(alphas),
             f"rows cover alphas {list(groups)}, asked for {list(alphas)}")
    return groups


def _check_spectrum(rows: list, n_sites: int, alphas: tuple) -> None:
    for alpha, group in _by_alpha(rows, alphas).items():
        _require([r["level_index"] for r in group] == list(range(len(group))),
                 f"alpha={alpha}: level indices are not 0..{len(group) - 1}")
        energies = [r["energy"] for r in group]
        _require(energies == sorted(energies), f"alpha={alpha}: energies not ascending")
        mults = [r["multiplicity"] for r in group]
        _require(sum(mults) == 2 ** n_sites,
                 f"alpha={alpha}: multiplicities sum to {sum(mults)}, not 2^{n_sites}")
        trace = sum(m * e for m, e in zip(mults, energies))
        scale = sum(m * abs(e) for m, e in zip(mults, energies))
        _require(abs(trace) <= SUM_RTOL * scale, f"alpha={alpha}: tr H = {trace!r}, not 0")
        weights, counts = coupling_weights(n_sites, alpha), pair_counts(n_sites)
        expected = 3 * 2 ** n_sites * sum(counts[d] * w * w for d, w in weights.items())
        square = sum(m * e * e for m, e in zip(mults, energies))
        _require(abs(square - expected) <= SUM_RTOL * expected,
                 f"alpha={alpha}: tr H^2 = {square!r}, expected {expected!r}")


def _check_concurrence(rows: list, n_sites: int, alphas: tuple) -> None:
    seps = list(range(1, n_sites // 2 + 1))
    counts = pair_counts(n_sites)
    for alpha, group in _by_alpha(rows, alphas).items():
        weights = coupling_weights(n_sites, alpha)
        n_levels = len(group) // len(seps)
        _require(len(group) == n_levels * len(seps), f"alpha={alpha}: ragged level table")
        total = 0
        for li in range(n_levels):
            cells = group[li * len(seps):(li + 1) * len(seps)]
            _require([r["level_index"] for r in cells] == [li] * len(seps)
                     and [r["separation"] for r in cells] == seps,
                     f"alpha={alpha}: level {li} does not list separations {seps}")
            energy, mult = cells[0]["energy"], cells[0]["multiplicity"]
            _require(all(r["energy"] == energy and r["multiplicity"] == mult for r in cells),
                     f"alpha={alpha}: level {li} changes energy or multiplicity")
            total += mult
            correlation = 0.0
            for r in cells:
                a, b, c = r["a"], r["b"], r["c"]
                where = f"alpha={alpha} level={li} sep={r['separation']}"
                _require(abs(2 * a + 2 * b - 1) <= IDENTITY_ATOL, f"{where}: 2a + 2b != 1")
                _require(abs(c - (a - b)) <= IDENTITY_ATOL, f"{where}: c != a - b")
                _require(abs(r["concurrence"] - max(0.0, 2 * (abs(c) - a))) <= IDENTITY_ATOL,
                         f"{where}: C != max(0, 2(|c| - a))")
                _require(0 <= r["structure_residual"] < STRUCTURE_TOLERANCE,
                         f"{where}: structure residual {r['structure_residual']!r}")
                term = weights[r["separation"]] * counts[r["separation"]]
                correlation += term * (2 * a - 2 * b + 4 * c)
            _require(abs(correlation - energy) <= SUM_RTOL * (1 + abs(energy)),
                     f"alpha={alpha} level={li}: energy {energy!r} != "
                     f"sum of pair correlations {correlation!r}")
        _require(total == 2 ** n_sites,
                 f"alpha={alpha}: multiplicities sum to {total}, not 2^{n_sites}")


def _events(doc: dict) -> list:
    events = list(doc["crossings"]) + list(doc["entanglement_boundaries"])
    events += [e for e in (doc["last_crossing"], doc["max_distance_onset"]) if e]
    for gaps in doc["separation_gaps"].values():
        for gap in gaps:
            events += [gap["offset"], gap["onset"]]
    return events


def _check_report(doc: dict, n_sites: int, alphas: tuple) -> None:
    _require(tuple(doc) == REPORT_KEYS, f"report keys {list(doc)}")
    _require(doc["command"] == "report" and doc["n_sites"] == n_sites,
             "report is not for the requested command and ring")
    grid = doc["alpha_grid"]
    _require(len(grid) == len(alphas)
             and all(g == a or abs(g - a) <= 1e-12 for g, a in zip(grid, alphas)),
             f"report grid {grid} != requested {list(alphas)}")
    _require([p["alpha"] for p in doc["counts_per_alpha"]] == grid,
             "counts_per_alpha does not follow the grid")
    generic = doc["generic_level_count"]
    _require(max(p["count"] for p in doc["counts_per_alpha"]) == generic,
             "generic level count is not the largest count")
    histogram = doc["projector_dimension_histogram"]
    _require(sum(int(k) * v for k, v in histogram.items()) == 2 ** n_sites,
             "dimension histogram does not sum to 2^N")
    measures = doc["global_measures"]
    _require(sum(m["multiplicity"] for m in measures) == 2 ** n_sites,
             "global measures do not cover 2^N states")
    _require(all(abs(m["meyer_wallach"] - 1) <= IDENTITY_ATOL for m in measures),
             "Meyer-Wallach measure differs from 1")
    census = doc["entangled_projector_census"]
    _require(census["n_entangled"] == len(census["entangled"])
             == census["n_single_distance"] + census["n_multi_distance"],
             "entangled census counts disagree")
    _require(all(0 <= e["curve_index"] < census["n_curves"] for e in census["entangled"]),
             "census names a curve that does not exist")
    resolution = doc["settings"]["resolution"]
    for event in _events(doc):
        lo, hi = event["bracket"]
        _require(event["kind"] in ("crossing", "onset", "offset"),
                 f"unknown event kind {event['kind']!r}")
        _require(lo <= event["alpha"] <= hi and hi - lo <= resolution * (1 + 1e-9),
                 f"event at {event['alpha']!r} has bracket {event['bracket']}")
    for event in doc["crossings"] + doc["entanglement_boundaries"]:
        _require(all(0 <= c < generic for c in event["curve_indices"]),
                 "event names a curve that does not exist")
    alphas_located = [e["alpha"] for e in doc["crossings"]]
    _require(alphas_located == sorted(alphas_located), "crossings are not ascending")


def _compare(ref, out, path: str, atol: float, resolution: float) -> None:
    _require(type(ref) is type(out), f"{path}: {type(out).__name__} != {type(ref).__name__}")
    if isinstance(ref, dict):
        _require(list(ref) == list(out), f"{path}: keys {list(out)} != {list(ref)}")
        for key in ref:
            located = "kind" in ref and key in ("alpha", "bracket")
            _compare(ref[key], out[key], f"{path}.{key}",
                     max(atol, resolution) if located else atol, resolution)
    elif isinstance(ref, list):
        _require(len(ref) == len(out), f"{path}: {len(out)} items != {len(ref)}")
        for i, (r, o) in enumerate(zip(ref, out)):
            _compare(r, o, f"{path}[{i}]", atol, resolution)
    elif isinstance(ref, float):
        _require(ref == out or abs(ref - out) <= atol,
                 f"{path}: {out!r} differs from reference {ref!r} by more than {atol:g}")
    else:
        _require(ref == out, f"{path}: {out!r} != reference {ref!r}")


def check_output(kind: str, n_sites: int, alphas: tuple, text: str,
                 reference: str | None = None) -> None:
    """Raise CheckError unless ``text`` is a correct output of ``kind``.

    With a ``reference`` (the captured output for the same argv) the values
    are compared to it as well.
    """
    if kind == "report":
        doc = json.loads(text)
        _check_report(doc, n_sites, alphas)
        if reference is not None:
            ref_doc = json.loads(reference)
            _compare(ref_doc, doc, "report", FLOAT_ATOL, ref_doc["settings"]["resolution"])
        return
    header = SPECTRUM_HEADER if kind == "spectrum" else CONCURRENCE_HEADER
    rows = _parse_csv(text, header)
    (_check_spectrum if kind == "spectrum" else _check_concurrence)(rows, n_sites, alphas)
    if reference is not None:
        ref_rows = _parse_csv(reference, header)
        _require(len(rows) == len(ref_rows),
                 f"{len(rows)} rows, reference has {len(ref_rows)}")
        for i, (ref, row) in enumerate(zip(ref_rows, rows)):
            _compare(ref, row, f"row {i + 1}", FLOAT_ATOL, 0.0)
