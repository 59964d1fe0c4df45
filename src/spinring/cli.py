"""Command line front end.

Three subcommands: ``spectrum`` tabulates clustered levels, ``concurrence``
tabulates two-spin concurrence for every (level, separation) cell, and
``report`` runs a full sweep and emits one JSON document with counts,
censuses, crossing events, entanglement boundaries, and the
nearest-neighbor fit.

Exit codes: 0 on success, 2 on usage or configuration errors, 3 when the
numerics fail or memory runs out.
"""

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .model import INFINITY, RingSizeError, RingSpec, Variant
from .spectra import (CLUSTER_TOLERANCE_DEFAULT, EigensolverError, level_arrays,
                      momentum_decompositions)
from .entanglement import STRUCTURE_TOLERANCE_DEFAULT, StructureError, werner_measures
from .analysis import (CONCURRENCE_THRESHOLD_DEFAULT, RESOLUTION_DEFAULT,
                       InsufficientDataError, SweepError, _gaps_between,
                       _last_crossing, _linear_fit, _located_events, _momentum_point,
                       _point_cells, default_alpha_grid, entangled_projector_census,
                       separation_existence_intervals, sweep)
from .serialize import (SCHEMA_VERSION, Fragment, emit_csv, emit_json, emit_rows, parse_real,
                        write_output)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one invocation, after merging config file and
    flags (flags win)."""

    command: str
    n_sites: int
    alphas: tuple
    variant: Variant
    cluster_tolerance: float
    structure_tolerance: float
    concurrence_threshold: float
    resolution: float
    output_format: str
    output_path: str | None
    oliveira_inner_over_n: bool


def _parse_alpha(text: str) -> float:
    try:
        value = parse_real(text)
    except ValueError as exc:
        raise UsageError(f"bad alpha {text!r}") from exc
    if math.isnan(value) or value < 0:
        raise UsageError(f"alpha must be nonnegative, got {text!r}")
    return value + 0.0  # -0 is 0, so equal alpha sets give equal bytes


def _parse_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise UsageError(f"grid must be MIN:MAX:COUNT[:linear|log], got {text!r}")
    scale = parts[3] if len(parts) == 4 else "log"
    if scale not in ("linear", "log"):
        raise UsageError(f"grid scale must be linear or log, got {scale!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}") from exc
    if not (0 <= lo < hi) or count < 2 or math.isinf(hi):
        raise UsageError(f"grid needs 0 <= MIN < MAX finite and COUNT >= 2, got {text!r}")
    if scale == "log":
        if lo <= 0:
            raise UsageError("log grid needs MIN > 0")
        return tuple(np.logspace(math.log10(lo), math.log10(hi), count).tolist())
    return tuple(np.linspace(lo, hi, count).tolist())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinring",
        description="Exact spectra and two-spin entanglement of the "
                    "long-range Heisenberg ring.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="JSON config file; explicit flags override it")
    common.add_argument("--n", type=int, default=None, metavar="SITES",
                        help="number of ring sites")
    common.add_argument("--alpha", action="append", default=None, metavar="A",
                        help="coupling exponent; repeatable; 'inf' allowed")
    common.add_argument("--grid", default=None, metavar="MIN:MAX:COUNT[:SCALE]",
                        help="alpha grid, SCALE is linear or log (default log)")
    common.add_argument("--extra", action="append", default=None, metavar="A",
                        help="extra grid point; repeatable; 'inf' allowed")
    common.add_argument("--variant", default=None,
                        choices=["standard", "shifted", "ferromagnetic"])
    common.add_argument("--cluster-tolerance", type=float, default=None)
    common.add_argument("--structure-tolerance", type=float, default=None,
                        help="bound on the change of c between two solves (exit 3 beyond)")
    common.add_argument("--concurrence-threshold", type=float, default=None)
    common.add_argument("--resolution", type=float, default=None,
                        help="bisection bracket width for located events")
    common.add_argument("--format", default=None, choices=["csv", "json"])
    common.add_argument("--output", default=None, metavar="PATH",
                        help="output file (written atomically); default stdout")
    common.add_argument("--oliveira-normalization", default=None,
                        choices=["as-printed", "over-n"])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("spectrum", "clustered level table per alpha"),
                       ("concurrence", "two-spin concurrence table per alpha"),
                       ("report", "full sweep report as one JSON document")):
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    return data


_CONFIG_KEYS = {"n", "alpha", "grid", "extra", "variant", "cluster_tolerance",
                "structure_tolerance", "concurrence_threshold", "resolution",
                "format", "output", "oliveira_normalization"}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file values under explicit flags and fill defaults."""
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")

    def pick(key, default=None):  # the flag of the same name wins
        flag_value = getattr(args, key)
        return file_values.get(key, default) if flag_value is None else flag_value

    def pick_text(key, default=None):
        value = pick(key, default)
        if value is not None and not isinstance(value, str):
            raise UsageError(f"config key {key!r} must be a string, got {value!r}")
        return value

    n_sites = pick("n")
    if n_sites is None:
        raise UsageError("--n is required (flag or config)")
    if isinstance(n_sites, bool) or isinstance(n_sites, float) and not n_sites.is_integer():
        raise UsageError(f"--n must be an integer, got {n_sites!r}")
    try:
        n_sites = int(n_sites)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--n must be an integer, got {n_sites!r}") from exc
    if n_sites < 2:
        raise UsageError(f"--n must be at least 2, got {n_sites}")

    alphas = []
    alpha_values = pick("alpha")
    if alpha_values is not None:
        if not isinstance(alpha_values, list):
            raise UsageError("config key 'alpha' must be a list")
        alphas.extend(_parse_alpha(str(a)) for a in alpha_values)
    grid_text = pick("grid")
    if grid_text is not None:
        alphas.extend(_parse_grid(str(grid_text)))
    extra_values = pick("extra")
    if extra_values is not None:
        if not isinstance(extra_values, list):
            raise UsageError("config key 'extra' must be a list")
        alphas.extend(_parse_alpha(str(a)) for a in extra_values)
    if not alphas:
        if args.command == "report":
            alphas = list(default_alpha_grid())
        else:
            raise UsageError("provide at least one alpha via --alpha or --grid")
    alphas = tuple(sorted(set(alphas)))

    output_format = pick_text("format")
    if output_format is None:
        output_format = "json" if args.command == "report" else "csv"
    if output_format not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {output_format!r}")
    if args.command == "report" and output_format != "json":
        raise UsageError("report output is a JSON document; use --format json")

    variant_text = pick_text("variant", "standard")
    try:
        variant = Variant.parse(variant_text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    oliveira = pick_text("oliveira_normalization", "as-printed")
    if oliveira not in ("as-printed", "over-n"):
        raise UsageError(f"oliveira_normalization must be as-printed or over-n, "
                         f"got {oliveira!r}")

    def positive(key, default):
        value = pick(key, default)
        if isinstance(value, bool):  # float(true) would be 1.0
            raise UsageError(f"{key} must be a number, got {value!r}")
        try:
            value = float(value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{key} must be a number, got {value!r}") from exc
        if not value > 0 or math.isnan(value):
            raise UsageError(f"{key} must be positive, got {value!r}")
        return value

    return RunConfig(
        command=args.command,
        n_sites=n_sites,
        alphas=alphas,
        variant=variant,
        cluster_tolerance=positive("cluster_tolerance", CLUSTER_TOLERANCE_DEFAULT),
        structure_tolerance=positive("structure_tolerance", STRUCTURE_TOLERANCE_DEFAULT),
        concurrence_threshold=positive("concurrence_threshold", CONCURRENCE_THRESHOLD_DEFAULT),
        resolution=positive("resolution", RESOLUTION_DEFAULT),
        output_format=output_format,
        output_path=pick_text("output"),
        oliveira_inner_over_n=(oliveira == "over-n"),
    )


def _emit_table(config: RunConfig, header: tuple, tables: list, **settings) -> str:
    """The ``tables`` by ``emit_csv``, or as JSON rows after the run's settings and ``settings``."""
    if config.output_format == "csv":
        return emit_csv(header, tables)
    rows = [(alpha, li, energy, m, *tail) for alpha, energies, multiplicities, cells in tables
            for li, (energy, m) in enumerate(zip(energies.tolist(), multiplicities.tolist()))
            for tail in ([()] if cells is None else
                         [(sep, *cell) for sep, cell in enumerate(cells[li].tolist(), start=1)])]
    return emit_json({
        "schema_version": SCHEMA_VERSION,
        "command": config.command,
        "n_sites": config.n_sites,
        "variant": config.variant.value,
        "cluster_tolerance": config.cluster_tolerance,
        **settings,
        "rows": [dict(zip(header, row)) for row in rows],
    })


def cmd_spectrum(config: RunConfig) -> str:
    """Level table: one row per (alpha, level), ordered by (alpha, energy), from eigenvalues
    alone."""
    tables = [(alpha, *level_arrays(RingSpec(config.n_sites, alpha, config.variant),
                                    config.cluster_tolerance)[:2], None)
              for alpha in config.alphas]
    return _emit_table(config, ("alpha", "level_index", "energy", "multiplicity"), tables)


def cmd_concurrence(config: RunConfig) -> str:
    """Concurrence table: one row per (alpha, level, separation), the alphas solved in batches
    as ``sweep`` solves them (``momentum_decompositions``), each with its ``_point_cells``."""
    decs = momentum_decompositions(((RingSpec(config.n_sites, alpha, config.variant),
                                     config.cluster_tolerance) for alpha in config.alphas),
                                   config.structure_tolerance)
    tables = [(dec.spec.alpha, dec.energies, dec.multiplicities, _point_cells(dec))
              for dec in decs]
    header = ("alpha", "level_index", "energy", "multiplicity", "separation",
              "concurrence", "a", "b", "c", "structure_residual")
    return _emit_table(config, header, tables, structure_tolerance=config.structure_tolerance)


# a "crossings" entry: its alpha and bracket ends, then its two curves
_CROSSING = {"alpha": Fragment("%s"), "bracket": [Fragment("%s"), Fragment("%s")],
             "kind": "crossing", "curve_indices": [Fragment("%d"), Fragment("%d")]}


def _event_doc(event) -> dict | None:
    if event is None:
        return None
    doc = {
        "alpha": event.alpha,
        "bracket": [event.bracket[0], event.bracket[1]],
        "kind": event.kind,
        "curve_indices": list(event.curve_indices),
    }
    if event.separation is not None:
        doc["separation"] = event.separation
        doc["crossing_coincident"] = event.crossing_coincident
    return doc


def cmd_report(config: RunConfig) -> str:
    """Sweep the grid and assemble the full JSON report."""
    references: dict = {}  # the sweep's decompositions that bisection starts from
    result = sweep(config.n_sites, config.alphas, config.variant,
                   cluster_tolerance=config.cluster_tolerance,
                   structure_tolerance=config.structure_tolerance,
                   concurrence_threshold=config.concurrence_threshold,
                   references=references)

    backbone = [int(b) for b in result.backbone]
    rep_point = result.points[min(backbone, key=lambda i: abs(result.points[i].alpha - 1.0))]

    histogram = Counter(rep_point.multiplicities.tolist())

    n_seps = max(config.n_sites // 2, 1)
    positive = rep_point.cells[:, :, 0] > config.concurrence_threshold
    level_census = dict(enumerate(positive.sum(axis=0).tolist(), start=1))

    census = entangled_projector_census(result)
    census_doc = {
        "n_curves": census.n_curves,
        "n_entangled": census.n_entangled,
        "n_single_distance": len(census.single_distance),
        "n_multi_distance": len(census.multi_distance),
        "one_dim_curves": list(census.one_dim_indices),
        "one_dim_entangled": list(census.one_dim_entangled),
        "entangled": [{
            "curve_index": e.curve_index,
            "multiplicity": e.multiplicity,
            "distances": list(e.distances),
            "spans": {str(sep): [lo, hi] for sep, (lo, hi) in sorted(e.spans.items())},
        } for e in census.entangled],
    }

    crossings, boundaries = _located_events(result, config.resolution, range(1, n_seps + 1),
                                            references)
    last = _last_crossing(result, crossings, max(result.points[i].alpha for i in backbone))

    gaps_doc = {}
    for sep in range(1, n_seps + 1):
        gaps = _gaps_between(separation_existence_intervals(result, sep),
                             [e for e in boundaries if e.separation == sep])
        if gaps:
            gaps_doc[str(sep)] = [{"offset": _event_doc(off), "onset": _event_doc(on)}
                                  for off, on in gaps]

    max_sep_onsets = [e for e in boundaries
                      if e.kind == "onset" and e.separation == n_seps]
    max_distance_onset = min(max_sep_onsets, key=lambda e: e.alpha, default=None)

    at_infinity = result.points[-1]  # the fit's point, the sweep's if the grid holds it
    if at_infinity.alpha != INFINITY:
        at_infinity = _momentum_point(RingSpec(config.n_sites, INFINITY, config.variant),
                                      config.cluster_tolerance, config.structure_tolerance)
    try:
        fit = _linear_fit(at_infinity, config.concurrence_threshold)
        fit_doc = {"alpha": INFINITY, "a": fit.a, "b": fit.b,
                   "max_residual": fit.max_residual, "n_points": fit.n_points,
                   "max_concurrence": fit.max_concurrence}
    except InsufficientDataError:
        fit_doc = None

    meyer_wallach, oliveira = werner_measures(rep_point.cells, config.n_sites,
                                               config.oliveira_inner_over_n)
    measures = [{"level_index": li, "multiplicity": m, "meyer_wallach": mw, "oliveira": ol}
                for li, (m, mw, ol) in enumerate(zip(rep_point.multiplicities.tolist(),
                                                     meyer_wallach.tolist(), oliveira.tolist()))]

    return emit_json({
        "schema_version": SCHEMA_VERSION,
        "command": "report",
        "n_sites": config.n_sites,
        "variant": config.variant.value,
        "settings": {
            "cluster_tolerance": config.cluster_tolerance,
            "structure_tolerance": config.structure_tolerance,
            "concurrence_threshold": config.concurrence_threshold,
            "resolution": config.resolution,
            "oliveira_normalization": ("over-n" if config.oliveira_inner_over_n
                                       else "as-printed"),
        },
        "alpha_grid": [p.alpha for p in result.points],
        "generic_level_count": result.generic_count,
        "counts_per_alpha": [{"alpha": p.alpha, "count": p.count}
                             for p in result.points],
        "representative_alpha": rep_point.alpha,
        "projector_dimension_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "entangled_level_census": {str(k): v for k, v in level_census.items()},
        "entangled_projector_census": census_doc,
        "crossings": emit_rows(_CROSSING, np.column_stack([
            0.5 * (crossings["lo"] + crossings["hi"]), crossings["lo"], crossings["hi"],
            crossings["curves"]]), 2),
        "last_crossing": _event_doc(last),
        "entanglement_boundaries": [_event_doc(e) for e in boundaries],
        "separation_gaps": gaps_doc,
        "max_distance_onset": _event_doc(max_distance_onset),
        "nn_linear_fit": fit_doc,
        "global_measures": measures,
        "sweep_warnings": list(result.warnings),
    })


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "concurrence": cmd_concurrence,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        text = _COMMANDS[config.command](config)
        write_output(text, config.output_path)
    except (UsageError, RingSizeError) as exc:
        print(f"spinring: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SweepError, EigensolverError, StructureError,
            np.linalg.LinAlgError) as exc:
        print(f"spinring: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"spinring: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"spinring: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
