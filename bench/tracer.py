"""Outside-in tracer for the spinring layers.

The tracer lives in the benchmark, not in the package: it replaces each
named function with a wrapper at every place the function's name is bound
in a loaded ``spinring`` module (``diagonalize``, for example, is bound in
``spectra``, ``analysis``, ``cli`` and the package itself).  Each call
becomes a span ``(name, parent, start, end)`` kept in memory; ``parent`` is
the index of the enclosing span, or -1.  Functions that are not named are
not wrapped, so their time is self time of the nearest wrapped caller.

Every per-layer time metric is self time: a span's duration minus the part
of it that its child spans cover.
"""

import functools
import math
import sys
import time

# metric group -> (module, functions); the metric is "<group>_s"
GROUPS = {
    "model.assembly": ("model", ("build_sector_blocks", "build_hamiltonian")),
    "spectra.eigensolve": ("spectra", ("diagonalize",)),
    "spectra.cluster": ("spectra", ("cluster_levels",)),
    "spectra.match": ("spectra", ("match_levels", "match_single_level")),
    "spectra.rho": ("spectra", ("uniform_state",)),
    "entanglement.pair": ("entanglement", ("pair_concurrence",)),
    "entanglement.global": ("entanglement", ("meyer_wallach", "oliveira_global")),
    "analysis.sweep": ("analysis", ("sweep",)),
    "analysis.records": ("analysis", ("_point_records",)),
    "analysis.crossings": ("analysis", ("all_crossings", "find_last_crossing")),
    "analysis.boundaries": ("analysis", ("entanglement_boundaries",
                                         "separation_gaps")),
    "analysis.other": ("analysis", ("entangled_projector_census",
                                    "nn_linear_fit")),
    "serialize.emit": ("serialize", ("emit_json", "emit_csv", "write_output")),
    "cli.self": ("cli", ("main",)),
}

GROUP_OF = {f"{module}.{name}": group
            for group, (module, names) in GROUPS.items() for name in names}

# per-layer metric -> unit; order is the order of the report
LAYER_METRICS = {
    **{f"{group}_s": "s" for group in GROUPS},
    "model.assembly_calls": "count",
    "spectra.diagonalize_calls": "count",
    "spectra.eig_work_computed": "count",
    "spectra.eigvec_bytes_computed": "B",
    "spectra.match_calls": "count",
    "spectra.rho_calls": "count",
    "spectra.rho_bytes_computed": "B",
    "entanglement.pair_calls": "count",
    "analysis.crossings_diagonalizations": "count",
    "analysis.boundaries_diagonalizations": "count",
    "serialize.output_bytes": "B",
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter(), 0.0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = time.perf_counter()

        return traced

    def install(self, package: str = "spinring") -> list:
        """Wrap every function in GROUPS wherever ``package`` binds it.

        Returns the names that the package does not define; their metrics
        read zero.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        missing = []
        for name in GROUP_OF:
            module_name, attr = name.split(".")
            fn = getattr(sys.modules.get(f"{package}.{module_name}"), attr, None)
            if fn is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
        return missing


def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for index, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children[index], key=lambda c: spans[c][2]):
            lo = max(spans[child][2], cursor)
            hi = min(spans[child][3], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, n_sites: int, output_bytes: int) -> dict:
    """Per-layer self times and counts of one traced call.

    Byte and work figures are computed from the call counts, not measured:
    each diagonalization forms the dense 2^N x 2^N eigenvector matrix and
    solves every magnetization block (cost ~ C(N, s)^3), and each uniform
    state is a dense 2^N x 2^N density matrix.
    """
    metrics = {name: 0.0 if unit == "s" else 0 for name, unit in LAYER_METRICS.items()}
    calls = {group: 0 for group in GROUPS}
    inside = {"analysis.crossings": 0, "analysis.boundaries": 0}
    for span, own in zip(spans, self_times(spans)):
        group = GROUP_OF[span[0]]
        metrics[f"{group}_s"] += own
        calls[group] += 1
        if span[0] == "spectra.diagonalize":
            parent = span[1]
            while parent >= 0:
                ancestor = GROUP_OF[spans[parent][0]]
                if ancestor in inside:
                    inside[ancestor] += 1
                    break
                parent = spans[parent][1]
    dense_bytes = 8 * 4 ** n_sites
    metrics["model.assembly_calls"] = calls["model.assembly"]
    metrics["spectra.diagonalize_calls"] = calls["spectra.eigensolve"]
    metrics["spectra.eig_work_computed"] = calls["spectra.eigensolve"] * sum(
        math.comb(n_sites, s) ** 3 for s in range(n_sites + 1))
    metrics["spectra.eigvec_bytes_computed"] = calls["spectra.eigensolve"] * dense_bytes
    metrics["spectra.match_calls"] = calls["spectra.match"]
    metrics["spectra.rho_calls"] = calls["spectra.rho"]
    metrics["spectra.rho_bytes_computed"] = calls["spectra.rho"] * dense_bytes
    metrics["entanglement.pair_calls"] = calls["entanglement.pair"]
    metrics["analysis.crossings_diagonalizations"] = inside["analysis.crossings"]
    metrics["analysis.boundaries_diagonalizations"] = inside["analysis.boundaries"]
    metrics["serialize.output_bytes"] = output_bytes
    return metrics
