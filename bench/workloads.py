"""The benchmark's workloads: each turns a seed into the argv the CLI sees.

The program never sees the seed, only the generated argv.  The same seed
always gives the same argv.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0

ALPHA_MIN = 0.05
ALPHA_MAX = 12.0
REPORT_GRID_POINTS = 40
REPORT_EXTRAS = ("0", "2", "inf")
# the bisection resolution the report locates its events to; coarser than
# the CLI's 1e-3, so a call makes about 470 diagonalizations instead of about
# 2130 and lasts seconds, and a run holds several calls to take a median of
REPORT_RESOLUTION = "0.1"

# how many seed-drawn alphas each command gets
ALPHA_COUNTS = {"spectrum": 5, "concurrence": 2}


@dataclass(frozen=True)
class Workload:
    """One CLI command at a fixed ring size; ``kind`` is the subcommand."""

    name: str
    kind: str
    n_sites: int

    def inputs(self, seed: int) -> tuple[list, tuple]:
        """The argv for ``seed`` and the sorted alpha values it asks for."""
        rng = random.Random(seed)
        head = [self.kind, "--n", str(self.n_sites)]
        if self.kind == "report":
            # the log grid over [ALPHA_MIN, ALPHA_MAX], shifted by up to half a
            # grid step either way, so seeds move every point off the others
            step = math.log(ALPHA_MAX / ALPHA_MIN) / (REPORT_GRID_POINTS - 1)
            factor = math.exp((rng.random() - 0.5) * step)
            lo, hi = ALPHA_MIN * factor, ALPHA_MAX * factor
            argv = head + ["--grid", f"{lo!r}:{hi!r}:{REPORT_GRID_POINTS}:log"]
            for extra in REPORT_EXTRAS:
                argv += ["--extra", extra]
            argv += ["--resolution", REPORT_RESOLUTION]
            grid = np.logspace(math.log10(lo), math.log10(hi),
                               REPORT_GRID_POINTS).tolist()
            alphas = set(grid) | {float(e) for e in REPORT_EXTRAS}
            return argv, tuple(sorted(alphas))
        lo, hi = math.log(ALPHA_MIN), math.log(ALPHA_MAX)
        alphas = [math.exp(rng.uniform(lo, hi))
                  for _ in range(ALPHA_COUNTS[self.kind])]
        argv = list(head)
        for alpha in alphas:
            argv += ["--alpha", repr(alpha)]
        return argv, tuple(sorted(set(alphas)))


WORKLOADS = {w.name: w for w in (
    Workload("spectrum-n12", "spectrum", 12),
    Workload("concurrence-n10", "concurrence", 10),
    Workload("report-n8", "report", 8),
)}
