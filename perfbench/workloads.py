"""The benchmark's workloads: one simulation grid each, run through the harness.

Sizes are scaled down from the paper's replicate so that one benchmark
window times a dozen steps or more (see README.md).  Each workload keeps the
layer mix it was chosen for: which module dominates and which barely shows.

BENCHMARK.json gates paper_grid and small_grid_jobs2.  wide_fit and
many_objects are diagnostic: run them by name to see a layer change on the
load where it dominates, or stays flat.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from scaledist.harness import EXPERIMENT_METHODS, ExperimentConfig
from scaledist.standardise import METHODS


@dataclass(frozen=True)
class Workload:
    """One grid: setup, size, standardisations x orders x methods, job count.

    ``batch`` is the number of replicates per ``run_experiment`` call; it is
    used only when ``jobs`` > 1.  jobs = 1 workloads time ``run_replicate``
    one replicate at a time.
    """

    name: str
    why: str
    setup: str
    p: int
    n_per_class: int
    standardisations: tuple
    orders: tuple
    methods: tuple = EXPERIMENT_METHODS
    jobs: int = 1
    batch: int = 1

    def config(self, seed, replicates=None):
        """The ExperimentConfig of this grid under a master seed."""
        return ExperimentConfig(
            setup=self.setup,
            replicates=self.batch if replicates is None else replicates,
            seed=seed,
            standardisations=self.standardisations,
            orders=self.orders,
            methods=self.methods,
            p=self.p,
            n_per_class=self.n_per_class,
            oracle_pooling=True,
        )

    def cells(self):
        """Records one replicate produces."""
        return len(self.standardisations) * len(self.orders) * len(self.methods)

    def shape(self):
        return {
            "setup": self.setup,
            "p": self.p,
            "n_train": 2 * self.n_per_class,
            "n_test": 2 * self.n_per_class,
            "standardisations": list(self.standardisations),
            "orders": ["inf" if math.isinf(q) else q for q in self.orders],
            "methods": list(self.methods),
            "jobs": self.jobs,
            "replicates_per_call": self.batch if self.jobs > 1 else 1,
            "cells_per_replicate": self.cells(),
        }

    def tiny(self):
        """The same grid at smoke-test size: p = 20, 5 per class."""
        return dataclasses.replace(self, p=20, n_per_class=5, batch=min(self.batch, 4))


INF = math.inf

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_grid",
            why="the paper's grid at p >> n: distances dominate (~60%), then linkage and "
                "the fit; every module runs, so a distance-kernel change shows most",
            setup="ntn_05", p=500, n_per_class=75,
            standardisations=("none", "mad", "boxplot"), orders=(1.0, 2.0, 3.0, 4.0, INF),
        ),
        Workload(
            name="wide_fit",
            why="very wide, few rows: the standardisation fit (tail solves, per-column "
                "statistics) is ~93% of time; distances barely show",
            setup="ntn_09", p=1200, n_per_class=10,
            standardisations=METHODS, orders=(1.0,),
        ),
        Workload(
            name="many_objects",
            why="many rows, few variables: linkage dominates; shows linkage or PAM "
                "changes, while the fit barely shows",
            setup="ntn_05", p=50, n_per_class=150,
            standardisations=("none", "mad", "boxplot"), orders=(1.0, INF),
        ),
        Workload(
            name="small_grid_jobs2",
            why="small replicates via run_experiment at jobs=2: process-pool dispatch "
                "and fixed per-call costs weigh most; the only harness workload",
            setup="ntn_05", p=200, n_per_class=20,
            standardisations=METHODS, orders=(1.0, 2.0, INF),
            jobs=2, batch=4,
        ),
    )
}
