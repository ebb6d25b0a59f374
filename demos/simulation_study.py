# A small but complete simulation study run through the experiment harness.
#
# Ten replicates of the half-noise heavy-tail setup, three standardisations,
# two aggregation orders, clustering plus classification.  Results land in
# demos/output/ as a CSV of raw records and a JSON of grouped summaries.
# Running the script twice produces byte-identical files; so does changing
# the job count (SCALEDIST_JOBS, default the number of CPUs the process may
# use), which only affects wall time.
#
# Run with:  python3 demos/simulation_study.py

import json
import math
import pathlib

from scaledist.harness import ExperimentConfig, run_experiment_to_files

out_dir = pathlib.Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

config = ExperimentConfig(
    setup="ntn_05",
    replicates=10,
    seed=20260816,
    p=100,
    n_per_class=25,
    standardisations=("none", "mad", "boxplot"),
    orders=(1.0, math.inf),
    methods=("pam", "knn3"),
)

records_path = out_dir / "records.csv"
summary_path = out_dir / "summary.json"
run_experiment_to_files(config, records_path, summary_json=summary_path)

summary = json.loads(summary_path.read_text())
print("wrote %s and %s" % (records_path, summary_path))
print()
print("%-18s %-10s %6s %8s %8s" % ("metric", "scaling", "q", "mean", "se"))
for row in sorted(summary["groups"],
                  key=lambda r: (r["metric"], r["standardisation"], r["q"])):
    print("%-18s %-10s %6s %8.4f %8.4f" % (
        row["metric"], row["standardisation"], row["q"], row["mean"], row["se"]))

print()
print("pam rows report adjusted rand index (higher is better), knn3 rows")
print("report misclassification (lower is better); boxplot at q=1 should")
print("dominate both tables")
