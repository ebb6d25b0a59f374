#!/usr/bin/env python3
"""Layered replicate benchmark for scaledist.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --smoke

Run from the repository root or anywhere else: the program is imported from
the ``src`` directory next to this one, never from an installed copy.

``--trace 0`` times the workload through the public harness API with nothing
added and reports the end-to-end metrics, with times in units of a fixed
reference task timed between the steps (reference.py).  ``--trace 1`` runs
the traced mirror (tracing.py) next to the untraced harness on the same
replicates and reports the per-layer metrics.  Both run the correctness gate (gate.py).  The
last line of standard output is the JSON result; the lines before it list
every metric with its unit and a JSON report (machine, load, shapes, scipy
reference points, gate failures).  ``--workload all`` runs each workload in
its own process.  ``--smoke`` runs every workload path at tiny size in both
modes and checks the result schema and the counters' determinism.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 15
REFERENCE_PASSES = 3  # reference passes after each timed step
MAX_REPLICATES = 10_000
CSV_PREFIX_REPLICATES = 2  # replicates re-run at jobs = 1 for the byte-identity check

# Runs in a fresh interpreter: import the program, build and validate the config.
SETUP_CHILD = r"""
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json
from pathlib import Path
import scaledist
from scaledist.harness import ExperimentConfig
if not Path(scaledist.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):
    sys.exit("scaledist was imported from outside " + sys.argv[1])
ExperimentConfig.from_json_dict(json.loads(sys.argv[2])).validate().resolve_spec()
print(time.perf_counter() - started)
"""


def import_program():
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import scaledist
    except ImportError as exc:
        sys.exit("perfbench: cannot import scaledist from %s: %s" % (SRC, exc))
    if not Path(scaledist.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit("perfbench: scaledist was imported from %s, not %s" % (scaledist.__file__, SRC))


import_program()

import envinfo  # noqa: E402  (after the path is set)
from gate import (  # noqa: E402
    Gate, check_data, check_records, check_same_records, record_key, scipy_reference,
)
from reference import reference_pass  # noqa: E402
from scaledist.harness import (  # noqa: E402
    replicate_seeds, run_experiment, run_replicate, write_records_csv,
)
from scaledist.simgen import generate  # noqa: E402
from tracing import Tracer, counters, layer_metrics, traced_replicate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def declared_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    try:
        spec = json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as exc:
        sys.exit("perfbench: cannot read %s: %s" % (SPEC_FILE, exc))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb():
    """Largest resident set of this process or any waited-for child, in MiB.

    The set-up children import less than this process does, so they never set it.
    """
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


def batch_seed(seed, b):
    """Master seed of the b-th run_experiment call of a jobs > 1 workload."""
    return replicate_seeds(seed, b + 1)[b]


class Run:
    """State of one benchmark run: records, failures and the gate."""

    def __init__(self, workload, seed, seconds, setup_repeats=0):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.setup_repeats = setup_repeats
        self.setup_times = []
        self.gate = Gate()
        self.attempted = 0
        self.raised = []
        self.records = []
        self.first_records = None

    def call(self, fn, *args, **kwargs):
        """One timed operation; an exception is counted, not propagated."""
        self.attempted += 1
        wall, cpu, children = time.perf_counter(), time.process_time(), children_cpu()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.raised.append(traceback.format_exc(limit=3))
            return None, 0.0, 0.0
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu + children_cpu() - children
        return out, wall, cpu

    def keep(self, records):
        if self.first_records is None:
            self.first_records = records
        self.records.extend(records)

    def should_stop(self, started, last_wall, n):
        """Stop before the next step would overrun the run length (at least one step)."""
        return n >= 1 and time.perf_counter() - started + last_wall > self.seconds

    def sample_setup(self):
        """Take one more set-up sample, if any are due."""
        if len(self.setup_times) < self.setup_repeats:
            self.setup_times.append(setup_once(self.workload.config(self.seed)))

    def between_steps(self):
        """Reference passes and a set-up sample after a timed step.

        They are taken between timed steps, so that they meet the same machine
        load as the steps: on a shared host, speed can change for seconds at a
        time, and back-to-back samples would all see one state.  Returns the
        wall seconds this took and the median wall and CPU seconds of the
        reference passes.
        """
        started = time.perf_counter()
        passes = [reference_pass() for _ in range(REFERENCE_PASSES)]
        self.sample_setup()
        return (time.perf_counter() - started, statistics.median(w for w, _ in passes),
                statistics.median(c for _, c in passes))


def measure(run, step, replicates_per_step):
    """Time ``step(0)``, ``step(1)``, ... until the window ends.

    Reference passes follow each step.  Returns one (wall, CPU, reference
    wall, reference CPU) sample per step that returned, its times per
    replicate, and the window's wall seconds without the pauses between steps.
    """
    samples = []
    paused = 0.0
    started = time.perf_counter()
    for b in range(MAX_REPLICATES):
        records, wall, cpu = run.call(step, b)
        pause, ref_wall, ref_cpu = run.between_steps()
        paused += pause
        if records is not None:
            run.keep(records)
            samples.append((wall / replicates_per_step, cpu / replicates_per_step, ref_wall, ref_cpu))
        if run.should_stop(started, wall + pause, len(samples)):
            break
    return samples, time.perf_counter() - started - paused


def setup_once(config):
    """Seconds a fresh interpreter takes to import scaledist and build and validate config."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(config.to_json_dict())],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        sys.exit("perfbench: set-up child failed: %s" % done.stderr.strip())
    return float(done.stdout.strip().splitlines()[-1])


def csv_bytes(records):
    """Bytes the harness writes for these records (through its own writer)."""
    with tempfile.TemporaryDirectory(prefix=".scratch-", dir=HERE) as tmp:
        path = Path(tmp) / "records.csv"
        write_records_csv(str(path), records)
        return path.read_bytes()


def check_csv_jobs(run, config, parallel_records, serial_records):
    """CSV bytes at jobs = 1 equal those at jobs > 1 for the same replicates.

    ``serial_records`` may cover a prefix of the replicates: replicate seeds
    are prefix-stable, so those rows must match the parallel file's first rows.
    """
    got = csv_bytes(serial_records)
    want = csv_bytes(parallel_records).splitlines(keepends=True)[: 1 + len(serial_records)]
    run.gate.check("csv bytes jobs=1 vs jobs=%d" % run.workload.jobs, got == b"".join(want),
                   "config seed %d" % config.seed)


def end_to_end(run):
    """--trace 0: harness calls only; end-to-end metrics."""
    workload = run.workload
    config = workload.config(run.seed)
    if workload.jobs == 1:
        # one replicate per step through run_replicate
        spec = config.resolve_spec()
        seeds = replicate_seeds(config.seed, MAX_REPLICATES)
        samples, elapsed = measure(run, lambda r: run_replicate(
            spec, config.setup, r, seeds[r], config.standardisations, config.orders,
            config.methods, config.oracle_pooling,
        ), 1)
    else:
        # one run_experiment call of ``batch`` replicates per step
        samples, elapsed = measure(run, lambda b: run_experiment(
            workload.config(batch_seed(run.seed, b)), jobs=workload.jobs,
        ), workload.batch)
    metrics = {"peak_rss_mb": peak_rss_mb()}
    raw = {}
    if samples:
        walls, cpus, ref_walls, ref_cpus = zip(*samples)
        # Each step's time in units of the reference passes right after it.
        metrics.update({
            "replicate_rel.p50": statistics.median(w / r for w, r in zip(walls, ref_walls)),
            "replicate_cpu_rel.p50": statistics.median(c / r for c, r in zip(cpus, ref_cpus)),
        })
        raw = {
            "cells_per_s": len(run.records) / elapsed,
            "replicate_s.p50": statistics.median(walls),
            "replicate_cpu_s.p50": statistics.median(cpus),
            "reference_s.p50": statistics.median(ref_walls),
            "reference_cpu_s.p50": statistics.median(ref_cpus),
        }
    while len(run.setup_times) < run.setup_repeats:
        run.sample_setup()
    metrics["setup_s"] = statistics.median(run.setup_times)
    if workload.jobs > 1 and run.first_records is not None:
        prefix = workload.config(batch_seed(run.seed, 0), min(CSV_PREFIX_REPLICATES, workload.batch))
        serial, _, _ = run.call(run_experiment, prefix, jobs=1)
        if serial is not None:
            check_csv_jobs(run, prefix, run.first_records, serial)
    details = {"samples": len(samples), "measured_s": elapsed, "raw": raw,
               "steps": {"columns": ["wall_s", "cpu_s", "reference_s", "reference_cpu_s"],
                         "rows": samples},
               "setup_s": run.setup_times}
    return metrics, details, None


def _mirror(tracer, spec, config, replicates):
    return [
        record
        for r, seed in replicates
        for record in traced_replicate(tracer, spec, config.setup, r, seed,
                                       config.standardisations, config.orders, config.methods)
    ]


def traced(run):
    """--trace 1: untraced harness and traced mirror on the same replicates.

    jobs = 1: each step is one replicate through run_replicate and through the
    mirror.  jobs > 1: each step is one run_experiment call at the workload's
    job count, the same call at jobs = 1, and the mirror over its replicates.
    The two serial sides alternate which runs first.
    """
    workload = run.workload
    tracer = Tracer()
    untraced = []  # serial harness wall seconds per step
    parallel = []  # run_experiment wall seconds at jobs > 1 per step
    started = time.perf_counter()
    for b in range(MAX_REPLICATES):
        step = time.perf_counter()
        if workload.jobs == 1:
            config = workload.config(run.seed)
            replicates = [(b, replicate_seeds(config.seed, b + 1)[b])]
            harness_side = functools.partial(
                run_replicate, config.resolve_spec(), config.setup, b, replicates[0][1],
                config.standardisations, config.orders, config.methods, config.oracle_pooling,
            )
        else:
            config = workload.config(batch_seed(run.seed, b))
            replicates = list(enumerate(replicate_seeds(config.seed, workload.batch)))
            parallel_records, wall, _ = run.call(run_experiment, config, jobs=workload.jobs)
            if parallel_records is None:
                break
            parallel.append(wall)
            harness_side = functools.partial(run_experiment, config, jobs=1)
        mirror_side = functools.partial(_mirror, tracer, config.resolve_spec(), config, replicates)
        order = (harness_side, mirror_side) if b % 2 == 0 else (mirror_side, harness_side)
        out = {side: run.call(side) for side in order}
        (harness_records, harness_wall, _), (mirror_records, _, _) = out[harness_side], out[mirror_side]
        if harness_records is None or mirror_records is None:
            break
        untraced.append(harness_wall)
        run.keep(harness_records)
        check_same_records(run.gate, "traced mirror vs harness records", mirror_records,
                           harness_records)
        if workload.jobs > 1:
            check_same_records(run.gate, "jobs=%d vs jobs=1 records" % workload.jobs,
                               parallel_records, harness_records)
            check_csv_jobs(run, config, parallel_records, harness_records)
        if run.should_stop(started, time.perf_counter() - step, len(untraced)):
            break
    if not untraced:
        return {}, {}, None
    traced_wall = sum(root for root, _, _ in tracer.replicates)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead"] = traced_wall / sum(untraced) - 1.0
    # Meaningful only at jobs > 1.  At jobs = 1 there is no parallel call, the
    # untraced serial wall stands in for it, and the ratio is 1 + trace.overhead.
    metrics["harness.parallel_efficiency"] = traced_wall / (workload.jobs * sum(parallel or untraced))
    details = {"samples": len(tracer.replicates), "measured_s": time.perf_counter() - started}
    return metrics, details, counters(tracer)


def run_workload(workload, seed, seconds, trace, setup_repeats=SETUP_REPEATS):
    """One benchmark run.  Returns (result, report) as printed."""
    run = Run(workload, seed, seconds, 0 if trace else setup_repeats)
    load_before = envinfo.load_sample()
    # warm-up: one tiny replicate of the same grid, so lazy set-up inside numpy
    # and first-touch allocation are not timed
    tiny = workload.tiny().config(seed)
    run.call(run_replicate, tiny.resolve_spec(), tiny.setup, 0, seed, tiny.standardisations,
             tiny.orders, tiny.methods, tiny.oracle_pooling)
    if trace:
        metrics, details, counts = traced(run)
    else:
        metrics, details, counts = end_to_end(run)
    n_test = 2 * workload.n_per_class
    check_records(run.gate, run.records, n_test)
    reference = {}
    config = workload.config(seed if workload.jobs == 1 else batch_seed(seed, 0))
    data = generate(config.resolve_spec(), replicate_seeds(config.seed, 1)[0])
    linkage_ms, _, _ = run.call(check_data, run.gate, workload, data)
    if linkage_ms is not None:
        reference = scipy_reference(workload, data, linkage_ms)
    failed = len(run.raised) + len(run.gate.failures)
    attempted = run.attempted + run.gate.attempted
    digest = None
    if run.first_records is not None:
        text = "\n".join(repr(record_key(r)) for r in run.first_records)
        digest = hashlib.sha256(text.encode()).hexdigest()
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": envinfo.machine(ROOT),
        "load_before": load_before,
        "load_after": envinfo.load_sample(),
        "shape": workload.shape(),
        **details,
        "error_rate": failed / max(attempted, 1),
        "failures": run.gate.failures + run.raised,
        "first_replicate_records_sha256": digest,
        "counters": counts,
        "reference": reference,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def finish(result, trace):
    """Attach units from BENCHMARK.json; every declared metric must be present."""
    units = declared_metrics(trace)
    values = result["metrics"]
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if extra:
        sys.exit("perfbench: metrics not declared in BENCHMARK.json: %s" % ", ".join(extra))
    if missing and result["failed"] == 0:
        sys.exit("perfbench: declared metrics not produced: %s" % ", ".join(missing))
    for name, value in values.items():
        if not math.isfinite(value):
            sys.exit("perfbench: metric %s is not finite: %r" % (name, value))
    result["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in units if name in values}
    return result


def print_run(result, report):
    print("workload %s  seed %d  trace %d  samples %s" % (
        report["workload"], report["seed"], report["trace"], report.get("samples")))
    for name, m in result["metrics"].items():
        print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    for name, value in report.get("raw", {}).items():
        print("  %-34s %16.6g (raw, not gated)" % (name, value))
    print("  %-34s %16.6g (%d of %d operations failed)" % (
        "error_rate", report["error_rate"], result["failed"], result["attempted"]))
    for line in report["failures"]:
        print("  FAILED " + line.strip().replace("\n", "\n         "))
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.exit("perfbench: workload %s failed: %s" % (name, done.stderr.strip()))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][name + "/" + metric] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def schema_problems(result, trace):
    """Ways a result line breaks the contract: keys, types, declared metric set."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append("attempted/failed must be whole numbers, attempted >= 1")
    units = declared_metrics(trace)
    if set(result["metrics"]) != set(units):
        problems.append("metric set differs from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != units.get(name) \
                or not isinstance(m["value"], (int, float)):
            problems.append("metric %s malformed: %r" % (name, m))
    return problems


def smoke(seed=7):
    """Every workload path at tiny size, both modes; schema, gate and counter checks."""
    failed = False
    for workload in WORKLOADS.values():
        tiny = workload.tiny()
        problems, counts = [], []
        for trace in (0, 1, 1):
            result, report = run_workload(tiny, seed, 0.05, trace, setup_repeats=1)
            result = json.loads(json.dumps(finish(result, trace)))
            problems += ["trace %d: %s" % (trace, p) for p in schema_problems(result, trace)]
            if not result["correct"]:
                problems.append("trace %d: gate failed: %s" % (trace, report["failures"]))
            if trace:
                counts.append(report["counters"])
        if counts[0] != counts[1]:
            problems.append("counters differ between two runs at seed %d: %s vs %s"
                            % (seed, counts[0], counts[1]))
        print("smoke %-18s %s" % (workload.name, "FAILED" if problems else "ok"))
        for p in problems:
            print("  " + p)
        failed = failed or bool(problems)
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload path at tiny size and check the schema")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of: all, %s" % ", ".join(WORKLOADS))
    result, report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print_run(finish(result, args.trace), report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
