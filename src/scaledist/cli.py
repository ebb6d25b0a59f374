"""Command-line entry points.

Subcommands mirror the library: simulate, standardise, distmat, cluster,
classify, experiment.  All failures print one diagnostic line to stderr and
exit nonzero, and each warning prints as one ``scaledist: warning:`` line;
output files are only written once fully computed.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import core, harness, simgen
from .distance import cross, pairwise, parse_order
from .learn import LINKAGE_METHODS, cut_tree, knn_classify, linkage, pam
from .standardise import METHODS, POOLED_METHODS, Standardiser, fit_standardiser


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="scaledist",
        description="Standardisation and Minkowski distance construction for "
                    "high-dimensional, low-sample-size data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a two-class dataset")
    p.add_argument("--setup", required=True,
                   help="setup name (%s)" % ", ".join(simgen.setup_catalog()))
    p.add_argument("--p", type=int, help="number of variables (override)")
    p.add_argument("--n-per-class", type=int, help="observations per class (override)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.train.csv, .train.labels, .test.csv, "
                        ".test.labels, .meta.json")

    p = sub.add_parser("standardise", help="standardise a matrix CSV")
    p.add_argument("--method", choices=METHODS,
                   help="fit this method on the input and transform it")
    p.add_argument("--params", help="apply previously saved parameters instead of fitting")
    p.add_argument("--save-params", help="write the fitted parameters as JSON")
    p.add_argument("--labels", help="label file (required for pooled methods)")
    p.add_argument("--cap", action="store_true",
                   help="cap boxplot output to [-2, 2] (for data the fit never saw)")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("distmat", help="pairwise distances of a matrix CSV, condensed")
    p.add_argument("--q", required=True, help="aggregation order (>= 1 or 'inf')")
    p.add_argument("--standardise", default="none", choices=METHODS, dest="method",
                   help="standardisation fitted on the input (default none)")
    p.add_argument("--labels", help="label file (required for pooled methods)")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("cluster", help="cluster a condensed distance file")
    p.add_argument("--method", required=True, choices=("pam",) + LINKAGE_METHODS)
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--out", help="write labels here instead of stdout")
    p.add_argument("distances")

    p = sub.add_parser("classify", help="k-nearest-neighbour prediction")
    p.add_argument("--train", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--q", required=True, help="aggregation order (>= 1 or 'inf')")
    p.add_argument("--standardise", default="none", choices=METHODS, dest="method",
                   help="fitted on training data, applied to both sides "
                        "(boxplot output is capped on the test side)")
    p.add_argument("--k", type=int, default=3, help="neighbour count (default 3)")
    p.add_argument("--out", help="write predictions here instead of stdout")

    p = sub.add_parser("experiment", help="run a simulation experiment grid")
    p.add_argument("--config", help="JSON config; command-line flags override it")
    p.add_argument("--setup", help="setup name or 'custom' fields in --config")
    p.add_argument("--p", type=int)
    p.add_argument("--n-per-class", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--standardise", help="comma list, e.g. none,mad,boxplot")
    p.add_argument("--q", help="comma list, e.g. 1,2,inf")
    p.add_argument("--methods", help="comma list out of %s" % ",".join(harness.EXPERIMENT_METHODS))
    p.add_argument("--oracle-pooling", action="store_true", default=None,
                   help="allow pooled standardisation for clustering (label-leaking)")
    p.add_argument("--timing", action="store_true", default=None,
                   help="fill the seconds column (breaks bytewise reproducibility)")
    p.add_argument("--jobs", type=int, help="worker processes (default: $%s or CPU count)"
                   % harness.JOBS_ENV_VAR)
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--summary", help="summary JSON path")
    return parser


def _pooled_labels(args):
    # class labels for a pooled --standardise method, else None
    if args.method not in POOLED_METHODS:
        return None
    if args.labels is None:
        raise ValueError("method %r requires --labels" % args.method)
    return core.read_labels(args.labels)


def _write_label_lines(labels, out):
    text = "\n".join(str(int(v)) for v in labels) + "\n"
    if out:
        core._atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args):
    spec = simgen._catalog_setup(args.setup).with_size(p=args.p, n_per_class=args.n_per_class)
    dataset = simgen.generate(spec, args.seed)
    simgen.write_dataset(dataset, args.out_prefix)


def _cmd_standardise(args):
    if (args.method is None) == (args.params is None):
        raise ValueError("give exactly one of --method or --params")
    if args.params is not None and args.save_params is not None:
        raise ValueError("--save-params needs --method, not --params")
    X, _ = core.read_matrix_csv(args.input)
    if args.params is not None:
        std = Standardiser.load(args.params)
    else:
        std = fit_standardiser(X, args.method, labels=_pooled_labels(args))
        if args.save_params:
            std.save(args.save_params)
    core.write_matrix_csv(args.output, std.transform(X, cap=args.cap))


def _cmd_distmat(args):
    X, _ = core.read_matrix_csv(args.input)
    std = fit_standardiser(X, args.method, labels=_pooled_labels(args))
    core.write_condensed(args.output, pairwise(std.transform(X), parse_order(args.q)))


def _cmd_cluster(args):
    D = core.read_condensed(args.distances)
    if args.method == "pam":
        labels = pam(D, args.k).labels
    else:
        labels = cut_tree(linkage(D, args.method), args.k)
    _write_label_lines(labels, args.out)


def _cmd_classify(args):
    x_train, _ = core.read_matrix_csv(args.train)
    y_train = core.read_labels(args.train_labels)
    x_test, _ = core.read_matrix_csv(args.test)
    labels = y_train if args.method in POOLED_METHODS else None
    std = fit_standardiser(x_train, args.method, labels=labels)
    q = parse_order(args.q)
    predictions = knn_classify(
        cross(std.transform(x_test, cap=True), std.transform(x_train), q),
        y_train,
        args.k,
    )
    _write_label_lines(predictions, args.out)


# experiment flags that override config keys: (flag attribute, key, comma list)
_EXPERIMENT_FLAGS = (
    ("setup", "setup", False),
    ("replicates", "replicates", False),
    ("seed", "seed", False),
    ("p", "p", False),
    ("n_per_class", "n_per_class", False),
    ("standardise", "standardisations", True),
    ("q", "orders", True),
    ("methods", "methods", True),
    ("oracle_pooling", "oracle_pooling", False),
    ("timing", "timing", False),
)


def _cmd_experiment(args):
    data = {}
    if args.config:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError("%s: invalid JSON (%s)" % (args.config, exc)) from None
        if not isinstance(data, dict):
            raise ValueError("%s: config must be a JSON object" % args.config)
    for attr, key, comma_list in _EXPERIMENT_FLAGS:
        value = getattr(args, attr)
        if value is not None:
            data[key] = [s.strip() for s in value.split(",") if s.strip()] if comma_list else value
    if "setup" not in data:
        raise ValueError("no setup given (use --setup or --config)")
    # run_experiment validates the config before anything is computed
    config = harness.ExperimentConfig.from_json_dict(data)
    harness.run_experiment_to_files(config, args.out, summary_json=args.summary,
                                    jobs=args.jobs)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "standardise": _cmd_standardise,
    "distmat": _cmd_distmat,
    "cluster": _cmd_cluster,
    "classify": _cmd_classify,
    "experiment": _cmd_experiment,
}


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print("scaledist: warning: %s" % message, file=sys.stderr)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # worker processes forked by the experiment subcommand inherit the hook
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            _COMMANDS[args.command](args)
        except (ValueError, TypeError, OSError) as exc:
            print("scaledist: error: %s" % exc, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
