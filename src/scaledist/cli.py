"""Command-line entry points.

Subcommands mirror the library: simulate, standardise, distmat, cluster,
classify, experiment.  All failures print one diagnostic line to stderr and
exit nonzero, and each warning prints as one ``scaledist: warning:`` line;
output files are only written once fully computed, and a command's files are
renamed into place together, so a failure leaves none of them.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import core, harness, simgen
from .distance import cross, pairwise, parse_order
from .learn import _check_k, cut_tree, knn_classify, linkage, pam
from .standardise import METHODS, Standardiser, fit_standardiser


def integer(text):
    # named for argparse's message: "invalid integer value: '1_0'"
    return core._parse_number(text, integer=True)


def _comma_list(text):
    return [s.strip() for s in text.split(",") if s.strip()]


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
    p.add_argument("--p", type=integer, help="number of variables (override)")
    p.add_argument("--n-per-class", type=integer, help="observations per class (override)")
    p.add_argument("--seed", type=integer, required=True)
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.train.csv, .train.labels, .test.csv, "
                        ".test.labels, .meta.json")

    p = sub.add_parser("standardise", help="standardise a matrix CSV")
    p.add_argument("--method", choices=METHODS,
                   help="fit this method on the input and transform it")
    p.add_argument("--params", help="apply previously saved parameters instead of fitting")
    p.add_argument("--save-params", help="write the fitted parameters as JSON")
    p.add_argument("--labels", help="label file, checked whenever given; pooled methods need it")
    p.add_argument("--cap", action="store_true",
                   help="cap boxplot output to [-2, 2] (for data the fit never saw)")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("distmat", help="pairwise distances of a matrix CSV, condensed")
    p.add_argument("--q", required=True, help="aggregation order (>= 1 or 'inf')")
    p.add_argument("--standardise", default="none", choices=METHODS, dest="method",
                   help="standardisation fitted on the input (default none)")
    p.add_argument("--labels", help="label file, checked whenever given; pooled methods need it")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("cluster", help="cluster a condensed distance file")
    p.add_argument("--method", required=True, choices=harness.CLUSTER_METHODS)
    p.add_argument("--k", type=integer, required=True, help="number of clusters")
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
    p.add_argument("--k", type=integer, default=3, help="neighbour count (default 3)")
    p.add_argument("--out", help="write predictions here instead of stdout")

    p = sub.add_parser("experiment", help="run a simulation experiment grid")
    p.add_argument("--config", help="JSON config; command-line flags override it")
    p.add_argument("--setup", help="setup name (%s); a custom setup is a JSON object "
                                   "under \"setup\" in --config"
                                   % ", ".join(simgen.setup_catalog()))
    p.add_argument("--p", type=integer)
    p.add_argument("--n-per-class", type=integer)
    p.add_argument("--replicates", type=integer)
    p.add_argument("--seed", type=integer)
    p.add_argument("--standardise", type=_comma_list, dest="standardisations",
                   help="comma list, e.g. none,mad,boxplot")
    p.add_argument("--q", type=_comma_list, dest="orders", help="comma list, e.g. 1,2,inf")
    p.add_argument("--methods", type=_comma_list,
                   help="comma list out of %s" % ",".join(harness.EXPERIMENT_METHODS))
    p.add_argument("--oracle-pooling", action="store_true", default=None,
                   help="allow pooled standardisation for clustering (label-leaking)")
    p.add_argument("--jobs", type=integer, help="worker processes (default: $%s or CPU count)"
                   % harness.JOBS_ENV_VAR)
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--summary", help="summary JSON path")
    return parser


def _fit(X, args):
    # the --labels file is read whenever given; fit_standardiser decides its use
    labels = None if args.labels is None else core.read_labels(args.labels)
    return fit_standardiser(X, args.method, labels=labels)


def _write_labels(labels, out):
    # predictions need not cover every class, so they are not checked
    text = core._labels_text(labels)
    if out:
        core._write_files([(out, text)])
    else:
        sys.stdout.write(text)


def _cmd_simulate(args):
    spec = simgen._catalog_setup(args.setup).with_size(p=args.p, n_per_class=args.n_per_class)
    dataset = simgen.generate(spec, args.seed)
    simgen.write_dataset(dataset, args.out_prefix)


def _cmd_standardise(args):
    if (args.method is None) == (args.params is None):
        raise ValueError("give exactly one of --method or --params")
    for flag in ("save_params", "labels"):
        if args.params is not None and getattr(args, flag) is not None:
            raise ValueError("--%s needs --method, not --params" % flag.replace("_", "-"))
    X = core.read_matrix_csv(args.input)
    std = Standardiser.load(args.params) if args.params is not None else _fit(X, args)
    # both files are written together, or neither
    texts = [] if args.save_params is None else [(args.save_params, std._json_text())]
    texts.append((args.output, core._matrix_text(std.transform(X, cap=args.cap))))
    core._write_files(texts)


def _cmd_distmat(args):
    q = parse_order(args.q)
    X = core.read_matrix_csv(args.input)
    std = _fit(X, args)
    core.write_condensed(args.output, pairwise(std.transform(X), q))


def _cmd_cluster(args):
    D = core.read_condensed(args.distances)
    if args.method == "pam":
        labels = pam(D, args.k).labels
    else:
        _check_k(args.k, D.n, "n")  # before the linkage, not at the cut
        labels = cut_tree(linkage(D, args.method), args.k)
    _write_labels(labels, args.out)


def _cmd_classify(args):
    q = parse_order(args.q)
    x_train = core.read_matrix_csv(args.train)
    y_train = core.read_labels(args.train_labels)
    x_test = core.read_matrix_csv(args.test)
    # the labels as the fit checks them, then k: both before the fit and the distances
    core.check_labels(y_train, n_expected=x_train.shape[0])
    _check_k(args.k, x_train.shape[0], "n_train")
    std = fit_standardiser(x_train, args.method, labels=y_train)
    predictions = knn_classify(
        cross(std.transform(x_test, cap=True), std.transform(x_train), q),
        y_train,
        args.k,
    )
    _write_labels(predictions, args.out)


def _cmd_experiment(args):
    data = {}
    if args.config:
        data = core._read_json(args.config)
        if not isinstance(data, dict):
            raise ValueError("%s: config must be a JSON object" % args.config)
    # each experiment flag's dest is the config key it overrides
    data.update((key, getattr(args, key)) for key in harness._CONFIG_KINDS
                if getattr(args, key) is not None)
    if "setup" not in data:
        raise ValueError("no setup given (use --setup or --config)")
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
        except (ValueError, TypeError, OSError, MemoryError) as exc:
            # numpy's MemoryError names the allocation it refused; a bare one is named
            print("scaledist: error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
