"""Acceptance suite: eight package-level checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Each criterion computes its sub-checks first, prints a single verdict line,
then asserts, so a red test still shows which part went wrong and by how
much.  Everything is seeded; the suite is deterministic.
"""

import itertools
import math

import numpy as np

from oracles import (
    improving_swap_exists,
    naive_cross,
    naive_linkage,
    naive_minkowski,
    naive_pairwise_square,
    pam_brute_force,
)
from scaledist.distance import cross, minkowski, pairwise
from scaledist.evaluate import adjusted_rand_index
from scaledist.harness import ExperimentConfig, run_experiment, run_experiment_to_files
from scaledist.learn import linkage, pam
from scaledist.simgen import SetupSpec
from scaledist.standardise import _solve_tail_exponents, fit_standardiser

SEED = 20260816
DESK_REPLICATES = 25
DESK_P = 200
DESK_N_PER_CLASS = 50


def _verdict(number, name, failures):
    status = "PASS" if not failures else "FAIL (%s)" % "; ".join(failures)
    print("criterion %d (%s): %s" % (number, name, status), flush=True)
    assert not failures, "criterion %d: %s" % (number, "; ".join(failures))


def _tail_residual(M, t):
    if t == 0.0:
        return math.log(M) - 1.5
    return -math.expm1(-t * math.log(M)) / t - 1.5


def _paired(records, metric, split_key, a, b, flip=False):
    """Mean difference a - b and its paired standard error over replicates."""
    va = np.array(sorted((r.replicate, r.value) for r in records
                         if r.metric == metric and split_key(r) == a))[:, 1]
    vb = np.array(sorted((r.replicate, r.value) for r in records
                         if r.metric == metric and split_key(r) == b))[:, 1]
    if flip:
        va, vb = 1.0 - va, 1.0 - vb
    d = va - vb
    se = d.std(ddof=1) / math.sqrt(d.size)
    return float(d.mean()), float(se), float(va.mean()), float(vb.mean())


def test_criterion_1_boxplot_transformation_suite():
    rng = np.random.default_rng(SEED)
    failures = []
    worst_pin = 0.0
    tails_seen = 0
    for index in range(500):
        n = int(rng.integers(20, 201))
        scale = float(rng.uniform(0.2, 30.0))
        shift = float(rng.uniform(-50.0, 50.0))
        if index % 2 == 0:
            x = rng.standard_normal(n) * scale + shift
        else:
            x = rng.standard_t(2, size=n) * scale + shift
        X = x.reshape(-1, 1)
        std = fit_standardiser(X, "boxplot")
        params = std.boxplot
        out = std.transform(X)[:, 0]

        # quartiles land on -0.5 / 0 / +0.5 within 1e-12
        anchors = np.array([
            params.median[0] - params.lqr[0],
            params.median[0],
            params.median[0] + params.uqr[0],
        ]).reshape(-1, 1)
        pin_err = float(np.abs(std.transform(anchors)[:, 0] - [-0.5, 0.0, 0.5]).max())
        worst_pin = max(worst_pin, pin_err)
        if pin_err > 1e-12:
            failures.append("variable %d: quartile pinning error %.3g" % (index, pin_err))
            break

        # outputs contained in [-2, 2]
        if out.min() < -2.0 or out.max() > 2.0:
            failures.append("variable %d: output outside [-2,2]" % index)
            break

        # the asymmetric flagging rule on the transformed variable: quartiles
        # sit at -0.5/0/+0.5, so the cutoffs are exactly -2 and 2
        flagged = np.count_nonzero((out < -0.5 - 3 * 0.5) | (out > 0.5 + 3 * 0.5))
        if flagged:
            failures.append("variable %d: %d observations flagged after transform"
                            % (index, flagged))
            break

        # solver residuals for whatever exponents were fitted
        for t, m_val in (
            (params.t_lower[0], 0.5 - params.scaled_min[0]),
            (params.t_upper[0], params.scaled_max[0] + 0.5),
        ):
            if not np.isnan(t):
                tails_seen += 1
                if abs(_tail_residual(float(m_val), float(t))) > 1e-10:
                    failures.append("variable %d: solver residual %.3g" % (
                        index, _tail_residual(float(m_val), float(t))))

        # continuity and unit slope at the joins, finite differences
        eps = 1e-6
        for side, t in (("lower", params.t_lower[0]), ("upper", params.t_upper[0])):
            if np.isnan(t):
                continue
            anchor = -0.5 if side == "lower" else 0.5
            half = params.lqr[0] if side == "lower" else params.uqr[0]
            raw = params.median[0] + 2.0 * half * np.array(
                [anchor - eps, anchor, anchor + eps]
            )
            lo, mid, hi = std.transform(raw.reshape(-1, 1))[:, 0]
            if abs((mid - lo) / eps - 1.0) > 1e-4 or abs((hi - mid) / eps - 1.0) > 1e-4:
                failures.append("variable %d: %s join slope off by >1e-4" % (index, side))
        if failures:
            break

    # negative-exponent branch: scaled minima in (-4.48, -2) mean M in (2.5, 4.98)
    M_draws = rng.uniform(2.5 + 1e-9, 4.98, size=300)
    for M, t in zip(M_draws.tolist(), _solve_tail_exponents(M_draws).tolist()):
        res = abs(_tail_residual(M, t))
        if res > 1e-10:
            failures.append("negative branch M=%.4f residual %.3g" % (M, res))
            break
        if M < math.exp(1.5) and t >= 0.0:
            failures.append("negative branch M=%.4f returned t=%.3g >= 0" % (M, t))
            break
    # and via the full fit path on constructed variables
    for m_scaled in rng.uniform(-4.48, -2.0 - 1e-9, size=50):
        X = np.array([m_scaled, -0.5, 0.0, 0.5, 1.0]).reshape(-1, 1)
        std = fit_standardiser(X, "boxplot")
        params = std.boxplot
        if np.isnan(params.t_lower[0]):
            failures.append("fit missed a lower tail at scaled min %.3f" % m_scaled)
            break
        out = std.transform(X)[:, 0]
        if out[0] < -2.0 or abs(out[0] + 2.0) > 1e-10:
            failures.append("training minimum mapped to %.12f, not -2" % out[0])
            break

    assert tails_seen > 100  # the random mix must actually exercise the tails
    _verdict(1, "boxplot transformation suite", failures)


def test_criterion_2_metric_suite():
    rng = np.random.default_rng(SEED + 1)
    failures = []
    orders = (1.0, 2.0, 3.0, 4.0, math.inf)

    scales = 10.0 ** rng.uniform(-3, 3, size=12)
    X = rng.standard_normal((400, 12)) * scales
    worst = 0.0
    for _ in range(10_000):
        i, j, k = rng.integers(0, X.shape[0], size=3)
        for q in orders:
            slack = minkowski(X[i], X[k], q) - minkowski(X[i], X[j], q) - minkowski(X[j], X[k], q)
            worst = max(worst, slack)
    if worst > 1e-9:
        failures.append("triangle inequality violated by %.3g" % worst)

    for q in orders:
        for _ in range(4):
            n_rows = int(rng.integers(4, 13))
            p = int(rng.integers(2, 11))
            A = rng.standard_normal((n_rows, p)) * rng.uniform(0.1, 100)
            D = pairwise(A, q).to_square()
            ref = naive_pairwise_square(A, q)
            mask = ref > 0
            rel = float(np.abs(D - ref)[mask].max() / ref[mask].min()) if mask.any() else 0.0
            if not np.allclose(D, ref, rtol=1e-12, atol=0):
                failures.append("pairwise vs oracle at q=%s (rel err %.3g)" % (q, rel))
            B = rng.standard_normal((int(rng.integers(2, 7)), p))
            if not np.allclose(cross(A, B, q), naive_cross(A, B, q), rtol=1e-12, atol=0):
                failures.append("cross vs oracle at q=%s" % q)

    for q, analytic in ((3.0, (1 + 2.0 ** 3) ** (1 / 3.0) * 1e150),
                        (4.0, (1 + 2.0 ** 4) ** (1 / 4.0) * 1e150)):
        got = minkowski([1e150, 2e150, 0.0], [0.0, 0.0, 0.0], q)
        if not math.isfinite(got) or abs(got - analytic) > 1e-10 * analytic:
            failures.append("overflow handling at q=%s gave %r" % (q, got))

    _verdict(2, "minkowski metric suite", failures)


def test_criterion_3_learner_oracle_equivalence():
    rng = np.random.default_rng(SEED + 2)
    failures = []

    # linkage vs the O(n^3) reference on 200 instances
    linkage_bad = 0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        D = pairwise(rng.uniform(0.0, 1.0, size=(n, 4)), 2)
        square = D.to_square()
        for method in ("complete", "average"):
            dend = linkage(D, method)
            merges, heights = naive_linkage(square, method)
            structural = np.array_equal(dend.merges, merges)
            if method == "complete":
                height_ok = np.array_equal(dend.heights, heights)
            else:
                height_ok = np.allclose(dend.heights, heights, rtol=1e-12, atol=0)
            if not (structural and height_ok):
                linkage_bad += 1
    if linkage_bad:
        failures.append("linkage differed from the naive reference on %d instances"
                        % linkage_bad)

    # deterministic build+swap against brute force
    hits = 0
    total = 0
    swap_failures = 0
    for _ in range(400):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, 4))
        if k >= n:
            continue
        D = pairwise(rng.standard_normal((n, 3)), 2)
        result = pam(D, k)
        square = D.to_square()
        if improving_swap_exists(square, result.medoids, result.objective):
            swap_failures += 1
        opt, _ = pam_brute_force(square, k)
        if result.objective < opt - 1e-12:
            failures.append("pam objective below the brute-force optimum")
        total += 1
        hits += result.objective <= opt + 1e-12
    rate = hits / total
    if swap_failures:
        failures.append("%d pam results admitted an improving swap" % swap_failures)
    if rate < 0.95:
        failures.append(
            "pam global-optimum rate %.3f < 0.95 (build+swap lands in local optima)"
            % rate
        )

    # index agreement with hand-computed values, exact comparisons
    if adjusted_rand_index([1, 1, 2, 2], [1, 1, 2, 2]) != 1.0:
        failures.append("ari of identical partitions is not exactly 1")
    if adjusted_rand_index([1, 1, 2, 2], [2, 2, 1, 1]) != 1.0:
        failures.append("ari is not renaming-invariant")
    if adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2]) != -0.5:
        failures.append("crossed partition ari is not exactly -0.5")

    _verdict(3, "clustering and index oracle equivalence", failures)


def test_criterion_4_no_standardisation_fails_in_high_dimension():
    cfg = ExperimentConfig(
        setup="simple_normal", replicates=DESK_REPLICATES, seed=SEED,
        p=DESK_P, n_per_class=DESK_N_PER_CLASS,
        standardisations=("none", "mad", "boxplot"), orders=(1.0, math.inf),
        methods=("knn3",),
    )
    records = run_experiment(cfg, jobs=4)
    failures = []

    def series(std, q):
        vals = [r.value for r in records if r.standardisation == std and r.q == q]
        v = np.array(vals)
        return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))

    base_mean, base_se = series("none", math.inf)
    if not base_mean > 0.5:
        failures.append("mean misclassification without standardisation at q=inf "
                        "is %.3f, expected > 0.5" % base_mean)
    for std in ("boxplot", "mad"):
        mean, se = series(std, 1.0)
        if not mean < 0.5:
            failures.append("%s at q=1 misclassification %.3f, expected < 0.5" % (std, mean))
        gap = base_mean - mean
        welch = math.sqrt(base_se ** 2 + se ** 2)
        if not gap >= 3.0 * welch:
            failures.append("%s at q=1 improves by %.3f, only %.1f standard errors"
                            % (std, gap, gap / welch))
    _verdict(4, "standardisation rescues 3-nn on plain normal data", failures)


def test_criterion_5_l1_aggregation_dominates():
    cfg = ExperimentConfig(
        setup="ntn_05", replicates=DESK_REPLICATES, seed=SEED,
        p=DESK_P, n_per_class=DESK_N_PER_CLASS,
        standardisations=("boxplot",), orders=(1.0, 2.0, 3.0, 4.0, math.inf),
        methods=("complete", "knn3"),
    )
    records = run_experiment(cfg, jobs=4)
    failures = []
    for metric, flip, label in (
        ("ari", False, "complete-linkage ari"),
        ("misclassification", True, "3-nn accuracy"),
    ):
        diff, se, mean1, mean_inf = _paired(
            records, metric, lambda r: r.q, 1.0, math.inf, flip=flip
        )
        if not (mean1 >= mean_inf and diff > 2.0 * se):
            failures.append("%s: q=1 vs q=inf gap %.4f (se %.4f) too small"
                            % (label, diff, se))
        for q in (2.0, 3.0, 4.0):
            diff_q, se_q, _, _ = _paired(records, metric, lambda r: r.q, q, 1.0, flip=flip)
            if diff_q > se_q:
                failures.append("%s: q=%g beats q=1 by %.4f > 1 se (%.4f)"
                                % (label, q, diff_q, se_q))
    _verdict(5, "L1 aggregation dominates under heavy tails and noise", failures)


def test_criterion_6_range_beats_mad_in_the_high_noise_regime():
    cfg = ExperimentConfig(
        setup="simple_normal_099", replicates=DESK_REPLICATES, seed=SEED,
        p=500, n_per_class=DESK_N_PER_CLASS,
        standardisations=("range", "mad"), orders=(1.0,),
        methods=("complete",),
    )
    records = run_experiment(cfg, jobs=4)
    diff, se, mean_range, mean_mad = _paired(
        records, "ari", lambda r: r.standardisation, "range", "mad"
    )
    failures = []
    if not diff >= 2.0 * se:
        failures.append(
            "range ari %.3f vs mad ari %.3f, gap %.4f is %.1f se, need >= 2"
            % (mean_range, mean_mad, diff, diff / se if se else math.inf)
        )
    _verdict(6, "range standardisation wins for clustering at 99% noise", failures)


def test_criterion_7_results_are_byte_identical_across_worker_counts(tmp_path):
    cfg = ExperimentConfig(
        setup="simple_normal", replicates=6, seed=SEED,
        p=60, n_per_class=15,
        standardisations=("none", "boxplot"), orders=(1.0, math.inf),
        methods=("pam", "knn3"),
    )
    outputs = []
    for jobs in (1, 3):
        path = tmp_path / ("run_jobs%d.csv" % jobs)
        run_experiment_to_files(cfg, path, jobs=jobs)
        outputs.append(path.read_bytes())
    failures = []
    if outputs[0] != outputs[1]:
        failures.append("results csv differs between 1 and 3 workers")
    _verdict(7, "experiment output independent of parallelism", failures)


def test_criterion_8_no_signal_means_no_structure():
    null_spec = SetupSpec(
        "all_noise", t2_fraction=0.1, noise_fraction=1.0,
        mean_diff=(0.0, 2.0), sd_range=(0.5, 10.0),
        p=DESK_P, n_per_class=DESK_N_PER_CLASS,
    )
    cfg = ExperimentConfig(
        setup=null_spec, replicates=DESK_REPLICATES, seed=SEED,
        standardisations=("none", "mad", "boxplot"), orders=(1.0, math.inf),
        methods=("pam", "complete", "average"),
    )
    records = run_experiment(cfg, jobs=4)
    failures = []
    for (std, q, method), group in itertools.groupby(
        sorted(records, key=lambda r: (r.standardisation, r.q, r.method)),
        key=lambda r: (r.standardisation, r.q, r.method),
    ):
        vals = np.array([r.value for r in group])
        mean = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        if se == 0.0:
            if mean != 0.0:
                failures.append("%s q=%s %s: constant nonzero ari %.4f" % (std, q, method, mean))
        elif abs(mean) > 3.0 * se:
            failures.append("%s q=%s %s: mean ari %.4f is %.1f se from 0"
                            % (std, q, method, mean, abs(mean) / se))
    _verdict(8, "all-noise null yields chance-level ari everywhere", failures)
