"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Every tolerance is pinned here; nothing is deferred to
later calibration.  The heavy Monte Carlo runs are seeded and take a few
minutes in total.
"""

import numpy as np
from scipy import stats as scipy_stats

from ruleval import (
    ArmData,
    DEFAULT_MODEL,
    DEFAULT_PROXIES,
    DecisionRule,
    EstimatorConfig,
    ExperimentData,
    RewardSpec,
    SimulationConfig,
    SweepSpec,
    check_poisson_rescaling,
    check_rule_selection,
    estimate_reward,
    evaluate_rules,
    ingest_csv,
    make_synthetic_corpus,
    run_bias_sweep,
    write_corpus_csv,
)
from ruleval.cli import main
from ruleval.estimators import batch_rewards
from ruleval.figures import FIG2_NOISE_GRID, FIG3_UNITS_GRID, FIG4_EXPERIMENTS_GRID
from ruleval.streams import substream

REWARD = RewardSpec.metric(1)


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_poisson_rescaling_unbiasedness():
    # Leave-one-out CV with l!/m0^l rescaling is unbiased for the realized
    # reward of the rule under Poisson(5) enrollment; dropping the scaling
    # must fail the same 4-sigma equality test.
    result = check_poisson_rescaling(
        m0=5.0,
        leave_out=1,
        arm_means=(0.5, 0.6),
        rule_kind="argmax",
        replications=1_000_000,
        seed=0,
    )
    assert result.passed, (
        f"|{result.difference:.3e}| >= 4 x {result.se_combined:.3e}"
    )
    assert result.negative_control_rejected, "negative control was not rejected"
    report(
        "criterion 1 (rescaled leave-one-out unbiasedness)",
        f"|diff|={abs(result.difference):.2e} < 4*SE={4 * result.se_combined:.2e}; "
        f"negative control off by {result.negative_control_difference:+.3f} "
        f"(rejected)",
    )


def test_criterion_2_closed_forms_match_monte_carlo():
    # 40,000 replications x 100 experiments = 4e6 simulated experiments.
    config = SimulationConfig(
        model=DEFAULT_MODEL, num_replications=40_000, seed=0, mode="mean"
    )
    result = run_bias_sweep(config)
    details = []
    for row in result.rows:
        rel_err = abs(row.mean - row.closed_form) / abs(row.closed_form)
        assert rel_err < 0.01, f"{row.estimator}: rel err {rel_err:.4%}"
        details.append(f"{row.estimator} {rel_err:.3%}")
    report(
        "criterion 2 (closed forms vs 4e6-experiment Monte Carlo, tol 1%)",
        ", ".join(details),
    )


def test_criterion_3_noise_sweep_bias_profile():
    config = SimulationConfig(
        model=DEFAULT_MODEL,
        num_replications=30_000,
        seed=0,
        sweep=SweepSpec("noise_sd_proxy", FIG2_NOISE_GRID),
        mode="cumulative",
    )
    result = run_bias_sweep(config)
    naive_bias = [r.rel_bias for r in result.rows if r.estimator == "naive"]
    cv_bias = [r.rel_bias for r in result.rows if r.estimator == "cv"]
    assert len(naive_bias) >= 8

    rho, _ = scipy_stats.spearmanr(range(len(naive_bias)), naive_bias)
    assert rho > 0.99
    assert naive_bias[-1] > 1.0, f"top-of-grid naive bias {naive_bias[-1]:.2f}"
    for b in cv_bias:
        assert -1.0 <= b <= 0.0, f"cv relative bias {b:+.4f} outside [-1, 0]"
    report(
        "criterion 3 (noise-to-signal sweep)",
        f"naive bias {naive_bias[0]:+.2f} -> {naive_bias[-1]:+.2f} "
        f"(spearman {rho:.3f}); cv bias in "
        f"[{min(cv_bias):+.3f}, {max(cv_bias):+.3f}]",
    )


def test_criterion_4_units_sweep_ranking_reversal():
    sweep = SweepSpec("units_per_arm", FIG3_UNITS_GRID)
    means: dict[tuple[str, float, str], float] = {}
    for proxy in DEFAULT_PROXIES:
        config = SimulationConfig(
            model=DEFAULT_MODEL.with_correlations(proxy.effect_corr, proxy.noise_corr),
            num_replications=10_000,
            seed=0,
            sweep=sweep,
            mode="cumulative",
        )
        for row in run_bias_sweep(config, variant=proxy.name).rows:
            means[(proxy.name, row.sweep_value, row.estimator)] = row.mean

    naive_reversals = [
        m for m in FIG3_UNITS_GRID
        if means[("bad", m, "naive")] > means[("good", m, "naive")]
    ]
    assert naive_reversals, "naive never ranked the bad proxy above the good one"
    for m in FIG3_UNITS_GRID:
        assert means[("good", m, "cv")] > means[("bad", m, "cv")], (
            f"cv misranked the proxies at units_per_arm={m:.0f}"
        )
    report(
        "criterion 4 (units sweep, good vs bad proxy)",
        f"naive prefers bad at M in {sorted(naive_reversals)}; "
        f"cv ranks good first at all {len(FIG3_UNITS_GRID)} grid points",
    )


def test_criterion_5_experiment_count_sweep():
    config = SimulationConfig(
        model=DEFAULT_MODEL,
        num_replications=10_000,
        seed=0,
        sweep=SweepSpec("num_experiments", FIG4_EXPERIMENTS_GRID),
        mode="cumulative",
    )
    result = run_bias_sweep(config)
    rows = {(r.sweep_value, r.estimator): r for r in result.rows}
    gap_100 = abs(rows[(100.0, "naive")].mean - rows[(100.0, "true")].closed_form)
    gap_400 = abs(rows[(400.0, "naive")].mean - rows[(400.0, "true")].closed_form)
    assert gap_400 >= 3.5 * gap_100, f"{gap_400:.3e} < 3.5 x {gap_100:.3e}"
    cv_errs = []
    for n in FIG4_EXPERIMENTS_GRID:
        truth = rows[(n, "true")].closed_form
        rel = abs(rows[(n, "cv")].mean - truth) / truth
        cv_errs.append(rel)
        assert rel < 0.10, f"cv relative error {rel:.3f} at N={n:.0f}"
    report(
        "criterion 5 (experiment-count sweep, cumulative)",
        f"naive gap grows {gap_100:.2e} -> {gap_400:.2e} "
        f"(x{gap_400 / gap_100:.2f} >= 3.5); max cv rel err "
        f"{max(cv_errs):.3f} < 0.10",
    )


def test_criterion_6_selection_regret_decay():
    result = check_rule_selection(
        base=DEFAULT_MODEL,
        proxies=DEFAULT_PROXIES,
        n_grid=(100, 200, 400),
        replications=10_000,
        seed=0,
        ratio_threshold=0.7,
    )
    assert result.passed
    ratio = result.regrets[-1] / result.regrets[0]
    assert ratio <= 0.7
    report(
        "criterion 6 (selection regret decay)",
        f"regret {result.regrets[0]:.2e} -> {result.regrets[-1]:.2e} over "
        f"N=100->400 (ratio {ratio:.3f} <= 0.7); accuracies "
        f"{[round(a, 3) for a in result.accuracies]}",
    )


def test_criterion_7_data_independent_rule_identity():
    # A rule that ignores the data always picks arm 1 (true mean 0.3 here);
    # unequal fold sizes keep naive and CV from coinciding identically.
    rule = DecisionRule(blend=[0.0])
    reps = 10_000
    true_mean = 0.3
    naive_vals = np.empty(reps)
    cv_vals = np.empty(reps)
    for i in range(reps):
        rng = substream(7, "criterion7", i)
        exp = ExperimentData(
            f"e{i}",
            (
                ArmData(1, true_mean + rng.standard_normal((10, 1))),
                ArmData(2, 0.5 + rng.standard_normal((10, 1))),
            ),
        )
        naive_vals[i] = batch_rewards([exp], [rule], REWARD, (), 0)[0, 0, 0]
        cv_vals[i] = batch_rewards([exp], [rule], REWARD, (3,), fold_seed=i)[0, 1, 0]
    diff = naive_vals - cv_vals
    assert diff.std() > 0
    se_diff = diff.std(ddof=1) / np.sqrt(reps)
    assert abs(diff.mean()) < 4 * se_diff
    for vals, label in ((naive_vals, "naive"), (cv_vals, "cv")):
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - true_mean) < 4 * se, label
    report(
        "criterion 7 (data-independent rule identity)",
        f"naive-cv mean gap {diff.mean():+.2e} < 4*SE={4 * se_diff:.2e}; "
        f"both match the fixed arm mean {true_mean}",
    )


def test_criterion_8_csv_path_end_to_end(tmp_path):
    corpus, _ = make_synthetic_corpus(
        num_experiments=700,
        units_per_arm=100,
        effect_sd_y=0.15,
        effect_sd_proxy=0.07,
        noise_sd_y=1.0,
        noise_sd_proxy=1.0,
        proxies=DEFAULT_PROXIES,
        seed=0,
    )
    path = tmp_path / "corpus.csv"
    write_corpus_csv(corpus, str(path))
    loaded = ingest_csv(str(path))

    rule_good = DecisionRule(blend=[0.0, 1.0, 0.0])
    rule_bad = DecisionRule(blend=[0.0, 0.0, 1.0])
    configs = [
        EstimatorConfig(kind="naive", mode="cumulative"),
        EstimatorConfig(kind="cv-kfold", num_folds=5, fold_seed=0, mode="cumulative"),
    ]
    for rule in (rule_good, rule_bad):
        for config in configs:
            direct = estimate_reward(list(corpus.experiments), rule, REWARD, config)
            via_csv = estimate_reward(list(loaded.experiments), rule, REWARD, config)
            assert direct.value == via_csv.value, "CSV path is not bit-exact"
            assert direct.per_experiment == via_csv.per_experiment

    fold_counts = (2, 5, 10, 20)
    report_obj = evaluate_rules(
        loaded,
        [("good", rule_good), ("bad", rule_bad)],
        REWARD,
        fold_counts=fold_counts,
        bootstrap_replicates=300,
        seed=0,
        mode="cumulative",
    )
    naive_good = report_obj.value("good", "naive", 0)
    naive_bad = report_obj.value("bad", "naive", 0)
    assert naive_bad > naive_good, "plug-in estimate failed to prefer the bad proxy"
    for p in fold_counts:
        cv_good = report_obj.value("good", "cv-kfold", p)
        cv_bad = report_obj.value("bad", "cv-kfold", p)
        assert cv_good > cv_bad, f"cv at {p} folds misranked the proxies"
    report(
        "criterion 8 (end-to-end CSV path)",
        f"bit-exact round trip; naive bad {naive_bad:.2f} > good "
        f"{naive_good:.2f}, cv ranks good first at folds {fold_counts}",
    )


def test_criterion_9_byte_identical_outputs(tmp_path, monkeypatch):
    args = [
        "replicate-figure", "2",
        "--out-dir", None,
        "--replications", "400",
        "--grid", "5,10",
        "--seed", "11",
    ]
    outputs = {}
    for label, degree in (("serial", "1"), ("serial2", "1"), ("parallel", "6")):
        monkeypatch.setenv("RULEVAL_PARALLEL", degree)
        out_dir = tmp_path / label
        args[3] = str(out_dir)
        assert main(list(args)) == 0
        outputs[label] = (
            (out_dir / "figure2_noise_sweep.csv").read_bytes(),
            (out_dir / "figure2_manifest.json").read_bytes(),
        )
    assert outputs["serial"] == outputs["serial2"], "same-config runs differ"
    assert outputs["serial"] == outputs["parallel"], "parallelism changed output"
    report(
        "criterion 9 (determinism)",
        "CSV and manifest byte-identical across reruns and parallelism "
        "degrees 1 and 6",
    )
