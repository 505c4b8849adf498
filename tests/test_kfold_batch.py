"""The batched k-fold path of ``evaluate_rules``: one fold permutation per
arm shared by every fold count, checked against fold labels drawn per fold
count and scored one fold at a time (``unit_oracle.fold_labels`` and
``cv_fold_rewards``), and the bootstrap redraw count it reports."""

import json

import numpy as np
import pytest

from ruleval import (
    ArmData,
    DecisionRule,
    DegenerateArmError,
    EstimatorConfig,
    ExperimentCorpus,
    ExperimentData,
    RewardSpec,
    evaluate_rules,
    per_experiment_rewards,
    write_corpus_csv,
)
from ruleval.cli import main
from ruleval.estimators import (
    aggregate,
    batch_rewards,
    bootstrap_aggregates,
    percentile_interval,
)
from ruleval.experiments import ArmStack, fold_permutations
from ruleval.streams import substream
import unit_oracle as oracle

FOLD_COUNTS = (2, 3, 5, 7)
RULES = [
    ("ungated", DecisionRule(blend=[0.0, 1.0, 0.3])),
    ("gated", DecisionRule(blend=[0.2, 1.0, 0.0], gate="significant-vs-reference",
                           gate_alpha=0.2)),
    ("gate-metrics", DecisionRule(
        blend=[0.0, 0.0, 1.0], gate="significant-vs-reference", gate_alpha=0.3,
        gate_sides="two-sided", gate_metrics=([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
        gate_combine="any")),
]


def corpus(num_experiments=9, seed=0):
    """Three arms of unequal sizes (some not divisible by any fold count),
    treatment effects large enough that the gates pass and fail, and
    unequal weights."""
    rng = np.random.default_rng(seed)
    exps = []
    for i in range(num_experiments):
        arms = []
        for k in range(3):
            m = int(rng.integers(15, 24))
            units = rng.standard_normal((m, 3)) + rng.normal(0.0, 0.6, 3) * k
            arms.append(ArmData(k + 1, units))
        exps.append(ExperimentData(f"x{i}", tuple(arms), weight=float(rng.uniform(0.2, 3.0))))
    return ExperimentCorpus(tuple(exps), ("y", "p1", "p2"))


def oracle_rows(corp, reward, mode, seed, replicates, level):
    """(rule, estimator, folds) -> (estimate, ci_lower, ci_upper), with k-fold
    contributions from fold labels drawn per experiment and fold count."""
    exps = sorted(corp.experiments, key=lambda e: e.experiment_id)
    weights = np.array([e.weight for e in exps])
    reward_w = reward.weights(len(corp.metric_names))
    rows = {}
    for name, rule in RULES:
        columns = {("naive", 0): per_experiment_rewards(
            exps, rule, reward, EstimatorConfig(kind="naive", mode=mode))}
        for p in FOLD_COUNTS:
            per_fold = []
            for exp in exps:
                folds = oracle.fold_labels(exp, p, seed)
                fold_rewards = oracle.cv_fold_rewards(exp, rule, reward, folds, p)
                # Unit-level reference: same decisions, sums in another order.
                assert fold_rewards.mean() == pytest.approx(
                    oracle.kfold_reward(exp, rule, reward_w, folds, p), rel=1e-12, abs=1e-12
                )
                per_fold.append(fold_rewards.mean())
            columns[("cv-kfold", p)] = np.array(per_fold)
        for (estimator, p), contributions in columns.items():
            rng = substream(seed, "evaluate", name, estimator, p)
            draws, _ = bootstrap_aggregates(contributions, weights, mode, replicates, rng)
            rows[(name, estimator, p)] = (
                aggregate(contributions, weights, mode), *percentile_interval(draws, level)
            )
    return rows


@pytest.mark.parametrize("mode", ["cumulative", "mean"])
def test_evaluate_rows_match_per_fold_count_assignments(mode):
    corp = corpus()
    reward = RewardSpec.combination([1.0, 0.0, 0.5])
    report = evaluate_rules(
        corp, RULES, reward, fold_counts=FOLD_COUNTS, bootstrap_replicates=200,
        level=0.9, seed=11, mode=mode,
    )
    expected = oracle_rows(corp, reward, mode, seed=11, replicates=200, level=0.9)
    assert len(report.rows) == len(expected) == len(RULES) * (1 + len(FOLD_COUNTS))
    for row in report.rows:
        assert (row.estimate, row.ci_lower, row.ci_upper) == expected[
            (row.rule, row.estimator, row.num_folds)
        ]
    # The rules decide differently, so the comparison covers distinct paths.
    assert len({report.value(name, "cv-kfold", 5) for name, _ in RULES}) == len(RULES)


def test_batch_naive_slot_is_the_plug_in_estimate():
    # Pure noise, so held-out decisions often differ from the full-data one.
    rng = np.random.default_rng(3)
    exps = [
        ExperimentData(f"n{i}", tuple(ArmData(k + 1, rng.standard_normal((12, 3)))
                                      for k in range(3)))
        for i in range(40)
    ]
    reward = RewardSpec.metric(1)
    batch = batch_rewards(exps, [rule for _, rule in RULES], reward, (2, 5), fold_seed=1)
    for (_, rule), got in zip(RULES, batch[:, 0]):
        want = per_experiment_rewards(exps, rule, reward, EstimatorConfig(kind="naive"))
        assert np.array_equal(got, want)


def test_evaluate_without_fold_counts_scores_the_naive_rows_only():
    corp = corpus()
    reward = RewardSpec.metric(1)
    report = evaluate_rules(corp, RULES, reward, fold_counts=(), bootstrap_replicates=50)
    exps = sorted(corp.experiments, key=lambda e: e.experiment_id)
    weights = np.array([e.weight for e in exps])
    naive = EstimatorConfig(kind="naive", mode="cumulative")
    assert [(row.rule, row.estimator) for row in report.rows] == [
        (name, "naive") for name, _ in RULES
    ]
    for (name, rule), row in zip(RULES, report.rows):
        want = per_experiment_rewards(exps, rule, reward, naive)
        assert row.estimate == aggregate(want, weights, "cumulative")
    # A gated rule on a one-unit arm fails as the full-data decision does.
    solo = ExperimentData("solo", (ArmData(1, np.ones((3, 3))), ArmData(2, np.ones((1, 3)))))
    with pytest.raises(DegenerateArmError, match="arm 2 has 1 unit"):
        evaluate_rules(ExperimentCorpus((solo,), ("y", "p1", "p2")), RULES[1:2],
                       reward, fold_counts=())


@pytest.mark.parametrize("num_folds", [2, 3, 5, 10, 20])
def test_assign_folds_is_the_permutation_modulo_the_fold_count(num_folds):
    rng = np.random.default_rng(num_folds)
    sizes = [m for m in (23, 41, 57) if m % num_folds][:2]
    exp = ExperimentData(
        "perm", tuple(ArmData(k + 1, rng.standard_normal((m, 1))) for k, m in enumerate(sizes))
    )
    for seed in (0, 7):
        folds = oracle.fold_labels(exp, num_folds, seed)
        for arm, drawn in zip(exp.arms, fold_permutations(ArmStack.of([exp]), seed)):
            perm = substream(seed, "folds", "perm", arm.arm_index).permutation(arm.num_units)
            assert np.array_equal(drawn, perm)
            assert np.array_equal(folds[arm.arm_index], perm % num_folds + 1)
            assert np.array_equal(
                folds[arm.arm_index], (np.arange(arm.num_units) % num_folds + 1)[perm]
            )


def test_bootstrap_redraws_are_counted_and_reported(tmp_path):
    # Mean mode with mostly zero weights: many resamples carry no weight.
    base = corpus(num_experiments=6, seed=4)
    exps = tuple(
        ExperimentData(e.experiment_id, e.arms, weight=1.0 if i == 0 else 0.0)
        for i, e in enumerate(base.experiments)
    )
    corp = ExperimentCorpus(exps, base.metric_names)
    rules = RULES[:1]
    report = evaluate_rules(
        corp, rules, RewardSpec.metric(1), fold_counts=(2, 3),
        bootstrap_replicates=100, seed=5, mode="mean",
    )
    weights = np.array([e.weight for e in exps])
    expected = 0
    for estimator, p, config in [
        ("naive", 0, EstimatorConfig(kind="naive", mode="mean")),
        ("cv-kfold", 2, EstimatorConfig(kind="cv-kfold", num_folds=2, fold_seed=5)),
        ("cv-kfold", 3, EstimatorConfig(kind="cv-kfold", num_folds=3, fold_seed=5)),
    ]:
        contributions = per_experiment_rewards(list(exps), rules[0][1], RewardSpec.metric(1), config)
        rng = substream(5, "evaluate", "ungated", estimator, p)
        expected += bootstrap_aggregates(contributions, weights, "mean", 100, rng)[1]
    assert report.bootstrap_redraws == expected > 0

    corpus_path = tmp_path / "c.csv"
    write_corpus_csv(corp, str(corpus_path))
    (tmp_path / "w.csv").write_text(
        "experiment_id,weight\n" + "".join(f"{e.experiment_id},{e.weight}\n" for e in exps)
    )
    (tmp_path / "rules.json").write_text(json.dumps({
        "reward": {"metric": "y"},
        "rules": [{"name": "ungated", "blend": {"coefficients": {"p1": 1.0, "p2": 0.3}}}],
        "fold_counts": [2, 3], "bootstrap_replicates": 100, "mode": "mean",
    }))
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--corpus", str(corpus_path), "--rules",
                 str(tmp_path / "rules.json"), "--weights", str(tmp_path / "w.csv"),
                 "--out", str(out), "--seed", "5"]) == 0
    manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
    assert manifest["bootstrap_redraws"] == expected


# ---------------------------------------------------------------------------
# the corpus-wide kernel pass against the per-experiment producer

MIXED_RULES = [rule for _, rule in RULES] + [
    DecisionRule(blend=[1.0, 0.5, 0.0], gate="significant-vs-reference", gate_alpha=0.4,
                 gate_metrics=([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]), gate_combine="all"),
]


def mixed_experiments(rng, num_experiments, sizes):
    """1-, 2- and 3-arm experiments with arm sizes from ``sizes``, in a
    shuffled id order; integer-valued arms tie exactly."""
    exps = []
    for i in rng.permutation(num_experiments):
        arms = []
        for k in range(int(rng.integers(1, 4))):
            units = rng.standard_normal((int(rng.choice(sizes)), 3)) + rng.normal(0, 0.8, 3) * k
            arms.append(ArmData(k + 1, np.round(units) if i % 4 == 0 else units + 1e3))
        exps.append(ExperimentData(f"m{i:02d}", tuple(arms)))
    return exps


def outcome(batch, exps, rules, reward, fold_counts, seed):
    try:
        return batch(exps, rules, reward, fold_counts, seed).tobytes()
    except ValueError as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("fold_counts", [(2, 5), (2, 3, 5, 7)])
def test_corpus_pass_equals_per_experiment_producer_bit_for_bit(fold_counts):
    rng = np.random.default_rng(sum(fold_counts))
    exps = mixed_experiments(rng, 40, sizes=np.arange(14, 40))
    assert {e.num_arms for e in exps} == {1, 2, 3}
    reward = RewardSpec.combination([1.0, 0.3, -0.2])
    got = batch_rewards(exps, MIXED_RULES, reward, fold_counts, fold_seed=4)
    want = oracle.batch_rewards(exps, MIXED_RULES, reward, fold_counts, 4)
    assert got.tobytes() == want.tobytes()
    # Without folds, one-unit arms are allowed for ungated rules.
    exps = mixed_experiments(rng, 30, sizes=[1, 1, 2, 5, 9])
    ungated = [rule for rule in MIXED_RULES if rule.gate == "none"]
    got = batch_rewards(exps, ungated, reward, (), fold_seed=4)
    assert got.tobytes() == oracle.batch_rewards(exps, ungated, reward, (), 4).tobytes()


def test_corpus_pass_names_the_first_fault_as_the_per_experiment_loop():
    # Small arms make folds without units, arms too short for the gate and
    # (with fallback arm 3 on two-arm experiments) missing fallback arms.
    rules = [
        DecisionRule(blend=[0.0, 1.0, 0.0]),
        DecisionRule(blend=[1.0, 0.0, 0.0], gate="significant-vs-reference",
                     gate_alpha=0.5, fallback_arm=3),
        DecisionRule(blend=[0.0, 0.0, 1.0], gate="significant-vs-reference", gate_alpha=0.3),
    ]
    reward = RewardSpec.metric(1)
    kinds = set()
    for seed in range(150):
        rng = np.random.default_rng(seed)
        sizes = [1, 2, 3, 4, 6, 9] if seed % 2 else [7, 9, 12]
        exps = mixed_experiments(rng, int(rng.integers(1, 6)), sizes)
        for fold_counts in [(), (2, 3)]:
            got = outcome(batch_rewards, exps, rules, reward, fold_counts, seed)
            assert got == outcome(oracle.batch_rewards, exps, rules, reward, fold_counts, seed)
            kinds.add("ok" if isinstance(got, bytes) else next(
                k for k in ("fallback", "removing", "contains no units", "significance gate")
                if k in got[1]))
    assert kinds == {"ok", "fallback", "removing", "contains no units", "significance gate"}


def test_a_missing_fallback_arm_is_named_before_an_empty_fold():
    # On the full data arm 2 (all 1) does not beat arm 1 (0, 0, 0, 10), and
    # the rule lacks its fallback arm 3.  Holding out the 10, in a fold
    # without units of arm 2, lets arm 2 pass there: the fold is empty of
    # the chosen arm, but the decisions, which meet the fallback first,
    # already fail.
    seed, fold_counts = 0, (5,)
    probe = ExperimentData("e", (ArmData(1, np.zeros((4, 1))), ArmData(2, np.ones((3, 1)))))
    perm = fold_permutations(ArmStack.of([probe]), seed)[0]
    arm1 = np.zeros((4, 1))
    arm1[perm % 5 == 3] = 10.0  # fold 4 of 5, which arm 2's 3 units never reach
    exp = ExperimentData("e", (ArmData(1, arm1), ArmData(2, np.ones((3, 1)))))
    rule = DecisionRule(blend=[1.0], gate="significant-vs-reference", fallback_arm=3)
    reward = RewardSpec.metric(1)
    got = outcome(batch_rewards, [exp], [rule], reward, fold_counts, seed)
    assert got == ("ValueError", "fallback arm 3 does not exist in experiment 'e'")
    assert got == outcome(oracle.batch_rewards, [exp], [rule], reward, fold_counts, seed)
    # With fallback arm 1 the same data fails on the empty fold instead.
    arm1_rule = DecisionRule(blend=[1.0], gate="significant-vs-reference")
    got = outcome(batch_rewards, [exp], [arm1_rule], reward, fold_counts, seed)
    assert got[1] == "experiment 'e': fold 4 of 5 contains no units of the chosen arm 2"
    assert got == outcome(oracle.batch_rewards, [exp], [arm1_rule], reward, fold_counts, seed)


def test_cli_degenerate_fold_names_the_first_experiment_in_id_order(tmp_path, capsys):
    # File order b, a: both are degenerate, and the report names a.
    rows = ["b,1,u1,1", "b,1,u2,2", "b,2,u1,3", "a,1,u1,1", "a,1,u2,2", "a,1,u3,3",
            "a,2,u1,0", "a,2,u2,1"]
    corpus_path = tmp_path / "c.csv"
    corpus_path.write_text("experiment_id,arm,unit_id,m\n" + "\n".join(rows) + "\n")
    rules = {"reward": {"metric": "m"}, "fold_counts": [2], "bootstrap_replicates": 100,
             "rules": [{"name": "g", "blend": {"metric": "m"},
                        "gate": "significant-vs-reference"}]}
    (tmp_path / "rules.json").write_text(json.dumps(rules))
    argv = ["evaluate", "--corpus", str(corpus_path), "--rules",
            str(tmp_path / "rules.json"), "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error: experiment 'a': removing fold ")
    assert err.endswith(" with 1 unit(s), needs >= 2\n")
    # A missing fallback arm stays a configuration error (exit code 1).
    rules["rules"][0].update(fallback_arm=3)
    rules["fold_counts"] = []
    (tmp_path / "rules.json").write_text(json.dumps(rules))
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: fallback arm 3 does not exist in experiment 'a'\n"
    )
