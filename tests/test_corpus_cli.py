"""Corpus ingestion, export round-trips, rule evaluation reports, and the
command-line interface."""

import json

import numpy as np
import pytest

from ruleval import (
    ArmData,
    DecisionRule,
    EstimatorConfig,
    ExperimentCorpus,
    ExperimentData,
    ProxySpec,
    RewardSpec,
    CorpusFormatError,
    estimate_reward,
    evaluate_rules,
    ingest_csv,
    make_synthetic_corpus,
    run_figure,
    write_corpus_csv,
)
from ruleval.cli import main

REWARD = RewardSpec.metric(1)


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


BASIC_CSV = """experiment_id,arm,unit_id,clicks,visits
expA,1,u1,1.0,2.0
expA,1,u2,3.0,4.0
expA,2,u1,5.0,6.0
expA,2,u2,7.0,8.0
"""
TWO_EXPERIMENTS_CSV = BASIC_CSV + (
    "expB,1,u1,2.0,1.0\nexpB,1,u2,1.0,3.0\nexpB,2,u1,4.0,2.0\nexpB,2,u2,0.0,5.0\n"
)


# ---------------------------------------------------------------------------
# ingestion


def test_ingest_basic_corpus(tmp_path):
    path = tmp_path / "c.csv"
    write(path, BASIC_CSV)
    corpus = ingest_csv(str(path))
    assert corpus.metric_names == ("clicks", "visits")
    assert len(corpus.experiments) == 1
    exp = corpus.experiments[0]
    assert exp.num_arms == 2
    assert exp.arms[0].num_units == 2
    assert np.array_equal(exp.arms[1].units, [[5.0, 6.0], [7.0, 8.0]])


def test_ingest_errors_name_line_and_column(tmp_path):
    path = tmp_path / "c.csv"
    write(path, "experiment_id,arm,unit_id,m1\ne,1,u1,\n")
    with pytest.raises(CorpusFormatError, match="line 2.*'m1'"):
        ingest_csv(str(path))

    write(path, "experiment_id,arm,unit_id,m1\ne,1,u1,abc\n")
    with pytest.raises(CorpusFormatError, match="not numeric"):
        ingest_csv(str(path))

    write(path, "experiment_id,arm,unit_id,m1\ne,1,u1,1.0,9.9\n")
    with pytest.raises(CorpusFormatError, match="line 2 has 5 fields"):
        ingest_csv(str(path))

    write(path, "experiment_id,arm,unit_id,m1\ne,1,u1,1.0\ne,1,u1,2.0\n")
    with pytest.raises(CorpusFormatError, match="duplicate unit"):
        ingest_csv(str(path))

    write(path, "experiment_id,arm,unit_id,m1\ne,2,u1,1.0\ne,3,u1,2.0\n")
    with pytest.raises(CorpusFormatError, match="contiguous"):
        ingest_csv(str(path))

    write(path, "id,arm,unit,m1\ne,1,u1,1.0\n")
    with pytest.raises(CorpusFormatError, match="header"):
        ingest_csv(str(path))

    write(path, "")
    with pytest.raises(CorpusFormatError, match="empty"):
        ingest_csv(str(path))


def test_ingest_weight_file(tmp_path):
    path = tmp_path / "c.csv"
    write(path, BASIC_CSV)
    wpath = tmp_path / "w.csv"
    write(wpath, "experiment_id,weight\nexpA,2.5\n")
    corpus = ingest_csv(str(path), weights_path=str(wpath))
    assert corpus.experiments[0].weight == 2.5

    write(wpath, "experiment_id,weight\nnope,1.0\n")
    with pytest.raises(CorpusFormatError, match="unknown experiment_id"):
        ingest_csv(str(path), weights_path=str(wpath))


def test_ingest_is_invariant_to_row_order(tmp_path):
    ordered = tmp_path / "a.csv"
    shuffled = tmp_path / "b.csv"
    write(ordered, BASIC_CSV)
    lines = BASIC_CSV.strip().split("\n")
    write(shuffled, "\n".join([lines[0]] + lines[1:][::-1]) + "\n")
    a = ingest_csv(str(ordered))
    b = ingest_csv(str(shuffled))
    for ea, eb in zip(a.experiments, b.experiments):
        for arm_a, arm_b in zip(ea.arms, eb.arms):
            assert np.array_equal(arm_a.units, arm_b.units)


def test_corpus_round_trip_is_bit_exact(tmp_path):
    corpus, _ = make_synthetic_corpus(
        num_experiments=12,
        units_per_arm=9,
        effect_sd_y=0.15,
        effect_sd_proxy=0.07,
        noise_sd_y=1.0,
        noise_sd_proxy=1.0,
        proxies=(ProxySpec("good_proxy", 0.8, 0.1), ProxySpec("bad_proxy", 0.05, 0.9)),
        seed=4,
    )
    path = tmp_path / "corpus.csv"
    write_corpus_csv(corpus, str(path))
    back = ingest_csv(str(path))
    assert back.metric_names == corpus.metric_names
    rule = DecisionRule(blend=[0.0, 1.0, 0.0])
    for config in (
        EstimatorConfig(kind="naive", mode="cumulative"),
        EstimatorConfig(kind="cv-kfold", num_folds=3, fold_seed=7),
    ):
        direct = estimate_reward(list(corpus.experiments), rule, REWARD, config)
        loaded = estimate_reward(list(back.experiments), rule, REWARD, config)
        assert direct.value == loaded.value
        assert direct.per_experiment == loaded.per_experiment


# ---------------------------------------------------------------------------
# evaluate_rules


def noise_free_corpus():
    # Treatment dominates on every metric with zero within-arm variance, so
    # fold decisions never vary and naive equals CV exactly.
    exps = []
    for i in range(3):
        control = np.tile([1.0 + i, 2.0], (6, 1))
        treat = np.tile([3.0 + i, 5.0], (6, 1))
        exps.append(
            ExperimentData(
                f"e{i}", (ArmData(1, control), ArmData(2, treat))
            )
        )
    return ExperimentCorpus(tuple(exps), ("reward", "proxy"))


def test_evaluate_rules_noise_free_corpus_naive_equals_cv():
    corpus = noise_free_corpus()
    rules = [
        ("direct", DecisionRule(blend=[1.0, 0.0])),
        ("proxy", DecisionRule(blend=[0.0, 1.0])),
    ]
    report = evaluate_rules(
        corpus, rules, REWARD, fold_counts=(2, 3), bootstrap_replicates=200,
        mode="mean",
    )
    for name, _ in rules:
        naive = report.value(name, "naive", 0)
        for folds in (2, 3):
            assert report.value(name, "cv-kfold", folds) == naive
    assert report.value("direct", "naive", 0) == report.value("proxy", "naive", 0)


def test_evaluate_rules_baseline_normalization():
    corpus = noise_free_corpus()
    rules = [
        ("a", DecisionRule(blend=[1.0, 0.0])),
        ("b", DecisionRule(blend=[0.0, 1.0])),
    ]
    report = evaluate_rules(
        corpus, rules, REWARD, fold_counts=(2,), bootstrap_replicates=200,
        baseline="a",
    )
    baseline_row = [
        r for r in report.rows if r.rule == "a" and r.estimator == "naive"
    ][0]
    assert baseline_row.normalized == 1.0
    # Normalization rescales but never reorders.
    values = [(r.estimate, r.normalized) for r in report.rows]
    order_raw = sorted(range(len(values)), key=lambda i: values[i][0])
    order_norm = sorted(range(len(values)), key=lambda i: values[i][1])
    assert order_raw == order_norm


def test_evaluate_rules_rejects_mismatched_blend():
    corpus = noise_free_corpus()
    with pytest.raises(ValueError, match="blend has length"):
        evaluate_rules(
            corpus, [("bad", DecisionRule(blend=[1.0]))], REWARD,
            fold_counts=(2,), bootstrap_replicates=200,
        )
    with pytest.raises(ValueError, match="baseline"):
        evaluate_rules(
            corpus, [("a", DecisionRule(blend=[1.0, 0.0]))], REWARD,
            fold_counts=(2,), bootstrap_replicates=200, baseline="zzz",
        )


@pytest.mark.parametrize("fold_counts", [(2, 2), (2.7,), (3.0,), (1,), (2, True)])
def test_evaluate_rules_requires_distinct_integer_fold_counts(fold_counts):
    # (2, 2) wrote the cv-kfold 2 rows twice; 2.7 ran 2-fold.
    rules = [("direct", DecisionRule(blend=[1.0, 0.0]))]
    with pytest.raises(ValueError, match="fold_counts"):
        evaluate_rules(noise_free_corpus(), rules, REWARD, fold_counts=fold_counts)


@pytest.mark.parametrize("replicates", [True, 10.5, 0])
def test_evaluate_rules_requires_an_integer_replicate_count(replicates):
    # True and 10.5 failed in NumPy's index draw with a TypeError.
    rules = [("direct", DecisionRule(blend=[1.0, 0.0]))]
    with pytest.raises(ValueError, match="bootstrap_replicates must be an integer >= 1"):
        evaluate_rules(noise_free_corpus(), rules, REWARD, fold_counts=(2,),
                       bootstrap_replicates=replicates)


@pytest.mark.parametrize("seed", [1.5, True])
def test_evaluate_rules_requires_an_integer_seed(seed):
    # 1.5 was truncated to 1 when keying the fold and bootstrap streams.
    rules = [("direct", DecisionRule(blend=[1.0, 0.0]))]
    with pytest.raises(ValueError, match="seed must be an integer"):
        evaluate_rules(noise_free_corpus(), rules, REWARD, fold_counts=(2,), seed=seed)
    assert evaluate_rules(noise_free_corpus(), rules, REWARD, fold_counts=(2,),
                          seed=np.int64(1)) == (
        evaluate_rules(noise_free_corpus(), rules, REWARD, fold_counts=(2,), seed=1)
    )


def test_evaluate_rules_mean_mode_survives_many_zero_weight_redraws():
    # 30,000 replicates over one weighted experiment among 50 make about
    # 17,000 redraws; the cap applies to each replicate, not to the call.
    exps = tuple(
        ExperimentData(
            f"e{i:02d}",
            (ArmData(1, np.array([[0.0, 1.0], [0.0, 2.0]])),
             ArmData(2, np.array([[1.0, 0.0], [3.0, 1.0]]))),
            weight=float(i == 0),
        )
        for i in range(50)
    )
    report = evaluate_rules(
        ExperimentCorpus(exps, ("reward", "proxy")),
        [("proxy", DecisionRule(blend=[0.0, 1.0]))], REWARD, fold_counts=(),
        bootstrap_replicates=30_000, mode="mean",
    )
    assert report.bootstrap_redraws > 10_000
    assert report.value("proxy", "naive", 0) == 0.0


def test_evaluate_rules_invariant_to_experiment_order():
    corpus, _ = make_synthetic_corpus(
        num_experiments=10,
        units_per_arm=8,
        effect_sd_y=0.2,
        effect_sd_proxy=0.1,
        noise_sd_y=1.0,
        noise_sd_proxy=1.0,
        proxies=(ProxySpec("p1", 0.8, 0.1), ProxySpec("p2", 0.05, 0.9)),
        seed=6,
    )
    reversed_corpus = ExperimentCorpus(
        tuple(reversed(corpus.experiments)), corpus.metric_names
    )
    rules = [("r", DecisionRule(blend=[0.0, 1.0, 0.0]))]
    a = evaluate_rules(
        corpus, rules, REWARD, fold_counts=(2,), bootstrap_replicates=150, seed=3
    )
    b = evaluate_rules(
        reversed_corpus, rules, REWARD, fold_counts=(2,),
        bootstrap_replicates=150, seed=3,
    )
    assert a == b


def test_cv_fold_rewards_invariant_to_fold_relabeling():
    # Renaming folds permutes the per-fold rewards but not their mean.
    from unit_oracle import cv_fold_rewards, fold_labels

    rng = np.random.default_rng(14)
    exp = ExperimentData(
        "e",
        (
            ArmData(1, rng.standard_normal((9, 1))),
            ArmData(2, rng.standard_normal((9, 1))),
        ),
    )
    rule = DecisionRule(blend=[1.0])
    folds = fold_labels(exp, 3, seed=2)
    perm = {1: 3, 2: 1, 3: 2}
    relabeled = {
        a: np.array([perm[int(v)] for v in labels]) for a, labels in folds.items()
    }
    original = cv_fold_rewards(exp, rule, REWARD, folds, 3).tolist()
    shuffled = cv_fold_rewards(exp, rule, REWARD, relabeled, 3).tolist()
    assert sorted(original) == sorted(shuffled)
    assert np.mean(original) == pytest.approx(np.mean(shuffled), rel=1e-15)


def test_report_csv_round_trip(tmp_path):
    corpus = noise_free_corpus()
    report = evaluate_rules(
        corpus, [("a", DecisionRule(blend=[1.0, 0.0]))], REWARD,
        fold_counts=(2,), bootstrap_replicates=150,
    )
    path = tmp_path / "report.csv"
    report.write_csv(str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "rule,estimator,num_folds,estimate,ci_lower,ci_upper,normalized"
    assert len(lines) == 1 + len(report.rows)


# ---------------------------------------------------------------------------
# CLI


def test_cli_closed_form_stdout(capsys):
    assert main(["closed-form"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "true,naive,cv"
    true, naive, cv = (float(v) for v in out[1].split(","))
    assert true == pytest.approx(1.84e-5, rel=0.01)
    assert naive == pytest.approx(2 * true, rel=0.01)
    assert 0 < cv < true


def test_cli_figure1_grid_shape(tmp_path):
    out = tmp_path / "fig"
    assert main(
        ["replicate-figure", "1", "--out-dir", str(out), "--resolution", "5"]
    ) == 0
    lines = (out / "figure1_levelsets.csv").read_text().strip().split("\n")
    assert lines[0] == "rho_tau,rho,true,naive,cv"
    assert len(lines) == 1 + 25
    manifest = json.loads((out / "figure1_manifest.json").read_text())
    assert manifest["config"]["resolution"] == 5


@pytest.mark.parametrize("replications", [16.7, 16.0, True, 0])
def test_run_figure_requires_an_integer_replication_count(tmp_path, replications):
    # 16.7 ran 16 replications and wrote 16 into the manifest.
    with pytest.raises(ValueError, match="^replications must be an integer >= 1"):
        run_figure(2, str(tmp_path / "fig"), replications=replications)
    assert not (tmp_path / "fig").exists()


def test_run_figure_records_a_numpy_integer_resolution_as_an_int(tmp_path):
    # np.int64(5) wrote the CSV and then failed to serialize the manifest.
    run_figure(1, str(tmp_path), resolution=np.int64(5))
    manifest = json.loads((tmp_path / "figure1_manifest.json").read_text())
    assert manifest["config"]["resolution"] == 5


def test_cli_simulate_with_config_and_manifest_rerun(tmp_path):
    config = {
        "model": {
            "effect_sd_y": 0.5, "effect_sd_proxy": 0.8, "effect_corr": 0.6,
            "noise_sd_y": 1.0, "noise_sd_proxy": 1.5, "noise_corr": -0.3,
            "units_per_arm": 30, "num_experiments": 10, "num_folds": 3,
        },
        "num_replications": 50,
        "seed": 9,
        "rule": {"blend": [0.0, 1.0]},
        "mode": "mean",
    }
    cfg_path = tmp_path / "config.json"
    write(cfg_path, json.dumps(config))
    out1 = tmp_path / "run1"
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out1)]) == 0
    csv1 = (out1 / "simulation.csv").read_bytes()

    # Rerunning from the emitted manifest reproduces the CSV byte for byte.
    out2 = tmp_path / "run2"
    manifest_path = out1 / "simulation_manifest.json"
    assert main(["simulate", "--config", str(manifest_path), "--out-dir", str(out2)]) == 0
    assert (out2 / "simulation.csv").read_bytes() == csv1


def test_cli_simulate_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "config.json"
    write(cfg_path, json.dumps({"num_replications": 5, "bogus_key": 1}))
    assert main(
        ["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]
    ) == 1


@pytest.mark.parametrize(
    "path, value",
    [
        ("num_replications", 2.7),
        ("num_replications", "20"),
        ("seed", "4"),
        ("seed", 1.5),
        ("seed", True),
        ("m0", "5"),
        ("estimators", 5),
        ("model.units_per_arm", 30.9),
        ("model.num_experiments", "10"),
        ("model.num_folds", 3.0),
        ("model.effect_sd_y", "0.5"),
        ("model.noise_corr", True),
        ("rule.blend", ["0", 1]),
        ("rule.gate_alpha", "0.1"),
        ("sweep.grid", ["10", "20"]),
    ],
)
def test_cli_simulate_rejects_mistyped_config_values(tmp_path, capsys, path, value):
    config = {
        "model": {
            "effect_sd_y": 0.5, "effect_sd_proxy": 0.8, "effect_corr": 0.6,
            "noise_sd_y": 1.0, "noise_sd_proxy": 1.5, "noise_corr": -0.3,
            "units_per_arm": 30, "num_experiments": 10, "num_folds": 3,
        },
        "num_replications": 20,
        "rule": {"blend": [0.0, 1.0]},
        "sweep": {"field": "num_experiments", "grid": [10, 20]},
        "size_mode": "poisson",
        "m0": 30,
    }
    *parents, key = path.split(".")
    target = config
    for name in parents:
        target = target[name]
    target[key] = value
    cfg_path = tmp_path / "config.json"
    write(cfg_path, json.dumps(config))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
    # The error names the key, and nothing is written.
    assert f".{key}: must be " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["effect_cov", "noise_cov"])
def test_cli_simulate_rejects_a_ragged_covariance(tmp_path, capsys, key):
    model = {
        "effect_cov": [[0.25, 0.1], [0.1, 0.64]],
        "noise_cov": [[1.0, -0.2], [-0.2, 2.25]],
        "units_per_arm": 30,
        "num_experiments": 10,
    }
    cfg_path = tmp_path / "config.json"
    write(cfg_path, json.dumps({"model": model, "num_replications": 20}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    model[key] = [[1.0, 0.0], [0.0]]
    write(cfg_path, json.dumps({"model": model, "num_replications": 20}))
    out = tmp_path / "p"
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
    assert f"simulate config.model.{key}: must be " in capsys.readouterr().err
    assert not out.exists()


def test_cli_make_corpus_then_evaluate(tmp_path):
    corpus_path = tmp_path / "corpus.csv"
    assert main(
        ["make-corpus", "--out", str(corpus_path), "--experiments", "30",
         "--units", "12", "--seed", "0"]
    ) == 0
    rules = {
        "reward": {"metric": "north_star"},
        "rules": [
            {"name": "good", "blend": {"metric": "good_proxy"}},
            {"name": "bad", "blend": {"metric": "bad_proxy"}},
            {
                "name": "gated",
                "blend": {"metric": "good_proxy"},
                "gate": "significant-vs-reference",
                "gate_metrics": [
                    {"metric": "good_proxy"}, {"metric": "bad_proxy"}
                ],
                "gate_combine": "any",
            },
        ],
        "fold_counts": [2, 4],
        "bootstrap_replicates": 150,
        "baseline": "good",
        "mode": "cumulative",
    }
    rules_path = tmp_path / "rules.json"
    write(rules_path, json.dumps(rules))
    report_path = tmp_path / "report.csv"
    assert main(
        ["evaluate", "--corpus", str(corpus_path), "--rules", str(rules_path),
         "--out", str(report_path)]
    ) == 0
    lines = report_path.read_text().strip().split("\n")
    assert len(lines) == 1 + 3 * 3  # 3 rules x (naive + 2 fold counts)
    manifest = json.loads((report_path.parent / "report.csv.manifest.json").read_text())
    assert manifest["command"] == "evaluate"


def test_cli_evaluate_unknown_metric_is_config_error(tmp_path):
    corpus_path = tmp_path / "corpus.csv"
    write(corpus_path, BASIC_CSV)
    rules_path = tmp_path / "rules.json"
    write(
        rules_path,
        json.dumps(
            {
                "reward": {"metric": "clicks"},
                "rules": [{"name": "r", "blend": {"metric": "nope"}}],
            }
        ),
    )
    assert main(
        ["evaluate", "--corpus", str(corpus_path), "--rules", str(rules_path),
         "--out", str(tmp_path / "r.csv")]
    ) == 1


def test_cli_missing_corpus_file_exits_one(tmp_path):
    rules_path = tmp_path / "rules.json"
    write(rules_path, json.dumps({"reward": {"metric": "m"}, "rules": []}))
    assert main(
        ["evaluate", "--corpus", str(tmp_path / "nope.csv"), "--rules",
         str(rules_path), "--out", str(tmp_path / "r.csv")]
    ) == 1


def test_cli_evaluate_rejects_non_finite_cells_and_weights(tmp_path, capsys):
    # Non-finite metric cells and weights are input errors that name the
    # file, line and column; accepted, they would surface only as nan/inf
    # estimates.
    corpus_path = tmp_path / "corpus.csv"
    rules_path = tmp_path / "rules.json"
    weights_path = tmp_path / "weights.csv"
    write(
        rules_path,
        json.dumps({"reward": {"metric": "m1"},
                    "rules": [{"name": "r", "blend": {"metric": "m1"}}]}),
    )
    good = "experiment_id,arm,unit_id,m1\ne,1,u1,1.0\ne,1,u2,2.0\ne,2,u1,3.0\ne,2,u2,4.0\n"
    argv = ["evaluate", "--corpus", str(corpus_path), "--rules", str(rules_path),
            "--out", str(tmp_path / "r.csv")]
    for cell in ("nan", "inf", "-Infinity"):
        write(corpus_path, good.replace("u2,4.0", f"u2,{cell}"))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "corpus.csv" in err and "line 5" in err and "'m1'" in err
        assert "not finite" in err
    write(corpus_path, good)
    for weight in ("inf", "nan"):
        write(weights_path, f"experiment_id,weight\ne,{weight}\n")
        assert main(argv + ["--weights", str(weights_path)]) == 1
        err = capsys.readouterr().err
        assert "weights.csv" in err and "line 2" in err and "'weight'" in err
        assert "not finite" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("mode", "cumulitive"),
        ("level", 0),
        ("level", 1.5),
        ("level", "0.9"),
        ("level", None),
        ("bootstrap_replicates", 0),
        ("bootstrap_replicates", -5),
        ("bootstrap_replicates", 100.0),
        ("bootstrap_replicates", "100"),
        ("seed", 1.5),
        ("seed", "0"),
        ("seed", True),
        ("fold_counts", "25"),
        ("fold_counts", [2.7]),
        ("fold_counts", [2, 2]),
        ("fold_counts", [1]),
        ("rules", {}),
        ("rules", []),
    ],
)
def test_cli_evaluate_rejects_bad_rules_config_values(tmp_path, capsys, key, value):
    corpus_path = tmp_path / "corpus.csv"
    write(corpus_path, TWO_EXPERIMENTS_CSV)
    rules = {
        "reward": {"metric": "clicks"},
        "rules": [{"name": "r", "blend": {"metric": "visits"}}],
        "fold_counts": [2],
        "bootstrap_replicates": 100,
        key: value,
    }
    rules_path = tmp_path / "rules.json"
    write(rules_path, json.dumps(rules))
    report_path = tmp_path / "r.csv"
    assert main(
        ["evaluate", "--corpus", str(corpus_path), "--rules", str(rules_path),
         "--out", str(report_path)]
    ) == 1
    # The error names the key, not just the file's own label.
    assert key in capsys.readouterr().err.replace("evaluate rules", "")
    assert not report_path.exists()


SIM_MODEL = {
    "effect_sd_y": 0.5, "effect_sd_proxy": 0.8, "effect_corr": 0.6,
    "noise_sd_y": 1.0, "noise_sd_proxy": 1.5, "noise_corr": -0.3,
    "units_per_arm": 30, "num_experiments": 10, "num_folds": 3,
}


READER_CASES = [
    ("evaluate", ("rules", 0, "fallback_arm"), 2.7, "rules[0].fallback_arm: must be an integer"),
    ("evaluate", ("rules", 0, "gate_alpha"), "0.1", "rules[0].gate_alpha: must be a number"),
    ("evaluate", ("rules", 0, "name"), 7, "rules[0].name: must be a string"),
    ("evaluate", ("rules", 0, "blend"), {"coefficients": {"visits": True}},
     "rules[0].blend.coefficients: must be an object of numbers"),
    ("evaluate", ("reward",), {"coefficients": [1, 0, 0]},
     "reward.coefficients: must be an object of numbers"),
    ("evaluate", ("rules",), [5], "rules[0]: must be an object, got 5"),
    ("simulate", ("model",), 5, "model: must be an object, got 5"),
    ("simulate", ("model",), None, "model: must be an object, got None"),
    ("simulate", ("rule",), 5, "rule: must be an object, got 5"),
    ("simulate", ("rule",), None, "rule: must be an object, got None"),
    ("simulate", ("sweep",), 5, "sweep: must be an object or null, got 5"),
]


@pytest.mark.parametrize(
    "command, path, value, location",
    READER_CASES,
    ids=[f"{c}-{'.'.join(map(str, p))}={v!r}" for c, p, v, _ in READER_CASES],
)
def test_cli_config_reader_rejects_mistyped_objects(
    tmp_path, capsys, command, path, value, location
):
    # Each config object is read through one schema: a value of the wrong
    # JSON type exits 1 with its key named, whatever its nesting, and
    # nothing is written.
    if command == "evaluate":
        config = {
            "reward": {"metric": "clicks"},
            "rules": [{"name": "r", "blend": {"metric": "visits"}}],
            "fold_counts": [2],
            "bootstrap_replicates": 100,
        }
        corpus_path = tmp_path / "corpus.csv"
        write(corpus_path, TWO_EXPERIMENTS_CSV)
        out = tmp_path / "r.csv"
        argv = ["evaluate", "--corpus", str(corpus_path), "--out", str(out), "--rules"]
    else:
        config = {"model": dict(SIM_MODEL), "num_replications": 20,
                  "rule": {"blend": [0.0, 1.0]}}
        out = tmp_path / "o"
        argv = ["simulate", "--out-dir", str(out), "--config"]
    *parents, key = path
    target = config
    for name in parents:
        target = target[name]
    target[key] = value
    cfg_path = tmp_path / "config.json"
    write(cfg_path, json.dumps(config))
    assert main(argv + [str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert location in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_cli_rejects_non_finite_json_numbers(tmp_path, capsys, literal):
    # Python's json reads these literals as non-finite floats.  A NaN
    # coefficient scored every arm NaN, so the rule always picked arm 1 and
    # the run exited 0 with an ordinary-looking report.
    corpus_path = tmp_path / "corpus.csv"
    write(corpus_path, TWO_EXPERIMENTS_CSV)
    rules_path = tmp_path / "rules.json"
    write(rules_path, (
        '{"reward": {"metric": "clicks"}, "fold_counts": [2], '
        '"bootstrap_replicates": 100, "rules": [{"name": "r", "blend": '
        '{"coefficients": {"visits": 1.0, "clicks": %s}}}]}' % literal
    ))
    report_path = tmp_path / "r.csv"
    assert main(["evaluate", "--corpus", str(corpus_path), "--rules", str(rules_path),
                 "--out", str(report_path)]) == 1
    assert "rules[0].blend.coefficients: must be " in capsys.readouterr().err
    assert not report_path.exists()

    cfg_path = tmp_path / "config.json"
    write(cfg_path, '{"num_replications": 20, "size_mode": "poisson", "m0": %s}' % literal)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
    assert "simulate config.m0: must be " in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_exits_1_when_m0_leaves_every_size_zero(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    write(cfg_path, '{"size_mode": "poisson", "m0": 1e-7, "num_replications": 1}')
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
    assert "m0=1e-07 leaves " in capsys.readouterr().err
    assert not out.exists()


def test_cli_replays_only_simulate_manifests(tmp_path, capsys):
    # A manifest passed where a config is read: simulate replays its own,
    # every other pairing names the manifest's command and refuses.
    corpus_path = tmp_path / "corpus.csv"
    assert main(["make-corpus", "--out", str(corpus_path), "--experiments", "4",
                 "--units", "6"]) == 0
    rules_path = tmp_path / "rules.json"
    write(rules_path, json.dumps({
        "reward": {"metric": "north_star"}, "fold_counts": [2],
        "bootstrap_replicates": 100,
        "rules": [{"name": "good", "blend": {"metric": "good_proxy"}}],
    }))
    report_path = tmp_path / "r.csv"
    evaluate = ["evaluate", "--corpus", str(corpus_path), "--out", str(report_path),
                "--rules"]
    assert main(evaluate + [str(rules_path)]) == 0
    sim_dir = tmp_path / "sim"
    simulate = ["simulate", "--out-dir", str(sim_dir), "--config"]
    write(tmp_path / "config.json", json.dumps({"num_replications": 20}))
    assert main(simulate + [str(tmp_path / "config.json")]) == 0
    capsys.readouterr()
    sim_manifest = sim_dir / "simulation_manifest.json"
    cases = [
        (evaluate, tmp_path / "r.csv.manifest.json", "evaluate rules", "evaluate"),
        (evaluate, sim_manifest, "evaluate rules", "simulate"),
        (simulate, tmp_path / "r.csv.manifest.json", "simulate", "evaluate"),
        (simulate, corpus_path.with_name("corpus.csv.manifest.json"), "simulate",
         "make-corpus"),
    ]
    for argv, manifest, where, command in cases:
        assert main(argv + [str(manifest)]) == 1
        assert capsys.readouterr().err == (
            f"error: {where}: {manifest} is a manifest of {command!r}; only "
            f"simulate manifests replay, through simulate --config\n"
        )
    assert main(simulate + [str(sim_manifest)]) == 0


def test_cli_simulate_accepts_a_null_sweep(tmp_path):
    cfg_path = tmp_path / "config.json"
    write(cfg_path, json.dumps({"model": SIM_MODEL, "num_replications": 20, "sweep": None}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert (out / "simulation.csv").exists()


def test_cli_degenerate_arm_exits_two(tmp_path):
    # A single-unit arm cannot support the significance gate: exit code 2.
    corpus_path = tmp_path / "corpus.csv"
    write(
        corpus_path,
        "experiment_id,arm,unit_id,m1\n"
        "e,1,u1,1.0\n"
        "e,2,u1,2.0\n"
        "e,2,u2,3.0\n",
    )
    rules_path = tmp_path / "rules.json"
    write(
        rules_path,
        json.dumps(
            {
                "reward": {"metric": "m1"},
                "rules": [
                    {
                        "name": "gated",
                        "blend": {"metric": "m1"},
                        "gate": "significant-vs-reference",
                    }
                ],
                "fold_counts": [2],
                "bootstrap_replicates": 100,
            }
        ),
    )
    assert main(
        ["evaluate", "--corpus", str(corpus_path), "--rules", str(rules_path),
         "--out", str(tmp_path / "r.csv")]
    ) == 2


def test_cli_check_command_passes_and_reports(capsys):
    code = main(["check-theorems", "--replications", "60000",
                 "--selection-replications", "400", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 3
    assert "poisson-rescaling" in out
    assert "rule-selection" in out


def test_cli_check_rejects_zero_selection_replications(capsys):
    code = main(["check-theorems", "--selection-replications", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: replications must be an integer >= 1")
    assert "Traceback" not in err


def test_cli_figure_output_is_parallelism_invariant(tmp_path, monkeypatch):
    args = ["replicate-figure", "2", "--out-dir", None, "--replications", "300",
            "--grid", "5,10", "--seed", "3"]
    outputs = []
    for degree, sub in (("1", "serial"), ("4", "parallel")):
        monkeypatch.setenv("RULEVAL_PARALLEL", degree)
        out = tmp_path / sub
        args[3] = str(out)
        assert main(args) == 0
        outputs.append((out / "figure2_noise_sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]
