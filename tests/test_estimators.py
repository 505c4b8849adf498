"""Estimator behavior: plug-in, k-fold CV, leave-l-out, Poisson rescaling,
aggregation, and bootstrap intervals."""

from itertools import combinations

import numpy as np
import pytest

from ruleval import (
    ArmData,
    ConfidenceInterval,
    CorpusFormatError,
    ExperimentCorpus,
    DecisionRule,
    DegenerateFoldError,
    EstimatorConfig,
    ExperimentData,
    RewardSpec,
    SimulationConfig,
    bootstrap_ci,
    check_poisson_rescaling,
    estimate_reward,
    per_experiment_rewards,
)
from ruleval.experiments import ArmStack, fold_decisions
from ruleval.estimators import (
    MAX_BOOTSTRAP_REDRAWS,
    _leave_l_out_sums,
    aggregate,
    batch_rewards,
    bootstrap_aggregates,
    percentile_interval,
)
from ruleval.streams import substream
import unit_oracle as oracle

REWARD = RewardSpec.metric(1)
CONSTANT_RULE = DecisionRule(blend=[0.0])  # all blend means tie, arm 1 wins
ARGMAX_RULE = DecisionRule(blend=[1.0])


def two_arm(units1, units2, weight=1.0, exp_id="e"):
    return ExperimentData(
        exp_id,
        (ArmData(1, np.asarray(units1, float)), ArmData(2, np.asarray(units2, float))),
        weight=weight,
    )


def random_two_arm(rng, m=8, exp_id="e", loc=(0.0, 0.0)):
    return two_arm(
        loc[0] + rng.standard_normal((m, 1)),
        loc[1] + rng.standard_normal((m, 1)),
        exp_id=exp_id,
    )


# ---------------------------------------------------------------------------
# plug-in estimate (batch_rewards with no fold count)


def test_naive_reward_constant_rule_is_fixed_arm_mean():
    exp = two_arm([[1.0], [3.0]], [[10.0], [20.0]])
    assert batch_rewards([exp], [CONSTANT_RULE], REWARD, (), 0)[0, 0, 0] == 2.0


def test_naive_reward_single_arm_is_plain_mean():
    exp = ExperimentData("solo", (ArmData(1, np.array([[2.0], [4.0], [9.0]])),))
    assert batch_rewards([exp], [ARGMAX_RULE], REWARD, (), 0)[0, 0, 0] == 5.0


def test_naive_reward_winner_s_curse_is_positive_under_the_null():
    # Two arms with true mean zero: selecting the larger observed mean and
    # reusing the same data to score it inflates the estimate.
    reps = 100_000
    m = 20
    rng = substream(2024, "curse")
    draws = rng.standard_normal((reps, 2, m))
    means = draws.mean(axis=2)
    chosen = np.argmax(means, axis=1)
    kernel_values = np.take_along_axis(means, chosen[:, None], axis=1)[:, 0]
    se = kernel_values.std(ddof=1) / np.sqrt(reps)
    assert kernel_values.mean() > 4 * se

    # The vectorized kernel above must agree exactly with the plug-in estimate.
    for i in range(200):
        exp = two_arm(draws[i, 0][:, None], draws[i, 1][:, None])
        assert batch_rewards([exp], [ARGMAX_RULE], REWARD, (), 0)[0, 0, 0] == kernel_values[i]


# ---------------------------------------------------------------------------
# k-fold rewards, one fold at a time (oracle.cv_fold_rewards)

UNIT_FOLDS = {1: np.array([1, 2, 3]), 2: np.array([1, 2, 3])}


def test_cv_fold_reward_constant_rule_is_fold_mean():
    exp = two_arm([[1.0], [5.0], [9.0]], [[7.0], [7.0], [7.0]])
    assert oracle.cv_fold_rewards(exp, CONSTANT_RULE, REWARD, UNIT_FOLDS, 3)[1] == 5.0


def test_cv_fold_reward_leave_one_out_toy():
    # 2 arms x 3 units, fold p holds unit p of each arm.  Worked by hand:
    # p=1 remaining means (3, 4) -> arm 2, fold value 1; p=2 remaining
    # (2, 4) -> arm 2, value 1; p=3 remaining (1, 1) -> tie -> arm 1,
    # value 4.
    exp = two_arm([[0.0], [2.0], [4.0]], [[1.0], [1.0], [7.0]])
    values = oracle.cv_fold_rewards(exp, ARGMAX_RULE, REWARD, UNIT_FOLDS, 3).tolist()
    assert values == [1.0, 1.0, 4.0]


def test_cv_fold_reward_identical_units_returns_constant():
    exp = two_arm(np.full((6, 1), 3.25), np.full((6, 1), 3.25))
    folds = oracle.fold_labels(exp, 3, seed=0)
    values = oracle.cv_fold_rewards(exp, ARGMAX_RULE, REWARD, folds, 3)
    for p in (1, 2, 3):
        assert values[p - 1] == 3.25


# ---------------------------------------------------------------------------
# k-fold through estimate_reward


def kfold(exps, rule, num_folds, seed=0, mode="mean"):
    config = EstimatorConfig(
        kind="cv-kfold", num_folds=num_folds, fold_seed=seed, mode=mode
    )
    return estimate_reward(exps, rule, REWARD, config)


def test_cv_reward_constant_rule_matches_naive_in_expectation():
    # Unequal fold sizes (10 units, 3 folds) keep the two estimators from
    # coinciding identically; their means must still agree.
    reps = 10_000
    diffs = np.empty(reps)
    for i in range(reps):
        rng = substream(55, "cvnaive", i)
        exp = random_two_arm(rng, m=10, exp_id=f"e{i}", loc=(0.3, 0.5))
        nv = batch_rewards([exp], [CONSTANT_RULE], REWARD, (), 0)[0, 0, 0]
        cv = kfold([exp], CONSTANT_RULE, num_folds=3, seed=i)
        diffs[i] = nv - cv.value
    assert diffs.std() > 0
    se = diffs.std(ddof=1) / np.sqrt(reps)
    assert abs(diffs.mean()) < 4 * se


def test_cv_reward_zero_weights_isolate_one_experiment():
    rng = np.random.default_rng(4)
    exps = [
        two_arm(
            rng.standard_normal((6, 1)),
            rng.standard_normal((6, 1)),
            weight=1.0 if i == 2 else 0.0,
            exp_id=f"e{i}",
        )
        for i in range(4)
    ]
    est = kfold(exps, ARGMAX_RULE, num_folds=2, seed=0)
    assert est.value == pytest.approx(est.per_experiment[2], abs=1e-15)


def test_reward_estimate_aggregate_invariant():
    rng = np.random.default_rng(12)
    exps = [
        two_arm(
            rng.standard_normal((7, 1)),
            rng.standard_normal((7, 1)),
            weight=float(rng.uniform(0.1, 3.0)),
            exp_id=f"e{i}",
        )
        for i in range(5)
    ]
    for mode in ("mean", "cumulative"):
        est = kfold(exps, ARGMAX_RULE, num_folds=3, seed=1, mode=mode)
        recomputed = aggregate(
            np.array(est.per_experiment), np.array(est.weights), mode
        )
        assert est.value == recomputed


# ---------------------------------------------------------------------------
# leave-l-out sums (_leave_l_out_sums)


def test_leave_one_out_constant_rule_sums_to_m_times_mean():
    exp = two_arm([[1.0], [2.0], [3.0]], [[0.0], [0.0], [0.0]])
    total = _leave_l_out_sums(
        [exp], CONSTANT_RULE, REWARD, EstimatorConfig("cv-leave-l-out", leave_out=1)
    )[0]
    assert total == pytest.approx(3 * 2.0, abs=1e-12)


def test_leave_one_out_fast_path_matches_re_mean_oracle_exactly():
    # Integer-valued data keeps both computations exact, so the comparison
    # is bit-for-bit.
    rng = np.random.default_rng(42)
    for trial in range(50):
        k = int(rng.integers(2, 4))
        m = int(rng.integers(3, 9))
        units = rng.integers(0, 10, size=(k, m, 1)).astype(float)
        exp = ExperimentData(
            f"t{trial}", tuple(ArmData(i + 1, units[i]) for i in range(k))
        )
        total = 0.0
        for held in range(m):
            keep = [x for x in range(m) if x != held]
            reduced = ExperimentData(
                "r", tuple(ArmData(i + 1, units[i][keep]) for i in range(k))
            )
            total += units[oracle.decide(reduced, ARGMAX_RULE) - 1, held, 0]
        config = EstimatorConfig("cv-leave-l-out", leave_out=1)
        assert _leave_l_out_sums([exp], ARGMAX_RULE, REWARD, config)[0] == total


def test_leave_two_out_matches_brute_force_on_four_units():
    rng = np.random.default_rng(7)
    units = rng.standard_normal((2, 4, 1))
    exp = two_arm(units[0], units[1])
    total = 0.0
    for subset in combinations(range(4), 2):
        keep = [x for x in range(4) if x not in subset]
        reduced = two_arm(units[0][keep], units[1][keep])
        chosen = oracle.decide(reduced, ARGMAX_RULE)
        total += units[chosen - 1, list(subset), 0].mean()
    config = EstimatorConfig("cv-leave-l-out", leave_out=2)
    got = _leave_l_out_sums([exp], ARGMAX_RULE, REWARD, config)[0]
    assert got == pytest.approx(total, abs=1e-12)


def test_leave_l_out_subset_sampling_is_unbiased():
    rng = np.random.default_rng(3)
    units = rng.standard_normal((2, 8, 1))
    exp = two_arm(units[0], units[1])
    exact = _leave_l_out_sums(  # 28 subsets
        [exp], ARGMAX_RULE, REWARD, EstimatorConfig("cv-leave-l-out", leave_out=2)
    )[0]
    draws = np.array(
        [
            _leave_l_out_sums([exp], ARGMAX_RULE, REWARD, EstimatorConfig(
                "cv-leave-l-out", leave_out=2, max_folds=7, fold_seed=s
            ))[0]
            for s in range(2000)
        ]
    )
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean() - exact) < 4 * se


def test_leave_l_out_rejects_bad_shapes():
    exp = two_arm([[1.0], [2.0]], [[3.0], [4.0]])
    with pytest.raises(ValueError, match="larger than"):
        _leave_l_out_sums(
            [exp], ARGMAX_RULE, REWARD, EstimatorConfig("cv-leave-l-out", leave_out=2)
        )
    uneven = ExperimentData(
        "u",
        (ArmData(1, np.zeros((3, 1))), ArmData(2, np.zeros((4, 1)))),
    )
    with pytest.raises(ValueError, match="equal arm sizes"):
        _leave_l_out_sums(
            [uneven], ARGMAX_RULE, REWARD, EstimatorConfig("cv-leave-l-out", leave_out=1)
        )


def test_leave_l_out_corpus_raises_the_first_experiments_fault():
    # The batched pass scores (arm count, arm size) groups in any order, yet
    # names the fault a loop over the experiments would meet first: c lacks
    # the fallback arm 3 when no arm passes, b's one kept unit per arm
    # cannot be gated.
    rule = DecisionRule(blend=[1.0], gate="significant-vs-reference", fallback_arm=3)
    a = two_arm(np.arange(6.0)[:, None], 100 + np.arange(6.0)[:, None], exp_id="a")
    b = ExperimentData("b", tuple(ArmData(k, np.array([[0.0], [1.0]])) for k in (1, 2, 3)))
    c = two_arm(np.arange(6.0)[:, None], np.arange(6.0)[:, None], exp_id="c")
    config = EstimatorConfig(kind="cv-leave-l-out", leave_out=1)
    with pytest.raises(ValueError, match="fallback arm 3 does not exist in experiment 'c'"):
        estimate_reward([a, c, b], rule, REWARD, config)
    with pytest.raises(DegenerateFoldError, match="experiment 'b': holding out 1"):
        estimate_reward([a, b, c], rule, REWARD, config)
    assert estimate_reward([a], rule, REWARD, config).value == 100 + 2.5


@pytest.mark.parametrize("max_folds", [0, -1])
def test_max_folds_below_one_is_rejected(max_folds):
    with pytest.raises(ValueError, match="max_folds"):
        EstimatorConfig(kind="cv-leave-l-out", max_folds=max_folds)


# ---------------------------------------------------------------------------
# Poisson-rescaled leave-l-out


def test_rescaled_constant_rule_recovers_scaled_mean():
    exp = two_arm([[2.0], [4.0], [6.0]], [[0.0], [0.0], [0.0]])
    m0 = 3.0
    config = EstimatorConfig("poisson-rescaled", leave_out=1, m0=m0)
    got = per_experiment_rewards([exp], CONSTANT_RULE, REWARD, config)[0]
    # leave-one-out sum = M * mean; rescaling gives mean * (M / m0)
    assert got == pytest.approx(4.0 * (3 / m0), abs=1e-12)
    config = EstimatorConfig("poisson-rescaled", leave_out=1, m0=2 * m0)
    doubled = per_experiment_rewards([exp], CONSTANT_RULE, REWARD, config)[0]
    assert doubled == pytest.approx(got / 2, abs=1e-12)


def test_rescaled_requires_positive_m0():
    exp = two_arm([[1.0], [2.0]], [[3.0], [4.0]])
    with pytest.raises(ValueError):
        per_experiment_rewards([exp], CONSTANT_RULE, REWARD,
                               EstimatorConfig("poisson-rescaled", leave_out=1, m0=0.0))


@pytest.mark.parametrize("m0", [np.inf, np.nan, -np.inf, 0.0, -2.0, True, "5"])
def test_m0_must_be_finite_and_positive(m0):
    # One check for every user of m0: an infinite m0 rescaled every sum to
    # -0.0 or 0.0, and a NaN one reached NumPy's Poisson draw.
    message = "m0 must be a finite number > 0"
    with pytest.raises(ValueError, match=message):
        EstimatorConfig(kind="poisson-rescaled", m0=m0)
    with pytest.raises(ValueError, match=message):
        SimulationConfig(size_mode="poisson", m0=m0)
    with pytest.raises(ValueError, match=message):
        check_poisson_rescaling(m0=m0, replications=100)
    assert EstimatorConfig(kind="poisson-rescaled", m0=np.int64(3)).m0 == 3


# ---------------------------------------------------------------------------
# reward translation


def test_adding_a_constant_shifts_estimators_by_psi_of_it():
    rng = np.random.default_rng(99)
    units = rng.standard_normal((2, 9, 2))
    delta = np.array([0.7, -1.3])
    reward = RewardSpec.combination([1.0, 0.5])
    rule = DecisionRule(blend=[1.0, -0.25])
    exp = two_arm(units[0], units[1])
    shifted = two_arm(units[0] + delta, units[1] + delta)
    shift = float(reward.weights(2) @ delta)

    assert batch_rewards([shifted], [rule], reward, (), 0)[0, 0, 0] == pytest.approx(
        batch_rewards([exp], [rule], reward, (), 0)[0, 0, 0] + shift, rel=1e-12
    )
    folds = oracle.fold_labels(exp, 3, seed=0)
    moved = oracle.cv_fold_rewards(shifted, rule, reward, folds, 3)
    unmoved = oracle.cv_fold_rewards(exp, rule, reward, folds, 3)
    for p in (1, 2, 3):
        assert moved[p - 1] == pytest.approx(unmoved[p - 1] + shift, rel=1e-12)
    # Decisions are unchanged by a common shift.
    _, chosen, faults = fold_decisions(ArmStack.of([shifted, exp]), rule, None, ())
    assert faults.tolist() == [0, 0] and chosen[0, 0] == chosen[1, 0]


# ---------------------------------------------------------------------------
# estimate_reward dispatch


def test_estimate_reward_kinds_agree_with_direct_calls():
    rng = np.random.default_rng(15)
    exps = [random_two_arm(rng, m=6, exp_id=f"e{i}") for i in range(3)]
    nv = estimate_reward(exps, ARGMAX_RULE, REWARD, EstimatorConfig(kind="naive"))
    assert nv.value == pytest.approx(
        np.mean([batch_rewards([e], [ARGMAX_RULE], REWARD, (), 0)[0, 0, 0] for e in exps]),
        abs=1e-15,
    )
    cv = estimate_reward(
        exps, ARGMAX_RULE, REWARD, EstimatorConfig(kind="cv-kfold", num_folds=2)
    )
    direct = np.mean(
        [
            np.mean(oracle.cv_fold_rewards(
                e, ARGMAX_RULE, REWARD, oracle.fold_labels(e, 2, 0), 2
            ))
            for e in exps
        ]
    )
    assert cv.value == pytest.approx(direct, abs=1e-15)
    loo = estimate_reward(
        exps, ARGMAX_RULE, REWARD, EstimatorConfig(kind="cv-leave-l-out", leave_out=1)
    )
    config = EstimatorConfig("cv-leave-l-out", leave_out=1)
    expected = np.mean(
        [_leave_l_out_sums([e], ARGMAX_RULE, REWARD, config)[0] / 6 for e in exps]
    )
    assert loo.value == pytest.approx(expected, abs=1e-15)
    rescaled = estimate_reward(
        exps,
        ARGMAX_RULE,
        REWARD,
        EstimatorConfig(kind="poisson-rescaled", leave_out=1, m0=6.0),
    )
    config = EstimatorConfig("poisson-rescaled", leave_out=1, m0=6.0)
    expected = np.mean(
        [per_experiment_rewards([e], ARGMAX_RULE, REWARD, config)[0] for e in exps]
    )
    assert rescaled.value == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "config",
    [
        EstimatorConfig(kind="naive"),
        EstimatorConfig(kind="cv-kfold", num_folds=3),
        EstimatorConfig(kind="cv-leave-l-out", leave_out=1),
        EstimatorConfig(kind="poisson-rescaled", leave_out=2, m0=6.0, mode="cumulative"),
    ],
    ids=lambda c: c.kind,
)
def test_estimators_take_a_corpus_stack(config):
    # A stack is a corpus's storage; leave-l-out and poisson-rescaled read
    # ``.arms`` of it, and estimate_reward ``.weight``.
    rng = np.random.default_rng(21)
    exps = [
        ExperimentData(f"e{i}", tuple(
            ArmData(k + 1, rng.standard_normal((6, 2))) for k in range(2 + i % 2)
        ), weight=0.5 + i)
        for i in range(5)
    ]
    corpus = ExperimentCorpus(exps, ("y", "p"))
    rule = DecisionRule(blend=[0.0, 1.0])
    reward = RewardSpec.metric(2)
    listed = list(corpus.experiments)
    got = per_experiment_rewards(corpus.stack, rule, reward, config)
    assert got.tobytes() == per_experiment_rewards(listed, rule, reward, config).tobytes()
    assert estimate_reward(corpus.stack, rule, reward, config) == estimate_reward(
        listed, rule, reward, config
    )


@pytest.mark.parametrize("stack, message", [
    (ArmStack.from_sizes(np.array([[0.0], [np.nan], [2.0], [3.0]]), [2, 2], [2], ["e"], [1.0]),
     r"^experiment 'e', arm 1, unit 1: metric 1 is not finite: nan$"),
    (ArmStack.from_sizes(np.arange(4.0).reshape(4, 1), [2, 2], [2], ["e"], [-1.0]),
     r"^experiment 'e': weight must be finite and nonnegative, got -1.0$"),
    (ArmStack.from_sizes(np.arange(4.0).reshape(4, 1), [2, 3], [2], ["e"], [1.0]),
     r"^stack starts must be the running sums of its sizes, from 0 to its 4 unit rows$"),
], ids=["nan-unit", "negative-weight", "sizes-past-the-units"])
def test_estimators_check_a_stack_they_are_given(stack, message):
    # Unchecked, the NaN unit gave a NaN estimate, the weight -1 an
    # estimate of -1.0, and the sizes an IndexError.
    for config in (EstimatorConfig(kind="naive"), EstimatorConfig(kind="cv-leave-l-out")):
        with pytest.raises(CorpusFormatError, match=message):
            estimate_reward(stack, ARGMAX_RULE, REWARD, config)


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(kind="bogus")
    with pytest.raises(ValueError):
        EstimatorConfig(kind="cv-kfold", num_folds=1)
    with pytest.raises(ValueError):
        EstimatorConfig(kind="poisson-rescaled", m0=None)
    with pytest.raises(ValueError):
        EstimatorConfig(mode="median")


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"kind": "cv-kfold", "num_folds": 2.7}, "num_folds"),
        ({"kind": "cv-kfold", "num_folds": 3.0}, "num_folds"),
        ({"kind": "cv-kfold", "num_folds": True}, "num_folds"),
        ({"kind": "cv-leave-l-out", "leave_out": 1.5}, "leave_out"),
        ({"kind": "poisson-rescaled", "m0": 3.0, "leave_out": 1.0}, "leave_out"),
        ({"kind": "cv-leave-l-out", "max_folds": 2.5}, "max_folds"),
    ],
)
def test_estimator_config_requires_integer_counts(kwargs, name):
    # A float count was truncated by the estimator while ``params`` kept it
    # (num_folds 2.7 ran 2-fold), or failed inside math.comb (leave_out 1.5).
    with pytest.raises(ValueError, match=name):
        EstimatorConfig(**kwargs)


def test_estimators_require_integer_counts():
    assert EstimatorConfig(kind="cv-kfold", num_folds=np.int64(3)).num_folds == 3


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_identical_contributions_zero_width():
    exps = [
        two_arm(np.full((4, 1), 2.0), np.full((4, 1), 1.0), exp_id=f"e{i}")
        for i in range(5)
    ]
    ci = bootstrap_ci(
        estimate_reward(exps, CONSTANT_RULE, REWARD, EstimatorConfig(kind="naive")), seed=3
    )
    assert ci.lower == ci.upper == 2.0


@pytest.mark.parametrize("mode", ["mean", "cumulative"])
def test_bootstrap_ci_resamples_the_estimate_it_is_given(mode):
    # The interval is bootstrap_aggregates over the estimate's own
    # contributions and weights, then percentile_interval, on the key
    # (seed, "bootstrap", estimator kind, replicates); nothing is rescored.
    rng = np.random.default_rng(21)
    exps = [random_two_arm(rng, m=6, exp_id=f"e{i}") for i in range(12)]
    config = EstimatorConfig(kind="cv-kfold", num_folds=3, mode=mode)
    estimate = estimate_reward(exps, ARGMAX_RULE, REWARD, config)
    draws, redraws = bootstrap_aggregates(
        np.array(estimate.per_experiment), np.array(estimate.weights), mode, 400,
        substream(6, "bootstrap", "cv-kfold", 400),
    )
    ci = bootstrap_ci(estimate, n_replicates=400, level=0.9, seed=6)
    assert (ci.lower, ci.upper) == percentile_interval(draws, 0.9)
    assert (ci.level, ci.redraws) == (0.9, redraws)


@pytest.mark.parametrize("mode", ["mean", "cumulative"])
def test_bootstrap_ci_reports_the_zero_weight_redraws(mode):
    # Two weighted experiments among eight: a mean-mode resample that misses
    # both is redrawn, and the interval reports how many were.  A cumulative
    # resample needs no positive total weight and is never redrawn.
    rng = np.random.default_rng(22)
    exps = [
        two_arm(rng.standard_normal((4, 1)), rng.standard_normal((4, 1)),
                weight=1.0 if i < 2 else 0.0, exp_id=f"e{i}")
        for i in range(8)
    ]
    estimate = estimate_reward(exps, ARGMAX_RULE, REWARD, EstimatorConfig("naive", mode=mode))
    _, redraws = bootstrap_aggregates(
        np.array(estimate.per_experiment), np.array(estimate.weights), mode, 500,
        substream(0, "bootstrap", "naive", 500),
    )
    ci = bootstrap_ci(estimate, n_replicates=500)
    assert ci.redraws == redraws
    assert (redraws > 0) if mode == "mean" else (redraws == 0)


def test_bootstrap_percentile_definition():
    # The interval endpoints are the empirical 2.5%/97.5% quantiles of the
    # resampled aggregates; reproduce the draws with the same stream.
    rng = np.random.default_rng(8)
    contributions = rng.standard_normal(20)
    weights = np.ones(20)
    check_rng = substream(123, "ci")
    draws, redraws = bootstrap_aggregates(
        contributions, weights, "mean", 500, check_rng
    )
    assert redraws == 0
    lo, hi = np.quantile(draws, 0.025), np.quantile(draws, 0.975)
    again, _ = bootstrap_aggregates(
        contributions, weights, "mean", 500, substream(123, "ci")
    )
    assert np.array_equal(draws, again)
    assert lo <= np.median(draws) <= hi


def test_bootstrap_draws_equal_the_per_replicate_loop():
    # Without zero-weight resamples, the one (B, n) index draw consumes the
    # stream exactly as one draw per replicate does.
    rng = np.random.default_rng(31)
    for n in (7, 60):
        contributions = rng.standard_normal(n)
        weights = rng.uniform(0.5, 2.0, n)
        for mode in ("mean", "cumulative"):
            draws, redraws = bootstrap_aggregates(
                contributions, weights, mode, 200, substream(4, "loop", n, mode)
            )
            expected = oracle.bootstrap_loop(
                contributions, weights, mode, 200, substream(4, "loop", n, mode)
            )
            assert redraws == 0
            assert np.array_equal(draws, expected)


def test_bootstrap_redraws_zero_weight_resamples():
    rng = substream(5, "zw")
    contributions = np.array([1.0, 2.0, 3.0])
    weights = np.array([1.0, 0.0, 0.0])
    draws, redraws = bootstrap_aggregates(contributions, weights, "mean", 300, rng)
    # Some resamples miss the only weighted experiment and are redrawn.
    assert redraws > 0
    assert np.all(draws == 1.0)


def test_bootstrap_redraw_cap_applies_to_each_replicate():
    # One weighted experiment among 50: about 36% of resamples miss it, so
    # 30,000 replicates need about 17,000 redraws in all, far more than the
    # cap, but never many in a row.
    weights = np.zeros(50)
    weights[7] = 1.0
    contributions = np.arange(50.0)
    draws, redraws = bootstrap_aggregates(
        contributions, weights, "mean", 30_000, substream(2, "cap")
    )
    assert MAX_BOOTSTRAP_REDRAWS < redraws < 20_000
    assert np.all(draws == 7.0)
    with pytest.raises(RuntimeError, match="redraw cap"):
        bootstrap_aggregates(contributions, np.zeros(50), "mean", 10, substream(2, "cap"))


def test_bootstrap_validation_and_ci_type():
    exps = [
        two_arm(np.full((3, 1), 1.0), np.full((3, 1), 0.0), exp_id=f"e{i}")
        for i in range(3)
    ]
    config = EstimatorConfig(kind="naive")
    with pytest.raises(ValueError):
        bootstrap_ci(estimate_reward(exps[:1], CONSTANT_RULE, REWARD, config))
    with pytest.raises(ValueError):
        bootstrap_ci(estimate_reward(exps, CONSTANT_RULE, REWARD, config), n_replicates=10)
    with pytest.raises(ValueError):
        ConfidenceInterval(lower=2.0, upper=1.0, level=0.95)


@pytest.mark.parametrize("n_replicates", [100.5, 1000.0, True])
def test_bootstrap_ci_requires_an_integer_replicate_count(n_replicates):
    # 100.5 failed in NumPy's index draw with a TypeError.
    exps = [
        two_arm(np.full((3, 1), 1.0), np.full((3, 1), 0.0), exp_id=f"e{i}")
        for i in range(3)
    ]
    with pytest.raises(ValueError, match="n_replicates must be an integer >= 100"):
        bootstrap_ci(estimate_reward(exps, CONSTANT_RULE, REWARD, EstimatorConfig(kind="naive")),
                     n_replicates=n_replicates)


def test_bootstrap_coverage_near_nominal():
    # Gaussian per-experiment contributions with a known mean: nominal 95%
    # percentile intervals over 60 experiments should cover close to 95%.
    outer = 2000
    n = 60
    covered = 0
    rng = substream(9, "coverage")
    contributions = rng.standard_normal((outer, n))
    weights = np.ones(n)
    for i in range(outer):
        draws, _ = bootstrap_aggregates(
            contributions[i], weights, "mean", 300, substream(9, "b", i)
        )
        lo, hi = np.quantile(draws, 0.025), np.quantile(draws, 0.975)
        covered += int(lo <= 0.0 <= hi)
    assert covered / outer == pytest.approx(0.95, abs=0.02)


def test_percentile_interval_equals_the_two_single_quantiles():
    # One np.quantile call for both tails gives each tail's own call's bits.
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 10, 999, 1000):
        for level in (0.5, 0.9, 0.95, 0.99):
            draws = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
            alpha = 1.0 - level
            want = (float(np.quantile(draws, alpha / 2.0)),
                    float(np.quantile(draws, 1.0 - alpha / 2.0)))
            got = percentile_interval(draws, level)
            assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
