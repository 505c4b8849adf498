"""Rule-engine behavior: blend statistics, significance gating, decisions,
and fold machinery.

``blend_mean_and_se`` is the unit-level oracle's (tests/unit_oracle.py);
held-out-fold decisions are observed through its ``cv_fold_rewards``, the
library's k-fold table scored on given fold labels.
"""

import statistics

import numpy as np
import pytest

from ruleval import (
    ArmData,
    DecisionRule,
    DegenerateArmError,
    DegenerateFoldError,
    ExperimentData,
    RewardSpec,
    decide,
    significance_set,
)
from ruleval.experiments import ArmStack, fold_permutations
from ruleval.streams import substream
from unit_oracle import blend_mean_and_se, cv_fold_rewards, fold_labels

REWARD = RewardSpec.metric(1)


def two_arm(units1, units2, weight=1.0, exp_id="e"):
    return ExperimentData(
        exp_id,
        (ArmData(1, np.asarray(units1, float)), ArmData(2, np.asarray(units2, float))),
        weight=weight,
    )


# ---------------------------------------------------------------------------
# blend_mean_and_se


def test_blend_mean_and_se_two_point_sample():
    arm = ArmData(1, np.array([[1.0, 0.0], [3.0, 0.0]]))
    mean, se = blend_mean_and_se(arm, np.array([1.0, 0.0]))
    assert mean == 2.0
    # sd of {1, 3} is sqrt(2); se = sqrt(2) / sqrt(2) = 1
    assert se == pytest.approx(1.0, abs=1e-15)


def test_blend_mean_and_se_identical_units_zero_se():
    arm = ArmData(1, np.full((7, 2), 3.5))
    mean, se = blend_mean_and_se(arm, np.array([2.0, -1.0]))
    assert mean == pytest.approx(3.5)
    assert se == 0.0


def test_blend_mean_and_se_matches_independent_routine():
    # Oracle: the stdlib statistics module, fed the blended scalars.
    rng = np.random.default_rng(2024)
    values = rng.standard_normal(1000)
    arm = ArmData(1, values[:, None])
    mean, se = blend_mean_and_se(arm, np.array([1.0]))
    ref_mean = statistics.fmean(values.tolist())
    ref_se = statistics.stdev(values.tolist()) / np.sqrt(1000)
    assert mean == pytest.approx(ref_mean, abs=1e-12)
    assert se == pytest.approx(ref_se, abs=1e-12)


def test_blend_mean_and_se_rejects_single_unit():
    arm = ArmData(1, np.array([[1.0]]))
    with pytest.raises(DegenerateArmError):
        blend_mean_and_se(arm, np.array([1.0]))


# ---------------------------------------------------------------------------
# significance_set


def gated_rule(**kwargs):
    defaults = dict(blend=[1.0], gate="significant-vs-reference")
    defaults.update(kwargs)
    return DecisionRule(**defaults)


def test_significance_set_huge_effect_included():
    exp = two_arm(
        np.random.default_rng(0).normal(0, 0.01, (50, 1)),
        np.random.default_rng(1).normal(10, 0.01, (50, 1)),
    )
    assert significance_set(exp, gated_rule()) == {2}


def test_significance_set_identical_arms_empty():
    units = np.arange(10.0)[:, None]
    exp = two_arm(units, units.copy())
    assert significance_set(exp, gated_rule()) == set()


def test_significance_set_reference_never_included():
    # Treatment far below control: one-sided-greater keeps the set empty.
    exp = two_arm(
        np.random.default_rng(0).normal(5, 0.01, (30, 1)),
        np.random.default_rng(1).normal(0, 0.01, (30, 1)),
    )
    assert significance_set(exp, gated_rule()) == set()
    # Two-sided picks up the deficit as significant.
    assert significance_set(exp, gated_rule(gate_sides="two-sided")) == {2}


def test_significance_set_null_size_close_to_alpha():
    # Both arms share the same distribution, so the one-sided inclusion
    # rate should sit near alpha.
    hits = 0
    reps = 10_000
    rule = gated_rule(gate_alpha=0.05)
    for i in range(reps):
        rng = substream(31, "size", i)
        units = rng.standard_normal((2, 100, 1))
        exp = two_arm(units[0], units[1])
        hits += 2 in significance_set(exp, rule)
    assert hits / reps == pytest.approx(0.05, abs=0.01)


def test_significance_set_monotone_in_alpha():
    rng = np.random.default_rng(77)
    for _ in range(25):
        units = rng.standard_normal((3, 12, 2)) + rng.normal(0, 0.5, (3, 1, 2))
        exp = ExperimentData("e", tuple(ArmData(i + 1, units[i]) for i in range(3)))
        previous = set()
        for alpha in (0.001, 0.01, 0.05, 0.2, 0.5):
            current = significance_set(
                exp, gated_rule(blend=[1.0, 0.4], gate_alpha=alpha)
            )
            assert previous <= current
            previous = current


def test_significance_set_needs_two_units_per_arm():
    exp = two_arm([[1.0]], [[2.0], [3.0]])
    with pytest.raises(DegenerateArmError):
        significance_set(exp, gated_rule())


def test_gate_metrics_any_vs_all():
    # Metric 1 separates the arms sharply, metric 2 does not.
    rng = np.random.default_rng(5)
    control = np.column_stack([rng.normal(0, 0.01, 40), rng.normal(0, 1, 40)])
    treat = np.column_stack([rng.normal(1, 0.01, 40), rng.normal(0, 1, 40)])
    exp = two_arm(control, treat)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    any_rule = gated_rule(blend=e2, gate_metrics=(e1, e2), gate_combine="any")
    all_rule = gated_rule(blend=e2, gate_metrics=(e1, e2), gate_combine="all")
    assert significance_set(exp, any_rule) == {2}
    assert significance_set(exp, all_rule) == set()


# ---------------------------------------------------------------------------
# decide


def test_decide_single_arm():
    exp = ExperimentData("solo", (ArmData(1, np.array([[1.0], [2.0]])),))
    assert decide(exp, DecisionRule(blend=[1.0])) == 1


def test_decide_argmax_of_blend_means():
    exp = ExperimentData(
        "e",
        (
            ArmData(1, np.array([[0.1]])),
            ArmData(2, np.array([[0.3]])),
            ArmData(3, np.array([[0.2]])),
        ),
    )
    assert decide(exp, DecisionRule(blend=[1.0])) == 2


def test_decide_tie_goes_to_lowest_index():
    exp = two_arm([[1.0], [3.0]], [[2.0], [2.0]])  # both means 2.0
    assert decide(exp, DecisionRule(blend=[1.0])) == 1


def test_decide_gated_empty_set_returns_fallback():
    units = np.arange(8.0)[:, None]
    exp = two_arm(units, units.copy())
    assert decide(exp, gated_rule()) == 1
    assert decide(exp, gated_rule(fallback_arm=2)) == 2
    with pytest.raises(ValueError, match="^fallback arm 3 does not exist in experiment 'e'$"):
        decide(exp, gated_rule(fallback_arm=3))


def test_decide_matches_direct_metric_argmax_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(1, 9))
        j = int(rng.integers(1, 4))
        units = rng.standard_normal((k, m, j))
        exp = ExperimentData("e", tuple(ArmData(i + 1, units[i]) for i in range(k)))
        target = int(rng.integers(0, j))
        blend = np.zeros(j)
        blend[target] = 1.0
        expected = int(np.argmax(units[:, :, target].mean(axis=1))) + 1
        assert decide(exp, DecisionRule(blend=blend)) == expected


def test_decide_invariant_to_positive_blend_rescaling():
    rng = np.random.default_rng(9)
    for _ in range(25):
        units = rng.standard_normal((3, 10, 2))
        exp = ExperimentData("e", tuple(ArmData(i + 1, units[i]) for i in range(3)))
        blend = rng.standard_normal(2)
        for rule_factory in (
            lambda b: DecisionRule(blend=b),
            lambda b: gated_rule(blend=b, gate_alpha=0.3),
        ):
            base = decide(exp, rule_factory(blend))
            scaled = decide(exp, rule_factory(blend * 7.25))
            assert base == scaled


def test_decide_invariant_to_unit_order():
    rng = np.random.default_rng(10)
    units = rng.standard_normal((2, 9, 2))
    exp = two_arm(units[0], units[1])
    for rule in (DecisionRule(blend=[1.0, 0.5]), gated_rule(blend=[1.0, 0.5])):
        base = decide(exp, rule)
        for _ in range(5):
            perm = two_arm(
                units[0][rng.permutation(9)], units[1][rng.permutation(9)]
            )
            assert decide(perm, rule) == base


# ---------------------------------------------------------------------------
# production-style launch rules built from gate configuration


def test_status_quo_and_challenger_rules_are_expressible():
    # Three-metric schema (north star, old proxy, new proxy); the rules
    # differ only in blend and gate configuration.
    e_old = np.array([0.0, 1.0, 0.0])
    e_new = np.array([0.0, 0.0, 1.0])
    rule_old = gated_rule(blend=e_old, gate_metrics=(e_old,))
    rule_new = gated_rule(blend=e_new, gate_metrics=(e_new,))
    rule_either = gated_rule(
        blend=e_new, gate_metrics=(e_old, e_new), gate_combine="any"
    )
    rng = np.random.default_rng(21)
    # Treatment moves the old proxy strongly and dents the new one.
    control = rng.normal(0, 0.05, (60, 3))
    treat = rng.normal([0.0, 1.0, -0.05], 0.05, (60, 3))
    exp = two_arm(control, treat)
    assert decide(exp, rule_old) == 2
    assert decide(exp, rule_new) == 1  # new-proxy gate fails, fallback
    assert decide(exp, rule_either) == 2  # either-gate passes via old proxy


# ---------------------------------------------------------------------------
# folds


def test_assign_folds_near_equal_sizes_and_reproducible():
    # Fold labels are each arm's fold_permutations draw modulo the count.
    exp = two_arm(np.zeros((11, 1)), np.zeros((7, 1)))
    folds = [perm % 3 + 1 for perm in fold_permutations(ArmStack.of([exp]), seed=5)]
    for labels, m in zip(folds, (11, 7)):
        assert labels.shape == (m,)
        counts = np.bincount(labels, minlength=4)[1:]
        assert counts.max() - counts.min() <= 1
    again = fold_permutations(ArmStack.of([exp]), seed=5)
    for labels, perm in zip(folds, again):
        assert np.array_equal(labels, perm % 3 + 1)
    different = fold_permutations(ArmStack.of([exp]), seed=6)
    assert any(
        not np.array_equal(labels, perm % 3 + 1) for labels, perm in zip(folds, different)
    )


def test_assign_folds_depends_only_on_seed_id_and_sizes():
    rng = np.random.default_rng(0)
    a = two_arm(rng.standard_normal((9, 1)), rng.standard_normal((5, 1)))
    b = two_arm(rng.standard_normal((9, 1)), rng.standard_normal((5, 1)))
    fa = fold_permutations(ArmStack.of([a]), seed=11)
    fb = fold_permutations(ArmStack.of([b]), seed=11)
    for pa, pb in zip(fa, fb):
        assert np.array_equal(pa % 4 + 1, pb % 4 + 1)


def test_decide_on_folds_mirror_halves():
    # Each fold holds an identical copy of the same units per arm, so the
    # decision matches the full-data decision for either held-out half.
    units1 = np.array([[1.0], [1.0]])
    units2 = np.array([[2.0], [2.0]])
    exp = two_arm(units1, units2)
    folds = {1: np.array([1, 2]), 2: np.array([1, 2])}
    rule = DecisionRule(blend=[1.0])
    assert decide(exp, rule) == 2
    values = cv_fold_rewards(exp, rule, REWARD, folds, 2)
    assert values[0] == 2.0  # arm 2's unit
    assert values[1] == 2.0


def test_decide_on_folds_data_independent_rule():
    rng = np.random.default_rng(3)
    exp = two_arm(rng.standard_normal((6, 1)), rng.standard_normal((6, 1)))
    folds = fold_labels(exp, 3, seed=0)
    rule = DecisionRule(blend=[0.0])
    values = cv_fold_rewards(exp, rule, REWARD, folds, 3)
    for p in (1, 2, 3):
        arm1_fold = exp.arm(1).units[folds[1] == p, 0]
        assert values[p - 1] == arm1_fold.mean()


def test_decide_on_folds_matches_brute_force_subsets():
    rng = np.random.default_rng(8)
    for trial in range(20):
        units = rng.standard_normal((2, 6, 2))
        exp = two_arm(units[0], units[1], exp_id=f"e{trial}")
        folds = fold_labels(exp, 3, seed=trial)
        rule = DecisionRule(blend=[1.0, -0.5])
        values = cv_fold_rewards(exp, rule, REWARD, folds, 3)
        for p in (1, 2, 3):
            manual_arms = []
            for arm in exp.arms:
                keep = folds[arm.arm_index] != p
                manual_arms.append(ArmData(arm.arm_index, arm.units[keep]))
            manual = ExperimentData(exp.experiment_id, tuple(manual_arms))
            chosen = decide(manual, rule)
            held = exp.arm(chosen).units[folds[chosen] == p, 0]
            assert values[p - 1] == held.mean()


def test_decide_on_folds_degenerate_fold_names_arm_and_fold():
    exp = two_arm([[1.0], [2.0]], [[3.0], [4.0]])
    folds = {1: np.array([1, 1]), 2: np.array([1, 2])}  # arm 1 has no fold 2
    with pytest.raises(DegenerateFoldError, match="fold 1") as excinfo:
        cv_fold_rewards(exp, DecisionRule(blend=[1.0]), REWARD, folds, 2)
    assert "arm 1" in str(excinfo.value)


def test_remove_fold_gated_needs_two_remaining_units():
    exp = two_arm([[1.0], [2.0], [3.0]], [[4.0], [5.0], [6.0]])
    folds = {1: np.array([1, 1, 2]), 2: np.array([1, 1, 2])}
    # Removing the two-unit fold leaves one unit per arm: fine ungated
    # (arm 2 wins and scores its held-out units 4 and 5), degenerate under
    # a significance gate.
    assert cv_fold_rewards(exp, DecisionRule(blend=[1.0]), REWARD, folds, 2)[0] == 4.5
    with pytest.raises(DegenerateFoldError):
        cv_fold_rewards(exp, gated_rule(), REWARD, folds, 2)


# ---------------------------------------------------------------------------
# data types


def test_experiment_validation():
    with pytest.raises(ValueError, match="contiguous"):
        ExperimentData("e", (ArmData(2, np.zeros((1, 1))),))
    with pytest.raises(ValueError, match="metrics"):
        ExperimentData(
            "e", (ArmData(1, np.zeros((1, 1))), ArmData(2, np.zeros((1, 2))))
        )
    with pytest.raises(ValueError, match="weight"):
        two_arm([[1.0]], [[2.0]], weight=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="weight"):
            two_arm([[1.0]], [[2.0]], weight=bad)
        with pytest.raises(ValueError, match="finite"):
            ArmData(1, np.array([[1.0], [bad]]))
    with pytest.raises(DegenerateArmError):
        ArmData(1, np.zeros((0, 1)))


def test_reward_spec_default_picks_first_metric():
    spec = RewardSpec()
    assert np.array_equal(spec.weights(3), [1.0, 0.0, 0.0])
    combo = RewardSpec.combination([0.5, -2.0])
    assert np.array_equal(combo.weights(2), [0.5, -2.0])
    with pytest.raises(ValueError):
        RewardSpec.metric(4).weights(3)
    with pytest.raises(ValueError):
        RewardSpec.combination([1.0]).weights(2)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs, field", [
    ({"blend": [1.0, NAN]}, "blend"),
    ({"blend": [INF, 0.0]}, "blend"),
    ({"blend": [1.0, 0.0], "gate": "significant-vs-reference",
      "gate_metrics": ([0.0, 1.0], [NAN, 1.0])}, r"gate_metrics\[1\]"),
    ({"blend": [1.0], "fallback_arm": 2.5}, "fallback_arm"),
    ({"blend": [1.0], "fallback_arm": 2.0}, "fallback_arm"),
    ({"blend": [1.0], "fallback_arm": True}, "fallback_arm"),
], ids=["nan-blend", "inf-blend", "nan-gate-blend", "fractional-fallback",
        "float-fallback", "bool-fallback"])
def test_rule_rejects_non_finite_blends_and_non_integer_fallback_arms(kwargs, field):
    # A NaN or inf blend made every arm's score NaN: an "always arm 1" rule.
    with pytest.raises(ValueError, match=f"^{field} must be"):
        DecisionRule(**kwargs)


@pytest.mark.parametrize("kwargs, field", [
    ({"coefficients": [1.0, INF]}, "coefficients"),
    ({"coefficients": [NAN]}, "coefficients"),
    ({"index": 1.5}, "index"),
    ({"index": 0}, "index"),
    ({"index": True}, "index"),
], ids=["inf-coefficient", "nan-coefficient", "fractional-index", "zero-index",
        "bool-index"])
def test_reward_rejects_non_finite_coefficients_and_non_integer_indices(kwargs, field):
    # An inf coefficient returned NaN rewards; index 1.5 raised an IndexError.
    with pytest.raises(ValueError, match=f"^{field} must be"):
        RewardSpec(**kwargs)


def test_validated_rule_fields_keep_their_values():
    rule = DecisionRule(blend=[1, 2], fallback_arm=np.int64(2))
    assert rule.blend.dtype == float and type(rule.fallback_arm) is int
    assert rule.fallback_arm == 2
    assert type(RewardSpec(index=np.int32(3)).index) is int


def test_rule_validation():
    with pytest.raises(ValueError):
        DecisionRule(blend=[1.0], gate="bogus")
    with pytest.raises(ValueError):
        DecisionRule(blend=[1.0], gate_alpha=1.5)
    with pytest.raises(ValueError):
        DecisionRule(blend=[1.0], gate_combine="most")
