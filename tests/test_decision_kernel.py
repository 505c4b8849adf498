"""Property tests: the vectorized decision kernel against the unit-level oracle.

Every estimator decides through ``experiments.decide_kept``.  On small
random experiments the kernel must pick the oracle's arm for the full data
(naive), for every held-out fold (k-fold) and for every held-out subset
(leave-one-out, leave-two-out), and its estimates must match the oracle's
to 1e-12 relative.  The experiments cover exact ties on integer data,
single-arm and three-arm experiments, zero-variance arms, unequal arm
sizes, gates on several blends combined with any/all, two-sided gates and
metric levels shifted by 1e6.  The leave-l-out producer is also checked on
batches of several experiments, one row each.
"""

import math
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import unit_oracle as oracle
from ruleval import (
    ArmData,
    DecisionRule,
    EstimatorConfig,
    ExperimentData,
    RewardSpec,
    estimate_reward,
)
from ruleval import estimators, experiments
from ruleval.estimators import _leave_l_out_sums, batch_rewards, subset_rewards
from ruleval.experiments import (
    ArmStack,
    _critical_value,
    _gate_mask,
    fold_decisions,
    fold_stats,
    stacked_blend_values,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)
REL = 1e-12
COEFFICIENTS = (-1.0, 0.0, 0.5, 1.0, 2.0)  # dyadic: integer data stays exact


@contextmanager
def kernel_decisions():
    """Record every array of decisions the estimators get from the kernel,
    called by ``subset_rewards`` or by ``experiments.fold_decisions``."""
    seen = []
    original = experiments.decide_kept

    def spy(*args, **kwargs):
        chosen = original(*args, **kwargs)
        seen.append(chosen.copy())
        return chosen

    estimators.decide_kept = experiments.decide_kept = spy
    try:
        yield seen
    finally:
        estimators.decide_kept = experiments.decide_kept = original


@st.composite
def cases(draw, sizes):
    """(experiment, rule, reward) with arm sizes drawn by ``sizes(draw, k)``."""
    k = draw(st.integers(1, 3))
    j = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())
    level = draw(st.sampled_from((0.0, 1e6)))
    arms = []
    for i, m in enumerate(sizes(draw, k)):
        if integer:
            units = rng.integers(-2, 3, size=(m, j)).astype(float)
        else:
            units = rng.normal(rng.normal(0.0, 0.5, j), 1.0, size=(m, j))
        if draw(st.booleans()):
            units[:] = units[0]  # zero-variance arm
        arms.append(ArmData(i + 1, units + level))
    exp = ExperimentData("e", tuple(arms))

    blend = st.lists(st.sampled_from(COEFFICIENTS), min_size=j, max_size=j).map(
        np.array
    )
    gated = draw(st.booleans())
    rule = DecisionRule(
        blend=draw(blend),
        gate="significant-vs-reference" if gated else "none",
        gate_alpha=draw(st.sampled_from((0.05, 0.2, 0.7))),
        gate_sides=draw(st.sampled_from(("one-sided-greater", "two-sided"))),
        gate_metrics=draw(st.none() | st.lists(blend, min_size=1, max_size=2).map(tuple)),
        gate_combine=draw(st.sampled_from(("all", "any"))),
        fallback_arm=draw(st.integers(1, k)),
    )
    reward = RewardSpec.metric(draw(st.integers(1, j)))
    return exp, rule, reward


def free_sizes(draw, k):
    return [draw(st.integers(2, 7)) for _ in range(k)]


def close(got: float, want: float, scale: float) -> bool:
    """Within REL of the oracle, relative to the size of the summed terms."""
    return math.isclose(got, want, rel_tol=REL, abs_tol=REL * scale)


def reward_scale(exp: ExperimentData, reward: RewardSpec) -> float:
    w = reward.weights(exp.num_metrics)
    return max(float(np.abs(arm.units @ w).max()) for arm in exp.arms)


def two_arm(units1, units2):
    return ExperimentData(
        "e", (ArmData(1, np.asarray(units1, float)), ArmData(2, np.asarray(units2, float)))
    )


GATED = DecisionRule(blend=[1.0], gate="significant-vs-reference")


@PROPERTY
@given(cases(free_sizes))
@example((two_arm([[1.0], [3.0]], [[2.0], [2.0]]), DecisionRule(blend=[1.0]),
          RewardSpec.metric(1)))  # exact tie
@example((two_arm([[1e6], [1e6]], [[1e6 + 1], [1e6 + 1]]), GATED,
          RewardSpec.metric(1)))  # two zero-variance arms at a 1e6 level
@example((ExperimentData("solo", (ArmData(1, np.array([[2.0], [5.0]])),)), GATED,
          RewardSpec.metric(1)))  # single arm
def test_naive_decisions_match_oracle(case):
    exp, rule, reward = case
    stack = ArmStack.of([exp])
    _, chosen, faults = fold_decisions(stack, rule, None, ())
    assert faults.tolist() == [0]
    assert chosen[0, 0] == oracle.decide(exp, rule)
    if rule.gate != "none":
        # The gate mask of the full data, as ``decide_kept`` forms it.
        counts, sums, variances = fold_stats(stack, rule, None, ())
        mask = _gate_mask(counts[:, -1], sums[:, -1], variances[:, -1], rule)
        significant = oracle.significance_set(exp, rule)
        assert mask.tolist() == [k + 1 in significant for k in range(exp.num_arms)]
    w = reward.weights(exp.num_metrics)
    assert batch_rewards([exp], [rule], reward, (), 0)[0, 0, 0] == oracle.naive_reward(exp, rule, w)


@PROPERTY
@given(st.integers(2, 3).flatmap(
    lambda p: st.tuples(
        st.just(p),
        cases(lambda draw, k: [draw(st.integers(2 * p, 2 * p + 3)) for _ in range(k)]),
        st.integers(0, 1000),
    )
))
def test_kfold_decisions_and_estimates_match_oracle(args):
    num_folds, (exp, rule, reward), seed = args
    config = EstimatorConfig(kind="cv-kfold", num_folds=num_folds, fold_seed=seed)
    with kernel_decisions() as seen:
        got = estimate_reward([exp], rule, reward, config).per_experiment[0]
    folds = oracle.fold_labels(exp, num_folds, seed)
    # The one kernel call decides every held-out fold, then the full data,
    # of the one experiment: (1, P + 1).
    expected = [
        oracle.decide_on_fold(exp, rule, folds, p) for p in range(1, num_folds + 1)
    ] + [oracle.decide(exp, rule)]
    assert len(seen) == 1 and seen[0].tolist() == [expected]
    w = reward.weights(exp.num_metrics)
    want = oracle.kfold_reward(exp, rule, w, folds, num_folds)
    assert close(got, want, reward_scale(exp, reward))


@PROPERTY
@given(st.integers(1, 2).flatmap(
    lambda l: st.tuples(
        st.just(l),
        st.integers(l + 2, 7).flatmap(lambda m: cases(lambda draw, k: [m] * k)),
    )
))
def test_leave_l_out_decisions_and_estimates_match_oracle(args):
    leave_out, (exp, rule, reward) = args
    with kernel_decisions() as seen:
        config = EstimatorConfig("cv-leave-l-out", leave_out=leave_out)
        got = _leave_l_out_sums([exp], rule, reward, config)[0]
    m = exp.arms[0].num_units
    subsets = list(combinations(range(m), leave_out))
    expected = [oracle.decide_without(exp, rule, s) for s in subsets]
    # One kernel call decides every subset of the one experiment, then its
    # full data: (1, S + 1).
    assert len(seen) == 1 and seen[0].tolist() == [expected + [oracle.decide(exp, rule)]]
    w = reward.weights(exp.num_metrics)
    want = oracle.leave_l_out_sum(exp, rule, w, leave_out)
    assert close(got, want, len(subsets) * reward_scale(exp, reward))


@pytest.mark.parametrize("leave_out, max_folds", [(1, 6), (2, 20)])
@pytest.mark.parametrize("kind", ["cv-leave-l-out", "poisson-rescaled"])
@pytest.mark.parametrize("gated", [False, True])
def test_leave_l_out_corpus_makes_one_kernel_call_per_group(
    leave_out, max_folds, kind, gated, monkeypatch
):
    # Two- and three-arm experiments of 5 and 6 units per arm, shuffled, and
    # one of 8 units per arm, whose C(8, l) subsets exceed max_folds and are
    # sampled.  Dyadic data keeps every sum exact, so the per-experiment
    # reference must agree exactly.
    rng = np.random.default_rng(leave_out)
    shapes = [(k, m) for k in (2, 3) for m in (5, 6) for _ in range(3)] + [(2, 8)]
    exps = [
        ExperimentData(f"x{i:02d}", tuple(
            ArmData(a + 1, rng.integers(-4, 5, size=(m, 3)) / 2.0 + a / 2.0)
            for a in range(k)
        ))
        for i, (k, m) in enumerate(shapes[j] for j in rng.permutation(len(shapes)))
    ]
    rule = DecisionRule(
        blend=[1.0, 0.5, 0.0],
        gate="significant-vs-reference" if gated else "none",
        gate_alpha=0.3,
    )
    reward = RewardSpec.combination([1.0, 0.0, -0.5])
    config = EstimatorConfig(
        kind=kind, leave_out=leave_out, m0=4.0, max_folds=max_folds, fold_seed=3
    )
    with kernel_decisions() as seen:
        got = estimators.per_experiment_rewards(exps, rule, reward, config)
    want = oracle.leave_l_out_rewards(exps, rule, reward, config)
    assert got.tolist() == want.tolist()
    # One call per (arm count, arm size) scored on every subset, one for
    # the sampled experiment; each decides the full data last.
    assert len(seen) == 4 + 1
    assert sorted(chosen.shape for chosen in seen) == sorted(
        [(3, math.comb(m, leave_out) + 1) for m in (5, 6) for _ in (2, 3)]
        + [(1, max_folds + 1)]
    )
    # Groups are scored in order of first appearance, each experiment's
    # full-data choice in the last column of its row.
    groups: dict[tuple[int, int], list[int]] = {}
    for exp in exps:
        groups.setdefault((exp.num_arms, exp.arms[0].num_units), []).append(
            oracle.decide(exp, rule)
        )
    assert [chosen[:, -1].tolist() for chosen in seen] == list(groups.values())
    if gated:
        assert set(np.concatenate([c.ravel() for c in seen]).tolist()) == {1, 2, 3}
    # Row blocks of one experiment each change no value.
    monkeypatch.setattr(estimators, "BLOCK_ELEMENTS", 1)
    with kernel_decisions() as seen:
        blocked = estimators.per_experiment_rewards(exps, rule, reward, config)
    assert blocked.tolist() == want.tolist()
    assert len(seen) == len(exps)
    assert [chosen[0, -1] for chosen in seen] == sum(groups.values(), [])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(1, 2), st.integers(2, 3), st.integers(2, 4), st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_subsets_producer_scores_each_experiment_of_a_batch(
    leave_out, k, n, gated, seed
):
    # n experiments in one call: row i of the (n, S) result must be
    # experiment i's held-out rewards, each taken from the arm the oracle
    # picks.  Dyadic data keeps every sum exact, so the comparison is exact.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(leave_out + 2, 7))
    units = rng.integers(-4, 5, size=(n, k, m, 2)) / 2.0
    rule = DecisionRule(
        blend=[1.0, 0.5],
        gate="significant-vs-reference" if gated else "none",
        gate_alpha=0.3,
        fallback_arm=int(rng.integers(1, k + 1)),
    )
    w = np.array([1.0, 0.0])
    exps = [
        ExperimentData(f"e{i}", tuple(ArmData(a + 1, units[i, a]) for a in range(k)))
        for i in range(n)
    ]
    values = stacked_blend_values(ArmStack.of(exps), rule).reshape(n, k, m, -1)
    subsets = np.array(list(combinations(range(m), leave_out)))
    decided, got = subset_rewards(values, units @ w, subsets, rule)
    assert decided.shape == (n, len(subsets) + 1) and got.shape == (n, len(subsets))
    for i, exp in enumerate(exps):
        chosen = [oracle.decide_without(exp, rule, s) for s in subsets]
        want = [
            float((exp.arm(c).units @ w)[list(s)].mean())
            for c, s in zip(chosen, subsets)
        ]
        assert decided[i].tolist() == chosen + [oracle.decide(exp, rule)]
        assert got[i].tolist() == want
        assert got[i].sum() == oracle.leave_l_out_sum(exp, rule, w, leave_out)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("variance_shape", ["per column", "per subset"])
@pytest.mark.parametrize("gate", [
    dict(gate="none"),
    dict(gate="significant-vs-reference", gate_alpha=0.2),
    dict(gate="significant-vs-reference", gate_alpha=0.1, gate_sides="two-sided"),
])
def test_kernel_counts_broadcast_over_arms(k, variance_shape, gate):
    # Arms with one kept size may share a count: (S, K), (S, 1) and scalar
    # counts give the same choices, whatever shape the variances take.
    rng = np.random.default_rng(k)
    sums = rng.normal(0.0, 12.0, size=(500, k, 1))
    variances = (np.ones(1) if variance_shape == "per column"
                 else rng.uniform(0.5, 2.0, size=sums.shape))
    rule = DecisionRule(blend=[1.0], **gate)
    want = experiments.decide_kept(np.full((500, k), 10.0), sums, variances, rule)
    for counts in (np.full((500, 1), 10.0), 10.0, np.float64(10.0), np.full(k, 10.0)):
        got = experiments.decide_kept(counts, sums, variances, rule)
        assert np.array_equal(got, want), counts
    # Every arm is chosen, arm 1 under a gate as the fallback.
    assert set(want.tolist()) == set(range(1, k + 1))
    two = experiments.decide_kept(np.array([[10.0]]), np.array([[[0.0], [100.0]]]),
                                  np.ones(1), rule)
    assert two.tolist() == [2]


def test_kernel_returns_0_where_a_gated_rule_lacks_its_fallback_arm():
    # Three arms of 10 units: no arm passes the gate, arm 2 passes, arms 2
    # and 3 pass.  The kernel raises nothing; a 0 marks the first row only.
    sums = np.array([[0.0, 0.0, 0.0], [0.0, 100.0, 0.0], [0.0, 50.0, 100.0]])[..., None]
    counts, variances = np.full(3, 10.0), np.ones(1)
    gated = DecisionRule(blend=[1.0], gate="significant-vs-reference", fallback_arm=4)
    assert experiments.decide_kept(counts, sums, variances, gated).tolist() == [0, 2, 3]
    for fallback in (1, 3):
        rule = DecisionRule(blend=[1.0], gate="significant-vs-reference",
                            fallback_arm=fallback)
        got = experiments.decide_kept(counts, sums, variances, rule)
        assert got.tolist() == [fallback, 2, 3]
    ungated = DecisionRule(blend=[1.0], fallback_arm=4)
    assert experiments.decide_kept(counts, sums, None, ungated).tolist() == [1, 2, 3]


def test_gate_critical_value_within_8_ulp_of_scipy():
    alphas = np.concatenate([np.geomspace(1e-12, 1e-3, 4000, endpoint=False),
                             np.linspace(1e-3, 0.45, 16000)])
    for sides, level in (("one-sided-greater", alphas), ("two-sided", alphas / 2.0)):
        got = np.array([
            _critical_value(DecisionRule(blend=[1.0], gate="significant-vs-reference",
                                         gate_alpha=a, gate_sides=sides))
            for a in alphas.tolist()
        ])
        want = -special.ndtri(level)
        ulps = np.abs(got - want) / np.spacing(want)
        assert ulps.max() <= 8, (sides, alphas[ulps.argmax()])


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_first_argmax_is_numpys_lowest_index_argmax(k):
    # Small integer scores tie often; -inf is a gated-out arm.
    rng = np.random.default_rng(k)
    score = rng.integers(0, 4, size=(500, 3, k)).astype(float)
    score[score == 0] = -np.inf
    np.testing.assert_array_equal(
        experiments._first_argmax(score), np.argmax(score, axis=-1)
    )
