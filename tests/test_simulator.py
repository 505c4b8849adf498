"""Simulation engine: generative fidelity, fast-path exactness, determinism,
and the two statistical checks."""

import tracemalloc
from itertools import combinations
from statistics import NormalDist

import numpy as np
import pytest

from unit_oracle import draw_experiment
from ruleval import (
    DEFAULT_MODEL,
    ArmData,
    DecisionRule,
    EffectModel,
    EstimatorConfig,
    ExperimentData,
    ProxySpec,
    RewardSpec,
    SimulationConfig,
    SweepSpec,
    check_poisson_rescaling,
    check_rule_selection,
    decide,
    run_bias_sweep,
)
from ruleval import simulator
from ruleval.estimators import _leave_l_out_sums, batch_rewards
from ruleval.simulator import (
    _fold_sizes,
    cov_factor,
    _score_block,
    _simulate_estimates,
    bivariate_model_for_proxy,
    joint_proxy_model,
    parallelism_degree,
)
from ruleval.streams import substream

SMALL_MODEL = EffectModel.from_correlations(
    effect_sd_y=0.5,
    effect_sd_proxy=0.8,
    effect_corr=0.6,
    noise_sd_y=1.0,
    noise_sd_proxy=1.5,
    noise_corr=-0.3,
    units_per_arm=6,
    num_folds=3,
)


# ---------------------------------------------------------------------------
# draw_experiment


def test_draw_experiment_degenerate_prior_gives_zero_effects():
    model = EffectModel(
        effect_cov=np.zeros((2, 2)), noise_cov=np.eye(2), units_per_arm=5
    )
    for i in range(10):
        _, tau = draw_experiment(model, "fixed", substream(1, i))
        assert tau == (0.0, 0.0)


def test_draw_experiment_shapes_and_poisson_redraws():
    exp, _ = draw_experiment(SMALL_MODEL, "fixed", substream(2, "a"))
    assert exp.num_arms == 2
    assert all(arm.num_units == 6 for arm in exp.arms)

    counters: dict[str, int] = {}
    sizes = set()
    for i in range(400):
        exp, _ = draw_experiment(
            SMALL_MODEL, "poisson", substream(3, i), m0=0.8, counters=counters
        )
        sizes.add(exp.arms[0].num_units)
        assert exp.arms[0].num_units >= 1
        assert exp.arms[0].num_units == exp.arms[1].num_units
    # Zero draws happen often at m0=0.8 and every one is redrawn and counted.
    assert counters["zero_size_redraws"] > 0
    assert len(sizes) > 1


def test_draw_experiment_moment_fidelity():
    # Empirical covariance of true effects matches the prior, and the
    # difference-in-means errors carry twice the unit noise over the arm
    # size; checked at three Monte Carlo standard errors.
    reps = 100_000
    taus = np.empty((reps, 2))
    errs = np.empty((reps, 2))
    for i in range(reps):
        exp, tau = draw_experiment(SMALL_MODEL, "fixed", substream(32, "mom", i))
        est = exp.arms[1].units.mean(axis=0) - exp.arms[0].units.mean(axis=0)
        taus[i] = tau
        errs[i] = est - np.asarray(tau)

    for sample, target in ((taus, SMALL_MODEL.effect_cov), (errs, SMALL_MODEL.sampling_cov)):
        emp = np.cov(sample.T)
        for a in range(2):
            for b in range(2):
                # SE of a covariance entry from the asymptotic formula.
                se = np.sqrt(
                    (target[a, a] * target[b, b] + target[a, b] ** 2) / reps
                )
                assert abs(emp[a, b] - target[a, b]) < 3 * se


def test_draw_experiment_error_correlation_vanishes_for_diagonal_noise():
    model = EffectModel.from_correlations(
        0.5, 0.8, 0.6, 1.0, 1.5, 0.0, units_per_arm=6
    )
    reps = 100_000
    errs = np.empty((reps, 2))
    for i in range(reps):
        exp, tau = draw_experiment(model, "fixed", substream(33, i))
        est = exp.arms[1].units.mean(axis=0) - exp.arms[0].units.mean(axis=0)
        errs[i] = est - np.asarray(tau)
    corr = np.corrcoef(errs.T)[0, 1]
    assert abs(corr) < 0.01


def test_effect_estimate_spread_at_reference_scale():
    # At the default parameters the observed proxy-effect error spread is
    # sqrt(2/M) * noise_sd_proxy; exercised through the fast path, whose
    # fold means are exact in distribution (cross-checked on small M below).
    model = DEFAULT_MODEL
    ec = cov_factor(model.effect_cov)
    nc = cov_factor(model.noise_cov)
    n = 100_000
    rng = substream(4, "spread")
    tau = rng.standard_normal((n, 2)) @ ec.T
    sizes = _fold_sizes(model.units_per_arm, model.num_folds)
    eps = rng.standard_normal((n, 2, model.num_folds, 2)) @ nc.T
    eps /= np.sqrt(sizes)[None, None, :, None]
    arm_means = np.einsum("napj,p->naj", eps, sizes / model.units_per_arm)
    err = arm_means[:, 1, 1] - arm_means[:, 0, 1]  # proxy-effect error
    expected_sd = np.sqrt(2 / model.units_per_arm) * 10.0
    assert err.std(ddof=1) == pytest.approx(expected_sd, rel=0.01)


# ---------------------------------------------------------------------------
# fast path vs unit-level engine


@pytest.mark.parametrize(
    "gate, units_per_arm",
    # The fast path's gate uses the known unit variance, the library's the
    # sample variance; at 200 units per arm the two gates differ negligibly.
    [("none", 40), ("significant-vs-reference", 200)],
    ids=["ungated", "gated"],
)
def test_fast_path_matches_unit_level_distributions(gate, units_per_arm):
    model = EffectModel.from_correlations(
        effect_sd_y=0.2,
        effect_sd_proxy=0.25,
        effect_corr=0.7,
        noise_sd_y=1.0,
        noise_sd_proxy=1.2,
        noise_corr=0.4,
        units_per_arm=units_per_arm,
        num_folds=5,
    )
    rule = DecisionRule(blend=[0.0, 1.0], gate=gate)
    psi = RewardSpec.metric(1)
    reps = 4000
    unit = {"naive": np.empty(reps), "cv": np.empty(reps), "true": np.empty(reps)}
    for i in range(reps):
        exp, tau = draw_experiment(model, "fixed", substream(99, "unit", i))
        unit["true"][i] = tau[0] if decide(exp, rule) == 2 else 0.0
        unit["naive"][i] = batch_rewards([exp], [rule], psi, (), 0)[0, 0, 0]
        unit["cv"][i] = batch_rewards([exp], [rule], psi, (5,), fold_seed=i)[0, 1, 0]

    ec = cov_factor(model.effect_cov)
    nc = cov_factor(model.noise_cov)
    fast = _simulate_estimates(
        ec, nc, units_per_arm, 5, 50_000, (rule,), substream(98, "fast"),
    )
    for key in ("naive", "cv", "true"):
        u, f = unit[key], fast[key][:, 0]
        se_mean = np.sqrt(u.var(ddof=1) / len(u) + f.var(ddof=1) / len(f))
        assert abs(u.mean() - f.mean()) < 4 * se_mean
        # Variances agree as well (normal-approximation SE for the gap).
        se_var = np.sqrt(
            2 * u.var() ** 2 / (len(u) - 1) + 2 * f.var() ** 2 / (len(f) - 1)
        )
        assert abs(u.var(ddof=1) - f.var(ddof=1)) < 4 * se_var


def _z_gate_cv(ec, nc, noise_cov, m, num_folds, n, blend, alpha, psi, rng):
    """Fast-path CV estimates of a one-sided known-variance z-gate, written
    out directly from the same draws as ``_simulate_estimates``."""
    sizes = _fold_sizes(m, num_folds)
    tau = rng.standard_normal((n, 2)) @ ec.T
    fold_means = rng.standard_normal((n, 2, num_folds, 2)) @ nc.T
    fold_means /= np.sqrt(sizes)[None, None, :, None]
    fold_means[:, 1] += tau[:, None, :]
    held = fold_means * sizes[:, None]
    kept = (held.sum(axis=2)[:, :, None] - held) / (m - sizes)[:, None]
    effect = (kept[:, 1] - kept[:, 0]) @ blend  # (n, P)
    se = np.sqrt(2.0 * (blend @ noise_cov @ blend) / (m - sizes))
    launch = effect / se > NormalDist().inv_cdf(1.0 - alpha)
    fold_psi = fold_means @ psi
    return np.where(launch, fold_psi[:, 1], fold_psi[:, 0]).mean(axis=1)


def test_fast_path_gate_reduces_launch_rate():
    model = bivariate_model_for_proxy(DEFAULT_MODEL, ProxySpec("p", 0.8, 0.4))
    ec = cov_factor(model.effect_cov)
    nc = cov_factor(model.noise_cov)
    psi = np.array([1.0, 0.0])
    ungated_rule = DecisionRule(blend=[0.0, 1.0])
    gated_rule = DecisionRule(
        blend=[0.0, 1.0], gate="significant-vs-reference", gate_alpha=0.05
    )
    # Two units in two folds: each held-out fold leaves one unit per arm, so
    # only the known-variance gate can decide.
    for m, num_folds in ((model.units_per_arm, model.num_folds), (2, 2)):
        ungated = _simulate_estimates(
            ec, nc, m, num_folds, 20_000, (ungated_rule,), substream(6, "u"),
        )
        gated = _simulate_estimates(
            ec, nc, m, num_folds, 20_000, (gated_rule,), substream(6, "u"),
        )
        launched_ungated = (ungated["true"][:, 0] != 0).mean()
        launched_gated = (gated["true"][:, 0] != 0).mean()
        assert launched_gated < launched_ungated
        expected = _z_gate_cv(
            ec, nc, model.noise_cov, m, num_folds, 20_000, gated_rule.blend, 0.05,
            psi, substream(6, "u"),
        )
        np.testing.assert_allclose(gated["cv"][:, 0], expected, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# run_bias_sweep


def test_sweep_wiring_data_independent_rule_recovers_zero():
    config = SimulationConfig(
        model=SMALL_MODEL,
        num_replications=2000,
        seed=5,
        rule=DecisionRule(blend=[0.0, 0.0]),
        mode="mean",
    )
    result = run_bias_sweep(config)
    for row in result.rows:
        assert abs(row.mean) < 4 * max(row.se, 1e-12)


def test_sweep_rows_shape_and_closed_forms():
    config = SimulationConfig(
        model=DEFAULT_MODEL,
        num_replications=500,
        seed=1,
        sweep=SweepSpec("noise_sd_proxy", (5.0, 10.0)),
        mode="cumulative",
    )
    result = run_bias_sweep(config)
    assert len(result.rows) == 6  # 2 points x 3 estimators
    for row in result.rows:
        assert row.se > 0
        assert row.closed_form is not None
        assert row.rel_bias is not None
        # closed forms scale with the number of experiments in cumulative mode
        assert abs(row.closed_form) < 1.0


def test_sweep_determinism_and_parallel_independence(monkeypatch):
    config = SimulationConfig(
        model=DEFAULT_MODEL,
        num_replications=600,  # spans multiple chunks
        seed=42,
        sweep=SweepSpec("noise_sd_proxy", (5.0, 10.0)),
    )
    monkeypatch.setenv("RULEVAL_PARALLEL", "1")
    first = run_bias_sweep(config)
    second = run_bias_sweep(config)
    assert first == second
    monkeypatch.setenv("RULEVAL_PARALLEL", "4")
    assert parallelism_degree() == 4
    parallel = run_bias_sweep(config)
    assert parallel == first


def test_parallelism_env_validation(monkeypatch):
    monkeypatch.setenv("RULEVAL_PARALLEL", "zero")
    with pytest.raises(ValueError):
        parallelism_degree()
    monkeypatch.setenv("RULEVAL_PARALLEL", "0")
    with pytest.raises(ValueError):
        parallelism_degree()


def test_poisson_sweep_runs_and_counts_redraws():
    model = EffectModel.from_correlations(
        0.5, 0.8, 0.6, 1.0, 1.5, -0.3, units_per_arm=30, num_folds=3,
        num_experiments=20,
    )
    config = SimulationConfig(
        model=model, size_mode="poisson", m0=30.0, num_replications=200, seed=8,
        mode="mean",
    )
    result = run_bias_sweep(config)
    assert result.zero_size_redraws == 0
    assert len(result.rows) == 3


def test_poisson_sweep_stops_redrawing_zero_sizes_at_the_cap():
    # At this m0 nearly every Poisson size is zero, round after round: the
    # redraw loop ends at the cap with an error that names m0.
    config = SimulationConfig(size_mode="poisson", m0=1e-7, num_replications=1)
    with pytest.raises(ValueError, match=r"^m0=1e-07 leaves \d+ experiment size"):
        run_bias_sweep(config)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("sigma", (1.0, 2.0))
    with pytest.raises(ValueError):
        SweepSpec("noise_sd_proxy", (2.0, 1.0))
    with pytest.raises(ValueError):
        SimulationConfig(size_mode="poisson")
    with pytest.raises(ValueError):
        SimulationConfig(estimators=("bogus",))


@pytest.mark.parametrize(
    "grid", [(-2.0, 1.5), (1.0, float("nan")), (1.0, float("inf"))],
    ids=["negative", "nan", "inf"],
)
def test_sweep_spec_rejects_a_negative_or_non_finite_noise_sd_proxy(grid):
    # A negative sd would flip the sign of the proxy noise correlation, and
    # NaN passes the strictly-increasing check.
    with pytest.raises(ValueError, match="every noise_sd_proxy in the sweep grid"):
        SweepSpec("noise_sd_proxy", grid)
    assert SweepSpec("noise_sd_proxy", (0.0, 1.5)).grid == (0.0, 1.5)


def test_simulation_config_rejects_a_fallback_arm_the_fast_path_lacks(monkeypatch):
    # The fast path simulates two arms: a gated rule falling back to arm 3
    # is refused when the config is built, before anything is drawn.
    monkeypatch.setattr(simulator, "substream", lambda *key: pytest.fail(f"drew {key}"))
    gated = {"blend": [0.0, 1.0], "gate": "significant-vs-reference"}
    with pytest.raises(ValueError, match="fallback_arm must be 1 or 2"):
        SimulationConfig(rule=DecisionRule(**gated, fallback_arm=3), num_replications=10)
    SimulationConfig(rule=DecisionRule(**gated, fallback_arm=2))
    SimulationConfig(rule=DecisionRule(blend=[0.0, 1.0], fallback_arm=3))


@pytest.mark.parametrize(
    "name, call",
    [
        ("num_replications", lambda: SimulationConfig(num_replications=2.5)),
        ("num_replications", lambda: SimulationConfig(num_replications=True)),
        ("replications", lambda: check_poisson_rescaling(replications=1e4)),
        ("replications", lambda: check_rule_selection(replications=2.5)),
        ("replications", lambda: check_rule_selection(replications=True)),
        ("every N in n_grid", lambda: check_rule_selection(n_grid=(5.5, 10))),
        ("units_per_arm", lambda: SMALL_MODEL.replace(units_per_arm=2.5)),
        ("units_per_arm", lambda: SMALL_MODEL.replace(units_per_arm=True)),
        ("num_experiments", lambda: SMALL_MODEL.replace(num_experiments=2.5)),
        ("num_experiments", lambda: SMALL_MODEL.replace(num_experiments=True)),
        ("num_folds", lambda: SMALL_MODEL.replace(num_folds=2.5)),
        ("num_folds", lambda: SMALL_MODEL.replace(num_folds=True)),
        ("every num_experiments in the sweep grid",
         lambda: SweepSpec("num_experiments", (5.5, 10))),
        ("every units_per_arm in the sweep grid",
         lambda: SweepSpec("units_per_arm", (0.5, 10))),
    ],
    ids=[
        "config-reps-float", "config-reps-bool", "rescaling-reps-float",
        "selection-reps-float", "selection-reps-bool", "selection-grid-float",
        "units-float", "units-bool", "experiments-float", "experiments-bool",
        "folds-float", "folds-bool", "sweep-experiments-float", "sweep-units-zero",
    ],
)
def test_simulator_entry_points_require_integer_counts(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be an integer "):
        call()


@pytest.mark.parametrize("seed", [1.9, 1.0, True, "1", None])
def test_seeds_must_be_integers(seed):
    # 1.9 was truncated to 1: the rescaling check returned seed 1's report.
    with pytest.raises(ValueError, match="^seed must be an integer"):
        check_poisson_rescaling(replications=2000, seed=seed)
    with pytest.raises(ValueError, match="^seed must be an integer"):
        substream(seed, "any")


def test_a_numpy_integer_seed_keys_the_same_streams():
    assert check_poisson_rescaling(replications=2000, seed=np.int64(1)) == (
        check_poisson_rescaling(replications=2000, seed=1)
    )
    assert substream(np.int64(1), "a").random() == substream(1, "a").random()


def test_fold_sizes_near_equal():
    for m, p in ((10, 3), (9, 3), (7, 2), (100, 7)):
        sizes = _fold_sizes(m, p)
        assert sizes.sum() == m
        assert sizes.max() - sizes.min() <= 1


# ---------------------------------------------------------------------------
# Poisson rescaling check


@pytest.mark.parametrize("leave_out", [-1, 0, 3, 1.0, True])
def test_rescaling_check_rejects_leave_out_before_drawing(leave_out, monkeypatch):
    def no_draws(*key):
        raise AssertionError(f"drew {key} before checking leave_out")

    monkeypatch.setattr(simulator, "substream", no_draws)
    with pytest.raises(ValueError, match="leave_out"):
        check_poisson_rescaling(leave_out=leave_out, replications=1000)


@pytest.mark.parametrize(
    "arm_means",
    [(0.5, 1.5), (-0.1, 0.5), (0.5, float("nan")), (float("inf"), 0.5)],
    ids=["above-one", "negative", "nan", "inf"],
)
def test_rescaling_check_rejects_impossible_arm_means_before_drawing(
    arm_means, monkeypatch
):
    def no_draws(*key):
        raise AssertionError(f"drew {key} before checking arm_means")

    monkeypatch.setattr(simulator, "substream", no_draws)
    with pytest.raises(ValueError, match="arm_means must be Bernoulli means"):
        check_poisson_rescaling(arm_means=arm_means, replications=1000)


@pytest.mark.parametrize("constant_arm", [0, 3, 1.5, True])
def test_rescaling_check_rejects_a_constant_arm_it_lacks_before_drawing(
    constant_arm, monkeypatch
):
    # 1.5 raised an IndexError, and True launched arm 1.
    def no_draws(*key):
        raise AssertionError(f"drew {key} before checking constant_arm")

    monkeypatch.setattr(simulator, "substream", no_draws)
    with pytest.raises(ValueError, match=r"constant_arm must be an integer in \[1, 2\]"):
        check_poisson_rescaling(
            rule_kind="constant", constant_arm=constant_arm, replications=1000
        )


def test_rescaling_check_working_set_per_replication_is_small():
    # Outcomes are drawn and scored in row blocks; what grows with the
    # replications is the unit-count draw and, per unit count, the raw sums
    # and choices.  NumPy reports its buffers to ``tracemalloc``.
    def peak(replications):
        tracemalloc.start()
        try:
            check_poisson_rescaling(replications=replications, seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = 200_000, 1_000_000
    assert (peak(large) - peak(small)) / (large - small) <= 16


def test_rescaling_check_passes_for_leave_one_out():
    report = check_poisson_rescaling(replications=200_000, seed=3)
    assert report.passed
    assert report.negative_control_rejected
    assert report.overall_passed


def test_rescaling_check_passes_for_leave_two_out():
    report = check_poisson_rescaling(leave_out=2, replications=100_000, seed=3)
    assert report.passed


def test_rescaling_check_constant_rule_trivially_unbiased():
    report = check_poisson_rescaling(
        rule_kind="constant", constant_arm=2, replications=50_000, seed=5
    )
    assert report.passed
    # Both sides estimate the fixed arm's true mean.
    assert report.realized_mean == pytest.approx(0.6, abs=0.01)


def test_rescaling_kernel_agrees_with_library_estimator():
    # Dual route: the vectorized kernel versus the leave-l-out estimator on
    # experiments built from the same draws.
    rng = np.random.default_rng(11)
    reward = RewardSpec.metric(1)
    rule = DecisionRule(blend=[1.0])
    for trial in range(30):
        k = int(rng.integers(2, 4))
        m = int(rng.integers(2, 7))
        # Dyadic values keep both computations exact, so argmax ties break
        # identically in the kernel and the library path.
        x = rng.integers(0, 8, size=(1, k, m)) / 2.0
        exp = ExperimentData(
            "t", tuple(ArmData(i + 1, x[0, i][:, None]) for i in range(k))
        )
        for leave_out in (1, 2):
            if m <= leave_out:
                continue
            (kernel,), (chosen,) = _score_block(x, leave_out, "argmax", 1)
            config = EstimatorConfig("cv-leave-l-out", leave_out=leave_out)
            library = _leave_l_out_sums([exp], rule, reward, config)[0]
            assert kernel == pytest.approx(library, abs=1e-12)
            assert chosen == decide(exp, rule)
        # A constant rule's leave-two-out sum is its arm's mean over every
        # held-out pair of positions, enumerated directly.
        for arm in range(1, k + 1):
            values = x[0, arm - 1]
            pairs = sum(
                (values[a] + values[b]) / 2 for a, b in combinations(range(m), 2)
            )
            raw, chosen = _score_block(x, 2, "constant", arm)
            assert raw[0] == pairs and chosen[0] == arm


def test_rescaling_kernel_fallback_edges():
    # m == leave_out: every decision sees no data and falls back to arm 1,
    # while the full data picks arm 2.
    x = np.array([[[0.25], [0.75]]])  # one replication, 2 arms, 1 unit
    raw, chosen = _score_block(x, 1, "argmax", 1)
    assert raw.tolist() == [0.25] and chosen.tolist() == [2]
    x2 = np.array([[[0.25, 0.5], [0.75, 0.25]]])  # 2 arms, 2 units
    raw, chosen = _score_block(x2, 2, "argmax", 1)
    assert raw[0] == pytest.approx(0.375)  # mean of arm 1's two units
    assert chosen.tolist() == [2]
    # m < leave_out contributes nothing (no subsets exist).
    raw, chosen = _score_block(x, 2, "argmax", 1)
    assert raw.tolist() == [0.0] and chosen.tolist() == [2]
    # m == 0: no subset, and the full data is empty, so arm 1.
    empty = np.empty((3, 2, 0))
    for leave_out in (1, 2):
        raw, chosen = _score_block(empty, leave_out, "argmax", 1)
        assert raw.tolist() == [0.0] * 3 and chosen.tolist() == [1] * 3
        raw, chosen = _score_block(empty, leave_out, "constant", 2)
        assert raw.tolist() == [0.0] * 3 and chosen.tolist() == [2] * 3


def test_rescaling_check_constant_rule_launches_its_arm_on_empty_experiments():
    # At m0 = 0.5 about 61% of the experiments are empty.  A constant rule
    # launches its own arm there too, so the realized side is that arm's
    # mean exactly, not pulled towards arm 1's by e**-m0 * (0.9 - 0.1).
    report = check_poisson_rescaling(
        m0=0.5, arm_means=(0.1, 0.9), rule_kind="constant", constant_arm=2,
        replications=2_000, seed=4,
    )
    assert report.realized_mean == pytest.approx(0.9, abs=1e-12)


# ---------------------------------------------------------------------------
# rule-selection check


def test_selection_check_regret_decays():
    report = check_rule_selection(
        n_grid=(50, 100, 200), replications=1500, seed=7
    )
    assert report.passed
    assert report.regrets[0] > report.regrets[-1]
    assert report.accuracies[-1] > report.accuracies[0]
    assert report.true_rewards["good"] > report.true_rewards["bad"]


def test_selection_check_identical_rules_zero_regret():
    proxies = (ProxySpec("a", 0.8, 0.4), ProxySpec("b", 0.8, 0.4))
    report = check_rule_selection(
        proxies=proxies, n_grid=(20, 80), replications=200, seed=1
    )
    assert report.regrets == (0.0, 0.0)
    assert report.passed


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"replications": 0}, "replications must be an integer >= 1"),
        ({"n_grid": ()}, "n_grid is empty"),
        ({"n_grid": (0, 1)}, "every N in n_grid must be an integer >= 1"),
        ({"ratio_threshold": float("nan")}, "ratio_threshold must be a finite number > 0"),
        ({"ratio_threshold": 0.0}, "ratio_threshold must be a finite number > 0"),
        ({"ratio_threshold": float("inf")}, "ratio_threshold must be a finite number > 0"),
    ],
    ids=["zero-replications", "empty-grid", "zero-experiments", "nan-threshold",
         "zero-threshold", "inf-threshold"],
)
def test_selection_check_rejects_bad_input(kwargs, match):
    with pytest.raises(ValueError, match=match):
        check_rule_selection(**kwargs)


def test_joint_proxy_model_marginals_match_bivariate():
    base = DEFAULT_MODEL
    proxies = (ProxySpec("g", 0.8, 0.1), ProxySpec("b", 0.05, 0.9))
    effect_chol, noise_chol = joint_proxy_model(base, proxies)
    effect_cov = effect_chol @ effect_chol.T
    noise_cov = noise_chol @ noise_chol.T
    for j, proxy in enumerate(proxies, start=1):
        marginal = bivariate_model_for_proxy(base, proxy)
        pair = np.ix_([0, j], [0, j])
        assert np.allclose(effect_cov[pair], marginal.effect_cov, atol=1e-15)
        assert np.allclose(noise_cov[pair], marginal.noise_cov, atol=1e-15)
