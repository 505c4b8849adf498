"""Fast path: agreement with the fold-mean reference algebra, results that
do not depend on the row-block size, on parallelism or on the estimators
asked for, and a working set that grows only with the outputs."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ruleval import (
    DEFAULT_MODEL,
    DEFAULT_PROXIES,
    DecisionRule,
    EffectModel,
    SimulationConfig,
    SweepSpec,
    check_rule_selection,
    run_bias_sweep,
)
from ruleval import simulator
from ruleval.simulator import (
    _simulate_estimates,
    cov_factor,
    joint_proxy_model,
)
from ruleval.streams import substream

from unit_oracle import simulate_estimates as oracle_estimates

PSI2 = np.array([1.0, 0.0])
GATED = dict(gate="significant-vs-reference", gate_alpha=0.05)


def _bivariate(units_per_arm, num_folds):
    model = DEFAULT_MODEL.with_correlations(0.8, 0.4)
    return replace(model, units_per_arm=units_per_arm, num_folds=num_folds)


def _case(model, rules):
    """Arguments of ``_simulate_estimates`` for a bivariate model."""
    return (
        cov_factor(model.effect_cov), cov_factor(model.noise_cov), model.noise_cov,
        model.units_per_arm, model.num_folds, rules, PSI2,
    )


def _selection_case():
    """Three metrics and one rule per proxy, as in ``_selection_chunk``."""
    effect_chol, noise_chol = joint_proxy_model(DEFAULT_MODEL.sds, DEFAULT_PROXIES)
    rules = tuple(DecisionRule(blend=np.eye(3)[1 + j]) for j in range(2))
    return (
        effect_chol, noise_chol, noise_chol @ noise_chol.T,
        DEFAULT_MODEL.units_per_arm, DEFAULT_MODEL.num_folds, rules, np.eye(3)[0],
    )


CASES = {
    "ungated": _case(_bivariate(1_000_000, 10), (DecisionRule(blend=[0.0, 1.0]),)),
    "one-sided-gate": _case(
        _bivariate(1_000_000, 10), (DecisionRule(blend=[0.0, 1.0], **GATED),)
    ),
    "gate-metrics-two-blends": _case(
        _bivariate(1_000_000, 10),
        (
            DecisionRule(
                blend=[0.5, 1.0], gate_metrics=[[0.0, 1.0], [1.0, 0.0]],
                gate_combine="any", gate_sides="two-sided", **GATED,
            ),
        ),
    ),
    "three-metrics-two-rules": _selection_case(),
    "two-units-two-folds": _case(
        _bivariate(2, 2),
        (DecisionRule(blend=[0.0, 1.0]), DecisionRule(blend=[0.0, 1.0], **GATED)),
    ),
    "m-not-divisible-by-folds": _case(
        _bivariate(1_003, 7),
        (DecisionRule(blend=[0.0, 1.0]), DecisionRule(blend=[0.0, 1.0], **GATED)),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_fast_path_matches_fold_mean_oracle(name, monkeypatch):
    effect_chol, noise_chol, noise_cov, m, num_folds, rules, psi = CASES[name]
    n = 6_000  # several row blocks
    decisions = []
    decide_kept = simulator.decide_kept

    def recording_decide_kept(*args):
        chosen = decide_kept(*args)
        decisions.append(chosen)
        return chosen

    monkeypatch.setattr(simulator, "decide_kept", recording_decide_kept)
    got = _simulate_estimates(
        effect_chol, noise_chol, m, num_folds, n, rules,
        substream(17, "oracle", name),
    )
    want = oracle_estimates(
        effect_chol, noise_chol, noise_cov, m, num_folds, n, rules, psi,
        substream(17, "oracle", name),
    )
    # Per row block, each rule in turn decides the held-out folds and the
    # full data in one call: (rows, P + 1), the full data last.
    for r in range(len(rules)):
        launch = np.concatenate(decisions[r::len(rules)]) == 2
        full, held_out = launch[:, -1], launch[:, :-1]
        np.testing.assert_array_equal(full, want["launch"][:, r])
        np.testing.assert_array_equal(held_out, want["launch_loo"][:, r])
        np.testing.assert_array_equal(got["true"][:, r] != 0, want["launch"][:, r])
        # Both choices occur, so the comparison covers both branches.
        assert 0 < held_out.mean() < 1
    for key in ("true", "naive", "cv"):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0)


SMALL = EffectModel.from_correlations(
    effect_sd_y=0.5, effect_sd_proxy=0.8, effect_corr=0.6,
    noise_sd_y=1.0, noise_sd_proxy=1.5, noise_corr=-0.3,
    units_per_arm=40, num_experiments=20, num_folds=3,
)


def _block_runs():
    """Fast-path outputs that must not depend on the row-block size."""
    gated = DecisionRule(blend=[0.0, 1.0], **GATED)
    rules = (DecisionRule(blend=[0.0, 1.0]), gated)
    effect_chol, noise_chol, _, m, num_folds, _, _ = _case(SMALL, rules)
    direct = _simulate_estimates(
        effect_chol, noise_chol, m, num_folds, 611, rules, substream(5, "blocks"),
    )
    fixed = run_bias_sweep(
        SimulationConfig(
            model=SMALL, num_replications=300, seed=2, rule=gated,
            sweep=SweepSpec("noise_sd_proxy", (1.0, 2.0)),
        )
    )
    poisson = run_bias_sweep(
        SimulationConfig(
            model=SMALL, size_mode="poisson", m0=30.0, num_replications=30, seed=4,
        )
    )
    selection = check_rule_selection(
        base=SMALL, n_grid=(5, 20), replications=40, seed=3
    )
    # The selection check's own call: three metrics, two rules, cv only.
    effect_chol, noise_chol, _, _, _, rules, _ = _selection_case()
    cv_only = _simulate_estimates(
        effect_chol, noise_chol, 40, 3, 200, rules, substream(5, "cv-only"), ("cv",),
    )
    return {**direct, "cv-only": cv_only["cv"]}, fixed, poisson, selection


def test_fast_path_is_independent_of_block_size_and_parallelism(monkeypatch):
    monkeypatch.setenv("RULEVAL_PARALLEL", "1")
    reference = _block_runs()
    # 1 gives one row per block.  With 3 folds, a row spans 2 * 4 * 2 = 16
    # elements on two directions and 24 on three, so 1000 gives blocks of 62
    # or 41 rows, which divide none of the fixed-size calls: 611 rows (three
    # directions), 5,120 and 880 (the sweep's chunks, two), 200 and 800 (the
    # selection check, three).
    for elements in (1, 1000):
        monkeypatch.setattr(simulator, "BLOCK_ELEMENTS", elements)
        blocked = _block_runs()
        for key in ("true", "naive", "cv", "cv-only"):
            np.testing.assert_array_equal(blocked[0][key], reference[0][key])
        assert blocked[1:] == reference[1:]
    monkeypatch.undo()
    monkeypatch.setenv("RULEVAL_PARALLEL", "2")
    parallel = _block_runs()
    for key in ("true", "naive", "cv", "cv-only"):
        np.testing.assert_array_equal(parallel[0][key], reference[0][key])
    assert parallel[1:] == reference[1:]


def test_cv_only_calls_and_sweeps_match_the_full_estimator_set():
    effect_chol, noise_chol, _, m, num_folds, rules, _ = _selection_case()
    full = _simulate_estimates(
        effect_chol, noise_chol, m, num_folds, 3_000, rules, substream(8, "cv"),
    )
    cv_only = _simulate_estimates(
        effect_chol, noise_chol, m, num_folds, 3_000, rules, substream(8, "cv"),
        ("cv",),
    )
    assert list(cv_only) == ["cv"]
    np.testing.assert_array_equal(cv_only["cv"], full["cv"])
    gated = DecisionRule(blend=[0.0, 1.0], **GATED)
    for config in (
        SimulationConfig(
            model=SMALL, num_replications=300, seed=2, rule=gated,
            sweep=SweepSpec("noise_sd_proxy", (1.0, 2.0)),
        ),
        SimulationConfig(
            model=SMALL, size_mode="poisson", m0=30.0, num_replications=30, seed=4,
        ),
    ):
        every = run_bias_sweep(config)
        only = run_bias_sweep(replace(config, estimators=("cv",)))
        assert only.rows == tuple(row for row in every.rows if row.estimator == "cv")
        assert only.zero_size_redraws == every.zero_size_redraws


def _peak_bytes(call) -> int:
    """Peak traced allocation while ``call`` runs; NumPy reports its
    buffers to ``tracemalloc``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("estimators", [simulator.ESTIMATORS, ("cv",)])
def test_fast_path_working_set_grows_only_with_the_requested_outputs(estimators):
    # Per row, only the D effect projections and R values per requested
    # estimator survive the row blocks: 8 (D + R len(estimators)) bytes,
    # here D = 3 directions and R = 2 rules.  Both sizes span many blocks,
    # so the block temporaries cancel in the difference.
    effect_chol, noise_chol, _, m, num_folds, rules, _ = _selection_case()

    def peak(n):
        return _peak_bytes(lambda: _simulate_estimates(
            effect_chol, noise_chol, m, num_folds, n, rules, substream(9, "memory"),
            estimators,
        ))

    small, large = 2**16, 2**17
    per_row = (peak(large) - peak(small)) / (large - small)
    assert per_row <= 1.25 * 8 * (3 + len(rules) * len(estimators))
