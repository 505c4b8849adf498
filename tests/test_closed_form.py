"""Closed-form expectations: conditional-mean identity, the three reward
formulas, their invariances, and the level-set grid."""

import math

import numpy as np
import pytest
from scipy import special

from ruleval import (
    DEFAULT_MODEL,
    EffectModel,
    cv_expectation,
    levelset_grid,
    mills_conditional,
    naive_expectation,
    true_reward,
)
from ruleval.streams import substream

APPENDIX_MODEL = EffectModel.from_correlations(
    effect_sd_y=1e-4,
    effect_sd_proxy=0.01,
    effect_corr=0.8,
    noise_sd_y=0.10,
    noise_sd_proxy=10.0,
    noise_corr=0.4,
    units_per_arm=1_000_000,
    num_folds=10,
)


def model_with(**kwargs):
    defaults = dict(
        effect_sd_y=1e-4,
        effect_sd_proxy=0.01,
        effect_corr=0.8,
        noise_sd_y=0.10,
        noise_sd_proxy=10.0,
        noise_corr=0.4,
        units_per_arm=1_000_000,
        num_folds=10,
    )
    defaults.update(kwargs)
    return EffectModel.from_correlations(**defaults)


# ---------------------------------------------------------------------------
# mills_conditional


def test_mills_zero_means_reduces_to_sqrt_two_over_pi():
    got = mills_conditional(0.0, 0.3, 0.0, 2.0)
    assert got == pytest.approx((0.3 / 2.0) * math.sqrt(2 / math.pi), rel=1e-14)


def test_mills_zero_covariance_returns_mu_a():
    assert mills_conditional(1.7, 0.0, -3.0, 0.5) == pytest.approx(1.7, abs=1e-14)


def test_mills_half_normal_special_case():
    # A == B with zero mean: E[A | A > 0] is the half-normal mean.
    sigma = 1.8
    got = mills_conditional(0.0, sigma**2, 0.0, sigma)
    assert got == pytest.approx(sigma * math.sqrt(2 / math.pi), rel=1e-14)


def test_mills_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        mills_conditional(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        mills_conditional(0.0, 1.0, 0.0, -1.0)


def test_mills_matches_monte_carlo():
    rng = substream(1, "mills")
    for _ in range(3):
        mu_a = float(rng.normal(0, 2))
        mu_b = float(rng.normal(0, 1))
        sigma_a = float(rng.uniform(0.5, 2.0))
        sigma_b = float(rng.uniform(0.5, 2.0))
        corr = float(rng.uniform(-0.9, 0.9))
        sigma_ab = corr * sigma_a * sigma_b
        n = 10_000_000
        z = rng.standard_normal((n, 2))
        b = mu_b + sigma_b * z[:, 0]
        a = mu_a + sigma_a * (corr * z[:, 0] + math.sqrt(1 - corr**2) * z[:, 1])
        mask = b > 0
        mc = a[mask].mean()
        se = a[mask].std(ddof=1) / math.sqrt(mask.sum())
        assert abs(mills_conditional(mu_a, sigma_ab, mu_b, sigma_b) - mc) < 3 * se


def test_mills_stable_for_deeply_negative_means():
    # P(B > 0) underflows naive formulas here; the hazard form must not.
    got = mills_conditional(0.0, 1.0, -40.0, 1.0)
    assert np.isfinite(got)
    assert got == pytest.approx(40.0, rel=1e-2)  # hazard(z) ~ z for large z


def scipy_mills(mu_a, sigma_ab, mu_b, sigma_b):
    """``mills_conditional`` written on ``scipy.special.log_ndtr``."""
    z = -mu_b / sigma_b
    log_pdf = -z * z / 2.0 - math.log(math.sqrt(2.0 * math.pi))
    return float(mu_a + (sigma_ab / sigma_b) * float(np.exp(log_pdf - special.log_ndtr(-z))))


def test_mills_hazard_matches_scipy_log_ndtr():
    # The grid crosses both branch points of the log CDF, z = 0 and z = 20,
    # and runs deep into the asymptotic series on either side.
    zs = np.linspace(-35.0, 60.0, 19001)
    got = np.array([mills_conditional(0.0, 1.0, -z, 1.0) for z in zs.tolist()])
    want = np.array([scipy_mills(0.0, 1.0, -z, 1.0) for z in zs.tolist()])
    rel = np.abs(got - want) / np.abs(want)
    assert rel.max() <= 1e-12, zs[rel.argmax()]


@pytest.mark.parametrize("mu_a, sigma_ab, sigma_b", [
    (0.0, 0.3, 2.0), (1.7, -0.4, 0.05), (-2.0, 1e-6, 3e3), (0.0, 1e-8, 0.0141),
])
def test_mills_at_zero_mean_is_exactly_the_scipy_form(mu_a, sigma_ab, sigma_b):
    # Every closed form conditions on a zero-mean proxy, so their outputs
    # keep their bytes.
    assert mills_conditional(mu_a, sigma_ab, 0.0, sigma_b) == scipy_mills(
        mu_a, sigma_ab, 0.0, sigma_b
    )


# ---------------------------------------------------------------------------
# the three expectations


def test_true_reward_zero_when_effects_uncorrelated():
    assert true_reward(model_with(effect_corr=0.0)) == 0.0


def test_true_reward_matches_monte_carlo_at_reference_parameters():
    # Draw (true effect, observed proxy effect) pairs directly and average
    # the earned north-star effect.
    model = APPENDIX_MODEL
    n = 10_000_000
    rng = substream(2, "truth")
    z = rng.standard_normal((n, 2))
    lam = model.effect_cov
    sd_tau_y = math.sqrt(lam[0, 0])
    sd_tau_s = math.sqrt(lam[1, 1])
    rho_tau = lam[0, 1] / (sd_tau_y * sd_tau_s)
    tau_y = sd_tau_y * z[:, 0]
    tau_s = sd_tau_s * (rho_tau * z[:, 0] + math.sqrt(1 - rho_tau**2) * z[:, 1])
    obs_sd = math.sqrt(2 * model.noise_cov[1, 1] / model.units_per_arm)
    obs_s = tau_s + obs_sd * rng.standard_normal(n)
    earned = np.where(obs_s > 0, tau_y, 0.0)
    mc = earned.mean()
    se = earned.std(ddof=1) / math.sqrt(n)
    expected = true_reward(model)
    assert expected == pytest.approx(1.84e-5, rel=2e-3)
    assert abs(expected - mc) < 4 * se


def test_true_reward_invariant_to_noise_correlation():
    base = true_reward(model_with(noise_corr=0.0))
    for rho in np.linspace(-1.0, 1.0, 9):
        assert true_reward(model_with(noise_corr=float(rho))) == base


def test_naive_equals_true_when_noise_uncorrelated():
    model = model_with(noise_corr=0.0)
    assert naive_expectation(model) == true_reward(model)


def test_cv_approaches_true_as_folds_grow():
    model = APPENDIX_MODEL
    truth = true_reward(model)
    assert cv_expectation(model, num_folds=10**6) == pytest.approx(truth, rel=1e-6)


def test_cv_monotone_in_folds_toward_true():
    model = APPENDIX_MODEL
    truth = true_reward(model)
    values = [cv_expectation(model, num_folds=p) for p in (2, 3, 5, 10, 20, 50)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < truth for v in values)


def test_partial_derivatives_in_noise_covariance():
    # Central differences in the off-diagonal noise entry.
    def at(noise_corr):
        return model_with(noise_corr=noise_corr)

    h = 1e-6
    d_true = (true_reward(at(0.4 + h)) - true_reward(at(0.4 - h))) / (2 * h)
    d_cv = (cv_expectation(at(0.4 + h)) - cv_expectation(at(0.4 - h))) / (2 * h)
    d_naive = (naive_expectation(at(0.4 + h)) - naive_expectation(at(0.4 - h))) / (
        2 * h
    )
    assert abs(d_true) <= 1e-12
    assert abs(d_cv) <= 1e-12
    assert d_naive > 0


def test_all_three_converge_for_huge_experiments():
    model = model_with(units_per_arm=10**10)
    t, n, c = true_reward(model), naive_expectation(model), cv_expectation(model)
    assert abs(n - t) / t < 1e-3
    assert abs(c - t) / t < 1e-3


def test_scale_equivariance_in_north_star_units():
    c = 3.7
    base = model_with()
    scaled = model_with(effect_sd_y=1e-4 * c, noise_sd_y=0.10 * c)
    assert true_reward(scaled) == pytest.approx(c * true_reward(base), rel=1e-12)
    assert naive_expectation(scaled) == pytest.approx(
        c * naive_expectation(base), rel=1e-12
    )
    assert cv_expectation(scaled) == pytest.approx(
        c * cv_expectation(base), rel=1e-12
    )


def test_true_reward_consistent_with_mills_identity():
    model = APPENDIX_MODEL
    sigma_b = math.sqrt(
        model.effect_cov[1, 1] + 2 * model.noise_cov[1, 1] / model.units_per_arm
    )
    via_mills = 0.5 * mills_conditional(0.0, model.effect_cov[0, 1], 0.0, sigma_b)
    assert true_reward(model) == pytest.approx(via_mills, rel=1e-14)


# ---------------------------------------------------------------------------
# EffectModel validation


def test_effect_model_validation():
    with pytest.raises(ValueError):
        EffectModel.from_correlations(1, 1, 1.5, 1, 1, 0.0, 10)
    with pytest.raises(ValueError):
        EffectModel(
            effect_cov=np.array([[1.0, 2.0], [2.0, 1.0]]),  # not PSD
            noise_cov=np.eye(2),
            units_per_arm=10,
        )
    with pytest.raises(ValueError):
        EffectModel(
            effect_cov=np.array([[1.0, 0.5], [0.4, 1.0]]),  # asymmetric
            noise_cov=np.eye(2),
            units_per_arm=10,
        )
    model = model_with()
    assert np.allclose(
        model.sampling_cov, 2 * model.noise_cov / model.units_per_arm
    )


# ---------------------------------------------------------------------------
# levelset_grid


def test_levelset_grid_shape_and_flat_directions():
    table = levelset_grid(APPENDIX_MODEL, resolution=7)
    assert table.shape == (49, 5)
    rho_tau, rho = table[:, 0], table[:, 1]
    true_col, naive_col, cv_col = table[:, 2], table[:, 3], table[:, 4]
    for rt in np.unique(rho_tau):
        mask = rho_tau == rt
        # true and cv are flat along the noise-correlation axis
        assert np.unique(true_col[mask]).size == 1
        assert np.unique(cv_col[mask]).size == 1
        # naive is strictly increasing along it
        ordered = naive_col[mask][np.argsort(rho[mask])]
        assert np.all(np.diff(ordered) > 0)


def test_levelset_grid_good_vs_bad_proxy_ranking():
    # Strong-effects/weak-noise proxy versus the reverse: the plug-in
    # expectation prefers the noise-driven one, truth and CV do not.
    def point(effect_corr, noise_corr):
        m = model_with(effect_corr=effect_corr, noise_corr=noise_corr)
        return true_reward(m), naive_expectation(m), cv_expectation(m)

    good = point(0.8, 0.1)
    bad = point(0.05, 0.9)
    assert bad[1] > good[1]  # naive ranks bad above good
    assert good[0] > bad[0]
    assert good[2] > bad[2]


def test_levelset_grid_requires_resolution_two():
    with pytest.raises(ValueError):
        levelset_grid(APPENDIX_MODEL, resolution=1)


@pytest.mark.parametrize("resolution", [2.5, 3.0, True])
def test_levelset_grid_requires_an_integer_resolution(resolution):
    # 2.5 failed inside NumPy with a bare TypeError.
    with pytest.raises(ValueError, match="^resolution must be an integer >= 2"):
        levelset_grid(APPENDIX_MODEL, resolution=resolution)


@pytest.mark.parametrize("num_folds", [2.5, 2.0, True, 1])
def test_cv_expectation_requires_an_integer_fold_count(num_folds):
    # 2.5 returned 1.533e-05 for a fold count no partition has.
    with pytest.raises(ValueError, match="^num_folds must be an integer >= 2"):
        cv_expectation(DEFAULT_MODEL, num_folds=num_folds)
