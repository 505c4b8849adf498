"""Exact expected rewards for proxy-threshold rules under a Gaussian model.

Model: each experiment has two arms with ``units_per_arm`` units each.  True
per-experiment effects on (north star, proxy) are drawn from a zero-mean
bivariate normal with covariance ``effect_cov``; unit-level outcomes add
noise with covariance ``noise_cov``, so difference-in-means effect
estimates are normal around the true effects with covariance
``(2 / units_per_arm) * noise_cov``.  The rule launches the treatment arm
exactly when the observed proxy effect is positive.

The three expectations below are exact (no dropped constants), so they can
be compared directly against Monte Carlo:

* ``true_reward``: expected true north-star effect earned by the rule.
* ``naive_expectation``: expected value of the plug-in estimate.  Its
  numerator picks up the unit-level noise covariance, which is the
  winner's curse in closed form.
* ``cv_expectation``: expected value of the k-fold cross-validation
  estimate, whose only distortion is that decisions see a (P-1)/P fraction
  of the data.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .experiments import check_count

__all__ = [
    "EffectModel",
    "cv_expectation",
    "levelset_grid",
    "mills_conditional",
    "naive_expectation",
    "true_reward",
]

_SYMMETRY_TOL = 1e-12
_PSD_TOL = -1e-12
_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = math.log(math.sqrt(2.0 * math.pi))


def _check_cov(name: str, mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {mat.shape}")
    if abs(mat[0, 1] - mat[1, 0]) > _SYMMETRY_TOL * max(1.0, abs(mat[0, 1])):
        raise ValueError(f"{name} must be symmetric")
    eigvals = np.linalg.eigvalsh(mat)
    if eigvals.min() < _PSD_TOL * max(1.0, eigvals.max()):
        raise ValueError(f"{name} must be positive semidefinite, eigvals {eigvals}")
    return mat


@dataclass(frozen=True)
class EffectModel:
    """Generative parameters for the two-metric Gaussian experiment model.

    ``effect_cov`` is the covariance of true per-experiment effects,
    ``noise_cov`` the unit-level outcome covariance (homoskedastic across
    arms).  Metric 0 is the north star, metric 1 the proxy.
    """

    effect_cov: np.ndarray
    noise_cov: np.ndarray
    units_per_arm: int
    num_experiments: int = 100
    num_folds: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "effect_cov", _check_cov("effect_cov", self.effect_cov))
        object.__setattr__(self, "noise_cov", _check_cov("noise_cov", self.noise_cov))
        for name, low in (("units_per_arm", 1), ("num_experiments", 1), ("num_folds", 2)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), low))

    @classmethod
    def from_correlations(
        cls,
        effect_sd_y: float,
        effect_sd_proxy: float,
        effect_corr: float,
        noise_sd_y: float,
        noise_sd_proxy: float,
        noise_corr: float,
        units_per_arm: int,
        num_experiments: int = 100,
        num_folds: int = 10,
    ) -> "EffectModel":
        if not -1.0 <= effect_corr <= 1.0:
            raise ValueError("effect_corr must be in [-1, 1]")
        if not -1.0 <= noise_corr <= 1.0:
            raise ValueError("noise_corr must be in [-1, 1]")
        effect_cov = np.array(
            [
                [effect_sd_y**2, effect_corr * effect_sd_y * effect_sd_proxy],
                [effect_corr * effect_sd_y * effect_sd_proxy, effect_sd_proxy**2],
            ]
        )
        noise_cov = np.array(
            [
                [noise_sd_y**2, noise_corr * noise_sd_y * noise_sd_proxy],
                [noise_corr * noise_sd_y * noise_sd_proxy, noise_sd_proxy**2],
            ]
        )
        return cls(
            effect_cov=effect_cov,
            noise_cov=noise_cov,
            units_per_arm=units_per_arm,
            num_experiments=num_experiments,
            num_folds=num_folds,
        )

    @property
    def sampling_cov(self) -> np.ndarray:
        """Covariance of difference-in-means effect estimates given true effects."""
        return 2.0 * self.noise_cov / self.units_per_arm

    def replace(self, **kwargs) -> "EffectModel":
        return dataclasses.replace(self, **kwargs)


def _log_ndtr(x: float) -> float:
    """log Phi(x) for the standard normal CDF Phi.

    ``erfc`` gives Phi(x) without cancellation for x <= 0 and 1 - Phi(x)
    for x > 0.  Below -20, where SciPy's ``log_ndtr`` also switches, the
    asymptotic series log phi(x) - log(-x) + log(1 - 1/x^2 + 3/x^4 - ...)
    keeps the result finite where Phi(x) underflows; eleven terms reach
    double precision for x^2 >= 400.
    """
    if x > 0:
        return math.log1p(-0.5 * math.erfc(x / _SQRT2))
    if x > -20:
        return math.log(0.5 * math.erfc(-x / _SQRT2))
    inv_x2 = 1.0 / (x * x)
    series = term = 1.0
    for k in range(1, 12):
        term *= -(2 * k - 1) * inv_x2
        series += term
    # log phi(x) is formed as ``mills_conditional`` forms it, so the two
    # cancel exactly in the hazard.
    return -x * x / 2.0 - _LOG_SQRT_2PI + math.log(series / -x)


def mills_conditional(
    mu_a: float, sigma_ab: float, mu_b: float, sigma_b: float
) -> float:
    """E[A | B > 0] for jointly Gaussian (A, B).

    Equals ``mu_a + (sigma_ab / sigma_b) * h(-mu_b / sigma_b)`` where h is
    the standard normal hazard phi(z) / (1 - Phi(z)).  The hazard is
    evaluated through log densities so deeply negative means do not
    underflow.
    """
    if not sigma_b > 0:
        raise ValueError(f"sigma_b must be > 0, got {sigma_b}")
    z = -mu_b / sigma_b
    log_pdf = -z * z / 2.0 - _LOG_SQRT_2PI
    hazard = float(np.exp(log_pdf - _log_ndtr(-z)))
    return float(mu_a + (sigma_ab / sigma_b) * hazard)


def _launch_probability_factor() -> float:
    # P(B > 0) for the zero-mean proxy estimate; kept explicit so the
    # closed forms are full expectations rather than proportionalities.
    return 0.5


def _observed_proxy_sd(model: EffectModel, units: float) -> float:
    var = model.effect_cov[1, 1] + 2.0 * model.noise_cov[1, 1] / units
    return float(np.sqrt(var))


def true_reward(model: EffectModel) -> float:
    """Expected true north-star effect earned by the launch-on-positive-proxy rule."""
    sigma_b = _observed_proxy_sd(model, model.units_per_arm)
    cov_ab = model.effect_cov[0, 1]
    return _launch_probability_factor() * mills_conditional(0.0, cov_ab, 0.0, sigma_b)


def naive_expectation(model: EffectModel) -> float:
    """Expected value of the plug-in estimate under the same rule.

    Both arms contribute selection bias: the launched treatment arm's
    observed effect co-varies with the proxy through the unit noise, and so
    does the control arm's observed level when it wins, which is why the
    noise term enters with the full 2/M factor.
    """
    m = model.units_per_arm
    sigma_b = _observed_proxy_sd(model, m)
    cov_ab = model.effect_cov[0, 1] + 2.0 * model.noise_cov[0, 1] / m
    return _launch_probability_factor() * mills_conditional(0.0, cov_ab, 0.0, sigma_b)


def cv_expectation(model: EffectModel, num_folds: int | None = None) -> float:
    """Expected value of the k-fold cross-validation estimate.

    Decisions are made on M(P-1)/P units, so the proxy-estimate scale in
    the denominator widens slightly; held-out evaluation noise is
    independent of the decision and contributes nothing to the numerator.
    """
    p = model.num_folds if num_folds is None else check_count("num_folds", num_folds, 2)
    m_decide = model.units_per_arm * (p - 1) / p
    sigma_b = _observed_proxy_sd(model, m_decide)
    cov_ab = model.effect_cov[0, 1]
    return _launch_probability_factor() * mills_conditional(0.0, cov_ab, 0.0, sigma_b)


def levelset_grid(model_template: EffectModel, resolution: int = 41) -> np.ndarray:
    """Evaluate the three closed forms over the correlation square [-1, 1]^2.

    Returns an array of shape (resolution**2, 5) with columns
    (effect corr, noise corr, true, naive, cv), ordered row-major with the
    effect correlation varying slowest.  Suitable for heatmap rendering.
    """
    resolution = check_count("resolution", resolution, 2)
    effect_sd_y = float(np.sqrt(model_template.effect_cov[0, 0]))
    effect_sd_proxy = float(np.sqrt(model_template.effect_cov[1, 1]))
    noise_sd_y = float(np.sqrt(model_template.noise_cov[0, 0]))
    noise_sd_proxy = float(np.sqrt(model_template.noise_cov[1, 1]))
    rho_grid = np.linspace(-1.0, 1.0, resolution)
    rows = np.empty((resolution * resolution, 5))
    i = 0
    for rho_tau in rho_grid:
        for rho in rho_grid:
            model = EffectModel.from_correlations(
                effect_sd_y,
                effect_sd_proxy,
                float(rho_tau),
                noise_sd_y,
                noise_sd_proxy,
                float(rho),
                model_template.units_per_arm,
                model_template.num_experiments,
                model_template.num_folds,
            )
            rows[i] = (
                rho_tau,
                rho,
                true_reward(model),
                naive_expectation(model),
                cv_expectation(model),
            )
            i += 1
    return rows
