"""The Gaussian experiment model and its exact expected rewards.

Model: each experiment has two arms with ``units_per_arm`` units each.  True
per-experiment effects on (north star, proxy) are drawn from a zero-mean
bivariate normal with covariance ``effect_cov``; unit-level outcomes add
noise with covariance ``noise_cov``, so difference-in-means effect
estimates are normal around the true effects with covariance
``(2 / units_per_arm) * noise_cov``.  The rule launches the treatment arm
exactly when the observed proxy effect is positive.

The model has two parameterizations, both here: ``EffectModel``, the two
metrics above, and the one-factor proxy model (``ProxySpec``,
``joint_proxy_model``), where several proxies share the four standard
deviations and each relates to the north star through its own effect and
noise correlations.  The Monte Carlo engine draws from both, and
``make_synthetic_corpus`` from the second.

The three expectations below are exact (no dropped constants), so they can
be compared directly against Monte Carlo:

* ``true_reward``: expected true north-star effect earned by the rule.
* ``naive_expectation``: expected value of the plug-in estimate.  Its
  numerator picks up the unit-level noise covariance, which is the
  winner's curse in closed form.
* ``cv_expectation``: expected value of the k-fold cross-validation
  estimate, whose only distortion is that decisions see a (P-1)/P fraction
  of the data.

Each is half the mean of a north-star quantity given a positive observed
proxy effect.  A proxy with zero variance is observed as exactly 0, so the
rule never launches and all three are 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .experiments import check_count

__all__ = [
    "DEFAULT_PROXIES",
    "EffectModel",
    "ProxySpec",
    "check_sd",
    "cv_expectation",
    "joint_proxy_model",
    "levelset_grid",
    "mills_conditional",
    "naive_expectation",
    "true_reward",
]

_SYMMETRY_TOL = 1e-12
_PSD_TOL = -1e-12
_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = math.log(math.sqrt(2.0 * math.pi))


def check_sd(name: str, value) -> float:
    """``value`` as a float, after checking that it is a real number (not a
    bool) >= 0 whose square is finite; a ValueError names ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number >= 0, got {value!r}")
    value = float(value)
    if not (value >= 0.0 and math.isfinite(value * value)):
        raise ValueError(
            f"{name} must be a number >= 0 with a finite square, got {value!r}"
        )
    return value


# The four standard deviations of either parameterization, in
# ``EffectModel.sds`` order.
_SD_NAMES = ("effect_sd_y", "effect_sd_proxy", "noise_sd_y", "noise_sd_proxy")


def _check_sds(sds) -> tuple[float, float, float, float]:
    """The four standard deviations in ``_SD_NAMES`` order, each checked by
    ``check_sd`` in that order."""
    return tuple(check_sd(name, sd) for name, sd in zip(_SD_NAMES, sds))


def _cov(sd_a: float, sd_b: float, corr: float) -> np.ndarray:
    """The 2x2 covariance of two variables with these standard deviations
    and this correlation."""
    return np.array([[sd_a**2, corr * sd_a * sd_b], [corr * sd_a * sd_b, sd_b**2]])


def _check_cov(name: str, mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} must be finite, got {mat.tolist()!r}")
    if abs(mat[0, 1] - mat[1, 0]) > _SYMMETRY_TOL * max(1.0, abs(mat[0, 1])):
        raise ValueError(f"{name} must be symmetric")
    eigvals = np.linalg.eigvalsh(mat)
    if eigvals.min() < _PSD_TOL * max(1.0, eigvals.max()):
        raise ValueError(f"{name} must be positive semidefinite, eigvals {eigvals}")
    variances = np.diag(mat)
    if (variances < 0.0).any():  # within the tolerance above: a variance of 0
        mat = mat.copy()
        np.fill_diagonal(mat, np.maximum(variances, 0.0))
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
        effect_sd_y, effect_sd_proxy, noise_sd_y, noise_sd_proxy = _check_sds(
            (effect_sd_y, effect_sd_proxy, noise_sd_y, noise_sd_proxy)
        )
        return cls(
            effect_cov=_cov(effect_sd_y, effect_sd_proxy, effect_corr),
            noise_cov=_cov(noise_sd_y, noise_sd_proxy, noise_corr),
            units_per_arm=units_per_arm,
            num_experiments=num_experiments,
            num_folds=num_folds,
        )

    @property
    def sds(self) -> tuple[float, float, float, float]:
        """The four standard deviations in ``from_correlations`` order:
        effect (north star, proxy), then noise (north star, proxy)."""
        return tuple(
            float(np.sqrt(cov[i, i]))
            for cov in (self.effect_cov, self.noise_cov)
            for i in (0, 1)
        )

    def with_correlations(self, effect_corr: float, noise_corr: float) -> "EffectModel":
        """This model with the same standard deviations and sizes and the
        given effect and noise correlations."""
        effect_sd_y, effect_sd_proxy, noise_sd_y, noise_sd_proxy = self.sds
        return EffectModel.from_correlations(
            effect_sd_y, effect_sd_proxy, effect_corr,
            noise_sd_y, noise_sd_proxy, noise_corr,
            self.units_per_arm, self.num_experiments, self.num_folds,
        )


@dataclass(frozen=True)
class ProxySpec:
    """A candidate proxy metric: its true-effect and unit-noise correlations
    with the north star."""

    name: str
    effect_corr: float
    noise_corr: float


# A proxy whose treatment effects track the north star, and one whose
# apparent alignment is almost entirely correlated measurement noise.
DEFAULT_PROXIES = (
    ProxySpec("good", effect_corr=0.8, noise_corr=0.1),
    ProxySpec("bad", effect_corr=0.05, noise_corr=0.9),
)


def _factor_chol(
    sd_y: float, sd_proxy: float, corrs: tuple[float, ...]
) -> np.ndarray:
    """Lower Cholesky of a one-factor covariance: metric 0 drives each proxy
    through its correlation, residuals are independent."""
    j = 1 + len(corrs)
    chol = np.zeros((j, j))
    chol[0, 0] = sd_y
    for i, corr in enumerate(corrs, start=1):
        chol[i, 0] = corr * sd_proxy
        chol[i, i] = math.sqrt(max(1.0 - corr**2, 0.0)) * sd_proxy
    return chol


def joint_proxy_model(
    sds: tuple[float, float, float, float], proxies: tuple[ProxySpec, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of the joint (north star + proxies) model.

    ``sds`` are the four standard deviations in ``EffectModel.sds`` order,
    checked as ``from_correlations`` checks them and shared by every proxy;
    each proxy relates to the north star through its own correlations, and
    cross-proxy covariance follows from the single shared factor.
    """
    effect_sd_y, effect_sd_proxy, noise_sd_y, noise_sd_proxy = _check_sds(sds)
    effect_chol = _factor_chol(
        effect_sd_y, effect_sd_proxy, tuple(p.effect_corr for p in proxies)
    )
    noise_chol = _factor_chol(
        noise_sd_y, noise_sd_proxy, tuple(p.noise_corr for p in proxies)
    )
    return effect_chol, noise_chol


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


def _launch_reward(model: EffectModel, decision_units: float, cov_ab: float) -> float:
    """P(B > 0) E[A | B > 0] for the zero-mean proxy estimate B made on
    ``decision_units`` units per arm and a north-star quantity A with
    covariance ``cov_ab`` with it; P(B > 0) is 1/2, so the closed forms are
    full expectations rather than proportionalities.  A B of zero variance
    is never positive, so the rule never launches and the value is 0."""
    var = model.effect_cov[1, 1] + 2.0 * model.noise_cov[1, 1] / decision_units
    sigma_b = float(np.sqrt(var))
    if sigma_b == 0.0:
        return 0.0
    return 0.5 * mills_conditional(0.0, cov_ab, 0.0, sigma_b)


def true_reward(model: EffectModel) -> float:
    """Expected true north-star effect earned by the launch-on-positive-proxy rule."""
    return _launch_reward(model, model.units_per_arm, model.effect_cov[0, 1])


def naive_expectation(model: EffectModel) -> float:
    """Expected value of the plug-in estimate under the same rule.

    Both arms contribute selection bias: the launched treatment arm's
    observed effect co-varies with the proxy through the unit noise, and so
    does the control arm's observed level when it wins, which is why the
    noise term enters with the full 2/M factor.
    """
    m = model.units_per_arm
    return _launch_reward(model, m, model.effect_cov[0, 1] + 2.0 * model.noise_cov[0, 1] / m)


def cv_expectation(model: EffectModel) -> float:
    """Expected value of the k-fold cross-validation estimate.

    Decisions are made on M(P-1)/P units, so the proxy-estimate scale in
    the denominator widens slightly; held-out evaluation noise is
    independent of the decision and contributes nothing to the numerator.
    """
    p = model.num_folds
    return _launch_reward(model, model.units_per_arm * (p - 1) / p, model.effect_cov[0, 1])


def levelset_grid(model_template: EffectModel, resolution: int = 41) -> np.ndarray:
    """Evaluate the three closed forms over the correlation square [-1, 1]^2.

    Returns an array of shape (resolution**2, 5) with columns
    (effect corr, noise corr, true, naive, cv), ordered row-major with the
    effect correlation varying slowest.  Suitable for heatmap rendering.
    """
    resolution = check_count("resolution", resolution, 2)
    rho_grid = np.linspace(-1.0, 1.0, resolution)
    rows = np.empty((resolution * resolution, 5))
    i = 0
    for rho_tau in rho_grid:
        for rho in rho_grid:
            model = model_template.with_correlations(float(rho_tau), float(rho))
            rows[i] = (
                rho_tau,
                rho,
                true_reward(model),
                naive_expectation(model),
                cv_expectation(model),
            )
            i += 1
    return rows
