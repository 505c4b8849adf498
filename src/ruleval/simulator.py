"""Monte Carlo engine for the Gaussian experiment model.

The model, in both its parameterizations, and its closed forms live in
``closed_form``; this module draws from the model and checks the
estimators against those closed forms.
The bias sweeps and the rule-selection check simulate through a
sufficient-statistics fast path that draws fold-level means directly.  For
ungated linear-blend rules every quantity the estimators touch (full-data
means, leave-fold-out means, held-out fold rewards) is a function of fold
means, whose joint law is exactly multivariate normal, so the fast path is
exact, not an approximation.  The unit-level draw it replaces lives on as
the reference ``draw_experiment`` in ``tests/unit_oracle.py``.

The fast path decides through the library's one kernel,
``experiments.decide_kept``, with the library's ``DecisionRule``, and reads
the chosen arm's reward through the library's one gather,
``experiments.chosen_reward``.  It feeds the kernel arm sums of the rule's
blends, and in place of a sample variance the model's known per-unit blend
variance ``diag(M' noise_cov M)``.  That known
variance is the one difference from scoring unit data: a gated rule tests
against the true unit noise, which is accurate in the large-M regime the
model targets.  The Poisson-rescaling check draws unit-level Bernoulli
outcomes and scores them with the library's leave-l-out producer,
``estimators.subset_rewards``, which gives every held-out subset's reward
and the full-data choice, at every unit count down to 0.  It scores one
experiment per distinct tally of per-position arm-outcome patterns: such
experiments differ only by a joint permutation of the unit positions,
which changes none of those values.

The fast path never forms fold-mean vectors.  Everything it reads is a
projection of them, so one GEMM maps the standard-normal draws onto the
reward and every blend direction at once, and a second maps each blend's
fold projections to its leave-fold-out and full-data sums.  Draws come in
row blocks that continue one random stream, with at most ``BLOCK_ELEMENTS``
values per temporary, so only the effect projections and the estimates a
caller asks for grow with the rows, and the block size never changes a
result.

Reductions are deterministic and independent of parallelism.  The bias
sweep and the rule-selection check plan, run and reduce their work in one
place, ``_chunk_sums``: it cuts the replications at every point into
fixed-size chunks keyed by (seed, point, chunk), runs them in any order and
sums each point's chunk results in chunk order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import combinations

import numpy as np

from .closed_form import (DEFAULT_PROXIES, EffectModel, ProxySpec, _cov, check_sd,
                          cv_expectation, joint_proxy_model, naive_expectation, true_reward)
from .estimators import BLOCK_ELEMENTS, MAX_BOOTSTRAP_REDRAWS, check_m0, subset_rewards
from .experiments import (DecisionRule, DegenerateFoldError, blend_matrix, check_count,
                          chosen_reward, decide_kept)
from .streams import substream

__all__ = [
    "DEFAULT_MODEL",
    "DEFAULT_MODEL_ARGS",
    "RescalingCheckReport",
    "SelectionCheckReport",
    "SimulationConfig",
    "SimulationResult",
    "SweepPointRow",
    "SweepSpec",
    "check_poisson_rescaling",
    "check_rule_selection",
    "parallelism_degree",
    "run_bias_sweep",
]

PARALLELISM_ENV_VAR = "RULEVAL_PARALLEL"
CHUNK_REPLICATIONS = 256
ESTIMATORS = ("true", "naive", "cv")

# Default generative parameters, as ``EffectModel.from_correlations``
# arguments in its order: a weak signal-to-noise regime with one hundred
# experiments of a million units per arm.
DEFAULT_MODEL_ARGS = {
    "effect_sd_y": 1e-4,
    "effect_sd_proxy": 0.01,
    "effect_corr": 0.8,
    "noise_sd_y": 0.10,
    "noise_sd_proxy": 10.0,
    "noise_corr": 0.4,
    "units_per_arm": 1_000_000,
    "num_experiments": 100,
    "num_folds": 10,
}
DEFAULT_MODEL = EffectModel.from_correlations(**DEFAULT_MODEL_ARGS)
DEFAULT_REPLICATIONS = 10_000
# The fast path holds fold sizes as 64-bit integers; the closed forms take
# any size.
MAX_UNITS_PER_ARM = 1 << 63


@dataclass(frozen=True)
class SweepSpec:
    """One swept model field and its grid (strictly increasing)."""

    field: str
    grid: tuple[float, ...]

    _FIELDS = ("noise_sd_proxy", "units_per_arm", "num_experiments")

    def __post_init__(self) -> None:
        if self.field not in self._FIELDS:
            raise ValueError(
                f"sweep field must be one of {self._FIELDS}, got {self.field!r}"
            )
        grid = tuple(float(g) for g in self.grid)
        if len(grid) < 1:
            raise ValueError("sweep grid is empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("sweep grid must be strictly increasing")
        # A negative proxy noise sd would flip the sign of the noise
        # correlation in ``_model_at``; NaN passes the order check above.
        if self.field == "noise_sd_proxy":
            for value in grid:
                check_sd("every noise_sd_proxy in the sweep grid", value)
        # The other two fields are counts: a fractional grid value would be
        # simulated rounded but reported as given.
        if self.field != "noise_sd_proxy":
            for value in grid:
                if not (value >= 1 and value.is_integer()):
                    raise ValueError(
                        f"every {self.field} in the sweep grid must be an "
                        f"integer >= 1, got {value!r}"
                    )
                if self.field == "units_per_arm" and value >= MAX_UNITS_PER_ARM:
                    raise ValueError(
                        f"every units_per_arm in the sweep grid must be < 2**63, "
                        f"got {value!r}"
                    )
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class SimulationConfig:
    model: EffectModel = DEFAULT_MODEL
    size_mode: str = "fixed"
    m0: float | None = None
    num_replications: int = DEFAULT_REPLICATIONS
    seed: int = 0
    rule: DecisionRule = field(
        default_factory=lambda: DecisionRule(blend=[0.0, 1.0])
    )
    estimators: tuple[str, ...] = ESTIMATORS
    sweep: SweepSpec | None = None
    mode: str = "cumulative"

    def __post_init__(self) -> None:
        if self.size_mode not in ("fixed", "poisson"):
            raise ValueError(f"unknown size_mode {self.size_mode!r}")
        if self.model.units_per_arm >= MAX_UNITS_PER_ARM:
            raise ValueError(
                f"model.units_per_arm must be < 2**63, got {self.model.units_per_arm}"
            )
        if self.size_mode == "poisson":
            check_m0(self.m0)
        object.__setattr__(
            self, "num_replications",
            check_count("num_replications", self.num_replications, 1),
        )
        if self.rule.gate != "none" and self.rule.fallback_arm > 2:
            raise ValueError(
                f"fallback_arm must be 1 or 2 for the two-arm fast path, "
                f"got {self.rule.fallback_arm}"
            )
        if self.mode not in ("mean", "cumulative"):
            raise ValueError(f"unknown mode {self.mode!r}")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators {sorted(unknown)}")
        if not self.estimators:
            raise ValueError("estimators must be nonempty")


@dataclass(frozen=True)
class SweepPointRow:
    variant: str
    sweep_field: str
    sweep_value: float
    estimator: str
    mean: float
    se: float
    closed_form: float | None
    rel_bias: float | None
    replications: int
    num_experiments: int


@dataclass(frozen=True)
class SimulationResult:
    rows: tuple[SweepPointRow, ...]
    zero_size_redraws: int = 0


def parallelism_degree() -> int:
    """Worker count from the environment; degree never changes results."""
    raw = os.environ.get(PARALLELISM_ENV_VAR, "1")
    try:
        degree = int(raw)
    except ValueError as err:
        raise ValueError(
            f"{PARALLELISM_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from err
    if degree < 1:
        raise ValueError(f"{PARALLELISM_ENV_VAR} must be >= 1, got {degree}")
    return degree


def _ordered_parallel_map(fn, jobs: list) -> list:
    """Run jobs with the configured degree; results come back in job order."""
    degree = parallelism_degree()
    if degree == 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    # Imported here: it loads logging and queue, which a serial run never needs.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=degree) as pool:
        return list(pool.map(fn, jobs))


def _chunk_sums(chunk_fn, num_points: int, replications: int) -> list[list[float]]:
    """Per point, the chunk-order sum of ``chunk_fn``'s float arrays.

    ``replications`` is cut into chunks of ``CHUNK_REPLICATIONS`` at each of
    ``num_points`` points, and ``chunk_fn(point, chunk, chunk_reps)`` runs
    once per chunk, in any order.  Each point's arrays are added in chunk
    order, so the sums do not depend on the parallelism degree; they come
    back as Python floats.
    """
    starts = range(0, replications, CHUNK_REPLICATIONS)
    jobs = [
        (point, chunk, min(CHUNK_REPLICATIONS, replications - start))
        for point in range(num_points)
        for chunk, start in enumerate(starts)
    ]
    results = _ordered_parallel_map(lambda job: chunk_fn(*job), jobs)
    n = len(starts)
    return [sum(results[i:i + n]).tolist() for i in range(0, len(results), n)]


def _mean_and_var(total: float, squares: float, r: int) -> tuple[float, float]:
    """Mean and unbiased variance of ``r`` draws from their sum and sum of
    squares (variance 0 for a single draw)."""
    mean = total / r
    var = max(squares / r - mean**2, 0.0) * (r / (r - 1)) if r > 1 else 0.0
    return mean, var


def _fold_sizes(m: int, num_folds: int) -> np.ndarray:
    """Near-equal fold sizes; the first m % P folds take the extra unit."""
    base, extra = divmod(m, num_folds)
    sizes = np.full(num_folds, base, dtype=int)
    sizes[:extra] += 1
    return sizes


def cov_factor(mat: np.ndarray) -> np.ndarray:
    """A matrix F with F @ F.T equal to the covariance.

    Cholesky when the matrix is positive definite; otherwise an
    eigendecomposition square root, which handles the semidefinite edges
    (zero covariance, correlations of exactly +-1) without perturbation.
    """
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(mat)
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _simulate_estimates(
    effect_chol: np.ndarray,
    noise_chol: np.ndarray,
    m: int,
    num_folds: int,
    n: int,
    rules: tuple[DecisionRule, ...],
    rng: np.random.Generator,
    estimators: tuple[str, ...] = ESTIMATORS,
) -> dict[str, np.ndarray]:
    """Fast-path draws for ``n`` two-arm experiments; returns an (n, n_rules)
    array for each of the ``estimators`` asked for.

    Simulates true effects and per-arm fold means, then evaluates for each
    rule the true earned reward (the north star, metric 0), the plug-in
    estimate, and the k-fold cross-validation estimate.  Fold means carry
    ``noise_chol noise_chol' / m_p`` covariance and are only ever seen
    through their projections on the reward and on every rule's blend
    matrix, so one GEMM maps the standard-normal draws straight onto those
    directions.  A second GEMM turns each blend direction's P fold
    projections into every leave-fold-out sum (a sum over the other folds,
    with no cancellation against the total) and the full sum.  Per rule,
    one ``decide_kept`` call decides every held-out fold on the remaining
    folds' sums and, when ``true`` or ``naive`` is asked for, the full data
    on the arm sums; a gate gets the known per-unit blend variance, the
    squared norm of the blend's noise projection.  Launch means arm 2.
    ``chosen_reward`` reads the chosen arm's reward from views of the
    reward fold means, (rows, P, arms), for cv and of the arm means,
    (rows, 1, arms), for naive; true is the launched arm's effect.

    The draws are taken in row blocks, each temporary holding at most
    ``BLOCK_ELEMENTS`` values, that continue one stream: first every
    block's effects, projected at once onto the directions, then every
    block's fold draws.  So the result does not depend on the block size,
    and nothing but the (D, n) effect projections and the requested
    outputs grows with ``n``.
    """
    n_metrics = effect_chol.shape[0]
    if m < num_folds:
        raise DegenerateFoldError(
            f"fast path needs units_per_arm >= num_folds, got {m} < {num_folds}"
        )
    sizes = _fold_sizes(m, num_folds)
    root = np.sqrt(sizes)
    matrices = [blend_matrix(rule, n_metrics) for rule in rules]
    # (J, D): the reward, then every blend column.
    directions = np.column_stack([np.eye(n_metrics)[0]] + matrices)
    ends = np.cumsum([0] + [mat.shape[1] for mat in matrices])
    noise_directions = (noise_chol.T @ directions).T  # (D, J)
    unit_variances = np.square(noise_directions[1:]).sum(axis=1)
    variances = [
        None if rule.gate == "none" else unit_variances[ends[r]:ends[r + 1]]
        for r, rule in enumerate(rules)
    ]
    # Fold q's blend sum is sqrt(m_q) times its projection, plus m_q effects
    # in arm 2.  Column p < P sums every fold but p; column P sums them all.
    fold_sums = root[:, None] * (1.0 - np.eye(num_folds, num_folds + 1))
    effect_units = np.append(m - sizes, m).astype(float)
    weights = sizes / m
    # The full-data decision (the last column) only feeds true and naive.
    full_data = "true" in estimators or "naive" in estimators
    decided = slice(None) if full_data else slice(num_folds)
    # Both arms' kept unit count: per decided column.  One column that
    # broadcasts over the arms keeps the score's divide on the strides of
    # the transposed ``sums`` view below.
    counts = effect_units[decided, None]

    width = 2 * (num_folds + 1) * max(n_metrics, directions.shape[1])
    step = max(1, BLOCK_ELEMENTS // width)
    blocks = [slice(start, min(start + step, n)) for start in range(0, n, step)]
    effects = np.empty((directions.shape[1], n))
    for rows in blocks:
        tau = rng.standard_normal((rows.stop - rows.start, n_metrics)) @ effect_chol.T
        effects[:, rows] = (tau @ directions).T
    out = {key: np.empty((n, len(rules))) for key in ESTIMATORS if key in estimators}
    z_buffer = np.empty((min(step, n), 2, num_folds, n_metrics))
    for rows in blocks:
        z = rng.standard_normal(out=z_buffer[:rows.stop - rows.start])
        # Direction-major: (D, rows, 2, P).
        proj = (noise_directions @ z.reshape(-1, n_metrics).T).reshape(
            (-1,) + z.shape[:3]
        )
        fold_means = proj[0] / root  # reward fold means, (rows, 2, P)
        fold_means[:, 1] += effects[0, rows, None]
        if "naive" in out:
            # Arm means as size-weighted sums of the fold means in fold
            # order, the rounding of the fold-mean algebra in
            # tests/unit_oracle.py.
            naive = fold_means[:, :, 0] * weights[0]
            for p in range(1, num_folds):
                naive += fold_means[:, :, p] * weights[p]
        sums = (proj[1:].reshape(-1, num_folds) @ fold_sums).reshape(
            (-1,) + z.shape[:2] + (num_folds + 1,)
        )  # (blend columns, rows, 2, P + 1)
        sums[:, :, 1] += effects[1:, rows, None] * effect_units
        # (rows, decided columns, 2, blend columns) view
        sums = sums.transpose(1, 3, 2, 0)[:, decided]
        for r, rule in enumerate(rules):
            cols = slice(ends[r], ends[r + 1])
            # (rows, decided columns)
            chosen = decide_kept(counts, sums[..., cols], variances[r], rule)
            if "true" in out:
                out["true"][rows, r] = np.where(chosen[:, -1] == 2, effects[0, rows], 0.0)
            if "naive" in out:
                out["naive"][rows, r] = chosen_reward(naive[:, None], chosen[:, -1:])[:, 0]
            if "cv" in out:
                out["cv"][rows, r] = chosen_reward(fold_means.swapaxes(1, 2), chosen).mean(axis=1)
            # Freed before the next rule's decide_kept call: held across it,
            # it raised the peak RSS of the selection check by about 1 MB.
            del chosen
    return out


def _model_at(model: EffectModel, sweep_field: str | None, value: float) -> EffectModel:
    if sweep_field is None:
        return model
    if sweep_field in ("units_per_arm", "num_experiments"):
        return replace(model, **{sweep_field: int(value)})
    if sweep_field == "noise_sd_proxy":
        _, _, sd_y, old_sd = model.sds
        corr = float(model.noise_cov[0, 1] / (sd_y * old_sd)) if old_sd > 0 else 0.0
        return replace(model, noise_cov=_cov(sd_y, value, corr))
    raise ValueError(f"unknown sweep field {sweep_field!r}")


def _closed_forms(model: EffectModel, rule: DecisionRule) -> dict[str, float] | None:
    """Exact expectations when the rule is the ungated positive-proxy rule.

    Available for two-metric models with the blend on the proxy axis; the
    reward is the north star.
    """
    if rule.gate != "none" or rule.blend.shape != (2,):
        return None
    if rule.blend[0] != 0.0 or rule.blend[1] <= 0.0:
        return None
    return {
        "true": true_reward(model),
        "naive": naive_expectation(model),
        "cv": cv_expectation(model),
    }


def _sweep_chunk(config, variant, models, point, chunk, reps) -> np.ndarray:
    """Simulate ``reps`` replications at sweep point ``point``.

    Returns per estimator, in ``ESTIMATORS`` order, the sum and sum of
    squares of the per-replication aggregates (zeros for an estimator the
    config leaves out), then the zero-size redraw count.  Poisson sizes of
    zero are redrawn in at most ``MAX_BOOTSTRAP_REDRAWS`` rounds; a zero
    left after them raises a ValueError naming ``m0``.
    """
    model = models[point]
    n_exps = model.num_experiments
    n = reps * n_exps
    effect_chol = cov_factor(model.effect_cov)
    noise_chol = cov_factor(model.noise_cov)
    rules = (config.rule,)
    redraws = 0

    if config.size_mode == "fixed":
        rng = substream(config.seed, "sweep", variant, point, chunk)
        values = _simulate_estimates(
            effect_chol, noise_chol, model.units_per_arm, model.num_folds, n,
            rules, rng, config.estimators,
        )
    else:
        size_rng = substream(config.seed, "sweep-sizes", variant, point, chunk)
        sizes = size_rng.poisson(config.m0, size=n)
        zero = np.flatnonzero(sizes == 0)
        for _ in range(MAX_BOOTSTRAP_REDRAWS):
            if not zero.size:
                break
            redraws += zero.size
            sizes[zero] = size_rng.poisson(config.m0, size=zero.size)
            zero = zero[sizes[zero] == 0]
        if zero.size:
            raise ValueError(
                f"m0={config.m0!r} leaves {zero.size} experiment size(s) zero "
                f"after {MAX_BOOTSTRAP_REDRAWS} redraw rounds"
            )
        values = {key: np.empty((n, 1)) for key in config.estimators}
        for m in np.unique(sizes):
            rng = substream(config.seed, "sweep", variant, point, chunk, int(m))
            idx = np.flatnonzero(sizes == m)
            got = _simulate_estimates(
                effect_chol, noise_chol, int(m), model.num_folds, len(idx),
                rules, rng, config.estimators,
            )
            for key in values:
                values[key][idx] = got[key]

    sums = []
    for key in ESTIMATORS:
        if key not in values:
            sums += [0.0, 0.0]  # not configured; run_bias_sweep drops it
            continue
        per_rep = values[key][:, 0].reshape(reps, n_exps).sum(axis=1)
        if config.mode == "mean":
            per_rep = per_rep / n_exps
        sums += [per_rep.sum(), (per_rep**2).sum()]
    return np.array(sums + [redraws])


def run_bias_sweep(config: SimulationConfig, variant: str = "default") -> SimulationResult:
    """Monte Carlo estimates of true/naive/cv rewards over a sweep grid.

    At every grid point the configured estimators are averaged over
    ``num_replications`` independent replications of ``num_experiments``
    experiments; relative bias is reported against the closed-form truth
    where it exists.  Identical configs give bit-identical results at any
    parallelism degree.
    """
    sweep_field = None if config.sweep is None else config.sweep.field
    values = (0.0,) if config.sweep is None else config.sweep.grid
    models = [_model_at(config.model, sweep_field, value) for value in values]
    r = config.num_replications
    sums = _chunk_sums(partial(_sweep_chunk, config, variant, models), len(models), r)

    rows = []
    for value, model, point_sums in zip(values, models, sums):
        closed = _closed_forms(model, config.rule)
        scale = model.num_experiments if config.mode == "cumulative" else 1
        truth = closed["true"] * scale if closed else None
        for k, estimator in enumerate(ESTIMATORS):
            if estimator not in config.estimators:
                continue
            mean, var = _mean_and_var(*point_sums[2 * k:2 * k + 2], r)
            cf = closed[estimator] * scale if closed else None
            rows.append(
                SweepPointRow(
                    variant=variant,
                    sweep_field=sweep_field or "none",
                    sweep_value=float(value),
                    estimator=estimator,
                    mean=mean,
                    se=math.sqrt(var / r),
                    closed_form=cf,
                    rel_bias=(mean - truth) / truth if truth else None,
                    replications=r,
                    num_experiments=model.num_experiments,
                )
            )
    redraws = int(sum(point_sums[-1] for point_sums in sums))
    return SimulationResult(rows=tuple(rows), zero_size_redraws=redraws)


# ---------------------------------------------------------------------------
# Poisson rescaling identity check


@dataclass(frozen=True)
class RescalingCheckReport:
    """Outcome of the two-sided equality test between the rescaled
    leave-l-out estimator and the realized true reward of the rule."""

    m0: float
    leave_out: int
    replications: int
    rescaled_mean: float
    realized_mean: float
    difference: float
    se_combined: float
    passed: bool
    negative_control_difference: float
    negative_control_se: float
    negative_control_rejected: bool

    @property
    def overall_passed(self) -> bool:
        return self.passed and self.negative_control_rejected


# The rescaling check's data-driven rule: launch the arm with the highest
# mean of its single metric.
_ARGMAX_RULE = DecisionRule(blend=[1.0])


def _score_block(
    x: np.ndarray, leave_out: int, rule_kind: str, constant_arm: int
) -> tuple[np.ndarray, np.ndarray]:
    """Raw leave-l-out fold-reward sums and full-data choices for a batch
    of equal-size experiments, two (n,) arrays.

    ``x`` has shape (n, arms, m), reward = the single metric itself.  One
    ``estimators.subset_rewards`` call scores every size-l subset of unit
    positions and decides the full data.  Where m <= l nothing is kept:
    every arm's mean is NaN and the argmax picks arm 1; where m < l there
    is no subset and the sum is 0.  Constant rules ignore the data
    entirely.  ``check_poisson_rescaling`` checks the arguments.
    """
    m = x.shape[2]
    subsets = np.array(list(combinations(range(m), leave_out)), dtype=np.intp)
    subsets = subsets.reshape(-1, leave_out)  # (S, l), S = 0 where m < l
    if rule_kind == "constant":
        held = x[:, constant_arm - 1, subsets].mean(axis=2)
        return held.sum(axis=1), np.full(len(x), constant_arm)
    with np.errstate(divide="ignore", invalid="ignore"):
        chosen, held = subset_rewards(x[..., None], x, subsets, _ARGMAX_RULE)
    return held.sum(axis=1), chosen[:, -1]


def _sum_and_squares(values: np.ndarray) -> tuple[float, float]:
    """Sum and sum of squares of ``values``, each added in array order."""
    return float(values.sum()), float((values**2).sum())


def _tally_fits(n_arms: int, m: int) -> bool:
    """Whether every tally of m units over ``n_arms`` arms has an int64 key:
    its 2**arms - 1 digits in base m + 1 stay below 2**63."""
    return (2**n_arms - 1) * (m + 1).bit_length() <= 63


def _tally_keys(outcomes: np.ndarray) -> np.ndarray:
    """Each experiment's tally as one integer, for (n, arms, m) 0/1 outcomes.

    A unit position shows the pattern p = sum over arms k of its outcome
    times 2**k.  The tally counts the positions that show each pattern
    p >= 1 (the rest show 0), and the key reads the count for p as the
    digit of (m + 1)**(p - 1).  Equal keys mean equal tallies, that is
    outcomes equal up to a permutation of the unit positions applied to
    every arm at once.  ``_tally_fits`` must hold.
    """
    n_arms, m = outcomes.shape[1:]
    patterns = outcomes[:, 0].astype(np.intp)
    for k in range(1, n_arms):
        patterns += outcomes[:, k] * (1 << k)
    digits = np.append(0, (m + 1) ** np.arange(2**n_arms - 1, dtype=np.int64))
    # One integer GEMV: a sum over the short unit axis is slower.
    return digits[patterns] @ np.ones(m, dtype=np.int64)


def _tally_groups(draws, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``_tally_keys`` of ``count`` experiments drawn in
    blocks, sorted, and each experiment's index among them."""
    keys = np.empty(count, dtype=np.int64)
    start = 0
    for x in draws:
        keys[start:start + len(x)] = _tally_keys(x)
        start += len(x)
    if keys.max() < max(count, BLOCK_ELEMENTS):
        # A table over the key range is no larger than the keys, and one
        # pass over it is several times faster than a sort and a search.
        present = np.bincount(keys) > 0
        return np.flatnonzero(present), (np.cumsum(present) - 1)[keys]
    distinct = np.unique(keys)
    return distinct, np.searchsorted(distinct, keys)


def _tally_outcomes(keys: np.ndarray, n_arms: int, m: int) -> np.ndarray:
    """One (n, arms, m) float experiment per ``_tally_keys`` key: its
    positions show pattern 1 as often as the tally counts, then pattern 2,
    and so on, and pattern 0 after the last."""
    base = m + 1
    counts = keys[:, None] // base ** np.arange(2**n_arms - 1, dtype=np.int64) % base
    ends = np.cumsum(counts, axis=1)  # (n, patterns)
    # Position j shows 1 + the number of pattern runs ending at or before
    # it; past the last run that is 2**arms, which wraps to 0.
    patterns = ((ends[:, :, None] <= np.arange(m)).sum(axis=1) + 1) % 2**n_arms
    return ((patterns[:, None, :] >> np.arange(n_arms)[:, None]) & 1).astype(float)


def check_poisson_rescaling(
    m0: float = 5.0,
    leave_out: int = 1,
    arm_means: tuple[float, ...] = (0.5, 0.6),
    rule_kind: str = "argmax",
    constant_arm: int = 1,
    replications: int = 1_000_000,
    seed: int = 0,
) -> RescalingCheckReport:
    """Empirical check that rescaled leave-l-out CV is unbiased under
    Poisson enrollment.

    Per-arm unit counts are drawn Poisson(m0); outcomes are Bernoulli with
    the given per-arm means.  One side is the mean of
    ``l!/m0**l * sum of fold rewards``; the other is the mean true reward
    of the arm the rule picks on the full data (the argmax rule picks arm
    1 for an empty experiment, a constant rule its own arm).  The check
    passes when the two means agree within four combined standard errors.
    The negative control re-runs the comparison with the rescaling omitted
    and must be rejected by the same test.

    Each unit count's outcomes are drawn in row blocks from its own stream
    and keyed by their tally (``_tally_keys``).  One experiment per
    distinct key is scored, and every replication reads its key's raw sum
    and choice.  That is exact: leave-l-out over every subset does not see
    a joint permutation of the unit positions, held-out rewards are
    multiples of 1/l, so their sum is exact in any order, and the full-data
    choice reads integer arm sums.  Both sides are summed per replication
    in replication order, so the report is the same bit for bit as scoring
    every replication.  Where the key would overflow int64
    (``_tally_fits``), the unit count is scored without grouping.
    """
    check_m0(m0)
    leave_out = check_count("leave_out", leave_out, 1, 2)
    if rule_kind not in ("argmax", "constant"):
        raise ValueError(f"unknown rule kind {rule_kind!r}")
    replications = check_count("replications", replications, 2)
    means = np.asarray(arm_means, dtype=float)
    if means.ndim != 1:
        raise ValueError(
            f"arm_means must be a flat sequence of Bernoulli means, one per arm, "
            f"got shape {means.shape}"
        )
    n_arms = len(means)
    if n_arms < 1:
        raise ValueError("need at least one arm")
    if not np.all((means >= 0.0) & (means <= 1.0)):
        raise ValueError(
            f"arm_means must be Bernoulli means in [0, 1], got {tuple(arm_means)}"
        )
    if rule_kind == "constant":
        check_count("constant_arm", constant_arm, 1, n_arms)

    # Unit counts in blocks too: Poisson draws continue the stream the same.
    size_rng = substream(seed, "rescaling-sizes", leave_out)
    size_counts = np.zeros(0, dtype=np.intp)
    for i in range(0, replications, BLOCK_ELEMENTS):
        sizes = size_rng.poisson(m0, size=min(BLOCK_ELEMENTS, replications - i))
        counts = np.bincount(sizes, minlength=len(size_counts))
        counts[:len(size_counts)] += size_counts
        size_counts = counts

    scale = math.factorial(leave_out) / m0**leave_out
    totals = np.zeros(4)  # lhs sum and sum of squares, then rhs's
    for m in np.flatnonzero(size_counts).tolist():
        count = int(size_counts[m])
        rng = substream(seed, "rescaling-data", leave_out, m)
        # Outcomes come in row blocks, which bound the temporaries;
        # ``rng.random`` fills in C order, so the blocks see the numbers one
        # (count, arms, m) draw would.
        step = max(1, BLOCK_ELEMENTS // max(1, n_arms * m, math.comb(m, leave_out)))
        draws = (
            rng.random((min(step, count - i), n_arms, m)) < means[None, :, None]
            for i in range(0, count, step)
        )
        if _tally_fits(n_arms, m):
            # Score one experiment per distinct tally; ``group`` maps every
            # replication to its tally's row.
            distinct, group = _tally_groups(draws, count)
            experiments = (
                _tally_outcomes(distinct[i:i + step], n_arms, m)
                for i in range(0, len(distinct), step)
            )
        else:
            group = slice(None)
            experiments = (x.astype(float) for x in draws)
        raw, chosen = map(np.concatenate, zip(*(
            _score_block(x, leave_out, rule_kind, constant_arm) for x in experiments
        )))
        # Per replication and in replication order, so each sum adds the
        # same numbers in the same order however the rows were scored; one
        # side at a time, so only one such array is alive besides ``group``.
        totals += _sum_and_squares((raw * scale)[group]) + _sum_and_squares(
            means[chosen - 1][group]
        )

    r = replications
    lhs_sum, lhs_sq, rhs_sum, rhs_sq = totals.tolist()
    lhs_mean, lhs_var = _mean_and_var(lhs_sum, lhs_sq, r)
    rhs_mean, rhs_var = _mean_and_var(rhs_sum, rhs_sq, r)
    se = math.sqrt(lhs_var / r + rhs_var / r)
    diff = lhs_mean - rhs_mean
    passed = abs(diff) < 4.0 * se

    # Same draws, scaling omitted: means and variances rescale exactly.
    nc_mean = lhs_mean / scale
    nc_var = lhs_var / scale**2
    nc_se = math.sqrt(nc_var / r + rhs_var / r)
    nc_diff = nc_mean - rhs_mean

    return RescalingCheckReport(
        m0=m0,
        leave_out=leave_out,
        replications=r,
        rescaled_mean=lhs_mean,
        realized_mean=rhs_mean,
        difference=diff,
        se_combined=se,
        passed=passed,
        negative_control_difference=nc_diff,
        negative_control_se=nc_se,
        negative_control_rejected=not (abs(nc_diff) < 4.0 * nc_se),
    )


# ---------------------------------------------------------------------------
# Rule-selection consistency check


@dataclass(frozen=True)
class SelectionCheckReport:
    """Empirical regret of CV-based rule selection as experiments accumulate."""

    n_grid: tuple[int, ...]
    regrets: tuple[float, ...]
    regret_ses: tuple[float, ...]
    accuracies: tuple[float, ...]
    true_rewards: dict[str, float]
    ratio_threshold: float
    passed: bool


def _selection_chunk(base, proxies, grid, seed, gammas, point, chunk, reps) -> np.ndarray:
    """Select a proxy rule by cumulative CV in ``reps`` replications of
    ``grid[point]`` experiments; returns the sum and sum of squares of the
    regrets, then the count of correct selections."""
    n_exps = grid[point]
    effect_chol, noise_chol = joint_proxy_model(base.sds, proxies)
    n_metrics = 1 + len(proxies)
    rules = tuple(
        DecisionRule(blend=np.eye(n_metrics)[1 + j]) for j in range(len(proxies))
    )
    rng = substream(seed, "selection", point, chunk)
    got = _simulate_estimates(
        effect_chol, noise_chol, base.units_per_arm, base.num_folds,
        reps * n_exps, rules, rng, ("cv",),
    )
    cv = got["cv"].reshape(reps, n_exps, len(proxies)).sum(axis=1)
    picked = np.argmax(cv, axis=1)
    best = np.max(gammas)
    regrets = best - gammas[picked]
    return np.array([regrets.sum(), (regrets**2).sum(), (gammas[picked] == best).sum()])


def check_rule_selection(
    base: EffectModel = DEFAULT_MODEL,
    proxies: tuple[ProxySpec, ...] = DEFAULT_PROXIES,
    n_grid: tuple[int, ...] = (100, 200, 400),
    replications: int = 10_000,
    seed: int = 0,
    ratio_threshold: float = 0.7,
) -> SelectionCheckReport:
    """Empirical check that CV-based selection finds the best rule as the
    number of experiments grows.

    At each grid size N, the candidate with the highest cumulative CV
    estimate over N fresh experiments is selected; regret is the gap
    between the best closed-form expected reward and the selected rule's.
    Passes when regret is nonincreasing along the grid and every (N, 4N)
    pair in the grid satisfies regret(4N) <= threshold * regret(N).
    """
    if len(proxies) < 2:
        raise ValueError("need at least two candidate proxies")
    if not 0.0 < ratio_threshold < math.inf:
        raise ValueError(
            f"ratio_threshold must be a finite number > 0, got {ratio_threshold!r}"
        )
    r = check_count("replications", replications, 1)
    if not n_grid:
        raise ValueError("n_grid is empty")
    grid = tuple(check_count("every N in n_grid", n, 1) for n in n_grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    gammas = np.array(
        [true_reward(base.with_correlations(p.effect_corr, p.noise_corr)) for p in proxies]
    )
    sums = _chunk_sums(
        partial(_selection_chunk, base, proxies, grid, seed, gammas), len(grid), r
    )

    regrets, ses, accuracies = [], [], []
    for total, squares, correct in sums:
        mean, var = _mean_and_var(total, squares, r)
        regrets.append(mean)
        ses.append(math.sqrt(var / r))
        accuracies.append(correct / r)

    nonincreasing = all(b <= a for a, b in zip(regrets, regrets[1:]))
    ratio_ok = not any(
        regrets[grid.index(4 * n)] > ratio_threshold * regrets[i]
        for i, n in enumerate(grid)
        if 4 * n in grid
    )
    return SelectionCheckReport(
        n_grid=grid,
        regrets=tuple(regrets),
        regret_ses=tuple(ses),
        accuracies=tuple(accuracies),
        true_rewards={p.name: float(g) for p, g in zip(proxies, gammas)},
        ratio_threshold=ratio_threshold,
        passed=nonincreasing and ratio_ok,
    )
