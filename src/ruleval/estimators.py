"""Reward estimators for decision rules over historical experiments.

Three families are implemented:

* the naive plug-in estimate: the sample mean of the reward over the units
  of whichever arm the rule picks on the full data.  Because selection
  conditions on the same noise being averaged, it inherits a winner's
  curse: the selected arm's observed reward overstates its true mean.
* k-fold cross-validation: the rule is applied with one fold held out and
  the reward is measured on the held-out fold only, so selection noise and
  evaluation noise are independent.
* leave-l-out with Poisson rescaling: summing the fold rewards over every
  size-l held-out subset and scaling by ``l! / m0**l`` gives an estimator
  whose expectation equals the expected reward of the rule applied to the
  full experiment, when the per-arm unit count is Poisson with mean ``m0``
  (fixed enrollment rate over a fixed window).

Every estimator decides through the one kernel ``experiments.decide_kept``,
fed by one of two producers, and reads the chosen arm's reward through one
gather, ``experiments.chosen_reward``.  ``experiments.fold_stats`` builds
the kernel's inputs for a whole corpus in one pass: every experiment's arms
are stacked, each unit gets a 0-based fold label per fold count, and
``experiments.fold_sums`` bins the labels one partition at a time and gives
every fold's held-out sums of every blend column, one ``np.bincount`` per
partition and column, subtracted from the arm totals, then the arm totals
themselves.  ``batch_rewards`` decides all of them with one kernel call
per rule and arm count, and scores every experiment's folds on one reward
table, which ``fold_sums`` builds once for all rules from the reward
column; the naive estimate is the full-data slot.
``subset_rewards`` decides every held-out subset of an (S, l) array of
unit positions and then the full data, for a batch of equal-size
experiments at once, in one kernel call.  It serves the Poisson-rescaling
check in the simulator, which reads the full-data choice, and leave-l-out
here, which reads the subsets'; the experiments are stacked once and make
one call per (arm count, arm size).  The kernel raises nothing: it returns
0 where no arm passes a gated rule that lacks its fallback arm, and both
library paths raise the missing-fallback error for any experiment with a 0
among the decisions they score.

Every estimator is reached through ``per_experiment_rewards`` (one
contribution per experiment) or ``estimate_reward`` (their aggregate),
with an ``EstimatorConfig``.  Aggregates over experiments come in two
modes: ``mean`` (weighted mean of per-experiment estimates) and
``cumulative`` (weighted sum), the latter being the natural readout for
"total return across the program".  ``bootstrap_ci`` resamples the
contributions of a ``RewardEstimate`` and scores nothing again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .experiments import (
    ArmStack,
    DecisionRule,
    DegenerateFoldError,
    ExperimentData,
    RewardSpec,
    check_count,
    check_stack,
    chosen_reward,
    decide_kept,
    fault_error,
    fold_decisions,
    fold_permutations,
    fold_sums,
    missing_fallback_error,
    sample_variance,
    stacked_blend_values,
    stacked_product,
)
from .streams import substream

__all__ = [
    "ConfidenceInterval",
    "EstimatorConfig",
    "RewardEstimate",
    "aggregate",
    "bootstrap_ci",
    "estimate_reward",
    "per_experiment_rewards",
]

ESTIMATOR_KINDS = ("naive", "cv-kfold", "cv-leave-l-out", "poisson-rescaled")
AGGREGATE_MODES = ("mean", "cumulative")
# Most redraw rounds: of one zero-weight bootstrap resample, and of the
# zero Poisson sizes of a simulator chunk.
MAX_BOOTSTRAP_REDRAWS = 10_000
# Most values per temporary array of a row block, here and in the simulator.
BLOCK_ELEMENTS = 1 << 16


def check_m0(m0) -> None:
    """Raise a ValueError naming ``m0``, the Poisson enrollment rate, unless
    it is a finite number > 0 (not a bool)."""
    number = isinstance(m0, (int, float, np.integer, np.floating))
    if isinstance(m0, bool) or not number or not 0 < m0 < math.inf:
        raise ValueError(f"m0 must be a finite number > 0, got {m0!r}")


@dataclass(frozen=True)
class RewardEstimate:
    """A point estimate of rule reward with estimator provenance, as
    ``estimate_reward`` returns it.

    ``value`` is exactly the weighted mean (mode="mean") or weighted sum
    (mode="cumulative") of the ``per_experiment`` contributions under
    ``weights``.
    """

    value: float
    estimator: str
    mode: str
    per_experiment: tuple[float, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A percentile bootstrap interval over experiments, as ``bootstrap_ci``
    returns it; ``redraws`` counts the zero-weight resamples redrawn (mean
    mode only)."""

    lower: float
    upper: float
    level: float
    redraws: int = 0

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError(f"lower {self.lower} > upper {self.upper}")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run and with what parameters.

    ``fold_seed`` fixes the random fold assignment for cv-kfold and the
    sampled subsets of leave-l-out; ``max_folds`` caps leave-l-out
    enumeration (subsets beyond the cap are sampled uniformly and rescaled,
    keeping the estimate unbiased for the exact sum); ``m0`` is the Poisson
    enrollment rate used by the rescaled estimator and must be supplied by
    the caller, not estimated from data.
    """

    kind: str = "cv-kfold"
    num_folds: int = 10
    leave_out: int = 1
    m0: float | None = None
    max_folds: int | None = None
    fold_seed: int = 0
    mode: str = "mean"

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.mode not in AGGREGATE_MODES:
            raise ValueError(f"unknown aggregate mode {self.mode!r}")
        if self.kind == "cv-kfold":
            check_count("num_folds", self.num_folds, 2)
        if self.kind == "poisson-rescaled":
            check_m0(self.m0)
        # Stored as ints, so a NumPy integer reads back as its int.
        if self.kind in ("cv-leave-l-out", "poisson-rescaled"):
            object.__setattr__(self, "leave_out", check_count("leave_out", self.leave_out, 1))
        if self.max_folds is not None:
            object.__setattr__(self, "max_folds", check_count("max_folds", self.max_folds, 1))


def _fold_table(
    stack: ArmStack,
    rules: list[DecisionRule],
    reward: RewardSpec,
    folds: np.ndarray | None,
    fold_counts: tuple[int, ...],
) -> np.ndarray:
    """(rules, experiments, folds + 1): each rule's reward of every fold's
    held-out decision, then of its full-data decision (the plug-in
    estimate), in every stacked experiment.

    ``folds`` holds every stacked unit's 0-based fold label per partition,
    as ``fold_sums`` takes them (None or 0 rows for no fold).  Fold t's
    decision sees every unit of the experiment outside it; its reward is
    the mean reward of the chosen arm's units in fold t.  The full-data
    decision sees every unit and is rewarded on all of the chosen arm's
    units.  ``fold_sums`` gives the reward column's held-out and full sums
    once, for all rules, as one (arms, folds + 1) table of those means;
    ``fold_decisions`` makes each rule's decisions and ``chosen_reward``
    reads their rewards from the table.  The error raised is that of the
    first experiment with a fault, for the first rule with one, as a loop
    over experiments, then rules, would meet it.
    """
    num_exps, total = len(stack.ids), sum(fold_counts)
    rewards = stacked_product(stack, reward.weights(stack.units.shape[1]))
    kept, totals, held = fold_sums(stack, rewards[None], folds, fold_counts)
    with np.errstate(divide="ignore", invalid="ignore"):  # EMPTY_FOLD
        table = np.hstack([held[0] / (kept[:, -1:] - kept[:, :-1]),
                           totals.T / stack.sizes[:, None]])
    # (experiments, total + 1, most arms): each experiment's arms in order,
    # past its last arm whatever follows it, which no decision picks.
    arms = stack.first_arm[:-1, None] + np.arange(np.diff(stack.first_arm).max())
    table = table[np.minimum(arms, len(stack.sizes) - 1)].swapaxes(1, 2)
    out = np.empty((len(rules), num_exps, total + 1))
    faults = np.zeros((len(rules), num_exps), dtype=int)
    picks = []
    for r, rule in enumerate(rules):
        counts, chosen, faults[r] = fold_decisions(stack, rule, folds, fold_counts)
        out[r] = chosen_reward(table, chosen)
        picks.append((counts, chosen))
    bad = np.flatnonzero(faults.any(axis=0))
    if bad.size:
        i = bad[0]
        r = np.flatnonzero(faults[:, i])[0]
        raise fault_error(stack, *picks[r], rules[r], fold_counts, i, faults[r, i])
    return out


def batch_rewards(
    exps: ArmStack | list[ExperimentData],
    rules: list[DecisionRule],
    reward: RewardSpec,
    fold_counts: tuple[int, ...],
    fold_seed: int,
) -> np.ndarray:
    """(rules, 1 + fold counts, experiments) contributions: slot 0 the
    plug-in estimate, slot 1 + f the k-fold estimate at ``fold_counts[f]``,
    the mean fold reward over the experiment's partition into that many
    folds.  All fold counts and rules share each arm's one
    ``fold_permutations`` draw: unit i of an arm with permutation ``perm``
    is in fold ``perm[i] % P``, the 0-based label that ``fold_sums`` bins.
    The arms of every experiment are stacked and each rule makes one
    kernel call per arm count; ``exps`` is a list of experiments or their
    ``ArmStack``, which ``check_stack`` checks.
    With no fold count, only slot 0 is filled and nothing is drawn.
    """
    fold_counts = tuple(
        check_count(f"fold_counts[{i}]", p, 2) for i, p in enumerate(fold_counts)
    )
    stack = check_stack(ArmStack.of(exps))
    out = np.empty((len(rules), 1 + len(fold_counts), len(stack.ids)))
    if not stack.ids:
        return out
    folds = None
    if fold_counts:
        perms = np.concatenate(fold_permutations(stack, fold_seed))
        folds = perms % np.array(fold_counts)[:, None]
    table = _fold_table(stack, rules, reward, folds, fold_counts)
    out[:, 0] = table[..., -1]
    for f, (p, end) in enumerate(zip(fold_counts, np.cumsum(fold_counts))):
        out[:, 1 + f] = table[..., end - p : end].sum(axis=-1) / p
    return out


def aggregate(values: np.ndarray, weights: np.ndarray, mode: str) -> float:
    """Weighted mean or weighted sum of per-experiment contributions."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if mode == "cumulative":
        return float(np.sum(weights * values))
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("aggregate mean needs positive total weight")
    return float(np.sum(weights * values) / total)


def subset_rewards(
    values: np.ndarray, rewards: np.ndarray, subsets: np.ndarray, rule: DecisionRule
) -> tuple[np.ndarray, np.ndarray]:
    """The rule's choice with each subset of unit positions held out and
    then on the full data, (n, S + 1), and each subset's held-out reward,
    (n, S), for n experiments whose K arms have m units each.

    ``values`` is (n, K, m, B): each unit's ``blend_matrix`` values;
    ``rewards`` is (n, K, m).  ``subsets`` is an integer (S, l) array;
    each row's positions are removed from every arm, one kernel call
    decides every subset on the rest and the full data on every unit, and
    the subset's reward is the mean reward over the row's positions in the
    chosen arm, read by ``chosen_reward``.  The caller checks that every
    arm keeps enough units (one, two under a gate) and reads a choice of 0
    as a missing fallback arm (``decide_kept``).
    """

    def kept_sums(x: np.ndarray) -> np.ndarray:
        totals = x.sum(axis=2)[:, :, None]  # (n, K, 1, B)
        kept = totals - x[:, :, subsets].sum(axis=3)  # (n, K, S, B)
        return np.concatenate([kept, totals], axis=2).transpose(0, 2, 1, 3)

    m, l = values.shape[2], subsets.shape[1]
    counts = np.append(np.full(len(subsets), float(m - l)), m)[:, None]  # (S + 1, 1)
    sums = kept_sums(values)  # (n, S + 1, K, B)
    variances = None
    if rule.gate != "none":
        variances = sample_variance(counts, sums, kept_sums(values * values))
    chosen = decide_kept(counts, sums, variances, rule)  # (n, S + 1)
    held = rewards[:, :, subsets].mean(axis=3)  # (n, K, S)
    return chosen, chosen_reward(held.swapaxes(1, 2), chosen)


def _leave_l_out_sums(
    exps: ArmStack | list[ExperimentData],
    rule: DecisionRule,
    reward: RewardSpec,
    config: EstimatorConfig,
) -> np.ndarray:
    """(experiments,) each experiment's sum of held-out rewards over every
    size-l subset of unit positions, at the config's ``leave_out``,
    ``max_folds`` and ``fold_seed``; ``exps`` is a list of experiments or
    their ``ArmStack``, which ``check_stack`` checks.

    All arms must have the same unit count M; a held-out subset of
    positions applies to every arm at once.  When C(M, l) exceeds
    ``max_folds`` (default 10,000 for l >= 2), the sum is estimated without
    bias from ``max_folds`` uniformly sampled subsets, scaled by C(M, l).

    The experiments scored on every subset make one ``subset_rewards``
    call per (arm count, arm size), in row blocks of at most
    ``BLOCK_ELEMENTS`` values per temporary; an experiment whose subsets
    are sampled draws its own from ``substream(fold_seed, "leave-l-out",
    id, l)`` and makes a call of its own.  The error raised is that of the
    first experiment with a fault, as a loop over experiments would meet
    it.
    """
    stack = check_stack(ArmStack.of(exps))
    leave_out, max_folds = config.leave_out, config.max_folds
    faults: dict[int, ValueError] = {}
    sizes = []
    arm_sizes, first = stack.sizes.tolist(), stack.first_arm.tolist()
    for i, exp_id in enumerate(stack.ids):
        m = sorted(set(arm_sizes[first[i] : first[i + 1]]))
        if len(m) > 1 or leave_out >= m[0]:
            faults[i] = ValueError(f"experiment {exp_id!r}: " + (
                f"leave-l-out needs equal arm sizes, got {m}" if len(m) > 1 else
                f"leave_out={leave_out} requires arms larger than {leave_out}, got {m[0]}"
            ))
            break
        sizes.append(m[0])
    out = np.empty(len(sizes))
    groups: dict[tuple[int, int, int], list[int]] = {}
    cap = max_folds or (math.inf if leave_out == 1 else 10_000)
    if sizes:
        for i, (k, m) in enumerate(zip(np.diff(stack.first_arm).tolist(), sizes)):
            sampled = i if math.comb(m, leave_out) > cap else -1
            groups.setdefault((k, m, sampled), []).append(i)
        values = stacked_blend_values(stack, rule)
        rewards = stacked_product(stack, reward.weights(stack.units.shape[1]))
    min_units = 1 + (rule.gate != "none")
    for (k, m, sampled), group in groups.items():
        if m - leave_out < min_units:
            faults.update((i, DegenerateFoldError(
                f"experiment {stack.ids[i]!r}: holding out {leave_out} "
                f"unit(s) leaves {m - leave_out}, needs >= {min_units}"
            )) for i in group)
            continue
        if sampled < 0:
            subsets = np.array(list(combinations(range(m), leave_out)))
        else:
            rng = substream(config.fold_seed, "leave-l-out", stack.ids[sampled], leave_out)
            subsets = np.array([rng.choice(m, leave_out, replace=False) for _ in range(cap)])
        rows = stack.starts[stack.first_arm[group], None] + np.arange(k * m)
        step = max(1, BLOCK_ELEMENTS // (k * subsets.size * values.shape[1]))
        for lo in range(0, len(group), step):
            block = group[lo : lo + step]
            chosen, held = subset_rewards(
                values[rows[lo : lo + step]].reshape(len(block), k, m, -1),
                rewards[rows[lo : lo + step]].reshape(len(block), k, m),
                subsets, rule,
            )
            out[block] = held.sum(axis=1)
            for i in np.compress((chosen[:, :-1] == 0).any(axis=1), block):
                faults[i] = missing_fallback_error(rule, stack.ids[i])
        if sampled >= 0:
            out[sampled] = math.comb(m, leave_out) * float(out[sampled]) / cap
    if faults:
        raise faults[min(faults)]
    return out


def per_experiment_rewards(
    exps: ArmStack | list[ExperimentData],
    rule: DecisionRule,
    reward: RewardSpec,
    config: EstimatorConfig,
) -> np.ndarray:
    """Per-experiment contributions under the configured estimator.

    naive: plug-in estimate; cv-kfold: mean over fold rewards;
    cv-leave-l-out: mean over held-out subsets; poisson-rescaled: the
    leave-l-out sum times ``l! / m0**l``, unbiased for the rule's expected
    full-data reward when per-arm unit counts are Poisson with mean ``m0``.
    Every experiment is scored in one batched pass: ``batch_rewards`` for
    the first two, ``_leave_l_out_sums`` for the others.  ``exps`` is a
    list of experiments or their ``ArmStack``; the producer checks a stack
    once (``check_stack``), so a NaN unit, a negative weight or sizes that
    do not cover the units raise a CorpusFormatError.
    """
    stack = ArmStack.of(exps)
    if config.kind in ("naive", "cv-kfold"):
        folds = (config.num_folds,) if config.kind == "cv-kfold" else ()
        return batch_rewards(stack, [rule], reward, folds, config.fold_seed)[0, len(folds)]
    l = config.leave_out
    totals = _leave_l_out_sums(stack, rule, reward, config)
    if config.kind == "poisson-rescaled":
        return float(math.factorial(l)) * totals / config.m0**l
    return totals / [float(math.comb(m, l)) for m in stack.sizes[stack.first_arm[:-1]].tolist()]


def estimate_reward(
    exps: ArmStack | list[ExperimentData],
    rule: DecisionRule,
    reward: RewardSpec,
    config: EstimatorConfig,
) -> RewardEstimate:
    """Aggregate reward estimate over a corpus of experiments, given as a
    list or as their ``ArmStack``, checked as ``per_experiment_rewards``
    checks it."""
    stack = ArmStack.of(exps)
    if not stack.ids:
        raise ValueError("need at least one experiment")
    contributions = per_experiment_rewards(stack, rule, reward, config)
    weights = stack.weights
    return RewardEstimate(
        value=aggregate(contributions, weights, config.mode),
        estimator=config.kind,
        mode=config.mode,
        per_experiment=tuple(float(c) for c in contributions),
        weights=tuple(float(w) for w in weights),
    )


def bootstrap_aggregates(
    contributions: np.ndarray,
    weights: np.ndarray,
    mode: str,
    n_replicates: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Experiment-level cluster bootstrap of the aggregate.

    Experiments are resampled with replacement, every replicate in one
    (n_replicates, n) index draw; per-experiment contributions are held
    fixed (fold assignments and decisions are not recomputed).  Resamples
    with zero total weight in mean mode are then redrawn in replicate
    order and counted, up to ``MAX_BOOTSTRAP_REDRAWS`` times in a row for
    any one replicate.
    """
    n = len(contributions)
    idx = rng.integers(0, n, size=(n_replicates, n))
    redraws = 0
    if mode != "cumulative":
        # Each replicate's total weight, gathered once; a redraw updates its row.
        weight_totals = weights[idx].sum(axis=1)
        for b in np.flatnonzero(~(weight_totals > 0)):
            tries = 0
            while not weight_totals[b] > 0:
                if tries == MAX_BOOTSTRAP_REDRAWS:
                    raise RuntimeError(
                        f"bootstrap replicate {b} exceeded the redraw cap: "
                        f"{tries} all-zero-weight resamples in a row"
                    )
                idx[b] = rng.integers(0, n, size=n)
                weight_totals[b] = weights[idx[b]].sum()
                tries += 1
            redraws += tries
    # The gathered products are the products of the gathers, in order.
    totals = np.sum((weights * contributions)[idx], axis=1)
    if mode == "cumulative":
        return totals, redraws
    return totals / weight_totals, redraws


def percentile_interval(draws: np.ndarray, level: float) -> tuple[float, float]:
    """Equal-tailed empirical quantiles of bootstrap draws at ``level``."""
    alpha = 1.0 - level
    lower, upper = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0]).tolist()
    return lower, upper


def bootstrap_ci(
    estimate: RewardEstimate,
    n_replicates: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile bootstrap interval for an ``estimate_reward`` result.

    Experiments are the independent sampling unit: the estimate's
    per-experiment contributions are resampled under its weights and
    aggregate mode, on ``substream(seed, "bootstrap", estimator,
    n_replicates)``.  Fold noise is held fixed across resamples; the
    interval reflects cross-experiment variation only.
    """
    if len(estimate.per_experiment) < 2:
        raise ValueError("bootstrap needs at least 2 experiments")
    n_replicates = check_count("n_replicates", n_replicates, 100)
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    rng = substream(seed, "bootstrap", estimate.estimator, n_replicates)
    draws, redraws = bootstrap_aggregates(
        np.array(estimate.per_experiment), np.array(estimate.weights),
        estimate.mode, n_replicates, rng,
    )
    lower, upper = percentile_interval(draws, level)
    return ConfidenceInterval(lower=lower, upper=upper, level=level, redraws=redraws)
