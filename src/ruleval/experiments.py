"""Experiment data types and the decision-rule engine.

An experiment holds per-unit outcome vectors for each arm; a decision rule
maps those observations to a single arm to launch.  Rules are built from a
linear blend of the outcome metrics, optionally gated on statistical
significance versus the reference arm (arm 1).  All operations here are
pure functions of immutable inputs.

Every decision, on the full data or with units held out, goes through one
kernel, ``decide_kept``.  It decides many held-out subsets at once from each
arm's kept unit count, the sums of the rule's blend columns over the kept
units and the per-unit variance of each column, so estimators never rebuild
an experiment.  The library estimators compute that variance from the kept
units (``sample_variance``); the Monte Carlo fast path supplies the model's
known variance.  ``fold_stats`` produces those inputs from unit data split
into folds, for every held-out fold and then the full data; ``decide`` and
``significance_set`` read its full-data row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .streams import substream

__all__ = [
    "ArmData",
    "DecisionRule",
    "DegenerateArmError",
    "DegenerateFoldError",
    "ExperimentData",
    "FoldAssignment",
    "RewardSpec",
    "assign_folds",
    "blend_matrix",
    "blend_values",
    "decide",
    "decide_kept",
    "fold_stats",
    "sample_variance",
    "significance_set",
]


class DegenerateArmError(ValueError):
    """An arm has too few units for the requested computation."""


class DegenerateFoldError(ValueError):
    """Holding out a fold or subset left an arm without enough units."""


@dataclass(frozen=True)
class ArmData:
    """One treatment arm: a 1-based index and a (units, metrics) matrix.

    Units are exchangeable; row order carries no meaning.
    """

    arm_index: int
    units: np.ndarray

    def __post_init__(self) -> None:
        units = np.asarray(self.units, dtype=float)
        if units.ndim != 2:
            raise ValueError(
                f"arm {self.arm_index}: units must be 2-D (units x metrics), "
                f"got shape {units.shape}"
            )
        if units.shape[0] < 1:
            raise DegenerateArmError(f"arm {self.arm_index} has no units")
        if not np.isfinite(units).all():
            raise ValueError(f"arm {self.arm_index}: units must be finite")
        if self.arm_index < 1:
            raise ValueError(f"arm index must be >= 1, got {self.arm_index}")
        object.__setattr__(self, "units", units)

    @property
    def num_units(self) -> int:
        return self.units.shape[0]

    @property
    def num_metrics(self) -> int:
        return self.units.shape[1]


@dataclass(frozen=True)
class ExperimentData:
    """All observations from one experiment.

    Arms are ordered and contiguously indexed from 1; arm 1 is the
    reference (control) arm.  ``weight`` scales this experiment's
    contribution in aggregate estimates.  Single-arm experiments are
    permitted; decision rules then trivially return arm 1.
    """

    experiment_id: str
    arms: tuple[ArmData, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        arms = tuple(self.arms)
        if not arms:
            raise ValueError(f"experiment {self.experiment_id!r} has no arms")
        for pos, arm in enumerate(arms):
            if arm.arm_index != pos + 1:
                raise ValueError(
                    f"experiment {self.experiment_id!r}: arm indices must be "
                    f"contiguous from 1, found {arm.arm_index} at position {pos + 1}"
                )
        num_metrics = arms[0].num_metrics
        for arm in arms:
            if arm.num_metrics != num_metrics:
                raise ValueError(
                    f"experiment {self.experiment_id!r}: arm {arm.arm_index} has "
                    f"{arm.num_metrics} metrics, expected {num_metrics}"
                )
        if not 0 <= self.weight < np.inf:
            raise ValueError(
                f"experiment {self.experiment_id!r}: weight must be finite "
                f"and nonnegative, got {self.weight}"
            )
        object.__setattr__(self, "arms", arms)

    @property
    def num_arms(self) -> int:
        return len(self.arms)

    @property
    def num_metrics(self) -> int:
        return self.arms[0].num_metrics

    def arm(self, arm_index: int) -> ArmData:
        if not 1 <= arm_index <= len(self.arms):
            raise ValueError(
                f"experiment {self.experiment_id!r} has no arm {arm_index}"
            )
        return self.arms[arm_index - 1]


@dataclass(frozen=True)
class RewardSpec:
    """The reward functional: a linear map from an outcome vector to a scalar.

    Either a single metric picked by 1-based index (the default reward is
    metric 1), or, when ``coefficients`` is given, an explicit linear
    combination of all metrics.
    """

    index: int = 1
    coefficients: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.coefficients is None:
            if self.index < 1:
                raise ValueError("metric index must be >= 1")
        else:
            object.__setattr__(
                self, "coefficients", np.asarray(self.coefficients, dtype=float)
            )

    @classmethod
    def metric(cls, index: int = 1) -> "RewardSpec":
        return cls(index=index)

    @classmethod
    def combination(cls, coefficients) -> "RewardSpec":
        if coefficients is None:
            raise ValueError("linear-combination reward needs coefficients")
        return cls(coefficients=coefficients)

    def weights(self, num_metrics: int) -> np.ndarray:
        """Coefficient vector of length ``num_metrics`` implementing the reward."""
        if self.coefficients is None:
            if self.index > num_metrics:
                raise ValueError(
                    f"reward metric index {self.index} out of range "
                    f"for {num_metrics} metrics"
                )
            w = np.zeros(num_metrics)
            w[self.index - 1] = 1.0
            return w
        coefs = self.coefficients
        if len(coefs) != num_metrics:
            raise ValueError(
                f"reward coefficients have length {len(coefs)}, "
                f"expected {num_metrics}"
            )
        return np.array(coefs, dtype=float)


@dataclass(frozen=True)
class DecisionRule:
    """A launch rule: pick the arm maximizing a blend of metrics.

    ``blend`` is applied as an inner product with each unit's outcome
    vector.  With ``gate="none"`` the rule is a plain argmax of blend
    means.  With ``gate="significant-vs-reference"`` only arms whose gate
    metrics beat the reference arm at level ``gate_alpha`` (two-sample
    z-test, unpooled standard errors) are eligible; if no arm qualifies the
    rule returns ``fallback_arm``.  ``gate_metrics`` lets the gate test
    different blends than the one being maximized, combined with
    ``gate_combine`` ("all": every gate blend must pass; "any": at least
    one must).  Ties always break to the lowest arm index, so the control
    arm wins exact ties.
    """

    blend: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    gate: str = "none"
    gate_alpha: float = 0.05
    gate_sides: str = "one-sided-greater"
    gate_metrics: tuple[np.ndarray, ...] | None = None
    gate_combine: str = "all"
    fallback_arm: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "blend", np.asarray(self.blend, dtype=float))
        if self.gate not in ("none", "significant-vs-reference"):
            raise ValueError(f"unknown gate {self.gate!r}")
        if not 0.0 < self.gate_alpha < 1.0:
            raise ValueError("gate_alpha must be in (0, 1)")
        if self.gate_sides not in ("one-sided-greater", "two-sided"):
            raise ValueError(f"unknown gate_sides {self.gate_sides!r}")
        if self.gate_combine not in ("all", "any"):
            raise ValueError(f"unknown gate_combine {self.gate_combine!r}")
        if self.fallback_arm < 1:
            raise ValueError("fallback_arm must be >= 1")
        if self.gate_metrics is not None:
            gates = tuple(np.asarray(g, dtype=float) for g in self.gate_metrics)
            if not gates:
                raise ValueError("gate_metrics must be nonempty when given")
            object.__setattr__(self, "gate_metrics", gates)

    def gate_blends(self) -> tuple[np.ndarray, ...]:
        """Blends tested by the significance gate (defaults to the main blend)."""
        if self.gate_metrics is not None:
            return self.gate_metrics
        return (self.blend,)


@dataclass(frozen=True)
class FoldAssignment:
    """A partition of each arm's units into ``num_folds`` folds.

    ``folds`` maps arm index to an integer array of fold labels in
    [1, num_folds], one per unit position.  Assignments are stratified by
    arm so each arm's fold sizes differ by at most one.
    """

    experiment_id: str
    num_folds: int
    folds: dict[int, np.ndarray]
    seed: int

    def __post_init__(self) -> None:
        if self.num_folds < 2:
            raise ValueError("num_folds must be >= 2")


def fold_permutations(exp: ExperimentData, seed: int) -> list[np.ndarray]:
    """Each arm's random permutation of its unit positions, a deterministic
    function of (seed, experiment id, arm sizes): each arm gets its own
    substream, so the draw does not depend on what else was sampled.
    """
    return [
        substream(seed, "folds", exp.experiment_id, arm.arm_index).permutation(
            arm.num_units
        )
        for arm in exp.arms
    ]


def assign_folds(exp: ExperimentData, num_folds: int, seed: int) -> FoldAssignment:
    """Randomly split each arm's units into ``num_folds`` near-equal folds:
    unit i of an arm with permutation ``perm`` goes to fold
    ``perm[i] % num_folds + 1``, so every fold count shares one draw."""
    if num_folds < 2:
        raise ValueError("num_folds must be >= 2")
    folds = {
        arm.arm_index: perm % num_folds + 1
        for arm, perm in zip(exp.arms, fold_permutations(exp, seed))
    }
    return FoldAssignment(exp.experiment_id, num_folds, folds, seed)


def blend_matrix(rule: DecisionRule, num_metrics: int) -> np.ndarray:
    """The rule's (metrics, B) blend matrix.

    Column 0 is the rule blend; a gated rule with ``gate_metrics`` adds one
    column per gate blend.
    """
    blends = [rule.blend]
    if rule.gate != "none" and rule.gate_metrics is not None:
        blends += list(rule.gate_metrics)
    for blend in blends:
        if blend.shape != (num_metrics,):
            raise ValueError(
                f"blend has shape {blend.shape}, expected ({num_metrics},)"
            )
    return np.column_stack(blends)


def blend_values(exp: ExperimentData, rule: DecisionRule) -> list[np.ndarray]:
    """Each arm's (units, B) ``blend_matrix`` values, all shifted by one
    shared constant.

    The shift is arm 1's first unit: subtracting one constant from every
    arm changes no comparison, keeps ties on integer data exact, and keeps
    large metric levels from cancelling in the sums of squares (Chan,
    Golub & LeVeque 1983).
    """
    matrix = blend_matrix(rule, exp.num_metrics)
    values = [arm.units @ matrix for arm in exp.arms]
    shift = values[0][0].copy()
    return [v - shift for v in values]


def sample_variance(
    counts: np.ndarray, sums: np.ndarray, squares: np.ndarray
) -> np.ndarray:
    """Unbiased per-unit variance of each column from counts, sums and sums
    of squares: ``counts`` is (..., K), the others are (..., K, B)."""
    n = counts[..., None]
    return np.maximum(squares - sums * (sums / n), 0.0) / (n - 1)


def _first_argmax(score: np.ndarray) -> np.ndarray:
    """``np.argmax`` over the last (arm) axis, lowest index on exact ties,
    as one vectorized comparison per arm: ``np.argmax`` makes one short
    reduction per row, which dominates on large batches of few arms."""
    best = score[..., 0]
    chosen = np.zeros(best.shape, dtype=np.intp)
    for k in range(1, score.shape[-1]):
        better = score[..., k] > best
        chosen[better] = k
        if k + 1 < score.shape[-1]:
            best = np.maximum(best, score[..., k])
    return chosen


def _gate_mask(
    counts: np.ndarray, sums: np.ndarray, variances: np.ndarray, rule: DecisionRule
) -> np.ndarray:
    """(..., K) mask of arms whose gate blends beat the reference arm.

    Two-sample z-test with unpooled standard errors from the per-unit
    variances; arm 0 (the reference arm) is always False.
    """
    cols = slice(0, 1) if rule.gate_metrics is None else slice(1, None)
    n = counts[..., None]
    means = sums[..., cols] / n
    se2 = variances[..., cols] / n
    diff = means[..., 1:, :] - means[..., :1, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(
            diff == 0.0, 0.0, diff / np.sqrt(se2[..., 1:, :] + se2[..., :1, :])
        )
    if rule.gate_sides == "two-sided":
        passed = np.abs(z) > -special.ndtri(rule.gate_alpha / 2.0)
    else:
        passed = z > -special.ndtri(rule.gate_alpha)
    passed = passed.all(axis=-1) if rule.gate_combine == "all" else passed.any(axis=-1)
    mask = np.zeros(passed.shape[:-1] + (passed.shape[-1] + 1,), dtype=bool)
    mask[..., 1:] = passed
    return mask


def decide_kept(
    counts: np.ndarray,
    sums: np.ndarray,
    variances: np.ndarray | None,
    rule: DecisionRule,
    experiment_id: str,
) -> np.ndarray:
    """Decide many held-out subsets of one or more experiments at once.

    ``sums`` is (..., K, B): per subset, each arm's sum of the
    ``blend_matrix`` columns over its kept units; ``counts`` is each arm's
    kept unit count, (..., K) or any shape that broadcasts against
    ``sums[..., 0]``.  ``variances`` is each arm's per-unit variance of
    every blend column, broadcastable to ``sums`` (None for an ungated
    rule): the library passes the kept units' ``sample_variance``, the
    Monte Carlo fast path the model's known variance.  Returns the chosen
    1-based arm per subset: the argmax of blend means, restricted under a
    gate to the arms that pass it, or the fallback arm when none does.
    Exact ties go to the lowest index.
    """
    score = sums[..., 0] / counts
    if rule.gate == "none":
        return _first_argmax(score) + 1
    mask = _gate_mask(counts, sums, variances, rule)
    chosen = _first_argmax(np.where(mask, score, -np.inf)) + 1
    # The reference arm never passes the gate, so it comes out of the
    # masked argmax exactly when no arm does.
    empty = chosen == 1
    if empty.any():
        if rule.fallback_arm > score.shape[-1]:
            raise ValueError(
                f"fallback arm {rule.fallback_arm} does not exist in "
                f"experiment {experiment_id!r}"
            )
        chosen[empty] = rule.fallback_arm
    return chosen


def _fold_name(fold_counts: tuple[int, ...], t: int) -> str:
    """Name of fold t, counted (from 0) over the folds of every partition."""
    ends = np.cumsum(fold_counts)
    f = int(np.searchsorted(ends, t, side="right"))
    return f"fold {t - ends[f] + fold_counts[f] + 1} of {fold_counts[f]}"


# Fold bins of zero partitions: only the full data is decided.
_NO_FOLDS = np.empty((0, 0), dtype=np.intp)


def fold_stats(
    exp: ExperimentData,
    rule: DecisionRule,
    bins: np.ndarray,
    fold_counts: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``decide_kept`` inputs for every held-out fold, then the full data.

    ``bins`` is (partitions, units), one row per entry of ``fold_counts``:
    each unit of the arms' stacked units (each arm's in order) gets the bin
    ``(arm - 1) * total + fold``, with ``total = sum(fold_counts)`` and
    partition f numbering its ``fold_counts[f]`` 0-based folds after the
    earlier partitions' ones.  Returns kept counts (total + 1, K), blend
    sums (total + 1, K, B) and, for a gated rule, their ``sample_variance``
    (else None): row t < total keeps every unit outside fold t, the last
    row keeps every unit.  One bincount gives every fold's held-out sums,
    which are subtracted from the arm totals.  Raises DegenerateFoldError
    when holding a fold out leaves an arm without a unit (two under a
    gate); silent skips would bias any estimator built on top.  A gated
    rule on an arm of one unit raises DegenerateArmError.
    """
    values = blend_values(exp, rule)
    num_arms, total = exp.num_arms, sum(fold_counts)
    size = num_arms * total
    sizes = np.array([v.shape[0] for v in values])
    held = np.bincount(bins.ravel(), minlength=size).reshape(num_arms, total)
    counts = np.vstack([(sizes[:, None] - held).T, sizes])
    gated = rule.gate != "none"
    if counts.min() < 1 + gated:
        t, k = np.argwhere(counts < 1 + gated)[0]
        if t == total:
            raise DegenerateArmError(
                f"experiment {exp.experiment_id!r}: arm {k + 1} has "
                f"{counts[t, k]} unit(s); the significance gate needs >= 2"
            )
        raise DegenerateFoldError(
            f"experiment {exp.experiment_id!r}: removing "
            f"{_fold_name(fold_counts, t)} leaves arm {k + 1} with "
            f"{counts[t, k]} unit(s), needs >= {1 + gated}"
        )
    stacked = np.concatenate(values)
    blends = stacked.shape[1]
    columns = np.vstack([stacked.T] + ([(stacked * stacked).T] if gated else []))
    width = len(columns)
    bounds = np.cumsum(np.append(0, sizes))
    arm_totals = np.stack([columns[:, a:b].sum(axis=1)
                           for a, b in zip(bounds, bounds[1:])], axis=1)
    index = (np.arange(width)[:, None] * size + bins.reshape(1, -1)).ravel()
    held_sums = np.bincount(index, np.tile(columns, len(bins)).ravel(), width * size)
    held_sums = held_sums.reshape(width, num_arms, total)
    sums = np.concatenate([(arm_totals[..., None] - held_sums).T, arm_totals.T[None]])
    variances = (
        sample_variance(counts, sums[..., :blends], sums[..., blends:])
        if gated else None
    )
    return counts, sums[..., :blends], variances


def significance_set(exp: ExperimentData, rule: DecisionRule) -> set[int]:
    """Arms whose gate metrics are significant versus the reference arm.

    Uses a two-sample z-test with unpooled standard errors per gate blend;
    an arm is in the set when the per-blend results combine to true under
    ``rule.gate_combine``.  The reference arm (arm 1) is never included.
    """
    if rule.gate != "significant-vs-reference":
        raise ValueError("significance_set requires gate='significant-vs-reference'")
    mask = _gate_mask(*fold_stats(exp, rule, _NO_FOLDS, ()), rule)
    return {int(k) + 1 for k in np.flatnonzero(mask[0])}


def decide(exp: ExperimentData, rule: DecisionRule) -> int:
    """Apply a decision rule to an experiment, returning the chosen arm index.

    Ungated rules take the argmax of blend means over all arms.  Gated
    rules take the argmax restricted to the significance set, or the
    fallback arm when the set is empty.  Exact ties go to the lowest index.
    """
    counts, sums, variances = fold_stats(exp, rule, _NO_FOLDS, ())
    return int(decide_kept(counts, sums, variances, rule, exp.experiment_id)[0])
