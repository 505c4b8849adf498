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
an experiment.  It is a pure function of those statistics and raises
nothing: where no arm passes a gated rule whose fallback arm the experiment
lacks, it returns 0, and its caller names the fault.  The library
estimators compute that variance from the kept units
(``sample_variance``); the Monte Carlo fast path supplies the model's
known variance.  ``fold_sums`` is the one producer of per-(arm, fold) sums
of unit data: for every arm of an ``ArmStack``, the experiments' units
stacked into one array, it gives the kept unit counts and the totals of
any columns, and from each partition's 0-based fold labels, binned one
partition at a time by (arm, fold), every held-out fold's sums of them.
``fold_stats`` feeds it the rule's blend columns and subtracts the
held-out sums from the totals, followed by the full data.  Each sum adds
the numbers a one-experiment computation adds, in its order, so no result
depends on what else is in the batch.
``fold_decisions`` decides them all, one kernel call per arm count, and
finds each experiment's first fault; ``fault_error`` words it.  A rule's
full-data decision on one experiment is a ``fold_decisions`` call on its
one-experiment stack with no fold.  Every estimator, the fast path's
included, reads the chosen arm's reward from its reward table through one
gather, ``chosen_reward``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist
from typing import NamedTuple, Sequence

import numpy as np

from .streams import substreams

__all__ = [
    "ArmData",
    "ArmStack",
    "DecisionRule",
    "DegenerateArmError",
    "DegenerateFoldError",
    "ExperimentData",
    "RewardSpec",
    "blend_matrix",
    "decide_kept",
    "fold_stats",
    "sample_variance",
]


class DegenerateArmError(ValueError):
    """An arm has too few units for the requested computation."""


class DegenerateFoldError(ValueError):
    """Holding out a fold or subset left an arm without enough units."""


class CorpusFormatError(ValueError):
    """The corpus or weight file, or an in-memory ``ArmStack``, violates the
    input schema."""


def check_count(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int, after checking that it is an integer (not a bool
    or a float such as 2.0) in [low, high]; a ValueError names ``name``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def check_id(exp_id) -> None:
    """Raise a CorpusFormatError unless ``exp_id`` is what ``ingest_csv``
    reads back (it strips each cell): a non-empty string without a NUL
    character or surrounding whitespace.  So a corpus exports and ingests
    again under the same ids, and ids sort."""
    if not (isinstance(exp_id, str) and exp_id and exp_id == exp_id.strip()
            and "\0" not in exp_id):
        raise CorpusFormatError(f"experiment_id must be a non-empty string without a NUL "
                                f"character or surrounding whitespace, got {exp_id!r}")


def finite_vector(name: str, value) -> np.ndarray:
    """``value`` as a float array, after checking that every entry is
    finite; a ValueError names ``name``."""
    array = np.asarray(value, dtype=float)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got {array.tolist()!r}")
    return array


@dataclass(frozen=True)
class ArmData:
    """One treatment arm: a 1-based index and a (units, metrics) matrix.

    Units are exchangeable; row order carries no meaning.  A plain record:
    ``units`` is converted to a float array and nothing is checked here;
    ``ArmStack.of`` and ``check_stack`` check the arm when a public call
    reads it.
    """

    arm_index: int
    units: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", np.asarray(self.units, dtype=float))

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
    permitted; decision rules then trivially return arm 1.  A plain record:
    ``arms`` is made a tuple and nothing is checked here; the first public
    call that reads the experiment stacks it (``ArmStack.of``) and checks
    the stack (``check_stack``), and a CorpusFormatError names the fault.
    """

    experiment_id: str
    arms: tuple[ArmData, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "arms", tuple(self.arms))

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
        object.__setattr__(self, "index", check_count("index", self.index, 1))
        if self.coefficients is not None:
            object.__setattr__(
                self, "coefficients", finite_vector("coefficients", self.coefficients)
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
        object.__setattr__(self, "blend", finite_vector("blend", self.blend))
        if self.gate not in ("none", "significant-vs-reference"):
            raise ValueError(f"unknown gate {self.gate!r}")
        if not 0.0 < self.gate_alpha < 1.0:
            raise ValueError("gate_alpha must be in (0, 1)")
        if self.gate_sides not in ("one-sided-greater", "two-sided"):
            raise ValueError(f"unknown gate_sides {self.gate_sides!r}")
        if self.gate_combine not in ("all", "any"):
            raise ValueError(f"unknown gate_combine {self.gate_combine!r}")
        object.__setattr__(
            self, "fallback_arm", check_count("fallback_arm", self.fallback_arm, 1)
        )
        if self.gate_metrics is not None:
            gates = tuple(finite_vector(f"gate_metrics[{i}]", g)
                          for i, g in enumerate(self.gate_metrics))
            if not gates:
                raise ValueError("gate_metrics must be nonempty when given")
            object.__setattr__(self, "gate_metrics", gates)

    def gate_blends(self) -> tuple[np.ndarray, ...]:
        """Blends tested by the significance gate (defaults to the main blend)."""
        if self.gate_metrics is not None:
            return self.gate_metrics
        return (self.blend,)


def fold_permutations(stack: ArmStack, seed: int) -> list[np.ndarray]:
    """Each stacked arm's random permutation of its unit positions, a
    deterministic function of (seed, experiment id, arm index, arm size):
    each arm draws from its own ``substream(seed, "folds", id, arm)``, so
    the draw does not depend on what else was sampled.  The arms' streams
    are seeded in one ``substreams`` batch.

    The permutation splits the arm into near-equal folds for every fold
    count at once: unit i of an arm with permutation ``perm`` is in fold
    ``perm[i] % P`` (0-based) of P, the label ``estimators.batch_rewards``
    passes to ``fold_sums``.
    """
    rngs = substreams(seed, [("folds", exp_id, k) for exp_id, k in stack.arm_keys()])
    return [rng.permutation(m) for rng, m in zip(rngs, stack.sizes.tolist())]


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


class ArmStack(NamedTuple):
    """The arms of a list of experiments stacked into one (units, metrics)
    array: each experiment's arms in order, each arm's units in order.

    Arm a, counted over all experiments, holds rows ``starts[a]`` to
    ``starts[a + 1]`` (``sizes[a]`` units); experiment i, with id
    ``ids[i]`` and weight ``weights[i]``, holds arms ``first_arm[i]`` to
    ``first_arm[i + 1]``.  ``of`` stacks ``ExperimentData``; the corpus
    readers build their stacks from arrays with ``from_sizes``.
    """

    units: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    first_arm: np.ndarray
    ids: tuple[str, ...]
    weights: np.ndarray

    @classmethod
    def of(cls, exps: ArmStack | Sequence[ExperimentData]) -> ArmStack:
        """Stack the arms of experiments; a stack is returned unchanged.

        Only the two facts a stack cannot record are checked here: that
        each experiment's arm k sits at position k, and that every arm's
        units are 2-D with the first arm's metric count.  A
        CorpusFormatError names the experiment and arm.  What the stack
        records, ``check_stack`` checks.
        """
        if isinstance(exps, ArmStack):
            return exps
        units = []
        for exp in exps:
            for pos, arm in enumerate(exp.arms, start=1):
                shape = arm.units.shape
                if arm.arm_index != pos:
                    fault = (f"arm indices must be contiguous from 1, "
                             f"found {arm.arm_index} at position {pos}")
                elif len(shape) != 2:
                    fault = f"arm {pos}: units must be 2-D (units x metrics), got shape {shape}"
                elif units and shape[1] != units[0].shape[1]:
                    fault = f"arm {pos} has {shape[1]} metrics, expected {units[0].shape[1]}"
                else:
                    units.append(arm.units)
                    continue
                raise CorpusFormatError(f"experiment {exp.experiment_id!r}: {fault}")
        return cls.from_sizes(
            np.concatenate(units) if units else np.empty((0, 0)),
            [len(u) for u in units], [exp.num_arms for exp in exps],
            [exp.experiment_id for exp in exps], [exp.weight for exp in exps],
        )

    @classmethod
    def from_sizes(cls, units: np.ndarray, sizes: Sequence[int], num_arms: Sequence[int],
                   ids: Sequence[str], weights: Sequence[float]) -> ArmStack:
        """The stack of ``units`` whose consecutive arms have ``sizes``
        units and whose consecutive experiments have ``num_arms`` arms."""
        sizes = np.asarray(sizes, dtype=np.intp)
        first_arm = np.r_[0, np.cumsum(num_arms, dtype=np.intp)]
        return cls(units, sizes, np.r_[0, np.cumsum(sizes)], first_arm, tuple(ids),
                   np.asarray(weights, dtype=float))

    def arm_keys(self) -> list[tuple[str, int]]:
        """(experiment id, 1-based arm index) of every stacked arm."""
        return [(exp_id, k + 1)
                for exp_id, n in zip(self.ids, np.diff(self.first_arm).tolist())
                for k in range(n)]

    def experiments(self) -> tuple[ExperimentData, ...]:
        """Every stacked experiment as an ``ExperimentData``, its arms views
        of ``units``."""
        starts, first = self.starts.tolist(), self.first_arm.tolist()
        return tuple(
            ExperimentData(exp_id, tuple(
                ArmData(a - lo + 1, self.units[starts[a] : starts[a + 1]])
                for a in range(lo, hi)
            ), weight)
            for exp_id, lo, hi, weight in zip(self.ids, first, first[1:], self.weights.tolist())
        )


def check_stack(stack: ArmStack, metric_names: Sequence[str] = ()) -> ArmStack:
    """``stack``, after checking that its units are 2-D (units x metrics),
    that its arms, one unit or more each, partition its unit rows and its
    experiments, each with one arm or more, an id and a weight, its arms;
    that its ids are valid (``check_id``), its units finite and its weights
    finite and nonnegative.  Ids may repeat.  This is the one check of
    in-memory data: the records ``ArmData`` and ``ExperimentData`` check
    nothing, and every public call that reads experiments checks their
    stack here.  A CorpusFormatError names the fault, a metric by its name
    in ``metric_names`` or else by its 1-based column."""
    if stack.units.ndim != 2:
        raise CorpusFormatError(f"stack units must be 2-D (units x metrics), "
                                f"got shape {stack.units.shape}")
    starts, sizes, first_arm = stack.starts, stack.sizes, stack.first_arm
    if not np.array_equal(starts, np.r_[0, np.cumsum(sizes)]) or starts[-1] != len(stack.units):
        raise CorpusFormatError(f"stack starts must be the running sums of its sizes, "
                                f"from 0 to its {len(stack.units)} unit rows")
    if (sizes < 1).any():
        raise CorpusFormatError(f"stack sizes must be >= 1, got {sizes.min()} "
                                f"for arm {int(sizes.argmin())}")
    if not len(first_arm) or first_arm[0] != 0 or first_arm[-1] != len(sizes) or (
            np.diff(first_arm) < 1).any():
        raise CorpusFormatError(f"stack first_arm must rise from 0 to the arm count "
                                f"{len(sizes)}, got {first_arm.tolist()}")
    if not len(stack.ids) == len(stack.weights) == len(first_arm) - 1:
        raise CorpusFormatError(f"stack has {len(stack.ids)} ids and {len(stack.weights)} "
                                f"weights for {len(first_arm) - 1} experiments")
    for exp_id in stack.ids:
        check_id(exp_id)
    bad = ~np.isfinite(stack.units)
    if bad.any():
        row, column = np.argwhere(bad)[0].tolist()
        arm = int(np.searchsorted(starts, row, "right")) - 1
        i = int(np.searchsorted(first_arm, arm, "right")) - 1
        metric = repr(metric_names[column]) if metric_names else column + 1
        raise CorpusFormatError(
            f"experiment {stack.ids[i]!r}, arm {arm - first_arm[i] + 1}, unit "
            f"{row - starts[arm]}: metric {metric} is not finite: "
            f"{float(stack.units[row, column])!r}"
        )
    bad = ~((stack.weights >= 0) & (stack.weights < np.inf))
    if bad.any():
        i = int(bad.argmax())
        raise CorpusFormatError(
            f"experiment {stack.ids[i]!r}: weight must be finite and nonnegative, "
            f"got {float(stack.weights[i])!r}"
        )
    return stack


def stacked_product(stack: ArmStack, matrix: np.ndarray) -> np.ndarray:
    """``stack.units @ matrix``, row for row equal to each arm's own
    ``arm.units @ matrix``: a one-row product takes another BLAS path,
    which can round differently, so one-unit arms are multiplied alone."""
    out = stack.units @ matrix
    for row in stack.starts[:-1][stack.sizes == 1]:
        out[row : row + 1] = stack.units[row : row + 1] @ matrix
    return out


def arm_sums(stack: ArmStack, columns: np.ndarray) -> np.ndarray:
    """(..., arms) sums of the (..., units) ``columns`` over each arm's units.

    Each is NumPy's pairwise ``add.reduce`` over the arm's units in order,
    the float ``columns[..., lo:hi].sum(-1)`` gives (``np.add.reduceat``
    adds sequentially, which rounds differently).  Arms of one size are
    gathered into one contiguous block and summed together.
    """
    sizes = stack.sizes
    out = np.empty(columns.shape[:-1] + sizes.shape)
    for m in set(sizes.tolist()):
        arms = (sizes == m).nonzero()[0]
        rows = stack.starts[arms, None] + np.arange(m)
        out[..., arms] = np.add.reduce(np.take(columns, rows, axis=-1), axis=-1)
    return out


def stacked_blend_values(stack: ArmStack, rule: DecisionRule) -> np.ndarray:
    """Every stacked unit's ``blend_matrix`` values, (units, B), each
    experiment's shifted by one constant: its arm 1's first unit's values.

    Subtracting one constant from every arm changes no comparison, keeps
    ties on integer data exact, and keeps large metric levels from
    cancelling in the sums of squares (Chan, Golub & LeVeque 1983).
    """
    values = stacked_product(stack, blend_matrix(rule, stack.units.shape[1]))
    first = stack.starts[stack.first_arm]
    values -= np.repeat(values[first[:-1]], np.diff(first), axis=0)
    return values


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
    reduction per row, which dominates on large batches of few arms.  The
    choice is updated arithmetically, not by a masked store, which would
    branch on random data."""
    best = score[..., 0]
    chosen = np.zeros(best.shape, dtype=np.intp)
    for k in range(1, score.shape[-1]):
        better = score[..., k] > best
        if k == 1:
            chosen += better
        else:
            chosen += better * (k - chosen)
        if k + 1 < score.shape[-1]:
            best = np.maximum(best, score[..., k])
    return chosen


def _critical_value(rule: DecisionRule) -> float:
    """The z threshold of the rule's gate: the standard normal quantile
    above which ``gate_alpha`` of the mass lies, ``gate_alpha / 2`` for a
    two-sided gate."""
    two_sided = rule.gate_sides == "two-sided"
    return -NormalDist().inv_cdf(rule.gate_alpha / 2.0 if two_sided else rule.gate_alpha)


def _gate_mask(
    counts: np.ndarray, sums: np.ndarray, variances: np.ndarray, rule: DecisionRule
) -> np.ndarray:
    """(..., K) mask of arms whose gate blends beat the reference arm.

    Two-sample z-test with unpooled standard errors from the per-unit
    variances; arm 0 (the reference arm) is always False.  ``counts`` is
    broadcast to its full arm axis first, so a (..., 1) or scalar count
    pairs with every arm's variance.
    """
    cols = slice(0, 1) if rule.gate_metrics is None else slice(1, None)
    n = np.broadcast_to(counts, np.shape(counts)[:-1] + sums.shape[-2:-1])[..., None]
    means = sums[..., cols] / n
    se2 = variances[..., cols] / n
    diff = means[..., 1:, :] - means[..., :1, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(
            diff == 0.0, 0.0, diff / np.sqrt(se2[..., 1:, :] + se2[..., :1, :])
        )
    if rule.gate_sides == "two-sided":
        z = np.abs(z)
    passed = z > _critical_value(rule)
    passed = passed.all(axis=-1) if rule.gate_combine == "all" else passed.any(axis=-1)
    mask = np.zeros(passed.shape[:-1] + (passed.shape[-1] + 1,), dtype=bool)
    mask[..., 1:] = passed
    return mask


def decide_kept(
    counts: np.ndarray,
    sums: np.ndarray,
    variances: np.ndarray | None,
    rule: DecisionRule,
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
    gate to the arms that pass it, or the fallback arm when none does, 0
    when none does and the K arms lack the fallback arm.  Exact ties go to
    the lowest index.
    """
    score = sums[..., 0] / counts
    if rule.gate == "none":
        return _first_argmax(score) + 1
    mask = _gate_mask(counts, sums, variances, rule)
    chosen = _first_argmax(np.where(mask, score, -np.inf)) + 1
    # The reference arm never passes the gate, so it comes out of the
    # masked argmax exactly when no arm does.
    if rule.fallback_arm != 1:
        has_fallback = rule.fallback_arm <= score.shape[-1]
        chosen[chosen == 1] = rule.fallback_arm if has_fallback else 0
    return chosen


def missing_fallback_error(rule: DecisionRule, experiment_id: str) -> ValueError:
    """The error for a gated rule whose fallback arm the experiment lacks."""
    return ValueError(
        f"fallback arm {rule.fallback_arm} does not exist in "
        f"experiment {experiment_id!r}"
    )


def _fold_name(fold_counts: tuple[int, ...], t: int) -> str:
    """Name of fold t, counted (from 0) over the folds of every partition."""
    ends = np.cumsum(fold_counts)
    f = int(np.searchsorted(ends, t, side="right"))
    return f"fold {t - ends[f] + fold_counts[f] + 1} of {fold_counts[f]}"


def fold_sums(stack: ArmStack, columns: np.ndarray, folds: np.ndarray | None,
              fold_counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per stacked arm, its kept unit counts, (arms, total + 1), and the
    totals, (width, arms), and held-out sums, (width, arms, total), of the
    (width, units) ``columns``: the one producer of per-(arm, fold) sums of
    unit data, and the one place where fold labels become bins.

    ``folds`` is (partitions, units) (None or 0 rows for no fold): row f
    holds every stacked unit's 0-based fold of partition f, one of
    ``fold_counts[f]``.  The partitions' folds are numbered one after
    another, ``total = sum(fold_counts)`` in all, so any two partitions may
    share a fold count.  Count column t < total keeps every unit outside
    fold t, the last every unit.  The totals are ``arm_sums``.  Each
    partition is binned on its own, unit u of arm a in bin ``a * P +
    fold``, and one bincount per column gives that partition's held-out
    sums, each added in unit order.
    """
    sizes, total = stack.sizes[:, None], sum(fold_counts)
    held = np.empty((len(sizes), total), dtype=np.intp)
    held_sums = np.empty((len(columns), len(sizes), total))
    arm = np.repeat(np.arange(len(sizes)), stack.sizes)
    for p, end, fold in zip(fold_counts, np.cumsum(fold_counts), () if folds is None else folds):
        bins, part = arm * p + fold, slice(end - p, end)
        held[:, part] = np.bincount(bins, minlength=len(sizes) * p).reshape(-1, p)
        for c, column in enumerate(columns):
            held_sums[c, :, part] = np.bincount(bins, column, len(sizes) * p).reshape(-1, p)
    return np.hstack([sizes - held, sizes]), arm_sums(stack, columns), held_sums


def fold_stats(
    stack: ArmStack,
    rule: DecisionRule,
    folds: np.ndarray | None,
    fold_counts: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``decide_kept`` inputs of every stacked arm, for every held-out fold,
    then the full data.

    ``folds`` holds each partition's 0-based fold labels, one row per entry
    of ``fold_counts`` (None or 0 rows when there is none), as
    ``fold_sums`` takes them, with ``total = sum(fold_counts)``.  Returns
    per arm its kept counts (arms, total + 1), blend sums (arms, total + 1,
    B) and, for a gated rule, their ``sample_variance`` (else None): column
    t < total keeps every unit outside fold t, the last column keeps every
    unit.  ``fold_sums`` gives
    the arm totals of the blend columns, and of their squares under a
    gate, and every fold's held-out sums, which are subtracted from them.
    Counts are not checked here: an arm left with too few units gets a
    variance divided by zero, and ``fold_decisions`` reports it.
    """
    values = stacked_blend_values(stack, rule)
    blends = values.shape[1]
    gated = rule.gate != "none"
    columns = np.vstack([values.T] + ([(values * values).T] if gated else []))
    counts, totals, held = fold_sums(stack, columns, folds, fold_counts)
    totals = totals[..., None]
    sums = np.concatenate([totals - held, totals], axis=2).transpose(1, 2, 0)
    variances = None
    if gated:
        with np.errstate(divide="ignore", invalid="ignore"):
            variances = sample_variance(counts, sums[..., :blends], sums[..., blends:])
    return counts, sums[..., :blends], variances


def chosen_reward(table: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """The chosen arm's entry of a (..., columns, arms) reward table,
    (..., columns): every estimator reads a decision's reward here.

    ``chosen`` holds 1-based arms, (..., C) with C >= columns, and its
    first ``columns`` columns are read; any other value, such as the 0 of
    a missing fallback arm (``decide_kept``), reads arm 1.  One comparison
    per arm, which on few arms is faster than a fancy-index gather.
    """
    chosen = chosen[..., : table.shape[-2]]
    out = table[..., 0]
    for k in range(1, table.shape[-1]):
        out = np.where(chosen == k + 1, table[..., k], out)
    return out


SHORT_ARM, NO_FALLBACK, EMPTY_FOLD = 1, 2, 3


def fold_decisions(
    stack: ArmStack,
    rule: DecisionRule,
    folds: np.ndarray | None,
    fold_counts: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule's decision on every held-out fold, then on the full data,
    of every stacked experiment: one ``decide_kept`` call per arm count.

    ``folds`` and ``fold_counts`` are as ``fold_stats`` takes them.  Returns
    each arm's kept counts (arms, total + 1) from ``fold_stats``, the chosen
    1-based arm per experiment (experiments, total + 1), and per experiment
    the code of its first fault (0 for none), in the order a one-experiment
    computation meets them: SHORT_ARM, an arm left with too few units;
    NO_FALLBACK, a 0 from the kernel, where no arm passes a gated rule that
    lacks its fallback arm; EMPTY_FOLD, a held-out fold has no unit of the
    arm chosen without it.  ``fault_error`` gives each one's error.
    """
    counts, sums, variances = fold_stats(stack, rule, folds, fold_counts)
    first_arm, num_arms = stack.first_arm[:-1], np.diff(stack.first_arm)
    total = sum(fold_counts)
    chosen = np.empty((len(stack.ids), total + 1), dtype=np.intp)
    faults = np.zeros(len(stack.ids), dtype=int)
    for k in set(num_arms.tolist()):
        group = np.flatnonzero(num_arms == k)
        arms = first_arm[group, None] + np.arange(k)
        with np.errstate(divide="ignore", invalid="ignore"):  # SHORT_ARM
            chosen[group] = decide_kept(
                counts[arms].swapaxes(1, 2),
                sums[arms].swapaxes(1, 2),
                None if variances is None else variances[arms].swapaxes(1, 2),
                rule,
            )
    faults[(chosen == 0).any(axis=1)] = NO_FALLBACK
    arm = first_arm[:, None] + chosen[:, :total] - 1
    empty = (counts[arm, total] == counts[arm, np.arange(total)]).any(axis=1)
    faults[(faults == 0) & empty] = EMPTY_FOLD
    # An arm left with fewer units than the rule needs: one, two under a gate.
    short = (counts < 1 + (rule.gate != "none")).any(axis=1)
    faults[np.logical_or.reduceat(short, first_arm)] = SHORT_ARM
    return counts, chosen, faults


def fault_error(
    stack: ArmStack,
    counts: np.ndarray,
    chosen: np.ndarray,
    rule: DecisionRule,
    fold_counts: tuple[int, ...],
    i: int,
    fault: int,
) -> ValueError:
    """The error for experiment i's ``fold_decisions`` fault.  A short arm
    is the first in (fold, arm) order: DegenerateFoldError for a held-out
    fold, DegenerateArmError for the full data, which silent skips would
    turn into a biased estimate."""
    exp_id = stack.ids[i]
    if fault == NO_FALLBACK:
        return missing_fallback_error(rule, exp_id)
    if fault == EMPTY_FOLD:
        arm = stack.first_arm[i] + chosen[i, :-1] - 1
        t = np.flatnonzero(counts[arm, -1] == counts[arm, np.arange(len(arm))])[0]
        return DegenerateFoldError(
            f"experiment {exp_id!r}: {_fold_name(fold_counts, t)} "
            f"contains no units of the chosen arm {chosen[i, t]}"
        )
    min_units = 1 + (rule.gate != "none")
    kept = counts[stack.first_arm[i] : stack.first_arm[i + 1]].T
    t, k = np.argwhere(kept < min_units)[0]
    if t == len(kept) - 1:
        return DegenerateArmError(
            f"experiment {exp_id!r}: arm {k + 1} has {kept[t, k]} unit(s); "
            f"the significance gate needs >= 2"
        )
    return DegenerateFoldError(
        f"experiment {exp_id!r}: removing {_fold_name(fold_counts, t)} "
        f"leaves arm {k + 1} with {kept[t, k]} unit(s), needs >= {min_units}"
    )
