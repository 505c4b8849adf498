"""Unit-level reference implementation of the decision rule and estimators.

This is the straightforward version of what ``ruleval`` computes with its
vectorized decision kernel: every held-out fold or subset rebuilds a
smaller ``ExperimentData`` and decides on it from per-arm means and
standard errors.  Tests compare the library against it.  It also keeps
the unit-level draw of the simulator's Gaussian model (``draw_experiment``),
whose fold-mean law the fast path samples directly, the k-fold producer
written one experiment at a time (``batch_rewards``), whose sums the
corpus-wide one must reproduce bit for bit, the per-(arm, fold) sums on
one global bin per unit and partition (``fold_sums``), the leave-l-out
estimators written the same way (``leave_l_out_rewards``), and the
row-by-row ``csv.reader`` corpus parser (``ingest_csv``).

Folds are given as labels: a dict from arm index to each unit's fold in
1..P.  ``fold_labels`` draws the ones the library's k-fold estimate uses
from its own ``substream`` calls, one per arm, independent of the
library's batch seeding (``arm_permutations``), and ``cv_fold_rewards``
scores any labels through the library's k-fold table,
``estimators._fold_table``.
"""

import csv
import math
from itertools import combinations

import numpy as np
from scipy import stats

from ruleval import (
    ArmData,
    DecisionRule,
    DegenerateArmError,
    DegenerateFoldError,
    EffectModel,
    CorpusFormatError,
    ExperimentCorpus,
    ExperimentData,
)
from ruleval.estimators import _fold_table
from ruleval.experiments import (
    ArmStack,
    _fold_name,
    blend_matrix,
    decide_kept,
    sample_variance,
    stacked_blend_values,
)
from ruleval.simulator import cov_factor
from ruleval.streams import substream
from ruleval.tableio import write_csv_atomic


def blend_mean_and_se(arm: ArmData, blend: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of the blended outcome over an arm.

    The standard error uses the unbiased sample variance (divisor M - 1),
    so the arm must have at least two units.
    """
    blend = np.asarray(blend, dtype=float)
    if blend.shape != (arm.num_metrics,):
        raise ValueError(
            f"blend has shape {blend.shape}, expected ({arm.num_metrics},)"
        )
    m = arm.num_units
    if m < 2:
        raise DegenerateArmError(
            f"arm {arm.arm_index} has {m} unit(s); standard error needs >= 2"
        )
    values = arm.units @ blend
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(m))
    return mean, se


def _z_statistic(mean_k: float, se_k: float, mean_ref: float, se_ref: float) -> float:
    diff = mean_k - mean_ref
    denom = float(np.hypot(se_k, se_ref))
    if denom == 0.0:
        if diff == 0.0:
            return 0.0
        return float(np.inf) if diff > 0 else float(-np.inf)
    return diff / denom


def significance_set(exp: ExperimentData, rule: DecisionRule) -> set[int]:
    """Arms whose gate blends beat the reference arm (two-sample z-test)."""
    for arm in exp.arms:
        if arm.num_units < 2:
            raise DegenerateArmError(
                f"experiment {exp.experiment_id!r}: arm {arm.arm_index} has "
                f"{arm.num_units} unit(s); the significance gate needs >= 2"
            )
    if rule.gate_sides == "one-sided-greater":
        crit = float(stats.norm.isf(rule.gate_alpha))
    else:
        crit = float(stats.norm.isf(rule.gate_alpha / 2.0))
    ref = exp.arm(1)
    gate_stats = [(b, *blend_mean_and_se(ref, b)) for b in rule.gate_blends()]
    members: set[int] = set()
    for arm in exp.arms[1:]:
        passed = []
        for blend, ref_mean, ref_se in gate_stats:
            z = _z_statistic(*blend_mean_and_se(arm, blend), ref_mean, ref_se)
            passed.append(abs(z) > crit if rule.gate_sides == "two-sided" else z > crit)
        if all(passed) if rule.gate_combine == "all" else any(passed):
            members.add(arm.arm_index)
    return members


def decide(exp: ExperimentData, rule: DecisionRule) -> int:
    """Argmax of blend means, over the significance set when gated."""
    means = np.array([float((arm.units @ rule.blend).mean()) for arm in exp.arms])
    if rule.gate == "none":
        return int(np.argmax(means)) + 1
    eligible = significance_set(exp, rule)
    if not eligible:
        return rule.fallback_arm
    best, best_mean = None, -np.inf
    for k in sorted(eligible):
        if means[k - 1] > best_mean:
            best, best_mean = k, means[k - 1]
    return int(best)


def arm_permutations(exp: ExperimentData, seed: int) -> list[np.ndarray]:
    """Each arm's permutation of its unit positions, drawn from its own
    ``substream(seed, "folds", id, arm)``, one call per arm."""
    return [substream(seed, "folds", exp.experiment_id, arm.arm_index).permutation(arm.num_units)
            for arm in exp.arms]


def fold_labels(exp: ExperimentData, num_folds: int, seed: int) -> dict[int, np.ndarray]:
    """Each arm's fold labels in 1..num_folds as the k-fold estimate draws
    them: unit i of an arm with permutation ``perm`` is in fold ``perm[i] %
    num_folds + 1``."""
    return {
        arm.arm_index: perm % num_folds + 1
        for arm, perm in zip(exp.arms, arm_permutations(exp, seed))
    }


def cv_fold_rewards(
    exp: ExperimentData, rule: DecisionRule, reward, labels: dict, num_folds: int
) -> np.ndarray:
    """(num_folds,) the library's reward of the decision made without each
    fold, measured on that fold's units of the chosen arm, for any fold
    labels: less one, they are the fold labels of ``estimators._fold_table``."""
    folds = np.concatenate([labels[arm.arm_index] - 1 for arm in exp.arms])[None]
    table = _fold_table(ArmStack.of([exp]), [rule], reward, folds, (num_folds,))
    return table[0, 0, :num_folds]


def remove_fold(
    exp: ExperimentData, labels: dict, held_out: int, min_units: int
) -> ExperimentData:
    """Experiment with the held-out fold's units removed from every arm."""
    arms = []
    for arm in exp.arms:
        keep = labels[arm.arm_index] != held_out
        if int(keep.sum()) < min_units:
            raise DegenerateFoldError(
                f"removing fold {held_out} leaves arm {arm.arm_index} with "
                f"{int(keep.sum())} unit(s)"
            )
        arms.append(ArmData(arm.arm_index, arm.units[keep]))
    return ExperimentData(exp.experiment_id, tuple(arms), weight=exp.weight)


def _min_units(rule: DecisionRule) -> int:
    return 2 if rule.gate == "significant-vs-reference" else 1


def decide_on_fold(
    exp: ExperimentData, rule: DecisionRule, labels: dict, held_out: int
) -> int:
    return decide(remove_fold(exp, labels, held_out, _min_units(rule)), rule)


def naive_reward(exp: ExperimentData, rule: DecisionRule, reward_w: np.ndarray) -> float:
    return float((exp.arm(decide(exp, rule)).units @ reward_w).mean())


def kfold_reward(
    exp: ExperimentData,
    rule: DecisionRule,
    reward_w: np.ndarray,
    labels: dict,
    num_folds: int,
) -> float:
    """Mean over folds of the held-out fold reward of the chosen arm."""
    values = []
    for p in range(1, num_folds + 1):
        chosen = decide_on_fold(exp, rule, labels, p)
        mask = labels[chosen] == p
        values.append(float((exp.arm(chosen).units @ reward_w)[mask].mean()))
    return float(np.mean(values))


def decide_without(exp: ExperimentData, rule: DecisionRule, subset) -> int:
    """Decision with the given unit positions removed from every arm."""
    keep = np.ones(exp.arms[0].num_units, dtype=bool)
    keep[list(subset)] = False
    reduced = ExperimentData(
        exp.experiment_id,
        tuple(ArmData(a.arm_index, a.units[keep]) for a in exp.arms),
        weight=exp.weight,
    )
    return decide(reduced, rule)


def leave_l_out_sum(
    exp: ExperimentData,
    rule: DecisionRule,
    reward_w: np.ndarray,
    leave_out: int,
    subsets=None,
) -> float:
    """Sum over every size-l subset (or the given ``subsets``) of its
    held-out mean reward in the chosen arm."""
    if subsets is None:
        subsets = combinations(range(exp.arms[0].num_units), leave_out)
    total = 0.0
    for subset in subsets:
        chosen = decide_without(exp, rule, subset)
        total += float((exp.arm(chosen).units @ reward_w)[list(subset)].mean())
    return total


def leave_l_out_rewards(exps, rule, reward, config) -> np.ndarray:
    """``per_experiment_rewards`` for the two leave-l-out kinds, one
    experiment and one subset at a time.  An experiment with more than
    ``max_folds`` subsets (default 10,000 for l >= 2) draws that many from
    its own ``substream(fold_seed, "leave-l-out", id, l)`` and scales
    their sum by C(m, l) / max_folds."""
    l = config.leave_out
    out = np.empty(len(exps))
    for i, exp in enumerate(exps):
        m = exp.arms[0].num_units
        num_subsets = math.comb(m, l)
        cap = config.max_folds or (num_subsets if l == 1 else 10_000)
        subsets = None
        if num_subsets > cap:
            rng = substream(config.fold_seed, "leave-l-out", exp.experiment_id, l)
            subsets = [rng.choice(m, size=l, replace=False) for _ in range(cap)]
        total = leave_l_out_sum(exp, rule, reward.weights(exp.num_metrics), l, subsets)
        if subsets is not None:
            total = num_subsets * total / cap
        if config.kind == "poisson-rescaled":
            out[i] = math.factorial(l) * total / config.m0**l
        else:
            out[i] = total / num_subsets
    return out


def bootstrap_loop(
    contributions: np.ndarray, weights: np.ndarray, mode: str, n_replicates: int, rng
) -> np.ndarray:
    """One resample per replicate, redrawing zero-weight resamples in place."""
    n = len(contributions)
    out = np.empty(n_replicates)
    for b in range(n_replicates):
        while True:
            idx = rng.integers(0, n, size=n)
            w = weights[idx]
            if mode == "cumulative" or w.sum() > 0:
                break
        total = np.sum(w * contributions[idx])
        out[b] = total if mode == "cumulative" else total / float(w.sum())
    return out


def write_corpus_csv(corpus: ExperimentCorpus, path: str) -> None:
    """Corpus export with one ``tableio.fmt`` call per cell."""
    header = ["experiment_id", "arm", "unit_id"] + list(corpus.metric_names)
    rows = []
    for exp in corpus.experiments:
        for arm in exp.arms:
            for pos in range(arm.num_units):
                rows.append(
                    [exp.experiment_id, arm.arm_index, f"u{pos:06d}"]
                    + [float(v) for v in arm.units[pos]]
                )
    write_csv_atomic(path, header, rows)


def simulate_estimates(
    effect_chol, noise_chol, noise_cov, m, num_folds, n, rules, psi, rng
) -> dict[str, np.ndarray]:
    """The fast path written over full fold-mean vectors: one (n, 2, P, J)
    draw, the noise transform, fold means, then one projection per rule.

    Draws the same stream as ``simulator._simulate_estimates``, which
    rewards metric 0 and derives the gate's unit variance from
    ``noise_chol``; this reference takes the reward ``psi`` and
    ``noise_cov`` as given, so it checks both.  Besides its three estimates,
    it returns
    each rule's full-data launch decisions (``launch``, (n, rules)) and
    held-out ones (``launch_loo``, (n, rules, P)).
    """
    n_metrics = effect_chol.shape[0]
    if m < num_folds:
        raise DegenerateFoldError(
            f"fast path needs units_per_arm >= num_folds, got {m} < {num_folds}"
        )
    sizes = np.bincount(np.arange(m) % num_folds)  # the first m % P folds are larger

    tau = rng.standard_normal((n, n_metrics)) @ effect_chol.T
    eps = rng.standard_normal((n, 2, num_folds, n_metrics)) @ noise_chol.T
    eps /= np.sqrt(sizes)[None, None, :, None]
    fold_means = eps
    fold_means[:, 1] += tau[:, None, :]
    arm_means = np.einsum("napj,p->naj", fold_means, sizes / m)

    true = tau @ psi
    naive = (arm_means[:, 0] @ psi, arm_means[:, 1] @ psi)
    fold_psi = fold_means @ psi  # (n, 2, P)
    full_counts = np.full(2, float(m))
    kept_counts = np.repeat((m - sizes)[:, None], 2, axis=1).astype(float)  # (P, 2)
    out = {key: np.empty((n, len(rules))) for key in ("true", "naive", "cv")}
    out["launch"] = np.empty((n, len(rules)), dtype=bool)
    out["launch_loo"] = np.empty((n, len(rules), num_folds), dtype=bool)
    for r, rule in enumerate(rules):
        matrix = blend_matrix(rule, n_metrics)
        variances = (
            None if rule.gate == "none" else np.diag(matrix.T @ noise_cov @ matrix)
        )
        projected = (fold_means.reshape(-1, n_metrics) @ matrix).reshape(
            n, 2, num_folds, -1
        )
        full_sums = (arm_means @ matrix) * m  # (n, 2, B)
        kept_sums = full_sums[:, :, None] - projected * sizes[:, None]
        launch = decide_kept(full_counts, full_sums, variances, rule) == 2
        launch_loo = decide_kept(  # (n, P), from an (n, P, 2, B) view
            kept_counts, kept_sums.transpose(0, 2, 1, 3), variances, rule
        ) == 2
        out["launch"][:, r] = launch
        out["launch_loo"][:, r] = launch_loo
        out["true"][:, r] = np.where(launch, true, 0.0)
        out["naive"][:, r] = np.where(launch, naive[1], naive[0])
        out["cv"][:, r] = np.where(
            launch_loo, fold_psi[:, 1, :], fold_psi[:, 0, :]
        ).mean(axis=1)
    return out


def draw_experiment(
    model: EffectModel,
    size_mode: str,
    rng: np.random.Generator,
    m0: float | None = None,
    experiment_id: str = "sim",
    counters: dict[str, int] | None = None,
) -> tuple[ExperimentData, tuple[float, float]]:
    """Draw one unit-level two-arm experiment and its true effects.

    Control units are centered at zero, treatment units at the drawn true
    effect vector; both share the model's unit-level noise covariance.  In
    poisson mode the per-arm unit count is drawn once per experiment; a
    draw of zero is rejected and redrawn (counted in ``counters`` under
    ``"zero_size_redraws"``) because no decision is defined on an empty
    experiment.
    """
    if size_mode == "fixed":
        m = model.units_per_arm
    elif size_mode == "poisson":
        if m0 is None or not m0 > 0:
            raise ValueError("poisson size mode needs m0 > 0")
        m = int(rng.poisson(m0))
        while m == 0:
            if counters is not None:
                counters["zero_size_redraws"] = counters.get("zero_size_redraws", 0) + 1
            m = int(rng.poisson(m0))
    else:
        raise ValueError(f"unknown size_mode {size_mode!r}")

    effect_chol = cov_factor(model.effect_cov)
    noise_chol = cov_factor(model.noise_cov)
    tau = effect_chol @ rng.standard_normal(2)
    control = rng.standard_normal((m, 2)) @ noise_chol.T
    treatment = tau + rng.standard_normal((m, 2)) @ noise_chol.T
    exp = ExperimentData(
        experiment_id=experiment_id,
        arms=(
            ArmData(arm_index=1, units=control),
            ArmData(arm_index=2, units=treatment),
        ),
    )
    return exp, (float(tau[0]), float(tau[1]))


def fold_sums(stack: ArmStack, columns: np.ndarray, folds: np.ndarray, fold_counts):
    """``experiments.fold_sums`` on one global (arm, fold) bin: unit u of
    arm a is in bin ``a * total + offset + folds[f, u]`` of partition f,
    whose folds are numbered after the earlier partitions' ones, and one
    bincount over a copy of the columns per partition gives every held-out
    sum."""
    num_arms, width, total = len(stack.sizes), len(columns), sum(fold_counts)
    size = num_arms * total
    offsets = np.cumsum((0,) + tuple(fold_counts))[:-1, None]
    bins = folds + offsets + np.repeat(np.arange(num_arms), stack.sizes) * total
    held = np.bincount(bins.ravel(), minlength=size).reshape(num_arms, total)
    index = (np.arange(width)[:, None] * size + bins.reshape(1, -1)).ravel()
    held_sums = np.bincount(index, np.tile(columns, len(bins)).ravel(), width * size)
    starts = stack.starts
    totals = np.stack([columns[:, a:b].sum(axis=1) for a, b in zip(starts, starts[1:])], axis=1)
    sizes = stack.sizes[:, None]
    return (np.hstack([sizes - held, sizes]), totals,
            held_sums.reshape(width, num_arms, total))


def fold_stats(
    exp: ExperimentData, rule: DecisionRule, bins: np.ndarray, fold_counts: tuple[int, ...]
):
    """One experiment's ``decide_kept`` inputs for every held-out fold, then
    the full data: counts (total + 1, K), blend sums (total + 1, K, B) and,
    gated, their sample variance.  ``bins`` is (partitions, units) over the
    arms' stacked units, ``(arm - 1) * total + fold``."""
    stack = ArmStack.of([exp])
    num_arms, total = exp.num_arms, sum(fold_counts)
    size = num_arms * total
    sizes = stack.sizes
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
    stacked = stacked_blend_values(stack, rule)
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


def fold_rewards(exp, rules, reward, bins, fold_counts) -> np.ndarray:
    """(rules, folds + 1): each rule's held-out fold rewards, then its
    plug-in reward, for one experiment, one kernel call per rule."""
    num_arms, total = exp.num_arms, sum(fold_counts)
    w = reward.weights(exp.num_metrics)
    rewards = np.concatenate([arm.units @ w for arm in exp.arms])
    held_rewards = np.bincount(
        bins.ravel(), np.tile(rewards, len(bins)), num_arms * total
    ).reshape(num_arms, total)
    bounds = np.cumsum([0] + [arm.num_units for arm in exp.arms])
    full_rewards = np.array([rewards[a:b].mean() for a, b in zip(bounds, bounds[1:])])
    fold = np.arange(total)
    out = np.empty((len(rules), total + 1))
    for r, rule in enumerate(rules):
        counts, sums, variances = fold_stats(exp, rule, bins, fold_counts)
        chosen = decide_kept(counts, sums, variances, rule) - 1
        if (chosen < 0).any():
            raise ValueError(
                f"fallback arm {rule.fallback_arm} does not exist in "
                f"experiment {exp.experiment_id!r}"
            )
        n = counts[-1, chosen[:total]] - counts[fold, chosen[:total]]
        if not n.all():
            t = np.flatnonzero(n == 0)[0]
            raise DegenerateFoldError(
                f"experiment {exp.experiment_id!r}: {_fold_name(fold_counts, t)} "
                f"contains no units of the chosen arm {chosen[t] + 1}"
            )
        out[r, :total] = held_rewards[chosen[:total], fold] / n
        out[r, total] = full_rewards[chosen[total]]
    return out


def batch_rewards(exps, rules, reward, fold_counts, fold_seed) -> np.ndarray:
    """``estimators.batch_rewards`` computed one experiment at a time."""
    periods = np.array(fold_counts, dtype=int)[:, None]
    offsets = np.cumsum((0,) + tuple(fold_counts))[:-1, None]
    total = sum(fold_counts)
    out = np.empty((len(rules), 1 + len(fold_counts), len(exps)))
    for i, exp in enumerate(exps):
        bins = np.empty((0, 0), dtype=np.intp)
        if fold_counts:
            bins = np.concatenate([
                perm % periods + offsets + k * total
                for k, perm in enumerate(arm_permutations(exp, fold_seed))
            ], axis=1)
        rewards = fold_rewards(exp, rules, reward, bins, fold_counts)
        out[:, 0, i] = rewards[:, -1]
        for f, (p, o) in enumerate(zip(fold_counts, offsets[:, 0])):
            out[:, 1 + f, i] = rewards[:, o : o + p].sum(axis=1) / p
    return out


FIXED_COLUMNS = ("experiment_id", "arm", "unit_id")


def ingest_csv(path: str) -> ExperimentCorpus:
    """The corpus parser of ``csv.reader`` rows, ``int`` and ``float``, checked in
    bulk, with a row walk that names the first fault.

    Errors name the offending file line and column.  Duplicate
    (experiment_id, arm, unit_id) triples, missing, non-numeric or
    non-finite cells, ragged rows, and non-contiguous arm indices are all
    rejected.  Cells are converted and checked in bulk; only when a check
    fails are the rows walked one by one to name the first fault.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusFormatError(f"{path}: file is empty, header required")
        header = [h.strip() for h in header]
        if tuple(header[:3]) != FIXED_COLUMNS:
            raise CorpusFormatError(
                f"{path}: header must start with {','.join(FIXED_COLUMNS)}, "
                f"got {','.join(header[:3])}"
            )
        metric_names = tuple(header[3:])
        if not metric_names:
            raise CorpusFormatError(f"{path}: no metric columns in header")
        if "" in metric_names:
            raise CorpusFormatError(f"{path}: header column "
                                    f"{metric_names.index('') + 4} has an empty metric name")
        if len(set(metric_names)) != len(metric_names):
            raise CorpusFormatError(f"{path}: duplicate metric names in header")
        rows = list(reader)

    data = rows if all(rows) else [row for row in rows if row]
    if not data:
        raise CorpusFormatError(f"{path}: no data rows")
    try:
        if set(map(len, data)) != {len(header)}:
            raise ValueError
        ids, arms, units, *cells = zip(*data)
        if "\0" in "".join(ids + units):  # a string array drops a trailing NUL
            raise ValueError
        ids = np.array(list(map(str.strip, ids)))
        units = np.array(list(map(str.strip, units)))
        arms = np.fromiter(map(int, map(str.strip, arms)), np.int64, len(data))
        values = np.array([np.fromiter(map(float, map(str.strip, c)), float, len(data))
                           for c in cells])
        if not ((ids != "").all() and (units != "").all() and arms.min() >= 1
                and np.isfinite(values).all()):
            raise ValueError
        order = np.lexsort((units, arms, ids))
        ids, arms, units = ids[order], arms[order], units[order]
        new_exp = ids[1:] != ids[:-1]
        new_arm = new_exp | (arms[1:] != arms[:-1])
        if not (new_arm | (units[1:] != units[:-1])).all():  # a duplicate unit
            raise ValueError
    except (ValueError, OverflowError):
        raise _first_fault(path, rows, header) from None

    values = np.ascontiguousarray(values.T[order])
    exp_starts = np.flatnonzero(np.r_[True, new_exp, True])
    arm_starts = np.flatnonzero(np.r_[True, new_arm, True])
    exp_ids = ids[exp_starts[:-1]].tolist()
    experiments = []
    for exp_id, a, b in zip(exp_ids, exp_starts, exp_starts[1:]):
        blocks = arm_starts[(arm_starts >= a) & (arm_starts <= b)]
        arm_indices = arms[blocks[:-1]].tolist()
        if arm_indices != list(range(1, len(arm_indices) + 1)):
            raise CorpusFormatError(
                f"{path}: experiment {exp_id!r} has arm indices {arm_indices}; "
                f"they must be contiguous starting at 1 (1 = reference)"
            )
        arms_data = tuple(
            ArmData(arm_index=k, units=values[lo:hi])
            for k, lo, hi in zip(arm_indices, blocks, blocks[1:])
        )
        experiments.append(ExperimentData(exp_id, arms_data))
    return ExperimentCorpus(tuple(experiments), metric_names)


def _first_fault(path: str, rows: list[list[str]], header: list[str]) -> Exception:
    """The error for the first faulty data row, in file order."""
    seen: set[tuple[str, int, str]] = set()
    for line_no, row in enumerate(rows, start=2):
        fault = row and _row_fault(row, header, seen)
        if fault:
            return CorpusFormatError(f"{path}: line {line_no}{fault}")
    return AssertionError(f"{path}: the bulk parse failed, but no row is faulty")


def _row_fault(row: list[str], header: list[str], seen: set) -> str | None:
    """What is wrong with one data row (the message after its line number)."""
    if len(row) != len(header):
        return f" has {len(row)} fields, header has {len(header)}"
    exp_id, unit_id = row[0].strip(), row[2].strip()
    if not exp_id:
        return ": missing value in column 'experiment_id'"
    if "\0" in exp_id:
        return f": column 'experiment_id' holds a NUL character: {exp_id!r}"
    try:
        arm = int(row[1].strip())
    except ValueError:
        return f": column 'arm' must be a positive integer, got {row[1]!r}"
    if arm < 1:
        return f": column 'arm' must be >= 1, got {arm}"
    if arm >= 2**63:
        return f": column 'arm' is out of range, got {arm}"
    if not unit_id:
        return ": missing value in column 'unit_id'"
    if "\0" in unit_id:
        return f": column 'unit_id' holds a NUL character: {unit_id!r}"
    if (exp_id, arm, unit_id) in seen:
        return (f": duplicate unit (experiment_id={exp_id!r}, arm={arm}, "
                f"unit_id={unit_id!r})")
    seen.add((exp_id, arm, unit_id))
    for col, cell in zip(header[3:], map(str.strip, row[3:])):
        if not cell:
            return f": missing value in column {col!r}"
        try:
            if not math.isfinite(float(cell)):
                return f": column {col!r} is not finite: {cell!r}"
        except ValueError:
            return f": column {col!r} is not numeric: {cell!r}"
    return None
