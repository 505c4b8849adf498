"""Historical-experiment corpora: CSV ingestion, export, and rule evaluation.

The corpus CSV schema is one row per unit:

    experiment_id,arm,unit_id,<metric 1>,...,<metric J>

Arm values are positive integers with 1 as the reference arm; every
experiment must have contiguous arm indices starting at 1.  Row order is
irrelevant: units are canonicalized by sorting on unit_id within each arm,
and experiments by id, so estimator output does not depend on file layout.
An optional weight file (``experiment_id,weight``) is joined by id.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import (
    AGGREGATE_MODES,
    aggregate,
    batch_rewards,
    bootstrap_aggregates,
    check_count,
    percentile_interval,
)
from .experiments import ArmData, DecisionRule, ExperimentData, RewardSpec
from .simulator import ProxySpec, joint_proxy_model
from .streams import substream
from . import tableio
from .tableio import quote, write_rows_atomic

__all__ = [
    "CorpusFormatError",
    "EvaluationReport",
    "ExperimentCorpus",
    "RuleEstimateRow",
    "evaluate_rules",
    "ingest_csv",
    "make_synthetic_corpus",
    "write_corpus_csv",
]

_FIXED_COLUMNS = ("experiment_id", "arm", "unit_id")


class CorpusFormatError(ValueError):
    """The corpus or weight file violates the input schema."""


@dataclass(frozen=True)
class ExperimentCorpus:
    """A set of experiments sharing one metric schema."""

    experiments: tuple[ExperimentData, ...]
    metric_names: tuple[str, ...]
    provenance: str = ""

    def __post_init__(self) -> None:
        j = len(self.metric_names)
        if j < 1:
            raise CorpusFormatError("corpus needs at least one metric")
        for exp in self.experiments:
            if exp.num_metrics != j:
                raise CorpusFormatError(
                    f"experiment {exp.experiment_id!r} has {exp.num_metrics} "
                    f"metrics, corpus schema has {j}"
                )


def ingest_csv(path: str, weights_path: str | None = None) -> ExperimentCorpus:
    """Load a corpus from CSV, validating the schema strictly.

    Errors name the offending file line and column.  Duplicate
    (experiment_id, arm, unit_id) triples, missing, non-numeric or
    non-finite cells, ragged rows, and non-contiguous arm indices are all
    rejected.  NumPy's C parser reads every row in one call and the cells
    are checked in bulk.  When it rejects a row or a check fails, the rows
    are walked one by one with ``csv.reader``, ``int`` and ``float``: the
    walk names the first fault, or parses the file when only Python's
    number syntax accepts a cell (such as ``1_000``).  A leading UTF-8
    byte-order mark, in the corpus or the weight file, is skipped.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise CorpusFormatError(f"{path}: file is empty, header required")
        header = [h.strip() for h in header]
        if tuple(header[:3]) != _FIXED_COLUMNS:
            raise CorpusFormatError(
                f"{path}: header must start with {','.join(_FIXED_COLUMNS)}, "
                f"got {','.join(header[:3])}"
            )
        metric_names = tuple(header[3:])
        if not metric_names:
            raise CorpusFormatError(f"{path}: no metric columns in header")
        if len(set(metric_names)) != len(metric_names):
            raise CorpusFormatError(f"{path}: duplicate metric names in header")
        columns = _bulk_columns(fh, len(metric_names))
    if columns is None:
        columns = _walk_rows(path, header)
    ids, arms, units, values = columns

    new_exp = ids[1:] != ids[:-1]
    new_arm = new_exp | (arms[1:] != arms[:-1])
    exp_starts = np.flatnonzero(np.r_[True, new_exp, True])
    arm_starts = np.flatnonzero(np.r_[True, new_arm, True])
    exp_ids = ids[exp_starts[:-1]].tolist()
    weights = _read_weights(weights_path, set(exp_ids)) if weights_path else {}
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
        experiments.append(ExperimentData(exp_id, arms_data, weights.get(exp_id, 1.0)))
    return ExperimentCorpus(tuple(experiments), metric_names, provenance=path)


def _sorted_columns(ids, arms, units, values):
    """The rows' (ids, arms, units, values) sorted by (experiment_id, arm,
    unit_id), or None when a unit repeats."""
    order = np.lexsort((units, arms, ids))
    ids, arms, units = ids[order], arms[order], units[order]
    same_arm = (ids[1:] == ids[:-1]) & (arms[1:] == arms[:-1])
    if (same_arm & (units[1:] == units[:-1])).any():
        return None
    return ids, arms, units, np.ascontiguousarray(values[order])


def _bulk_columns(fh, num_metrics: int):
    """The data rows after the header, read by ``np.loadtxt`` and checked:
    ``_sorted_columns`` of them, or None when the parser rejects a row (a
    ragged or whitespace-only one, a cell it cannot convert) or a check
    fails.  Its cells are the ones ``csv.reader`` splits, and every number
    it accepts converts as ``int`` or ``float`` converts it.  Some NumPy
    releases from 1.23 on read an ``arm`` cell such as ``1.5`` as a float,
    truncate it and emit a DeprecationWarning: that warning is raised as
    an error here, so the walk rejects the cell as ``int`` does."""
    row = np.dtype([("id", object), ("arm", np.int64), ("unit", object),
                    ("values", float, (num_metrics,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: the walk says so
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(fh, dtype=row, delimiter=",", quotechar='"',
                               comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    if not len(table):
        return None
    ids = np.array([cell.strip() for cell in table["id"]])
    units = np.array([cell.strip() for cell in table["unit"]])
    arms, values = table["arm"], table["values"]
    if not ((ids != "").all() and (units != "").all() and arms.min() >= 1
            and np.isfinite(values).all()):
        return None
    return _sorted_columns(ids, arms, units, values)


def _walk_rows(path: str, header: list[str]):
    """Walk the data rows one by one: raise the first faulty row's error, in
    file order, else return them parsed as ``_sorted_columns`` does."""
    seen: set[tuple[str, int, str]] = set()
    rows = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            fault = row and _row_fault(row, header, seen)
            if fault:
                raise CorpusFormatError(f"{path}: line {line_no}{fault}")
            if row:
                rows.append(row)
    if not rows:
        raise CorpusFormatError(f"{path}: no data rows")
    try:
        arms = np.array([int(row[1]) for row in rows], dtype=np.int64)
    except OverflowError:
        raise CorpusFormatError(f"{path}: column 'arm' is out of range") from None
    return _sorted_columns(
        np.array([row[0].strip() for row in rows]),
        arms,
        np.array([row[2].strip() for row in rows]),
        np.array([[float(cell) for cell in row[3:]] for row in rows]),
    )


def _row_fault(row: list[str], header: list[str], seen: set) -> str | None:
    """What is wrong with one data row (the message after its line number)."""
    if len(row) != len(header):
        return f" has {len(row)} fields, header has {len(header)}"
    exp_id, unit_id = row[0].strip(), row[2].strip()
    if not exp_id:
        return ": missing value in column 'experiment_id'"
    try:
        arm = int(row[1])
    except ValueError:
        return f": column 'arm' must be a positive integer, got {row[1]!r}"
    if arm < 1:
        return f": column 'arm' must be >= 1, got {arm}"
    if not unit_id:
        return ": missing value in column 'unit_id'"
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


def _read_weights(path: str, known_ids: set[str]) -> dict[str, float]:
    weights: dict[str, float] = {}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if header != ["experiment_id", "weight"]:
            raise CorpusFormatError(
                f"{path}: weight file header must be experiment_id,weight"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            exp_id, fault = row[0].strip(), None
            if len(row) != 2:
                fault = f" has {len(row)} fields, expected 2"
            elif exp_id not in known_ids:
                fault = f": unknown experiment_id {exp_id!r}"
            elif exp_id in weights:
                fault = f": duplicate experiment_id {exp_id!r}"
            else:
                try:
                    weights[exp_id] = w = float(row[1])
                except ValueError:
                    fault = f": column 'weight' is not numeric: {row[1]!r}"
                else:
                    if not math.isfinite(w):
                        fault = f": column 'weight' is not finite: {row[1]!r}"
                    elif w < 0:
                        fault = ": column 'weight' must be nonnegative"
            if fault:
                raise CorpusFormatError(f"{path}: line {line_no}{fault}")
    return weights


def write_corpus_csv(corpus: ExperimentCorpus, path: str) -> None:
    """Export a corpus in the ingestion schema (canonical unit ids).

    Each arm is one ``%`` over its positions and values with a row template
    holding the experiment id and arm; ``"%.17g" % v == format(v, ".17g")``.
    """
    row = ",u%06d" + ",%.17g" * len(corpus.metric_names) + "\n"
    text = [",".join(map(quote, (*_FIXED_COLUMNS, *corpus.metric_names))) + "\n"]
    for exp in corpus.experiments:
        prefix = quote(exp.experiment_id).replace("%", "%%")
        for arm in exp.arms:
            cells = np.column_stack([np.arange(arm.num_units), arm.units])
            text.append(
                (f"{prefix},{arm.arm_index}{row}" * arm.num_units)
                % tuple(cells.ravel().tolist())
            )
    # Through the module, so a wrapper of it (the benchmark tracer) sees it.
    tableio.write_text_atomic(path, "".join(text))


def make_synthetic_corpus(
    num_experiments: int,
    units_per_arm: int,
    effect_sd_y: float,
    effect_sd_proxy: float,
    noise_sd_y: float,
    noise_sd_proxy: float,
    proxies: tuple[ProxySpec, ...],
    seed: int = 0,
) -> tuple[ExperimentCorpus, np.ndarray]:
    """Generate a unit-level corpus from the joint Gaussian model.

    Metrics are the north star followed by one column per proxy; each
    experiment has a control arm centered at zero and a treatment arm
    centered at the drawn true-effect vector.  Returns the corpus and the
    (num_experiments, 1 + len(proxies)) matrix of true effects.
    """
    from .closed_form import EffectModel

    base = EffectModel.from_correlations(
        effect_sd_y=effect_sd_y,
        effect_sd_proxy=effect_sd_proxy,
        effect_corr=0.0,
        noise_sd_y=noise_sd_y,
        noise_sd_proxy=noise_sd_proxy,
        noise_corr=0.0,
        units_per_arm=units_per_arm,
        num_experiments=num_experiments,
    )
    effect_chol, noise_chol = joint_proxy_model(base, tuple(proxies))
    n_metrics = 1 + len(proxies)
    width = len(str(max(num_experiments - 1, 1)))
    experiments = []
    effects = np.empty((num_experiments, n_metrics))
    for i in range(num_experiments):
        rng = substream(seed, "corpus", i)
        tau = effect_chol @ rng.standard_normal(n_metrics)
        effects[i] = tau
        control = rng.standard_normal((units_per_arm, n_metrics)) @ noise_chol.T
        treatment = tau + rng.standard_normal((units_per_arm, n_metrics)) @ noise_chol.T
        experiments.append(
            ExperimentData(
                experiment_id=f"exp{i:0{width}d}",
                arms=(
                    ArmData(arm_index=1, units=control),
                    ArmData(arm_index=2, units=treatment),
                ),
            )
        )
    corpus = ExperimentCorpus(
        experiments=tuple(experiments),
        metric_names=("north_star",) + tuple(p.name for p in proxies),
        provenance=f"synthetic(seed={seed})",
    )
    return corpus, effects


@dataclass(frozen=True)
class RuleEstimateRow:
    rule: str
    estimator: str
    num_folds: int
    estimate: float
    ci_lower: float | None
    ci_upper: float | None
    normalized: float | None = None


@dataclass(frozen=True)
class EvaluationReport:
    """Per-rule estimates across estimators, with bootstrap intervals.

    ``bootstrap_redraws`` counts the zero-weight resamples redrawn over all
    rows' bootstraps (mean mode only; deterministic given the seed).
    """

    rows: tuple[RuleEstimateRow, ...]
    mode: str
    level: float
    baseline: str | None = None
    bootstrap_redraws: int = 0

    def value(self, rule: str, estimator: str, num_folds: int = 0) -> float:
        for row in self.rows:
            if (
                row.rule == rule
                and row.estimator == estimator
                and row.num_folds == num_folds
            ):
                return row.estimate
        raise KeyError(f"no row for ({rule!r}, {estimator!r}, {num_folds})")

    def write_csv(self, path: str) -> None:
        write_rows_atomic(path, RuleEstimateRow, self.rows)


def evaluate_rules(
    corpus: ExperimentCorpus,
    rules: list[tuple[str, DecisionRule]],
    reward: RewardSpec,
    fold_counts: tuple[int, ...] = (2, 5, 10, 20),
    bootstrap_replicates: int = 1000,
    level: float = 0.95,
    seed: int = 0,
    mode: str = "cumulative",
    baseline: str | None = None,
) -> EvaluationReport:
    """Estimate every rule's reward with the plug-in and k-fold estimators.

    Each rule gets one naive row plus one cross-validated row per fold
    count, each with an experiment-level percentile bootstrap interval.
    With ``baseline`` set, a normalized column scales every estimate by the
    baseline rule's naive estimate (which must be positive); normalization
    never changes rule ranking.

    Experiments are processed in experiment-id order regardless of their
    order in the corpus, so the report does not depend on input layout.
    Raises ValueError for a ``mode`` outside ``AGGREGATE_MODES``, a
    ``level`` outside (0, 1), fewer than one bootstrap replicate, or fold
    counts that are not distinct integers >= 2.
    """
    if mode not in AGGREGATE_MODES:
        raise ValueError(f"mode must be one of {AGGREGATE_MODES}, got {mode!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    if bootstrap_replicates < 1:
        raise ValueError(
            f"bootstrap_replicates must be >= 1, got {bootstrap_replicates!r}"
        )
    fold_counts = tuple(
        check_count(f"fold_counts[{i}]", p, 2) for i, p in enumerate(fold_counts)
    )
    if len(set(fold_counts)) != len(fold_counts):
        raise ValueError(f"fold_counts must be distinct, got {fold_counts!r}")
    names = [name for name, _ in rules]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate rule names: {names}")
    if baseline is not None and baseline not in names:
        raise ValueError(f"baseline {baseline!r} is not a configured rule")
    j = len(corpus.metric_names)
    for name, rule in rules:
        if rule.blend.shape != (j,):
            raise ValueError(
                f"rule {name!r}: blend has length {rule.blend.shape[0]}, "
                f"corpus has {j} metrics"
            )
        for g in rule.gate_blends():
            if g.shape != (j,):
                raise ValueError(
                    f"rule {name!r}: gate blend has length {g.shape[0]}, "
                    f"corpus has {j} metrics"
                )
    exps = sorted(corpus.experiments, key=lambda e: e.experiment_id)
    weights = np.array([e.weight for e in exps])
    can_bootstrap = len(exps) >= 2

    keys = [("naive", 0)] + [("cv-kfold", p) for p in fold_counts]
    batch = batch_rewards(exps, [rule for _, rule in rules], reward, fold_counts, seed)
    contributions = {
        (name, *key): column
        for (name, _), per_key in zip(rules, batch)
        for key, column in zip(keys, per_key)
    }

    values: dict[tuple[str, str, int], float] = {}
    intervals: dict[tuple[str, str, int], tuple[float, float] | None] = {}
    redraws = 0
    for key, column in contributions.items():
        values[key], intervals[key] = aggregate(column, weights, mode), None
        if can_bootstrap:
            rng = substream(seed, "evaluate", *key)
            draws, count = bootstrap_aggregates(
                column, weights, mode, bootstrap_replicates, rng
            )
            intervals[key] = percentile_interval(draws, level)
            redraws += count

    scale = None
    if baseline is not None:
        scale = values[(baseline, "naive", 0)]
        if not scale > 0:
            raise ValueError(
                f"baseline rule {baseline!r} has non-positive naive estimate "
                f"{scale}; normalization needs a positive baseline"
            )

    rows = []
    for name, _ in rules:
        for estimator, num_folds in keys:
            key = (name, estimator, num_folds)
            ci = intervals[key]
            rows.append(
                RuleEstimateRow(
                    rule=name,
                    estimator=estimator,
                    num_folds=num_folds,
                    estimate=values[key],
                    ci_lower=ci[0] if ci else None,
                    ci_upper=ci[1] if ci else None,
                    normalized=values[key] / scale if scale else None,
                )
            )
    return EvaluationReport(
        rows=tuple(rows), mode=mode, level=level, baseline=baseline,
        bootstrap_redraws=redraws,
    )
