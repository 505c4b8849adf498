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
from dataclasses import dataclass

import numpy as np

from .estimators import (
    EstimatorConfig,
    aggregate,
    bootstrap_aggregates,
    per_experiment_rewards,
    percentile_interval,
)
from .experiments import ArmData, DecisionRule, ExperimentData, RewardSpec
from .simulator import ProxySpec, joint_proxy_model
from .streams import substream
from .tableio import write_csv_atomic

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

    def metric_index(self, name: str) -> int:
        """1-based index of a metric by name."""
        try:
            return self.metric_names.index(name) + 1
        except ValueError:
            raise KeyError(
                f"unknown metric {name!r}; corpus has {list(self.metric_names)}"
            ) from None


def ingest_csv(path: str, weights_path: str | None = None) -> ExperimentCorpus:
    """Load a corpus from CSV, validating the schema strictly.

    Errors name the offending file line and column.  Duplicate
    (experiment_id, arm, unit_id) triples, missing, non-numeric or
    non-finite cells, ragged rows, and non-contiguous arm indices are all
    rejected.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
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

        width = len(header)
        seen: set[tuple[str, int, str]] = set()
        grouped: dict[str, dict[int, list[tuple[str, list[float]]]]] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise CorpusFormatError(
                    f"{path}: line {line_no} has {len(row)} fields, "
                    f"header has {width}"
                )
            exp_id = row[0].strip()
            if not exp_id:
                raise CorpusFormatError(
                    f"{path}: line {line_no}: missing value in column "
                    f"'experiment_id'"
                )
            try:
                arm = int(row[1])
            except ValueError:
                raise CorpusFormatError(
                    f"{path}: line {line_no}: column 'arm' must be a positive "
                    f"integer, got {row[1]!r}"
                ) from None
            if arm < 1:
                raise CorpusFormatError(
                    f"{path}: line {line_no}: column 'arm' must be >= 1, got {arm}"
                )
            unit_id = row[2].strip()
            if not unit_id:
                raise CorpusFormatError(
                    f"{path}: line {line_no}: missing value in column 'unit_id'"
                )
            key = (exp_id, arm, unit_id)
            if key in seen:
                raise CorpusFormatError(
                    f"{path}: line {line_no}: duplicate unit "
                    f"(experiment_id={exp_id!r}, arm={arm}, unit_id={unit_id!r})"
                )
            seen.add(key)
            values = []
            for col, cell in zip(metric_names, row[3:]):
                cell = cell.strip()
                if cell == "":
                    raise CorpusFormatError(
                        f"{path}: line {line_no}: missing value in column {col!r}"
                    )
                try:
                    value = float(cell)
                except ValueError:
                    raise CorpusFormatError(
                        f"{path}: line {line_no}: column {col!r} is not "
                        f"numeric: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise CorpusFormatError(
                        f"{path}: line {line_no}: column {col!r} is not "
                        f"finite: {cell!r}"
                    )
                values.append(value)
            grouped.setdefault(exp_id, {}).setdefault(arm, []).append(
                (unit_id, values)
            )

    if not grouped:
        raise CorpusFormatError(f"{path}: no data rows")

    weights = _read_weights(weights_path, set(grouped)) if weights_path else {}

    experiments = []
    for exp_id in sorted(grouped):
        arms_dict = grouped[exp_id]
        arm_indices = sorted(arms_dict)
        if arm_indices != list(range(1, len(arm_indices) + 1)):
            raise CorpusFormatError(
                f"{path}: experiment {exp_id!r} has arm indices {arm_indices}; "
                f"they must be contiguous starting at 1 (1 = reference)"
            )
        arms = []
        for arm_index in arm_indices:
            units = sorted(arms_dict[arm_index], key=lambda item: item[0])
            arms.append(
                ArmData(
                    arm_index=arm_index,
                    units=np.array([v for _, v in units], dtype=float),
                )
            )
        experiments.append(
            ExperimentData(
                experiment_id=exp_id,
                arms=tuple(arms),
                weight=weights.get(exp_id, 1.0),
            )
        )
    return ExperimentCorpus(
        experiments=tuple(experiments),
        metric_names=metric_names,
        provenance=path,
    )


def _read_weights(path: str, known_ids: set[str]) -> dict[str, float]:
    weights: dict[str, float] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if header != ["experiment_id", "weight"]:
            raise CorpusFormatError(
                f"{path}: weight file header must be experiment_id,weight"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise CorpusFormatError(
                    f"{path}: line {line_no} has {len(row)} fields, expected 2"
                )
            exp_id = row[0].strip()
            if exp_id not in known_ids:
                raise CorpusFormatError(
                    f"{path}: line {line_no}: unknown experiment_id {exp_id!r}"
                )
            if exp_id in weights:
                raise CorpusFormatError(
                    f"{path}: line {line_no}: duplicate experiment_id {exp_id!r}"
                )
            try:
                w = float(row[1])
            except ValueError:
                raise CorpusFormatError(
                    f"{path}: line {line_no}: column 'weight' is not numeric: "
                    f"{row[1]!r}"
                ) from None
            if not math.isfinite(w):
                raise CorpusFormatError(
                    f"{path}: line {line_no}: column 'weight' is not finite: "
                    f"{row[1]!r}"
                )
            if w < 0:
                raise CorpusFormatError(
                    f"{path}: line {line_no}: column 'weight' must be nonnegative"
                )
            weights[exp_id] = w
    return weights


def write_corpus_csv(corpus: ExperimentCorpus, path: str) -> None:
    """Export a corpus in the ingestion schema (canonical unit ids)."""
    header = list(_FIXED_COLUMNS) + list(corpus.metric_names)
    rows = []
    for exp in corpus.experiments:
        for arm in exp.arms:
            for pos in range(arm.num_units):
                rows.append(
                    [exp.experiment_id, arm.arm_index, f"u{pos:06d}"]
                    + [float(v) for v in arm.units[pos]]
                )
    write_csv_atomic(path, header, rows)


def make_synthetic_corpus(
    num_experiments: int,
    units_per_arm: int,
    effect_sd_y: float,
    effect_sd_proxy: float,
    noise_sd_y: float,
    noise_sd_proxy: float,
    proxies: tuple[ProxySpec, ...],
    seed: int = 0,
    north_star_name: str = "north_star",
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
        metric_names=(north_star_name,) + tuple(p.name for p in proxies),
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
    """Per-rule estimates across estimators, with bootstrap intervals."""

    rows: tuple[RuleEstimateRow, ...]
    mode: str
    level: float
    baseline: str | None = None

    HEADER = (
        "rule",
        "estimator",
        "num_folds",
        "estimate",
        "ci_lower",
        "ci_upper",
        "normalized",
    )

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
        write_csv_atomic(
            path,
            list(self.HEADER),
            (
                [
                    row.rule,
                    row.estimator,
                    row.num_folds,
                    row.estimate,
                    row.ci_lower,
                    row.ci_upper,
                    row.normalized,
                ]
                for row in self.rows
            ),
        )


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
    """
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

    configs: list[tuple[str, int, EstimatorConfig]] = [
        ("naive", 0, EstimatorConfig(kind="naive", mode=mode))
    ]
    for p in fold_counts:
        configs.append(
            (
                "cv-kfold",
                int(p),
                EstimatorConfig(
                    kind="cv-kfold", num_folds=int(p), fold_seed=seed, mode=mode
                ),
            )
        )

    values: dict[tuple[str, str, int], float] = {}
    intervals: dict[tuple[str, str, int], tuple[float, float] | None] = {}
    for name, rule in rules:
        for estimator, num_folds, config in configs:
            key = (name, estimator, num_folds)
            contributions = per_experiment_rewards(exps, rule, reward, config)
            values[key] = aggregate(contributions, weights, mode)
            if can_bootstrap:
                rng = substream(seed, "evaluate", name, estimator, num_folds)
                draws, _ = bootstrap_aggregates(
                    contributions, weights, mode, bootstrap_replicates, rng
                )
                intervals[key] = percentile_interval(draws, level)
            else:
                intervals[key] = None

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
        for estimator, num_folds, _config in configs:
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
        rows=tuple(rows), mode=mode, level=level, baseline=baseline
    )
