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
import os
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import (
    AGGREGATE_MODES,
    aggregate,
    batch_rewards,
    bootstrap_aggregates,
    percentile_interval,
)
from .experiments import ArmStack, DecisionRule, ExperimentData, RewardSpec, check_count
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


class ExperimentCorpus:
    """A set of experiments sharing one metric schema, stored as one
    ``ArmStack`` (``stack``): every arm's units in one (units, metrics)
    array, with arm sizes, arm starts, each experiment's first arm, ids and
    weights.

    ``experiments`` is a sequence of ``ExperimentData``, stacked once in
    the order given, or an ``ArmStack`` to store as it is: ``ingest_csv``
    and ``make_synthetic_corpus`` build theirs directly, in id order.
    ``experiments`` is built from the stack on each access, with arms that
    are views of its units.
    """

    def __init__(
        self,
        experiments: ArmStack | Sequence[ExperimentData],
        metric_names: Sequence[str],
        provenance: str = "",
    ) -> None:
        j = len(metric_names)
        if j < 1:
            raise CorpusFormatError("corpus needs at least one metric")
        if not isinstance(experiments, ArmStack):
            for exp in experiments:
                if exp.num_metrics != j:
                    raise CorpusFormatError(
                        f"experiment {exp.experiment_id!r} has {exp.num_metrics} "
                        f"metrics, corpus schema has {j}"
                    )
            experiments = ArmStack.of(experiments)
        self.stack, self.metric_names, self.provenance = (
            experiments, tuple(metric_names), provenance)

    @property
    def experiments(self) -> tuple[ExperimentData, ...]:
        return self.stack.experiments()


def ingest_csv(path: str, weights_path: str | None = None) -> ExperimentCorpus:
    """Load a corpus from CSV, validating the schema strictly.

    Errors name the offending file line and column.  Duplicate
    (experiment_id, arm, unit_id) triples, missing, non-numeric or
    non-finite cells, NUL characters in id cells, ragged rows, and
    non-contiguous arm indices are all rejected.  NumPy's C parser reads
    every row in one call, the cells are checked in bulk, and the rows are
    sorted only when they are not already in (experiment_id, arm, unit_id)
    order.  When it rejects a row or a check fails, the rows are walked one
    by one with ``csv.reader``, ``int`` and ``float``: the walk names the
    first fault, or parses the file when only Python's number syntax
    accepts a cell (such as ``1_000``).  A leading UTF-8 byte-order mark,
    in the corpus or the weight file, is skipped.  The sorted rows are the
    corpus's ``ArmStack``; no per-arm object is built.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        raw_header = next(csv.reader(fh), None)
        if raw_header is None:
            raise CorpusFormatError(f"{path}: file is empty, header required")
        header = [h.strip() for h in raw_header]
        if tuple(header[:3]) != _FIXED_COLUMNS:
            raise CorpusFormatError(
                f"{path}: header must start with {','.join(_FIXED_COLUMNS)}, "
                f"got {','.join(header[:3])}"
            )
        metric_names = tuple(header[3:])
        if not metric_names:
            raise CorpusFormatError(f"{path}: no metric columns in header")
        if "" in metric_names:
            raise CorpusFormatError(
                f"{path}: header column {metric_names.index('') + 4} has an "
                f"empty metric name"
            )
        if len(set(metric_names)) != len(metric_names):
            raise CorpusFormatError(f"{path}: duplicate metric names in header")
        header_lines = 1 + "".join(raw_header).count("\n")
        columns = _bulk_columns(path, fh, header_lines, len(metric_names))
    if columns is None:
        columns = _walk_rows(path, header)
    ids, arms, units, values = columns

    new_exp = ids[1:] != ids[:-1]
    starts = np.flatnonzero(np.r_[True, new_exp | (arms[1:] != arms[:-1]), True])
    first_arm = np.flatnonzero(np.r_[True, new_exp[starts[1:-1] - 1], True])
    num_arms, arm_index = np.diff(first_arm), arms[starts[:-1]]
    exp_ids = ids[starts[first_arm[:-1]]]
    bad = arm_index != np.arange(len(arm_index)) + 1 - np.repeat(first_arm[:-1], num_arms)
    if bad.any():
        i = np.searchsorted(first_arm, bad.argmax(), side="right") - 1
        raise CorpusFormatError(
            f"{path}: experiment {exp_ids[i].item()!r} has arm indices "
            f"{arm_index[first_arm[i] : first_arm[i + 1]].tolist()}; "
            f"they must be contiguous starting at 1 (1 = reference)"
        )
    weights = _read_weights(weights_path, exp_ids) if weights_path else np.ones(len(exp_ids))
    stack = ArmStack.from_sizes(values, np.diff(starts), num_arms, exp_ids.tolist(), weights)
    return ExperimentCorpus(stack, metric_names, provenance=path)


def _sorted_columns(ids, arms, units, values):
    """The rows' (ids, arms, units, values) in (experiment_id, arm,
    unit_id) order, or None when a unit repeats.  One vectorized pass
    checks the order; ``np.lexsort`` runs only when the rows are out of
    it."""
    same_id = ids[1:] == ids[:-1]
    same_arm = same_id & (arms[1:] == arms[:-1])
    ordered = (ids[1:] > ids[:-1]) | same_id & (
        (arms[1:] > arms[:-1]) | same_arm & (units[1:] >= units[:-1]))
    if not ordered.all():
        order = np.lexsort((units, arms, ids))
        ids, arms, units, values = ids[order], arms[order], units[order], values[order]
        same_arm = (ids[1:] == ids[:-1]) & (arms[1:] == arms[:-1])
    if (same_arm & (units[1:] == units[:-1])).any():
        return None
    return ids, arms, units, np.ascontiguousarray(values)


def _bulk_columns(path: str, fh, header_lines: int, num_metrics: int):
    """The data rows after the header, read by ``np.loadtxt`` and checked:
    ``_sorted_columns`` of them, or None when the parser rejects a row (a
    ragged or whitespace-only one, a cell it cannot convert) or a check
    fails.  Its cells are the ones ``csv.reader`` splits, and every number
    it accepts converts as ``int`` or ``float`` converts it.  Some NumPy
    releases from 1.23 on read an ``arm`` cell such as ``1.5`` as a float,
    truncate it and emit a DeprecationWarning: that warning is raised as
    an error here, so the walk rejects the cell as ``int`` does.  A NumPy
    string array drops a trailing NUL character, which would merge two
    ids, so a file holding a NUL is left to the walk.

    ``np.loadtxt`` reads a file it opens itself from its path in chunks,
    faster than it reads the lines of ``fh`` (the rest of the file after
    the header's ``header_lines`` lines).  It opens the path with universal
    newlines, which turn a quoted ``\r`` into ``\n``, and decompresses by
    file extension, so a file holding a ``\r``, or named as compressed, is
    read from ``fh``."""
    with open(path, "rb") as raw:
        data = raw.read()
    if b"\0" in data:
        return None
    source, skip = os.path.abspath(path), header_lines
    if b"\r" in data or source.endswith((".gz", ".bz2", ".xz", ".lzma")):
        source, skip = fh, 0
    del data
    row = np.dtype([("id", object), ("arm", np.int64), ("unit", object),
                    ("values", float, (num_metrics,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: the walk says so
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(source, dtype=row, delimiter=",", quotechar='"',
                               comments=None, ndmin=1, skiprows=skip,
                               encoding="utf-8-sig")
    except (ValueError, DeprecationWarning):
        return None
    if not len(table):
        return None
    ids, units = np.char.strip(np.array([table["id"], table["unit"]], dtype=str))
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
    return _sorted_columns(
        np.array([row[0].strip() for row in rows]),
        np.array([int(row[1]) for row in rows], dtype=np.int64),
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
    if "\0" in exp_id:
        return f": column 'experiment_id' holds a NUL character: {exp_id!r}"
    try:
        arm = int(row[1])
    except ValueError:
        return f": column 'arm' must be a positive integer, got {row[1]!r}"
    if arm < 1:
        return f": column 'arm' must be >= 1, got {arm}"
    if arm >= 1 << 63:
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


def _read_weights(path: str, ids: np.ndarray) -> np.ndarray:
    """The weight of each of the sorted ``ids``, 1.0 where the weight file
    has none: the file's ids are joined with one ``np.searchsorted``."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if header != ["experiment_id", "weight"]:
            raise CorpusFormatError(
                f"{path}: weight file header must be experiment_id,weight"
            )
        rows = [(line_no, row) for line_no, row in enumerate(reader, start=2) if row]
    slots = np.searchsorted(ids, np.array([row[0].strip() for _, row in rows], dtype=str))
    weights = np.full(len(ids), np.nan)  # NaN: not given yet
    for (line_no, row), i in zip(rows, slots.tolist()):
        exp_id, fault = row[0].strip(), None
        if len(row) != 2:
            fault = f" has {len(row)} fields, expected 2"
        elif i == len(ids) or ids[i] != exp_id:
            fault = f": unknown experiment_id {exp_id!r}"
        elif not np.isnan(weights[i]):
            fault = f": duplicate experiment_id {exp_id!r}"
        else:
            try:
                weights[i] = w = float(row[1])
            except ValueError:
                fault = f": column 'weight' is not numeric: {row[1]!r}"
            else:
                if not math.isfinite(w):
                    fault = f": column 'weight' is not finite: {row[1]!r}"
                elif w < 0:
                    fault = ": column 'weight' must be nonnegative"
        if fault:
            raise CorpusFormatError(f"{path}: line {line_no}{fault}")
    return np.where(np.isnan(weights), 1.0, weights)


def write_corpus_csv(corpus: ExperimentCorpus, path: str) -> None:
    """Export a corpus in the ingestion schema (canonical unit ids).

    Each arm of the stack is one ``%`` over its positions and values with a
    row template holding the experiment id and arm; ``"%.17g" % v ==
    format(v, ".17g")``.
    """
    stack = corpus.stack
    row = ",u%06d" + ",%.17g" * len(corpus.metric_names) + "\n"
    text = [",".join(map(quote, (*_FIXED_COLUMNS, *corpus.metric_names))) + "\n"]
    starts = stack.starts.tolist()
    for (exp_id, k), lo, hi in zip(stack.arm_keys(), starts, starts[1:]):
        cells = np.column_stack([np.arange(hi - lo), stack.units[lo:hi]])
        text.append((f"{quote(exp_id).replace('%', '%%')},{k}{row}" * (hi - lo))
                    % tuple(cells.ravel().tolist()))
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
    (num_experiments, 1 + len(proxies)) matrix of true effects.  Every
    arm's draw is multiplied into its slice of one (experiments, 2, units,
    metrics) array, which the corpus's stack holds.
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
    n, m, j = num_experiments, units_per_arm, 1 + len(proxies)
    units = np.empty((n, 2, m, j))
    effects = np.empty((n, j))
    for i in range(n):
        rng = substream(seed, "corpus", i)
        effects[i] = effect_chol @ rng.standard_normal(j)
        np.matmul(rng.standard_normal((m, j)), noise_chol.T, out=units[i, 0])
        np.matmul(rng.standard_normal((m, j)), noise_chol.T, out=units[i, 1])
        units[i, 1] += effects[i]
    width = len(str(max(n - 1, 1)))
    ids = [f"exp{i:0{width}d}" for i in range(n)]
    stack = ArmStack.from_sizes(units.reshape(2 * n * m, j), [m] * 2 * n, [2] * n, ids, np.ones(n))
    names = ("north_star",) + tuple(p.name for p in proxies)
    return ExperimentCorpus(stack, names, provenance=f"synthetic(seed={seed})"), effects


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
    ``level`` outside (0, 1), a replicate count that is not an integer
    >= 1, or fold counts that are not distinct integers >= 2.
    """
    if mode not in AGGREGATE_MODES:
        raise ValueError(f"mode must be one of {AGGREGATE_MODES}, got {mode!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    bootstrap_replicates = check_count("bootstrap_replicates", bootstrap_replicates, 1)
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
        for what, g in [("blend", rule.blend)] + [("gate blend", g) for g in rule.gate_blends()]:
            if g.shape != (j,):
                raise ValueError(
                    f"rule {name!r}: {what} has length {g.shape[0]}, corpus has {j} metrics"
                )
    stack = corpus.stack
    # Only an in-memory corpus can be out of id order.
    if any(a > b for a, b in zip(stack.ids, stack.ids[1:])):
        stack = ArmStack.of(sorted(corpus.experiments, key=lambda e: e.experiment_id))
    weights = stack.weights
    can_bootstrap = len(stack.ids) >= 2

    keys = [("naive", 0)] + [("cv-kfold", p) for p in fold_counts]
    batch = batch_rewards(stack, [rule for _, rule in rules], reward, fold_counts, seed)
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

    rows = [  # rule by rule, as ``contributions`` holds them
        RuleEstimateRow(*key, values[key], *(intervals[key] or (None, None)),
                        normalized=values[key] / scale if scale else None)
        for key in contributions
    ]
    return EvaluationReport(
        rows=tuple(rows), mode=mode, level=level, baseline=baseline,
        bootstrap_redraws=redraws,
    )
