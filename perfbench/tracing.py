"""Outside-in tracing of ruleval's layers.

The tracer replaces module attributes of ruleval with timing wrappers for
the length of one traced pass, then puts the originals back.  Python looks
up module-level names at call time, so wrapping an attribute catches every
call made through that binding; a function imported into several modules
(``decide`` lives in both ``experiments`` and ``estimators``) is wrapped in
each.  A binding that a later version of the program no longer has is
skipped, and its metrics read zero.

Each wrapped call becomes a span (id, parent id, name, thread, start, end)
kept in memory and written out as JSON lines when the pass ends.  Self time
is a span's duration minus the time its child spans on the same thread
cover; self times are summed per layer, where the layer is the span name's
first component.  Spans started on a pool worker thread take the innermost
open span of the installing thread as their parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict

LAYERS = (
    "bench", "cli", "corpus", "tableio", "estimators", "experiments",
    "streams", "simulator", "figures",
)

# name -> (unit, better).  Every traced run reports all of them, with zero
# for layers the workload does not reach.
PER_LAYER = {
    "corpus.ingest_csv_s": ("s", "lower"),
    "corpus.ingest_rows_per_s": ("rows/s", "higher"),
    "corpus.make_synthetic_corpus_s": ("s", "lower"),
    "corpus.write_corpus_csv_s": ("s", "lower"),
    "corpus.evaluate_rules_s": ("s", "lower"),
    "tableio.write_csv_atomic_s": ("s", "lower"),
    "tableio.bytes_written": ("B", "lower"),
    "estimators.rewards.naive_s": ("s", "lower"),
    "estimators.rewards.cv-kfold_s": ("s", "lower"),
    "estimators.rewards.poisson-rescaled_s": ("s", "lower"),
    "estimators.rewards.gated_s": ("s", "lower"),
    "estimators.bootstrap_s": ("s", "lower"),
    "estimators.bootstrap_redraws": ("count", "lower"),
    "estimators.leave_l_out_s": ("s", "lower"),
    "estimators.subsets_scored": ("count", "lower"),
    "experiments.decide_calls": ("count", "lower"),
    "experiments.decide_s": ("s", "lower"),
    "experiments.us_per_decision": ("us", "lower"),
    "experiments.significance_set_s": ("s", "lower"),
    "experiments.remove_fold_calls": ("count", "lower"),
    "experiments.remove_fold_bytes_copied": ("B", "lower"),
    "experiments.assign_folds_calls": ("count", "lower"),
    "experiments.assign_folds_distinct_ratio": ("ratio", "higher"),
    "streams.substream_calls": ("count", "lower"),
    "streams.substream_s": ("s", "lower"),
    "simulator.chunks": ("count", "lower"),
    "simulator.chunk_s_p50": ("s", "lower"),
    "simulator.chunk_s_p90": ("s", "lower"),
    "simulator.simulate_estimates_s": ("s", "lower"),
    "simulator.reduce_s": ("s", "lower"),
    "simulator.normals_drawn": ("count", "lower"),
    "simulator.bytes_computed": ("B", "lower"),
    "simulator.flops_computed": ("flop", "lower"),
    "simulator.ops_per_byte_computed": ("flop/B", "higher"),
    "simulator.pool_busy_s": ("s", "lower"),
    "simulator.pool_wait_s": ("s", "lower"),
    "simulator.pool_utilization": ("ratio", "higher"),
    "simulator.rescaling_check_s": ("s", "lower"),
    "figures.run_figure_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import_scipy_stats_s": ("s", "lower"),
    **{f"self.{layer}_s": ("s", "lower") for layer in LAYERS},
    "trace.spans": ("count", "lower"),
    "trace.hook_errors": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Span recorder for one traced pass; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_by_name: dict[str, float] = defaultdict(float)
        self.self_by_layer: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.fold_keys: set = set()
        self.chunk_log: list[tuple[float, float]] = []
        self._pool_mark = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._home_stack: list = []
        self._patches: list[tuple] = []
        self.origin = time.perf_counter()

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _record(self, frame, parent, name, start, end, hook=None, call=None) -> None:
        duration = end - start
        own = duration - frame[1]
        with self._lock:
            self.spans.append((frame[0], parent, name, threading.get_ident(), start, end))
            self.total[name] += duration
            self.self_by_name[name] += own
            self.self_by_layer[name.split(".", 1)[0]] += own
            self.calls[name] += 1
            if hook is not None:
                try:
                    hook(self, call, start, duration)
                except (AttributeError, KeyError, TypeError, IndexError):
                    # The program changed the call's shape; count, don't fail.
                    self.counts["hook_errors"] += 1

    def _wrap(self, original, name, hook):
        tracer = self
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            home = tracer._home_stack
            parent = stack[-1][0] if stack else (home[-1][0] if home else 0)
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if stack:
                stack[-1][1] += end - start
            call = _Call(signature, args, kwargs, result) if hook else None
            tracer._record(frame, parent, name, start, end, hook, call)
            return result

        return wrapper

    def span(self, name: str):
        """Context manager for a span the benchmark itself opens."""
        return _Span(self, name)

    # -- patching ---------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every binding in ``BINDINGS`` that the program still has."""
        self._local.stack = self._home_stack
        for module_name, attr, name, hook in BINDINGS:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            setattr(module, attr, self._wrap(original, name, hook))
            self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as JSON lines: id, parent, name, thread, start and end in s."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, thread, start, end in self.spans:
                fh.write(
                    json.dumps(
                        [span_id, parent, name, thread,
                         round(start - self.origin, 9), round(end - self.origin, 9)]
                    )
                    + "\n"
                )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics except the import times and the overhead."""
        total, counts, calls = self.total, self.counts, self.calls
        ingest_s = total["corpus.ingest_csv"]
        decide_calls = calls["experiments.decide"]
        assign_calls = calls["experiments.assign_folds"]
        chunks = sorted(duration for _, duration in self.chunk_log)
        capacity = counts["pool_capacity_s"]
        flops, nbytes = counts["flops"], counts["bytes"]
        out = {
            "corpus.ingest_csv_s": ingest_s,
            "corpus.ingest_rows_per_s": counts["rows"] / ingest_s if ingest_s else 0.0,
            "corpus.make_synthetic_corpus_s": total["corpus.make_synthetic_corpus"],
            "corpus.write_corpus_csv_s": total["corpus.write_corpus_csv"],
            "corpus.evaluate_rules_s": total["corpus.evaluate_rules"],
            "tableio.write_csv_atomic_s": total["tableio.write_csv_atomic"],
            "tableio.bytes_written": counts["bytes_written"],
            "estimators.rewards.naive_s": total["estimators.rewards.naive"],
            "estimators.rewards.cv-kfold_s": total["estimators.rewards.cv-kfold"],
            "estimators.rewards.poisson-rescaled_s": total["estimators.rewards.poisson-rescaled"],
            "estimators.rewards.gated_s": total["estimators.rewards.gated"],
            "estimators.bootstrap_s": total["estimators.bootstrap"],
            "estimators.bootstrap_redraws": counts["redraws"],
            "estimators.leave_l_out_s": total["estimators.leave_l_out"],
            "estimators.subsets_scored": counts["subsets"],
            "experiments.decide_calls": decide_calls,
            "experiments.decide_s": total["experiments.decide"],
            "experiments.us_per_decision": (
                1e6 * total["experiments.decide"] / decide_calls if decide_calls else 0.0
            ),
            "experiments.significance_set_s": total["experiments.significance_set"],
            "experiments.remove_fold_calls": calls["experiments.remove_fold"],
            "experiments.remove_fold_bytes_copied": counts["bytes_copied"],
            "experiments.assign_folds_calls": assign_calls,
            "experiments.assign_folds_distinct_ratio": (
                len(self.fold_keys) / assign_calls if assign_calls else 0.0
            ),
            "streams.substream_calls": calls["streams.substream"],
            "streams.substream_s": total["streams.substream"],
            "simulator.chunks": len(chunks),
            "simulator.chunk_s_p50": _percentile(chunks, 0.5),
            "simulator.chunk_s_p90": _percentile(chunks, 0.9),
            "simulator.simulate_estimates_s": total["simulator.simulate_estimates"],
            "simulator.reduce_s": sum(
                self.self_by_name[name]
                for name in ("simulator.chunk", "simulator.run_bias_sweep",
                             "simulator.check_rule_selection")
            ),
            "simulator.normals_drawn": counts["normals"],
            "simulator.bytes_computed": nbytes,
            "simulator.flops_computed": flops,
            "simulator.ops_per_byte_computed": flops / nbytes if nbytes else 0.0,
            "simulator.pool_busy_s": counts["pool_busy_s"],
            "simulator.pool_wait_s": counts["pool_wait_s"],
            "simulator.pool_utilization": (
                counts["pool_busy_s"] / capacity if capacity else 0.0
            ),
            "simulator.rescaling_check_s": total["simulator.check_poisson_rescaling"],
            "figures.run_figure_s": total["figures.run_figure"],
            "trace.spans": len(self.spans),
            "trace.hook_errors": counts["hook_errors"],
        }
        for layer in LAYERS:
            out[f"self.{layer}_s"] = self.self_by_layer[layer]
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1][0] if stack else 0
        self.frame = [next(self.tracer._ids), 0.0]
        stack.append(self.frame)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        stack = self.tracer._stack()
        stack.pop()
        if stack:
            stack[-1][1] += end - self.start
        self.tracer._record(self.frame, self.parent, self.name, self.start, end)


class _Call:
    """Arguments and result of one wrapped call, bound lazily by name."""

    def __init__(self, signature, args, kwargs, result) -> None:
        self.signature, self.args, self.kwargs, self.result = signature, args, kwargs, result
        self._bound = None

    def arg(self, name: str):
        """The argument named ``name``, with defaults applied."""
        if self._bound is None:
            bound = self.signature.bind(*self.args, **self.kwargs)
            bound.apply_defaults()
            self._bound = bound.arguments
        return self._bound[name]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; zero for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


# -- hooks: counters computed from each call's arguments and result ------


def _rows(tracer, call, start, duration):
    tracer.counts["rows"] += sum(
        arm.units.shape[0] for exp in call.result.experiments for arm in exp.arms
    )


def _bytes_written(tracer, call, start, duration):
    tracer.counts["bytes_written"] += os.path.getsize(call.arg("path"))


def _rewards(tracer, call, start, duration):
    config, rule = call.arg("config"), call.arg("rule")
    tracer.total[f"estimators.rewards.{config.kind}"] += duration
    if rule.gate != "none":
        tracer.total["estimators.rewards.gated"] += duration


def _redraws(tracer, call, start, duration):
    tracer.counts["redraws"] += call.result[1]


def _subsets(tracer, call, start, duration):
    # Every subset is enumerated: the workload keeps C(m, l) under the
    # sampling cap.
    m = call.arg("exp").arms[0].num_units
    tracer.counts["subsets"] += math.comb(m, call.arg("leave_out"))


def _bytes_copied(tracer, call, start, duration):
    tracer.counts["bytes_copied"] += sum(arm.units.nbytes for arm in call.result.arms)


def _fold_key(tracer, call, start, duration):
    tracer.fold_keys.add(
        (call.arg("exp").experiment_id, call.arg("num_folds"), call.arg("seed"))
    )


def _chunk(tracer, call, start, duration):
    tracer.chunk_log.append((start, duration))


def _pool(tracer, call, start, duration):
    """Thread-pool accounting for one ``_ordered_parallel_map`` call.

    Busy time is the chunks' summed duration; wait time sums how long each
    chunk sat queued after the map started; utilization is busy time over
    workers x wall time.  Serial maps (degree 1) use no pool and add nothing.
    """
    chunks = tracer.chunk_log[tracer._pool_mark:]
    tracer._pool_mark = len(tracer.chunk_log)
    degree = int(os.environ.get("RULEVAL_PARALLEL", "1"))
    if degree == 1 or len(chunks) <= 1:
        return
    tracer.counts["pool_busy_s"] += sum(d for _, d in chunks)
    tracer.counts["pool_wait_s"] += sum(s - start for s, _ in chunks)
    tracer.counts["pool_capacity_s"] += degree * duration


def _kernel_shape(tracer, call, start, duration):
    """Work of one ``_simulate_estimates`` call, counted from its shapes.

    With n experiments, P folds, J metrics and R rules, the kernel draws
    n(J + 2PJ) normals.  Computed bytes count the float64 arrays the kernel
    materializes: four (n,2,P,J) arrays for the draws, their transform and
    the leave-fold-out sums and means, one (n,P,J) effect array, seven
    (n,J)-sized arrays and, per rule, four (n,P) and six (n,) arrays.
    Flops count the two covariance transforms (2nJ^2 and 4nPJ^2), 14nPJ
    element-wise operations, and per rule n(2J + 6PJ + 4P).
    """
    n, p = call.arg("n"), call.arg("num_folds")
    j, r = call.arg("effect_chol").shape[0], len(call.arg("rules"))
    tracer.counts["normals"] += n * (j + 2 * p * j)
    tracer.counts["bytes"] += 8 * n * (8 * p * j + p * j + 7 * j + r * (4 * p + 6))
    tracer.counts["flops"] += n * (
        2 * j * j + 4 * p * j * j + 14 * p * j + r * (2 * j + 6 * p * j + 4 * p)
    )


# (module, attribute, span name, hook).  Span names are "<layer>.<what>".
BINDINGS = (
    ("cli", "main", "cli.main", None),
    ("cli", "make_synthetic_corpus", "corpus.make_synthetic_corpus", None),
    ("cli", "write_corpus_csv", "corpus.write_corpus_csv", None),
    ("cli", "ingest_csv", "corpus.ingest_csv", _rows),
    ("cli", "evaluate_rules", "corpus.evaluate_rules", None),
    ("cli", "run_figure", "figures.run_figure", None),
    ("cli", "run_bias_sweep", "simulator.run_bias_sweep", None),
    ("figures", "run_bias_sweep", "simulator.run_bias_sweep", None),
    ("simulator", "check_rule_selection", "simulator.check_rule_selection", None),
    ("simulator", "check_poisson_rescaling", "simulator.check_poisson_rescaling", None),
    ("simulator", "_ordered_parallel_map", "simulator.parallel_map", _pool),
    ("simulator", "_sweep_chunk", "simulator.chunk", _chunk),
    ("simulator", "_selection_chunk", "simulator.chunk", _chunk),
    ("simulator", "_simulate_estimates", "simulator.simulate_estimates", _kernel_shape),
    ("cli", "write_csv_atomic", "tableio.write_csv_atomic", None),
    ("corpus", "write_csv_atomic", "tableio.write_csv_atomic", None),
    ("figures", "write_csv_atomic", "tableio.write_csv_atomic", None),
    ("tableio", "write_text_atomic", "tableio.write_text_atomic", _bytes_written),
    ("corpus", "per_experiment_rewards", "estimators.per_experiment_rewards", _rewards),
    ("estimators", "per_experiment_rewards", "estimators.per_experiment_rewards", _rewards),
    ("corpus", "bootstrap_aggregates", "estimators.bootstrap", _redraws),
    ("estimators", "bootstrap_aggregates", "estimators.bootstrap", _redraws),
    ("estimators", "leave_l_out_reward", "estimators.leave_l_out", _subsets),
    ("experiments", "decide", "experiments.decide", None),
    ("estimators", "decide", "experiments.decide", None),
    ("experiments", "significance_set", "experiments.significance_set", None),
    ("experiments", "remove_fold", "experiments.remove_fold", _bytes_copied),
    ("experiments", "assign_folds", "experiments.assign_folds", _fold_key),
    ("estimators", "assign_folds", "experiments.assign_folds", _fold_key),
    ("streams", "substream", "streams.substream", None),
    ("experiments", "substream", "streams.substream", None),
    ("estimators", "substream", "streams.substream", None),
    ("corpus", "substream", "streams.substream", None),
    ("simulator", "substream", "streams.substream", None),
)
