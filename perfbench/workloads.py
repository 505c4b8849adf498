"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Each workload is single-client and closed-loop: one caller runs a pass,
waits for it to finish, then starts the next.  A pass calls ruleval only
through module attributes looked up at call time (``mods["cli"].main``),
so the tracer's wrappers see every call.  ``tiny`` shrinks every input for
the smoke run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time

import numpy as np

import oracle


def cli_call(mods: dict, argv: list[str]) -> None:
    """Run one ``ruleval`` subcommand in-process; raise on a nonzero exit."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = mods["cli"].main(argv)
    if code != 0:
        raise RuntimeError(f"ruleval {argv[0]} exited with code {code}")


def file_digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def poisson_quantile(p: float, mean: float) -> int:
    """Smallest k with P(K <= k) >= p for K ~ Poisson(mean)."""
    k, pmf = 0, math.exp(-mean)
    cdf = pmf
    while cdf < p:
        k += 1
        pmf *= mean / k
        cdf += pmf
    return k


class Workload:
    """Interface: ``run_pass`` repeatedly, then ``check``.

    Passes walk through ``cycle`` distinct inputs in turn; pass k runs
    input k % cycle, so passes k and k + cycle must give identical outputs.
    """

    name = ""
    parallel = 1  # RULEVAL_PARALLEL for this workload
    cycle = 1

    def __init__(self, seed: int, work: str, tiny: bool, mods: dict) -> None:
        self.seed, self.work, self.tiny = seed, work, tiny

    def run_pass(self, mods: dict) -> dict[str, float]:
        """Run one pass; return its stage wall times in seconds."""
        raise NotImplementedError

    def digest(self) -> str:
        """Fingerprint of the last pass's outputs."""
        raise NotImplementedError

    def inputs(self) -> dict:
        """Input sizes, recorded with the results."""
        raise NotImplementedError

    def summary(self, timed: dict[str, float]) -> dict[str, float]:
        """Workload-specific figures from one pass's ``wall_s`` and stage times."""
        return {}

    def check(self) -> list[tuple[str, bool]]:
        """(description, passed) for every output check."""
        raise NotImplementedError


class Evaluate(Workload):
    """ROADMAP E1 in seven shards: ``make-corpus`` then ``evaluate``, 100 experiments each.

    E1 is 700 experiments, and one pass over all of them takes 12-18 s on
    a shared machine whose speed drifts over tens of seconds, so a run
    could hold only a few samples.  Each pass therefore exports and
    evaluates one shard of 100 experiments (the ``make-corpus`` defaults
    otherwise), and a run covers all seven shards, 700 experiments in all.  Shard i
    uses seed ``7 * seed + i``.  The ranking checks run on the sums over the
    shards, which is the cumulative estimate over all 700 experiments.
    """

    name = "evaluate"
    cycle = 7
    FOLDS = (2, 5, 10, 20)
    METRICS = ("north_star", "good_proxy", "bad_proxy")
    RULES = (  # name, blend metric, gated
        ("good", "good_proxy", False),
        ("bad", "bad_proxy", False),
        ("gated", "good_proxy", True),
    )
    GATE_ALPHA = 0.05

    def __init__(self, seed, work, tiny, mods):
        super().__init__(seed, work, tiny, mods)
        self.experiments, self.units = (4, 24) if tiny else (100, 100)
        self.passes = 0
        self.rules = os.path.join(work, "rules.json")
        rules = [
            {"name": name, "blend": {"metric": metric}}
            | ({"gate": "significant-vs-reference", "gate_alpha": self.GATE_ALPHA}
               if gated else {})
            for name, metric, gated in self.RULES
        ]
        with open(self.rules, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "reward": {"metric": "north_star"},
                    "rules": rules,
                    "fold_counts": list(self.FOLDS),
                    "bootstrap_replicates": 100 if tiny else 1000,
                    "level": 0.95,
                    "mode": "cumulative",
                },
                fh,
            )

    def _shard(self, i):
        """(seed, corpus path, report path) of shard i."""
        return (self.cycle * self.seed + i,
                os.path.join(self.work, f"corpus{i}.csv"),
                os.path.join(self.work, f"report{i}.csv"))

    def run_pass(self, mods):
        seed, corpus, report = self._shard(self.passes % self.cycle)
        self.passes += 1
        t0 = time.perf_counter()
        cli_call(mods, ["make-corpus", "--out", corpus, "--seed", str(seed),
                        "--experiments", str(self.experiments),
                        "--units", str(self.units)])
        t1 = time.perf_counter()
        cli_call(mods, ["evaluate", "--corpus", corpus, "--rules", self.rules,
                        "--out", report, "--seed", str(seed)])
        t2 = time.perf_counter()
        return {"export_s": t1 - t0, "evaluate_s": t2 - t1}

    def digest(self):
        _, corpus, report = self._shard((self.passes - 1) % self.cycle)
        return file_digest(corpus, report)

    def inputs(self):
        return {
            "shards": self.cycle,
            "experiments_per_shard": self.experiments,
            "experiments": self.cycle * self.experiments,
            "units_per_arm": self.units,
            "rows": 2 * self.cycle * self.experiments * self.units,
            "metrics": len(self.METRICS),
            "csv_bytes": sum(os.path.getsize(self._shard(i)[1]) for i in range(self.cycle)),
            "rules": len(self.RULES),
            "fold_counts": list(self.FOLDS),
            "decisions": (self.cycle * self.experiments * len(self.RULES)
                          * (1 + sum(self.FOLDS))),
        }

    def summary(self, timed):
        return {"export_s": timed["export_s"], "evaluate_s": timed["evaluate_s"]}

    def check(self):
        checks = []
        totals = {}
        crit = oracle.critical_value(self.GATE_ALPHA)
        for i in range(self.cycle):
            seed, corpus, report = self._shard(i)
            ids, metrics, data = oracle.read_corpus(corpus)
            checks.append((
                f"shard {i} corpus layout",
                metrics == self.METRICS
                and data.shape == (self.experiments, 2, self.units, len(self.METRICS)),
            ))
            labels = {p: oracle.fold_labels(seed, ids, data.shape[2], p)
                      for p in self.FOLDS}
            reported = {
                (row["rule"], int(row["num_folds"])): float(row["estimate"])
                for row in read_rows(report)
            }
            reward = np.eye(len(metrics))[0]
            for name, metric, gated in self.RULES:
                blend = np.eye(len(metrics))[metrics.index(metric)]
                per_exp = oracle.corpus_estimates(
                    data, labels, blend, reward, crit if gated else None
                )
                for folds, contributions in per_exp.items():
                    got = reported[(name, folds)]
                    totals[(name, folds)] = totals.get((name, folds), 0.0) + got
                    label = "naive" if folds == 0 else f"cv-kfold P={folds}"
                    checks.append((
                        f"shard {i} {name} {label} matches reference",
                        oracle.close(got, float(contributions.sum()),
                                     float(np.abs(contributions).sum())),
                    ))
        checks.append(("naive ranks bad above good",
                       totals[("bad", 0)] > totals[("good", 0)]))
        for p in self.FOLDS:
            checks.append((f"cv-kfold P={p} ranks good above bad",
                           totals[("good", p)] > totals[("bad", p)]))
        return checks


class McSweep(Workload):
    """Figure-2 proxy-noise sweep plus a gated ``simulate`` run, one thread."""

    name = "mc-sweep"
    MAX_SE = 5.0  # |mean - closed form| allowed, in standard errors

    def __init__(self, seed, work, tiny, mods):
        super().__init__(seed, work, tiny, mods)
        self.replications = 16 if tiny else 256
        self.fig_dir = os.path.join(work, "figure2")
        self.sim_dir = os.path.join(work, "simulate")
        self.config = os.path.join(work, "simulate.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "rule": {"blend": [0.0, 1.0], "gate": "significant-vs-reference"},
                    "num_replications": self.replications,
                    "mode": "cumulative",
                },
                fh,
            )

    def _outputs(self):
        return (os.path.join(self.fig_dir, "figure2_noise_sweep.csv"),
                os.path.join(self.sim_dir, "simulation.csv"))

    def run_pass(self, mods):
        seed = str(self.seed)
        t0 = time.perf_counter()
        cli_call(mods, ["replicate-figure", "2", "--out-dir", self.fig_dir,
                        "--replications", str(self.replications), "--seed", seed])
        t1 = time.perf_counter()
        cli_call(mods, ["simulate", "--config", self.config,
                        "--out-dir", self.sim_dir, "--seed", seed])
        t2 = time.perf_counter()
        return {"figure_s": t1 - t0, "simulate_s": t2 - t1}

    def digest(self):
        return file_digest(*self._outputs())

    def simulated(self) -> int:
        """Simulated experiments per pass: replications x experiments per point."""
        points = {}
        for path in self._outputs():
            for row in read_rows(path):
                key = (path, row["variant"], row["sweep_value"])
                points[key] = int(row["replications"]) * int(row["num_experiments"])
        return sum(points.values())

    def inputs(self):
        return {
            "figure2_points": len(read_rows(self._outputs()[0])) // 3,
            "replications": self.replications,
            "units_per_arm": 1_000_000,
            "simulated_experiments": self.simulated(),
        }

    def summary(self, timed):
        return {"mc_exps_per_s": self.simulated() / timed["wall_s"]}

    def check(self):
        checks = []
        figure, simulate = (read_rows(p) for p in self._outputs())
        for row in figure + simulate:
            if not row["closed_form"]:
                continue
            mean, se, cf = (float(row[k]) for k in ("mean", "se", "closed_form"))
            checks.append((
                f"{row['estimator']} at {row['sweep_field']}={float(row['sweep_value']):.4g}"
                f" within {self.MAX_SE:g} SE of closed form",
                se > 0 and abs(mean - cf) <= self.MAX_SE * se,
            ))
        checks.append((
            "gated simulate rows are finite",
            len(simulate) == 3 and all(
                math.isfinite(float(row["mean"])) and float(row["se"]) > 0
                for row in simulate
            ),
        ))
        return checks


class McSelect(Workload):
    """Rule-selection regret check on the thread pool (two workers)."""

    name = "mc-select"
    parallel = 2
    N_GRID = (100, 200, 400)

    def __init__(self, seed, work, tiny, mods):
        super().__init__(seed, work, tiny, mods)
        self.replications = 4 if tiny else 512
        self.report = None

    def run_pass(self, mods):
        t0 = time.perf_counter()
        self.report = mods["simulator"].check_rule_selection(
            n_grid=self.N_GRID, replications=self.replications, seed=self.seed
        )
        return {"select_s": time.perf_counter() - t0}

    def digest(self):
        r = self.report
        return repr((r.regrets, r.regret_ses, r.accuracies))

    def inputs(self):
        return {
            "n_grid": list(self.N_GRID),
            "replications": self.replications,
            "metrics": 3,
            "simulated_experiments": self.replications * sum(self.N_GRID),
        }

    def summary(self, timed):
        return {"mc_exps_per_s": self.inputs()["simulated_experiments"] / timed["wall_s"]}

    def check(self):
        return [("selection regret decays with N", bool(self.report.passed))]


class LeaveLOut(Workload):
    """Poisson-rescaled leave-l-out on small experiments, plus the rescaling check."""

    name = "loo-rescaled"
    LEAVE_OUTS = (1, 2)
    METRICS = 3
    MIN_UNITS = 4  # a gated leave-two-out decision needs two units per arm left
    GATE_ALPHA = 0.05
    CHECK_M0 = 5.0

    def __init__(self, seed, work, tiny, mods):
        super().__init__(seed, work, tiny, mods)
        count, self.m0 = (3, 6.0) if tiny else (20, 20.0)
        self.check_replications = 2_000 if tiny else 200_000
        rng = np.random.default_rng(seed)
        # Stratified Poisson(m0) arm sizes: one draw from each of `count`
        # equal-probability strata, in random order.  The sizes follow the
        # Poisson law, and the number of held-out subsets, which sets the
        # work, barely moves with the seed.
        offset = rng.random()
        sizes = [
            max(self.MIN_UNITS, poisson_quantile((i + offset) / count, self.m0))
            for i in range(count)
        ]
        self.raw = []
        for m in rng.permutation(sizes):
            effect = rng.normal(0.0, 0.5, self.METRICS)
            control = rng.standard_normal((m, self.METRICS))
            treatment = effect + rng.standard_normal((m, self.METRICS))
            self.raw.append(np.stack([control, treatment]))
        exp_mod = mods["experiments"]
        self.experiments = [
            exp_mod.ExperimentData(
                f"exp{i:03d}",
                (exp_mod.ArmData(1, x[0]), exp_mod.ArmData(2, x[1])),
            )
            for i, x in enumerate(self.raw)
        ]
        blend = np.eye(self.METRICS)[1]
        self.rules = {
            "ungated": exp_mod.DecisionRule(blend=blend),
            "gated": exp_mod.DecisionRule(
                blend=blend, gate="significant-vs-reference", gate_alpha=self.GATE_ALPHA
            ),
        }
        self.reward = exp_mod.RewardSpec.metric(1)
        self.results = {}
        self.checks = {}

    def run_pass(self, mods):
        est = mods["estimators"]
        t0 = time.perf_counter()
        for name, rule in self.rules.items():
            for l in self.LEAVE_OUTS:
                config = est.EstimatorConfig(
                    kind="poisson-rescaled", leave_out=l, m0=self.m0, mode="cumulative"
                )
                self.results[(name, l)] = est.estimate_reward(
                    self.experiments, rule, self.reward, config
                )
        t1 = time.perf_counter()
        for l in self.LEAVE_OUTS:
            self.checks[l] = mods["simulator"].check_poisson_rescaling(
                m0=self.CHECK_M0, leave_out=l,
                replications=self.check_replications, seed=self.seed,
            )
        t2 = time.perf_counter()
        return {"estimators_s": t1 - t0, "rescaling_check_s": t2 - t1}

    def digest(self):
        return repr((
            sorted((k, r.value, r.per_experiment) for k, r in self.results.items()),
            sorted((l, r.rescaled_mean, r.realized_mean) for l, r in self.checks.items()),
        ))

    def inputs(self):
        sizes = [x.shape[1] for x in self.raw]
        return {
            "experiments": len(sizes),
            "m0": self.m0,
            "units": 2 * sum(sizes),
            "units_per_arm_min": min(sizes),
            "units_per_arm_max": max(sizes),
            "subsets_per_rule": {l: sum(math.comb(m, l) for m in sizes)
                                 for l in self.LEAVE_OUTS},
            "rescaling_check_replications": self.check_replications,
        }

    def summary(self, timed):
        return {"loo_s": timed["wall_s"]}

    def check(self):
        checks = []
        reward = np.eye(self.METRICS)[0]
        blend = np.eye(self.METRICS)[1]
        crit = oracle.critical_value(self.GATE_ALPHA)
        for (name, l), result in sorted(self.results.items()):
            ref = np.array([
                oracle.leave_l_out_estimate(
                    x, blend, reward, l, self.m0, crit if name == "gated" else None
                )
                for x in self.raw
            ])
            got = np.asarray(result.per_experiment, dtype=float)
            scale = float(np.abs(ref).sum())
            ok = got.shape == ref.shape and oracle.close(result.value, float(ref.sum()), scale)
            ok = ok and all(
                oracle.close(g, r, max(abs(r), 1.0)) for g, r in zip(got, ref)
            )
            checks.append((f"{name} leave-{l}-out matches reference", ok))
        for l, report in sorted(self.checks.items()):
            checks.append((f"rescaling check l={l} passes", bool(report.passed)))
            checks.append((f"rescaling check l={l} rejects its negative control",
                           bool(report.negative_control_rejected)))
        return checks


class McLoo(Workload):
    """The Monte Carlo fast path and leave-l-out, one after another in each pass.

    A pass runs the ``mc-sweep`` figure sweep and gated simulation on one
    thread, the ``mc-select`` selection check on two, and the
    ``loo-rescaled`` estimates and rescaling checks.  They share one
    workload so that each run can last long enough to outlast the drift
    of a shared machine; their stage times stay apart in the record.
    """

    name = "mc-loo"
    PARTS = (McSweep, McSelect, LeaveLOut)

    def __init__(self, seed, work, tiny, mods):
        super().__init__(seed, work, tiny, mods)
        self.parts = []
        for cls in self.PARTS:
            part_work = os.path.join(work, cls.name)
            os.makedirs(part_work, exist_ok=True)
            self.parts.append(cls(seed, part_work, tiny, mods))

    def run_pass(self, mods):
        timed = {}
        for part in self.parts:
            os.environ["RULEVAL_PARALLEL"] = str(part.parallel)
            t0 = time.perf_counter()
            stages = part.run_pass(mods)
            timed[f"{part.name}_s"] = time.perf_counter() - t0
            timed.update(stages)
        return timed

    def digest(self):
        return repr([part.digest() for part in self.parts])

    def inputs(self):
        return {part.name: {**part.inputs(), "parallel": part.parallel}
                for part in self.parts}

    def summary(self, timed):
        out = {}
        for part in self.parts:
            own = part.summary({**timed, "wall_s": timed[f"{part.name}_s"]})
            out.update({f"{part.name}.{k}": v for k, v in own.items()})
        return out

    def check(self):
        return [(f"{part.name}: {name}", ok)
                for part in self.parts for name, ok in part.check()]


WORKLOADS = {w.name: w for w in (Evaluate, McLoo)}
