"""Command-line interface.

Subcommands:

* ``closed-form``: evaluate the exact true/naive/cv expectations at one
  parameter point.
* ``replicate-figure``: write plot-ready CSVs for the level-set grid or
  one of the bias sweeps.
* ``simulate``: run a free-form simulation config (JSON file; CLI flags
  override file values).
* ``check-theorems``: run the Poisson-rescaling and rule-selection checks
  and print one pass/fail line each.
* ``make-corpus``: export a synthetic unit-level corpus CSV.
* ``evaluate``: estimate rule rewards on a corpus CSV.

Exit codes: 0 success, 1 config or schema error, 2 numerical failure
(degenerate folds or arms), 3 a check failed.  Parallelism is controlled
only by the RULEVAL_PARALLEL environment variable; everything else is
flags and config files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .closed_form import EffectModel, cv_expectation, naive_expectation, true_reward
from .corpus import (
    CorpusFormatError,
    evaluate_rules,
    ingest_csv,
    make_synthetic_corpus,
    write_corpus_csv,
)
from .experiments import (
    DecisionRule,
    DegenerateArmError,
    DegenerateFoldError,
    RewardSpec,
)
from .figures import FIGURE_IDS, run_figure, _config_dict
from .simulator import (
    DEFAULT_MODEL,
    DEFAULT_PROXIES,
    ProxySpec,
    SimulationConfig,
    SweepPointRow,
    SweepSpec,
    check_poisson_rescaling,
    check_rule_selection,
    run_bias_sweep,
)
from .tableio import fmt, write_csv_atomic, write_json_atomic, write_rows_atomic

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")


def _is_int(value) -> bool:
    """Whether a JSON value is an integer (JSON true/false are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """Whether a JSON value is a number (JSON true/false are not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _is_matrix(value) -> bool:
    """Whether a JSON value is a list of equal-length lists of numbers."""
    return (isinstance(value, list) and all(map(_is_numbers, value))
            and len({len(row) for row in value}) <= 1)


_JSON_KINDS = {
    "an integer": _is_int,
    "a number": _is_number,
    "a number or null": lambda v: v is None or _is_number(v),
    "a list of numbers": _is_numbers,
    "a list of equal-length lists of numbers": _is_matrix,
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
}


def _typed(obj: dict, key: str, kind: str, where: str, default=None):
    """``obj[key]``, or ``default`` when it is absent, after checking that
    the JSON value is of ``kind`` (a key of ``_JSON_KINDS``)."""
    if key not in obj:
        return default
    if not _JSON_KINDS[kind](obj[key]):
        raise ConfigError(f"{where}.{key}: must be {kind}, got {obj[key]!r}")
    return obj[key]


def _load_json(path: str, where: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{where}: file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"{where}: invalid JSON in {path}: {err}")
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: top level must be an object")
    # A manifest written by this tool embeds the config under "config".
    if "config" in data and "command" in data:
        data = data["config"]
        if not isinstance(data, dict):
            raise ConfigError(f"{where}: manifest 'config' must be an object")
    return data


# ---------------------------------------------------------------------------
# model / rule / config parsing


_MODEL_KEYS = {
    "effect_sd_y",
    "effect_sd_proxy",
    "effect_corr",
    "noise_sd_y",
    "noise_sd_proxy",
    "noise_corr",
    "units_per_arm",
    "num_experiments",
    "num_folds",
    "effect_cov",
    "noise_cov",
}


def _parse_model(obj: dict, where: str) -> EffectModel:
    _check_keys(obj, _MODEL_KEYS, set(), where)
    explicit = "effect_cov" in obj or "noise_cov" in obj
    if explicit:
        required = {"effect_cov", "noise_cov", "units_per_arm"}
        _check_keys(obj, required | {"num_experiments", "num_folds"}, required, where)
        matrices = {
            key: _typed(obj, key, "a list of equal-length lists of numbers", where)
            for key in ("effect_cov", "noise_cov")
        }
    else:
        required = {
            "effect_sd_y", "effect_sd_proxy", "effect_corr",
            "noise_sd_y", "noise_sd_proxy", "noise_corr", "units_per_arm",
        }
        _check_keys(obj, _MODEL_KEYS, required, where)
        scales = {
            key: float(_typed(obj, key, "a number", where))
            for key in sorted(required - {"units_per_arm"})
        }
    sizes = {
        "units_per_arm": _typed(obj, "units_per_arm", "an integer", where),
        "num_experiments": _typed(obj, "num_experiments", "an integer", where, 100),
        "num_folds": _typed(obj, "num_folds", "an integer", where, 10),
    }
    try:
        if explicit:
            return EffectModel(
                **{key: np.array(m, dtype=float) for key, m in matrices.items()}, **sizes
            )
        return EffectModel.from_correlations(**scales, **sizes)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err


def _parse_sim_config(obj: dict, overrides: argparse.Namespace) -> SimulationConfig:
    where = "simulate config"
    allowed = {
        "model", "size_mode", "m0", "num_replications", "seed", "rule",
        "estimators", "sweep", "mode",
    }
    _check_keys(obj, allowed, set(), where)
    model = _parse_model(obj["model"], f"{where}.model") if "model" in obj \
        else DEFAULT_MODEL
    rule = DecisionRule(blend=[0.0, 1.0])
    if "rule" in obj:
        spec, at = obj["rule"], f"{where}.rule"
        _check_keys(spec, {"blend", "gate", "gate_alpha"}, {"blend"}, at)
        blend = _typed(spec, "blend", "a list of numbers", at)
        gate_alpha = _typed(spec, "gate_alpha", "a number", at, 0.05)
        try:
            rule = DecisionRule(
                blend=np.array(blend, dtype=float),
                gate=spec.get("gate", "none"),
                gate_alpha=float(gate_alpha),
            )
        except ValueError as err:
            raise ConfigError(f"{at}: {err}") from err
    sweep = None
    if "sweep" in obj and obj["sweep"] is not None:
        spec, at = obj["sweep"], f"{where}.sweep"
        _check_keys(spec, {"field", "grid"}, {"field", "grid"}, at)
        grid = _typed(spec, "grid", "a list of numbers", at)
        try:
            sweep = SweepSpec(spec["field"], tuple(grid))
        except ValueError as err:
            raise ConfigError(f"{at}: {err}") from err
    replications = _typed(obj, "num_replications", "an integer", where, 1000)
    seed = _typed(obj, "seed", "an integer", where, 0)
    m0 = _typed(obj, "m0", "a number or null", where)
    estimators = _typed(obj, "estimators", "a list of strings", where, ["true", "naive", "cv"])
    try:
        return SimulationConfig(
            model=model,
            size_mode=obj.get("size_mode", "fixed"),
            m0=m0,
            num_replications=(
                replications if overrides.replications is None else overrides.replications
            ),
            seed=seed if overrides.seed is None else overrides.seed,
            rule=rule,
            estimators=tuple(estimators),
            sweep=sweep,
            mode=obj.get("mode", "cumulative"),
        )
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _parse_blend(obj, metric_names: tuple[str, ...], where: str) -> np.ndarray:
    """A blend is either {"metric": name} or {"coefficients": {name: coef}}."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: blend must be an object")
    _check_keys(obj, {"metric", "coefficients"}, set(), where)
    if ("metric" in obj) == ("coefficients" in obj):
        raise ConfigError(f"{where}: give exactly one of 'metric'/'coefficients'")
    vec = np.zeros(len(metric_names))
    if "metric" in obj:
        name = obj["metric"]
        if name not in metric_names:
            raise ConfigError(
                f"{where}: unknown metric {name!r}; corpus has "
                f"{list(metric_names)}"
            )
        vec[metric_names.index(name)] = 1.0
        return vec
    for name, coef in obj["coefficients"].items():
        if name not in metric_names:
            raise ConfigError(
                f"{where}: unknown metric {name!r}; corpus has "
                f"{list(metric_names)}"
            )
        vec[metric_names.index(name)] = float(coef)
    return vec


def _parse_rule(obj: dict, metric_names: tuple[str, ...], where: str) -> tuple[str, DecisionRule]:
    allowed = {
        "name", "blend", "gate", "gate_alpha", "gate_sides", "gate_metrics",
        "gate_combine", "fallback_arm",
    }
    _check_keys(obj, allowed, {"name", "blend"}, where)
    gate_metrics = None
    if "gate_metrics" in obj:
        gate_metrics = tuple(
            _parse_blend(g, metric_names, f"{where}.gate_metrics[{i}]")
            for i, g in enumerate(obj["gate_metrics"])
        )
    try:
        rule = DecisionRule(
            blend=_parse_blend(obj["blend"], metric_names, f"{where}.blend"),
            gate=obj.get("gate", "none"),
            gate_alpha=float(obj.get("gate_alpha", 0.05)),
            gate_sides=obj.get("gate_sides", "one-sided-greater"),
            gate_metrics=gate_metrics,
            gate_combine=obj.get("gate_combine", "all"),
            fallback_arm=int(obj.get("fallback_arm", 1)),
        )
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err
    return str(obj["name"]), rule


# ---------------------------------------------------------------------------
# subcommands


def _cmd_closed_form(args: argparse.Namespace) -> int:
    model = EffectModel.from_correlations(
        effect_sd_y=args.effect_sd_y,
        effect_sd_proxy=args.effect_sd_proxy,
        effect_corr=args.effect_corr,
        noise_sd_y=args.noise_sd_y,
        noise_sd_proxy=args.noise_sd_proxy,
        noise_corr=args.noise_corr,
        units_per_arm=args.units_per_arm,
        num_folds=args.num_folds,
    )
    header = "true,naive,cv"
    row = ",".join(
        fmt(v)
        for v in (true_reward(model), naive_expectation(model), cv_expectation(model))
    )
    text = header + "\n" + row + "\n"
    if args.out:
        from .tableio import write_text_atomic

        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    grid = tuple(float(v) for v in args.grid.split(",")) if args.grid else None
    paths = run_figure(
        args.figure,
        args.out_dir,
        replications=args.replications,
        seed=args.seed,
        grid=grid,
        resolution=args.resolution,
    )
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    obj = _load_json(args.config, "simulate") if args.config else {}
    config = _parse_sim_config(obj, args)
    result = run_bias_sweep(config)
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "simulation.csv")
    write_rows_atomic(csv_path, SweepPointRow, result.rows)
    manifest = {
        "command": "simulate",
        "config": _config_dict(config),
        "version": __version__,
        "outputs": ["simulation.csv"],
        "zero_size_redraws": result.zero_size_redraws,
    }
    manifest_path = os.path.join(args.out_dir, "simulation_manifest.json")
    write_json_atomic(manifest_path, manifest)
    print(csv_path)
    print(manifest_path)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    # Selection runs first, so bad selection input fails before the long
    # rescaling run; the report order below is unchanged.
    selection = check_rule_selection(
        replications=args.selection_replications, seed=args.seed
    )
    rescaling = check_poisson_rescaling(
        m0=args.m0,
        leave_out=args.leave_out,
        replications=args.replications,
        seed=args.seed,
    )
    status = "PASS" if rescaling.passed else "FAIL"
    print(
        f"poisson-rescaling: {status} "
        f"|diff|={abs(rescaling.difference):.3e} "
        f"threshold={4 * rescaling.se_combined:.3e}"
    )
    nc_status = "PASS" if rescaling.negative_control_rejected else "FAIL"
    print(
        f"poisson-rescaling negative control: {nc_status} "
        f"|diff|={abs(rescaling.negative_control_difference):.3e} "
        f"threshold={4 * rescaling.negative_control_se:.3e}"
    )
    status = "PASS" if selection.passed else "FAIL"
    regrets = ", ".join(
        f"N={n}: {r:.3e}" for n, r in zip(selection.n_grid, selection.regrets)
    )
    print(f"rule-selection regret: {status} ({regrets})")
    ok = rescaling.overall_passed and selection.passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_make_corpus(args: argparse.Namespace) -> int:
    proxies = (
        ProxySpec("good_proxy", DEFAULT_PROXIES[0].effect_corr,
                  DEFAULT_PROXIES[0].noise_corr),
        ProxySpec("bad_proxy", DEFAULT_PROXIES[1].effect_corr,
                  DEFAULT_PROXIES[1].noise_corr),
    )
    corpus, effects = make_synthetic_corpus(
        num_experiments=args.experiments,
        units_per_arm=args.units,
        effect_sd_y=args.effect_sd_y,
        effect_sd_proxy=args.effect_sd_proxy,
        noise_sd_y=args.noise_sd_y,
        noise_sd_proxy=args.noise_sd_proxy,
        proxies=proxies,
        seed=args.seed,
    )
    write_corpus_csv(corpus, args.out)
    outputs = [os.path.basename(args.out)]
    if args.truth_out:
        write_csv_atomic(
            args.truth_out,
            ["experiment_id"] + list(corpus.metric_names),
            (
                [exp.experiment_id] + [float(v) for v in effects[i]]
                for i, exp in enumerate(corpus.experiments)
            ),
        )
        outputs.append(os.path.basename(args.truth_out))
    manifest = {
        "command": "make-corpus",
        "config": {
            "experiments": args.experiments,
            "units": args.units,
            "effect_sd_y": args.effect_sd_y,
            "effect_sd_proxy": args.effect_sd_proxy,
            "noise_sd_y": args.noise_sd_y,
            "noise_sd_proxy": args.noise_sd_proxy,
            "proxies": [
                {"name": p.name, "effect_corr": p.effect_corr,
                 "noise_corr": p.noise_corr}
                for p in proxies
            ],
            "seed": args.seed,
        },
        "version": __version__,
        "outputs": outputs,
    }
    write_json_atomic(args.out + ".manifest.json", manifest)
    print(args.out)
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    corpus = ingest_csv(args.corpus, weights_path=args.weights)
    obj = _load_json(args.rules, "evaluate rules")
    allowed = {
        "rules", "reward", "fold_counts", "bootstrap_replicates", "level",
        "seed", "mode", "baseline",
    }
    _check_keys(obj, allowed, {"rules", "reward"}, "evaluate rules")
    if not isinstance(obj["rules"], list) or not obj["rules"]:
        raise ConfigError("evaluate rules.rules: must be a non-empty list")
    fold_counts = obj.get("fold_counts", [2, 5, 10, 20])
    if not (isinstance(fold_counts, list)
            and all(_is_int(p) and p >= 2 for p in fold_counts)
            and len(set(fold_counts)) == len(fold_counts)):
        raise ConfigError(
            f"evaluate rules.fold_counts: must be a list of distinct integers "
            f">= 2, got {fold_counts!r}"
        )
    replicates = _typed(obj, "bootstrap_replicates", "an integer", "evaluate rules", 1000)
    seed = _typed(obj, "seed", "an integer", "evaluate rules", 0)
    if args.seed is not None:
        seed = args.seed
    level = _typed(obj, "level", "a number", "evaluate rules", 0.95)
    rules = [
        _parse_rule(r, corpus.metric_names, f"evaluate rules.rules[{i}]")
        for i, r in enumerate(obj["rules"])
    ]
    reward = RewardSpec.combination(
        _parse_blend(obj["reward"], corpus.metric_names, "evaluate rules.reward")
    )
    report = evaluate_rules(
        corpus,
        rules,
        reward,
        fold_counts=tuple(fold_counts),
        bootstrap_replicates=replicates,
        level=level,
        seed=seed,
        mode=obj.get("mode", "cumulative"),
        baseline=obj.get("baseline"),
    )
    report.write_csv(args.out)
    manifest = {
        "command": "evaluate",
        "config": {
            "corpus": os.path.basename(args.corpus),
            "rules": obj,
            "weights": os.path.basename(args.weights) if args.weights else None,
            "seed": seed,
        },
        "version": __version__,
        "outputs": [os.path.basename(args.out)],
        "bootstrap_redraws": report.bootstrap_redraws,
    }
    write_json_atomic(args.out + ".manifest.json", manifest)
    print(args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruleval",
        description="Evaluate A/B-test decision rules by their cumulative returns.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    cf = sub.add_parser("closed-form", help="evaluate the exact expectations")
    cf.add_argument("--effect-sd-y", type=float, default=1e-4)
    cf.add_argument("--effect-sd-proxy", type=float, default=0.01)
    cf.add_argument("--effect-corr", type=float, default=0.8)
    cf.add_argument("--noise-sd-y", type=float, default=0.10)
    cf.add_argument("--noise-sd-proxy", type=float, default=10.0)
    cf.add_argument("--noise-corr", type=float, default=0.4)
    cf.add_argument("--units-per-arm", type=int, default=1_000_000)
    cf.add_argument("--num-folds", type=int, default=10)
    cf.add_argument("--out", default=None)
    cf.set_defaults(func=_cmd_closed_form)

    fig = sub.add_parser("replicate-figure", help="write plot-ready CSVs")
    fig.add_argument("figure", type=int, choices=FIGURE_IDS)
    fig.add_argument("--out-dir", required=True)
    fig.add_argument("--replications", type=int, default=None)
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--grid", default=None, help="comma-separated sweep grid")
    fig.add_argument("--resolution", type=int, default=41)
    fig.set_defaults(func=_cmd_figure)

    sim = sub.add_parser("simulate", help="run a simulation config")
    sim.add_argument("--config", default=None, help="JSON config (or manifest)")
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--replications", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.set_defaults(func=_cmd_simulate)

    chk = sub.add_parser("check-theorems", help="run the statistical checks")
    chk.add_argument("--m0", type=float, default=5.0)
    chk.add_argument("--leave-out", type=int, default=1)
    chk.add_argument("--replications", type=int, default=200_000)
    chk.add_argument("--selection-replications", type=int, default=3_000)
    chk.add_argument("--seed", type=int, default=0)
    chk.set_defaults(func=_cmd_check)

    mk = sub.add_parser("make-corpus", help="export a synthetic corpus CSV")
    mk.add_argument("--out", required=True)
    mk.add_argument("--truth-out", default=None)
    mk.add_argument("--experiments", type=int, default=700)
    mk.add_argument("--units", type=int, default=100)
    mk.add_argument("--effect-sd-y", type=float, default=0.15)
    mk.add_argument("--effect-sd-proxy", type=float, default=0.07)
    mk.add_argument("--noise-sd-y", type=float, default=1.0)
    mk.add_argument("--noise-sd-proxy", type=float, default=1.0)
    mk.add_argument("--seed", type=int, default=0)
    mk.set_defaults(func=_cmd_make_corpus)

    ev = sub.add_parser("evaluate", help="estimate rule rewards on a corpus")
    ev.add_argument("--corpus", required=True)
    ev.add_argument("--rules", required=True, help="JSON rules config")
    ev.add_argument("--weights", default=None)
    ev.add_argument("--out", required=True)
    ev.add_argument("--seed", type=int, default=None)
    ev.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CorpusFormatError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateArmError, DegenerateFoldError, FloatingPointError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
