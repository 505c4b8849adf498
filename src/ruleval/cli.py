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

Exit codes: 0 success, 1 config or schema error or a file that cannot be
read or written, 2 numerical failure (degenerate folds or arms), 3 a check
failed.  Parallelism is controlled only by the RULEVAL_PARALLEL
environment variable; everything else is flags and config files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .closed_form import (DEFAULT_PROXIES, EffectModel, cv_expectation, naive_expectation,
                          true_reward)
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
    DEFAULT_MODEL_ARGS,
    SimulationConfig,
    SweepPointRow,
    SweepSpec,
    check_poisson_rescaling,
    check_rule_selection,
    run_bias_sweep,
)
from .tableio import fmt, write_csv_atomic, write_manifest, write_rows_atomic

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


def _is_int(value) -> bool:
    """Whether a JSON value is an integer (JSON true/false are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """Whether a JSON value is a finite number: not JSON true/false, nor the
    NaN, Infinity and out-of-range (1e400) literals that Python's json
    reads as non-finite floats."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


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
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
    "an object or null": lambda v: v is None or isinstance(v, dict),
    "an object of numbers": lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
    "a list": lambda v: isinstance(v, list),
    "a non-empty list": lambda v: isinstance(v, list) and len(v) > 0,
    "a list of integers": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "a list of numbers": _is_numbers,
    "a list of equal-length lists of numbers": _is_matrix,
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
}

# The default of a key that must be given.
REQUIRED = object()


def _fields(obj, schema: dict[str, tuple[str, object]], where: str) -> dict:
    """The value of every key of ``schema`` in the JSON object ``obj``, or
    the key's default when it is absent.

    ``schema`` maps each allowed key to its JSON kind (a key of
    ``_JSON_KINDS``) and its default, or ``REQUIRED``.  A non-object, and
    any unknown, missing or mistyped key, is a ``ConfigError`` that names
    ``where`` and the key.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be an object, got {obj!r}")
    unknown = obj.keys() - schema.keys()
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [key for key, (_, default) in schema.items()
               if default is REQUIRED and key not in obj]
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")
    for key, value in obj.items():
        kind = schema[key][0]
        if not _JSON_KINDS[kind](value):
            raise ConfigError(f"{where}.{key}: must be {kind}, got {value!r}")
    return {key: obj.get(key, default) for key, (_, default) in schema.items()}


def _build(where: str, factory, /, **kwargs):
    """``factory(**kwargs)``, with a rejected value reported at ``where``."""
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err


def _load_json(path: str, where: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{where}: file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"{where}: invalid JSON in {path}: {err}")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{where}: {path} is not valid UTF-8: {err}")
    # A manifest written by this tool embeds the config under "config";
    # only a simulate manifest replays, as the config of simulate.
    if isinstance(data, dict) and "config" in data and "command" in data:
        if (where, data["command"]) != ("simulate", "simulate"):
            raise ConfigError(
                f"{where}: {path} is a manifest of {data['command']!r}; only "
                f"simulate manifests replay, through simulate --config"
            )
        return data["config"]
    return data


# ---------------------------------------------------------------------------
# config schemas and parsing

_SIZES = {
    "units_per_arm": ("an integer", REQUIRED),
    "num_experiments": ("an integer", 100),
    "num_folds": ("an integer", 10),
}
_SCALES = (
    "effect_sd_y", "effect_sd_proxy", "effect_corr",
    "noise_sd_y", "noise_sd_proxy", "noise_corr",
)
_SCALE_MODEL = {key: ("a number", REQUIRED) for key in _SCALES} | _SIZES
_COVS = ("effect_cov", "noise_cov")
_COV_MODEL = {key: ("a list of equal-length lists of numbers", REQUIRED) for key in _COVS} | _SIZES
_SIM_CONFIG = {
    "model": ("an object", None),
    "size_mode": ("a string", "fixed"),
    "m0": ("a number or null", None),
    "num_replications": ("an integer", 1000),
    "seed": ("an integer", 0),
    "rule": ("an object", {"blend": [0.0, 1.0]}),
    "estimators": ("a list of strings", ["true", "naive", "cv"]),
    "sweep": ("an object or null", None),
    "mode": ("a string", "cumulative"),
}
_SIM_RULE = {
    "blend": ("a list of numbers", REQUIRED),
    "gate": ("a string", "none"),
    "gate_alpha": ("a number", 0.05),
}
_SWEEP = {"field": ("a string", REQUIRED), "grid": ("a list of numbers", REQUIRED)}
_EVALUATE = {
    "rules": ("a non-empty list", REQUIRED),
    "reward": ("an object", REQUIRED),
    "fold_counts": ("a list of integers", [2, 5, 10, 20]),
    "bootstrap_replicates": ("an integer", 1000),
    "level": ("a number", 0.95),
    "seed": ("an integer", 0),
    "mode": ("a string", "cumulative"),
    "baseline": ("a string or null", None),
}
_EVALUATE_RULE = {
    "name": ("a string", REQUIRED),
    "blend": ("an object", REQUIRED),
    "gate": ("a string", "none"),
    "gate_alpha": ("a number", 0.05),
    "gate_sides": ("a string", "one-sided-greater"),
    "gate_metrics": ("a list", None),
    "gate_combine": ("a string", "all"),
    "fallback_arm": ("an integer", 1),
}
_BLEND = {"metric": ("a string", None), "coefficients": ("an object of numbers", None)}


def _parse_model(obj, where: str) -> EffectModel:
    cov = isinstance(obj, dict) and not obj.keys().isdisjoint(_COVS)
    model = _fields(obj, _COV_MODEL if cov else _SCALE_MODEL, where)
    if cov:
        arrays = {key: np.array(model[key], dtype=float) for key in _COVS}
        return _build(where, EffectModel, **(model | arrays))
    scales = {key: float(model[key]) for key in _SCALES}
    return _build(where, EffectModel.from_correlations, **(model | scales))


def _parse_sim_config(obj, overrides: argparse.Namespace) -> SimulationConfig:
    where = "simulate config"
    config = _fields(obj, _SIM_CONFIG, where)
    config["model"] = DEFAULT_MODEL if config["model"] is None \
        else _parse_model(config["model"], f"{where}.model")
    config["rule"] = _build(f"{where}.rule", DecisionRule,
                            **_fields(config["rule"], _SIM_RULE, f"{where}.rule"))
    if config["sweep"] is not None:
        config["sweep"] = _build(f"{where}.sweep", SweepSpec,
                                 **_fields(config["sweep"], _SWEEP, f"{where}.sweep"))
    config["estimators"] = tuple(config["estimators"])
    if overrides.replications is not None:
        config["num_replications"] = overrides.replications
    if overrides.seed is not None:
        config["seed"] = overrides.seed
    return _build(where, SimulationConfig, **config)


def _parse_blend(obj, metric_names: tuple[str, ...], where: str) -> np.ndarray:
    """A blend is either {"metric": name} or {"coefficients": {name: coef}}."""
    blend = _fields(obj, _BLEND, where)
    if (blend["metric"] is None) == (blend["coefficients"] is None):
        raise ConfigError(f"{where}: give exactly one of 'metric'/'coefficients'")
    coefficients = blend["coefficients"] if blend["metric"] is None \
        else {blend["metric"]: 1.0}
    vec = np.zeros(len(metric_names))
    for name, coef in coefficients.items():
        if name not in metric_names:
            raise ConfigError(
                f"{where}: unknown metric {name!r}; corpus has "
                f"{list(metric_names)}"
            )
        vec[metric_names.index(name)] = float(coef)
    return vec


def _parse_rule(obj, metric_names: tuple[str, ...], where: str) -> tuple[str, DecisionRule]:
    rule = _fields(obj, _EVALUATE_RULE, where)
    if rule["gate_metrics"] is not None:
        rule["gate_metrics"] = tuple(
            _parse_blend(g, metric_names, f"{where}.gate_metrics[{i}]")
            for i, g in enumerate(rule["gate_metrics"])
        )
    rule["blend"] = _parse_blend(rule["blend"], metric_names, f"{where}.blend")
    return rule.pop("name"), _build(where, DecisionRule, **rule)


# ---------------------------------------------------------------------------
# subcommands


# The closed forms do not depend on the number of experiments.
_CLOSED_FORM_FLAGS = tuple(key for key in DEFAULT_MODEL_ARGS if key != "num_experiments")


def _cmd_closed_form(args: argparse.Namespace) -> int:
    model = EffectModel.from_correlations(
        **{key: getattr(args, key) for key in _CLOSED_FORM_FLAGS}
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
    manifest_path = os.path.join(args.out_dir, "simulation_manifest.json")
    write_manifest(manifest_path, "simulate", _config_dict(config), ["simulation.csv"],
                   zero_size_redraws=result.zero_size_redraws)
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
    proxies = tuple(replace(p, name=f"{p.name}_proxy") for p in DEFAULT_PROXIES)
    sds = {name: getattr(args, name)
           for name in ("effect_sd_y", "effect_sd_proxy", "noise_sd_y", "noise_sd_proxy")}
    corpus, effects = make_synthetic_corpus(
        num_experiments=args.experiments, units_per_arm=args.units, **sds,
        proxies=proxies, seed=args.seed,
    )
    write_corpus_csv(corpus, args.out)
    outputs = [os.path.basename(args.out)]
    if args.truth_out:
        write_csv_atomic(
            args.truth_out,
            ["experiment_id"] + list(corpus.metric_names),
            ([exp_id] + effect.tolist() for exp_id, effect in zip(corpus.stack.ids, effects)),
        )
        outputs.append(os.path.basename(args.truth_out))
    config = {
        "experiments": args.experiments, "units": args.units, **sds,
        "proxies": [asdict(p) for p in proxies], "seed": args.seed,
    }
    write_manifest(args.out + ".manifest.json", "make-corpus", config, outputs)
    print(args.out)
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    corpus = ingest_csv(args.corpus, weights_path=args.weights)
    where, names = "evaluate rules", corpus.metric_names
    obj = _load_json(args.rules, where)
    config = _fields(obj, _EVALUATE, where)
    config["rules"] = [
        _parse_rule(r, names, f"{where}.rules[{i}]") for i, r in enumerate(config["rules"])
    ]
    config["reward"] = RewardSpec.combination(
        _parse_blend(config["reward"], names, f"{where}.reward")
    )
    if args.seed is not None:
        config["seed"] = args.seed
    report = evaluate_rules(corpus, **config)
    report.write_csv(args.out)
    manifest_config = {
        "corpus": os.path.basename(args.corpus),
        "rules": obj,
        "weights": os.path.basename(args.weights) if args.weights else None,
        "seed": config["seed"],
    }
    write_manifest(args.out + ".manifest.json", "evaluate", manifest_config,
                   [os.path.basename(args.out)], bootstrap_redraws=report.bootstrap_redraws)
    print(args.out)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, and each ``parse_args`` call returns a new
    namespace."""
    parser = argparse.ArgumentParser(
        prog="ruleval",
        description="Evaluate A/B-test decision rules by their cumulative returns.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    cf = sub.add_parser("closed-form", help="evaluate the exact expectations")
    for key in _CLOSED_FORM_FLAGS:
        default = DEFAULT_MODEL_ARGS[key]
        cf.add_argument("--" + key.replace("_", "-"), type=type(default), default=default)
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
    except (ConfigError, CorpusFormatError, OSError) as err:
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
