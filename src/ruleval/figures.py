"""Plot-ready study drivers: level-set grids and bias sweeps.

Each driver writes one or more CSVs plus a JSON manifest carrying the full
resolved configuration and seed, so any output is reproducible from the
manifest alone.  No images are rendered; the CSVs feed external plotting.
"""

from __future__ import annotations

import os

import numpy as np

from .closed_form import DEFAULT_PROXIES, levelset_grid
from .experiments import check_count
from .simulator import (
    DEFAULT_MODEL,
    DEFAULT_REPLICATIONS,
    SimulationConfig,
    SweepPointRow,
    SweepSpec,
    run_bias_sweep,
)
from .tableio import write_csv_atomic, write_manifest, write_rows_atomic

__all__ = [
    "FIG2_NOISE_GRID",
    "FIG3_UNITS_GRID",
    "FIG4_EXPERIMENTS_GRID",
    "run_figure",
]

FIGURE_IDS = (1, 2, 3, 4)

# Default sweep grids.  The proxy-noise grid is placed where the plug-in
# estimator's relative bias runs from ~40% past +100% while the CV bias is
# still resolvable against Monte Carlo noise at the default replication
# count.
FIG2_NOISE_GRID = tuple(float(v) for v in np.geomspace(4.0, 24.0, 9))
FIG3_UNITS_GRID = (1e5, 3e5, 1e6, 3e6, 1e7)
FIG4_EXPERIMENTS_GRID = (25.0, 50.0, 100.0, 200.0, 400.0)

LEVELSET_HEADER = ["rho_tau", "rho", "true", "naive", "cv"]

# Figures 2-4: (swept field, default grid, CSV name, (variant, model) pairs).
_SWEEPS = {
    2: ("noise_sd_proxy", FIG2_NOISE_GRID, "figure2_noise_sweep.csv",
        (("default", DEFAULT_MODEL),)),
    3: ("units_per_arm", FIG3_UNITS_GRID, "figure3_units_sweep.csv",
        tuple((p.name, DEFAULT_MODEL.with_correlations(p.effect_corr, p.noise_corr))
              for p in DEFAULT_PROXIES)),
    4: ("num_experiments", FIG4_EXPERIMENTS_GRID, "figure4_experiments_sweep.csv",
        (("default", DEFAULT_MODEL),)),
}


def run_figure(
    figure: int,
    out_dir: str,
    replications: int | None = None,
    seed: int = 0,
    grid: tuple[float, ...] | None = None,
    resolution: int = 41,
) -> list[str]:
    """Write the CSV artifacts for one figure; returns the written paths."""
    if figure not in FIGURE_IDS:
        raise ValueError(f"unknown figure {figure}; choose from {FIGURE_IDS}")
    reps = (DEFAULT_REPLICATIONS if replications is None
            else check_count("replications", replications, 1))
    resolution = check_count("resolution", resolution, 2)
    os.makedirs(out_dir, exist_ok=True)

    if figure == 1:
        name = "figure1_levelsets.csv"
        csv_path = os.path.join(out_dir, name)
        rows = levelset_grid(DEFAULT_MODEL, resolution=resolution).tolist()
        write_csv_atomic(csv_path, LEVELSET_HEADER, rows)
        config = {"resolution": resolution, "model": _model_dict(DEFAULT_MODEL)}
    else:
        sweep_field, default_grid, name, variants = _SWEEPS[figure]
        csv_path = os.path.join(out_dir, name)
        sweep = SweepSpec(sweep_field, grid or default_grid)
        rows, configs = [], {}
        for variant, model in variants:
            sim_config = SimulationConfig(
                model=model,
                num_replications=reps,
                seed=seed,
                sweep=sweep,
                mode="cumulative",
            )
            rows.extend(run_bias_sweep(sim_config, variant=variant).rows)
            configs[variant] = _config_dict(sim_config)
        write_rows_atomic(csv_path, SweepPointRow, rows)
        # Figure 3 keeps one config per proxy; the others have a single one.
        config = configs if figure == 3 else configs["default"]
    manifest_path = os.path.join(out_dir, f"figure{figure}_manifest.json")
    write_manifest(manifest_path, f"replicate-figure {figure}", config, [name])
    return [csv_path, manifest_path]


def _model_dict(model) -> dict:
    return {
        "effect_cov": [[float(v) for v in row] for row in model.effect_cov],
        "noise_cov": [[float(v) for v in row] for row in model.noise_cov],
        "units_per_arm": model.units_per_arm,
        "num_experiments": model.num_experiments,
        "num_folds": model.num_folds,
    }


def _config_dict(config: SimulationConfig) -> dict:
    out = {
        "model": _model_dict(config.model),
        "size_mode": config.size_mode,
        "m0": config.m0,
        "num_replications": config.num_replications,
        "seed": int(config.seed),
        "rule": {
            "blend": [float(v) for v in config.rule.blend],
            "gate": config.rule.gate,
            "gate_alpha": config.rule.gate_alpha,
        },
        "estimators": list(config.estimators),
        "mode": config.mode,
    }
    if config.sweep is not None:
        out["sweep"] = {
            "field": config.sweep.field,
            "grid": [float(v) for v in config.sweep.grid],
        }
    return out
