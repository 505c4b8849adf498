"""Byte pins of ``evaluate`` and simulator outputs across versions of the code.

Criterion 9 checks that one version gives the same bytes run after run;
these pins check that a change to the kernel or the parser does not move
them either.  The report digests were computed before the corpus-wide
k-fold pass and the NumPy-parsed ingest were introduced, which had to
reproduce them; the manifest digests changed once, when the manifest began
to record the seed.  The simulator digests were computed before the bias
sweep and the rule-selection check shared one chunk driver, which had to
reproduce them; the rescaling-check digests beyond the first two were
computed before that check scored one experiment per distinct tally,
which had to reproduce them.  A report is pinned through its ``repr``,
which also shows a NumPy scalar where a Python float belongs.
The ``make-corpus`` CSV digests were computed before the export formatted
its floats in bulk, which had to reproduce them byte for byte.
They also depend on the float results of NumPy and its BLAS, so a
different build may move them; check such a move against the previous
version of the code on the same build before updating a pin.
"""

import hashlib
import json

import pytest

from ruleval import EffectModel, check_poisson_rescaling, check_rule_selection
from ruleval.cli import main

RULES = {
    "reward": {"metric": "north_star"},
    "rules": [
        {"name": "good", "blend": {"metric": "good_proxy"}},
        {"name": "gated", "blend": {"metric": "good_proxy"},
         "gate": "significant-vs-reference", "gate_alpha": 0.2},
    ],
    "fold_counts": [2, 5],
    "bootstrap_replicates": 200,
}
# One manifest per seed: each records the seed its report was made with.
MANIFESTS = {
    0: "01bd20587aff84841478756accdeb1a9193990cd15ebd0886865b4bb50b56091",
    1: "b05f9bb1a2670eda66337812899fde262107f42413fddef13d98131f881ce86e",
    2: "36d8664fc7e7b099146b0fa8c69127c3d1058ed5616ed6e50f2dd628c38fd18c",
}
CORPORA = {
    0: "fcf65132eda0592e6869810023b8da35d197fdfa79877e9985cceadcd1fc2598",
    1: "4754535a456ab81b7b0bec2a6cc806a74f87547307683c89e63ab2e3bb2fd625",
    2: "2a1f95d1f884ef3cef831544f998702644ff1f2edfff47e506b56046dddd110c",
}
REPORTS = {
    0: "57ba455b1c2f9a035b1de37b4767cb3a8bbec401dfe688eb70b5205a2b3e02a1",
    1: "1dd5a8b816f11d3a60fa1a65eeaa70584b9d79bcdc2027371f40387a2e507103",
    2: "ffed5dbd637899a7dd7e95b7126393f189659854dad69254665c67ec69c07b43",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_corpus(tmp_path, seed):
    corpus = tmp_path / "corpus.csv"
    assert main(["make-corpus", "--out", str(corpus), "--experiments", "20",
                 "--units", "30", "--seed", str(seed)]) == 0
    return corpus


@pytest.mark.parametrize("seed", sorted(CORPORA))
def test_make_corpus_bytes_are_pinned(tmp_path, seed):
    assert sha256(make_corpus(tmp_path, seed)) == CORPORA[seed]


@pytest.mark.parametrize("seed", sorted(REPORTS))
def test_evaluate_report_and_manifest_bytes_are_pinned(tmp_path, seed):
    corpus = make_corpus(tmp_path, seed)
    rules, report = tmp_path / "rules.json", tmp_path / "report.csv"
    rules.write_text(json.dumps(RULES))
    assert main(["evaluate", "--corpus", str(corpus), "--rules", str(rules),
                 "--out", str(report), "--seed", str(seed)]) == 0
    assert sha256(report) == REPORTS[seed]
    manifest = tmp_path / "report.csv.manifest.json"
    assert json.loads(manifest.read_text())["config"]["seed"] == seed
    assert sha256(manifest) == MANIFESTS[seed]


def test_manifest_pins_differ_by_seed():
    assert len(set(MANIFESTS.values())) == len(MANIFESTS) == len(REPORTS)


SIM_MODEL = {
    "effect_sd_y": 0.5, "effect_sd_proxy": 0.8, "effect_corr": 0.6,
    "noise_sd_y": 1.0, "noise_sd_proxy": 1.5, "noise_corr": -0.3,
    "units_per_arm": 40, "num_experiments": 20, "num_folds": 3,
}
# (config, output file -> digest).  The gated sweep spans two chunks per
# point; the Poisson run redraws one zero-size experiment.
SIMULATE = {
    "gated-sweep": (
        {"model": SIM_MODEL, "num_replications": 300, "seed": 2,
         "rule": {"blend": [0.0, 1.0], "gate": "significant-vs-reference",
                  "gate_alpha": 0.2},
         "sweep": {"field": "noise_sd_proxy", "grid": [1.0, 2.0, 4.0]}},
        {"simulation.csv":
         "40fdababa39b507fc3f3d6adb57c8d0d190d65c8f9b0a454fa42a4d5ac68c5d9"},
    ),
    "poisson": (
        {"model": SIM_MODEL | {"num_experiments": 5, "num_folds": 2},
         "size_mode": "poisson", "m0": 3.0, "num_replications": 4, "seed": 3,
         "mode": "mean"},
        {"simulation.csv":
         "3ef8bcaaec9d8040359c17cbefad2389c78e63abc231423b45f000d881207d5d",
         "simulation_manifest.json":
         "69e3f873fe793538c61f1227838ce3934de59c80e0902c24468e83f0d1daf43f"},
    ),
}
FIGURE2 = {
    "figure2_noise_sweep.csv":
    "358a5f591f0dc41092791478b75b7e9a25e73aa35f0f6c1df4d1a36f22605beb",
    "figure2_manifest.json":
    "f52428a9ec77c66e2385bd1ca5409302ea8537fecd54197f94eebe4c3a1ac6e5",
}
SMALL = EffectModel.from_correlations(
    0.5, 0.8, 0.6, 1.0, 1.5, -0.3, units_per_arm=40, num_experiments=20, num_folds=3,
)
CHECKS = {
    "selection": (
        lambda: check_rule_selection(base=SMALL, n_grid=(5, 20), replications=300, seed=3),
        "32a29154e54da2021d5d936579f7b61c89946b19a17ddf26ecff347d909b5f56",
    ),
    "rescaling-l1": (
        lambda: check_poisson_rescaling(replications=2000, seed=1),
        "ca1fc02f45014b562093eacb450d4153dbda1f3af7d92aa0ba3e8da8e4730e54",
    ),
    "rescaling-l2": (
        lambda: check_poisson_rescaling(leave_out=2, replications=2000, seed=1),
        "c98d91b99fba08e43100baa099628d34e7da92f2d79311db8151e79beb2fdf7e",
    ),
    "rescaling-one-arm": (
        lambda: check_poisson_rescaling(arm_means=(0.3,), replications=2000, seed=4),
        "3e9a233e37e8a4cfb6a2bc1abda95ffb9fbc2608bb7fe05ab14b917f69ca54be",
    ),
    "rescaling-three-arms-l2": (
        lambda: check_poisson_rescaling(
            leave_out=2, arm_means=(0.2, 0.5, 0.45), replications=2000, seed=5
        ),
        "9ba26396b0b4a0f137ede5d4fe16de37e024a68083a36901c1bf8b0a2b36ff4c",
    ),
    "rescaling-constant": (
        lambda: check_poisson_rescaling(
            rule_kind="constant", constant_arm=2, replications=2000, seed=6
        ),
        "a9609547e756f0d21be301dadca2c2e3c2c1dc3b83f30fdd9c51f383a1f5573b",
    ),
    # Unit counts up to about 60, the widest tally keys of two arms.
    "rescaling-m0-40-l2": (
        lambda: check_poisson_rescaling(m0=40.0, leave_out=2, replications=2000, seed=7),
        "a33967161a6e29b449504215dc8f4889800fa3fa8c415a454dd420d3c8fb9857",
    ),
    # Four arms: unit counts from 15 on have tallies too wide for an int64
    # key, and are scored without grouping.
    "rescaling-four-arms-m0-20": (
        lambda: check_poisson_rescaling(
            m0=20.0, arm_means=(0.2, 0.4, 0.6, 0.5), replications=3000, seed=9
        ),
        "94f1b453ef4e7766d64ee9e7e9df957f518a69ba18942def2c98af1e8e6266ff",
    ),
}


@pytest.mark.parametrize("degree", ["1", "2"])
@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_outputs_are_pinned(tmp_path, monkeypatch, name, degree):
    monkeypatch.setenv("RULEVAL_PARALLEL", degree)
    config, pins = SIMULATE[name]
    config_path, out = tmp_path / "config.json", tmp_path / "out"
    config_path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(out)]) == 0
    assert {f: sha256(out / f) for f in pins} == pins
    manifest = json.loads((out / "simulation_manifest.json").read_text())
    assert (manifest["zero_size_redraws"] > 0) == (name == "poisson")


def test_replicate_figure_2_is_pinned(tmp_path):
    assert main(["replicate-figure", "2", "--out-dir", str(tmp_path),
                 "--replications", "16"]) == 0
    assert {f: sha256(tmp_path / f) for f in FIGURE2} == FIGURE2


@pytest.mark.parametrize("degree", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_report_reprs_are_pinned(monkeypatch, name, degree):
    monkeypatch.setenv("RULEVAL_PARALLEL", degree)
    run, digest = CHECKS[name]
    assert hashlib.sha256(repr(run()).encode()).hexdigest() == digest
