"""Byte pins of ``evaluate`` outputs across versions of the code.

Criterion 9 checks that one version gives the same bytes run after run;
these pins check that a change to the kernel or the parser does not move
them either.  The report digests were computed before the corpus-wide
k-fold pass and the NumPy-parsed ingest were introduced, which had to
reproduce them; the manifest digests changed once, when the manifest began
to record the seed.
They also depend on the float results of NumPy and its BLAS, so a
different build may move them; check such a move against the previous
version of the code on the same build before updating a pin.
"""

import hashlib
import json

import pytest

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
REPORTS = {
    0: "57ba455b1c2f9a035b1de37b4767cb3a8bbec401dfe688eb70b5205a2b3e02a1",
    1: "1dd5a8b816f11d3a60fa1a65eeaa70584b9d79bcdc2027371f40387a2e507103",
    2: "ffed5dbd637899a7dd7e95b7126393f189659854dad69254665c67ec69c07b43",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(REPORTS))
def test_evaluate_report_and_manifest_bytes_are_pinned(tmp_path, seed):
    corpus, rules, report = (tmp_path / name for name in ("corpus.csv", "rules.json", "report.csv"))
    rules.write_text(json.dumps(RULES))
    assert main(["make-corpus", "--out", str(corpus), "--experiments", "20",
                 "--units", "30", "--seed", str(seed)]) == 0
    assert main(["evaluate", "--corpus", str(corpus), "--rules", str(rules),
                 "--out", str(report), "--seed", str(seed)]) == 0
    assert sha256(report) == REPORTS[seed]
    manifest = tmp_path / "report.csv.manifest.json"
    assert json.loads(manifest.read_text())["config"]["seed"] == seed
    assert sha256(manifest) == MANIFESTS[seed]


def test_manifest_pins_differ_by_seed():
    assert len(set(MANIFESTS.values())) == len(MANIFESTS) == len(REPORTS)
