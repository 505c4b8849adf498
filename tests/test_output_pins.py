"""Byte pins of ``evaluate`` outputs across versions of the code.

Criterion 9 checks that one version gives the same bytes run after run;
these pins check that a change to the kernel or the parser does not move
them either.  The digests were computed before the corpus-wide k-fold pass
and the NumPy-parsed ingest were introduced, which had to reproduce them.
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
MANIFEST = "651441e08d71836d9969a948bc106786d5b4e5f1629de212d848a3fca773e677"
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
    assert sha256(tmp_path / "report.csv.manifest.json") == MANIFEST
