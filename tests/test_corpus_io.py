"""Corpus CSV export and ingestion: byte identity with the per-cell writer,
quoting, and the bulk parser's handling of layout and faults."""

import numpy as np
import pytest

from ruleval import (
    ArmData,
    CorpusFormatError,
    ExperimentCorpus,
    ExperimentData,
    ingest_csv,
    write_corpus_csv,
)
import unit_oracle as oracle

SPECIAL = [-0.0, 5e-324, 1e22, 0.1, 1e-5]


def write(path, text, newline="\n"):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text.replace("\n", newline))


def three_arm_corpus(ids=("e0", "e1")):
    rng = np.random.default_rng(3)
    exps = []
    for i, exp_id in enumerate(ids):
        arms = []
        for k, m in enumerate((4, 7, 5)[: 3 - i % 2]):
            units = rng.standard_normal((m, 3)) * 10.0 ** rng.integers(-8, 9, (m, 3))
            units[0, :] = SPECIAL[k : k + 3]
            units[-1, :] = SPECIAL[-3:]
            arms.append(ArmData(k + 1, units))
        exps.append(ExperimentData(exp_id, tuple(arms)))
    return ExperimentCorpus(tuple(exps), ("north_star", "p1", "p2"))


def assert_same_corpus(a, b):
    assert a.metric_names == b.metric_names
    assert [e.experiment_id for e in a.experiments] == [
        e.experiment_id for e in b.experiments
    ]
    for ea, eb in zip(a.experiments, b.experiments):
        assert ea.weight == eb.weight
        assert len(ea.arms) == len(eb.arms)
        for arm_a, arm_b in zip(ea.arms, eb.arms):
            assert arm_a.arm_index == arm_b.arm_index
            # Bit patterns, so -0.0 and 0.0 differ.
            assert np.array_equal(arm_a.units.view(np.int64), arm_b.units.view(np.int64))


def test_writer_matches_per_cell_oracle_byte_for_byte(tmp_path):
    corpus = three_arm_corpus()
    values = np.concatenate([a.units.ravel() for e in corpus.experiments for a in e.arms])
    for v in SPECIAL:
        assert (values.view(np.int64) == np.float64(v).view(np.int64)).any()
    write_corpus_csv(corpus, str(tmp_path / "fast.csv"))
    oracle.write_corpus_csv(corpus, str(tmp_path / "cells.csv"))
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "cells.csv").read_bytes()
    assert b",u000000,-0,4.9406564584124654e-324,1e+22\n" in fast
    assert_same_corpus(ingest_csv(str(tmp_path / "fast.csv")), corpus)


def test_round_trip_quotes_ids_and_metric_names(tmp_path):
    ids = ("a,b", 'q"x', "50%")
    corpus = three_arm_corpus(ids)
    corpus = ExperimentCorpus(corpus.experiments, ("north_star", "p,1", 'p"2'))
    path = tmp_path / "c.csv"
    write_corpus_csv(corpus, str(path))
    text = path.read_text()
    assert text.startswith('experiment_id,arm,unit_id,north_star,"p,1","p""2"\n')
    assert '\n"a,b",1,u000000,' in text
    assert '\n"q""x",2,u000001,' in text
    assert "\n50%,1,u000000," in text
    back = ingest_csv(str(path))
    # Ingestion orders experiments by id.
    order = np.argsort(ids)
    expected = ExperimentCorpus(
        tuple(corpus.experiments[i] for i in order), corpus.metric_names
    )
    assert_same_corpus(back, expected)


def test_ingest_quoted_fields_crlf_and_whitespace(tmp_path):
    plain = tmp_path / "plain.csv"
    write(plain, "experiment_id,arm,unit_id,m1,m2\ne,1,u1,1.5,2\ne,1,u2,3,4\n"
          "e,2,u1,5,6\ne,2,u2,7,8e-3\n")
    fancy = tmp_path / "fancy.csv"
    write(
        fancy,
        'experiment_id , arm,"unit_id",m1,"m2"\n'
        '"e", 1 ," u1",1.5 , 2\n'
        ' e ,"1",u2,"3",4\n'
        'e,2, u1 , 5,6\n'
        '"e",2,"u2", 7 ,"8e-3"\n\n',
        newline="\r\n",
    )
    assert_same_corpus(ingest_csv(str(fancy)), ingest_csv(str(plain)))


def test_ingest_groups_shuffled_three_arm_rows(tmp_path):
    corpus = three_arm_corpus(("b", "a", "c"))
    path = tmp_path / "c.csv"
    write_corpus_csv(corpus, str(path))
    header, *rows = path.read_text().splitlines()
    rng = np.random.default_rng(0)
    shuffled = tmp_path / "s.csv"
    write(shuffled, "\n".join([header] + [rows[i] for i in rng.permutation(len(rows))]) + "\n")
    back = ingest_csv(str(shuffled))
    assert_same_corpus(back, ingest_csv(str(path)))
    assert [e.experiment_id for e in back.experiments] == ["a", "b", "c"]
    assert [a.num_units for a in back.experiments[0].arms] == [4, 7]
    assert [a.num_units for a in back.experiments[1].arms] == [4, 7, 5]
    # Units come back in unit-id order, which is the writer's row order.
    for exp in back.experiments:
        original = next(e for e in corpus.experiments if e.experiment_id == exp.experiment_id)
        for arm_a, arm_b in zip(exp.arms, original.arms):
            assert np.array_equal(arm_a.units, arm_b.units)
            assert arm_a.units.flags.c_contiguous


@pytest.mark.parametrize(
    "line3, message",
    [
        ("e,2,u1,1.0,inf", r"line 3: column 'm2' is not finite: 'inf'"),
        ("e,2,,1.0,2.0", r"line 3: missing value in column 'unit_id'"),
        ("e,2,u1,-Infinity,2.0", r"line 3: column 'm1' is not finite: '-Infinity'"),
        ("e,2,u1,1.0, nan ", r"line 3: column 'm2' is not finite: 'nan'"),
    ],
)
def test_ingest_fault_on_line_three_names_line_and_column(tmp_path, line3, message):
    path = tmp_path / "c.csv"
    write(path, f"experiment_id,arm,unit_id,m1,m2\ne,1,u1,1.0,2.0\n{line3}\ne,2,u2,3,4\n")
    with pytest.raises(CorpusFormatError, match=message):
        ingest_csv(str(path))


def test_ingest_reports_the_first_fault_in_file_order(tmp_path):
    path = tmp_path / "c.csv"
    # A blank line still counts; the duplicate on line 4 comes before the
    # bad cell on line 5.
    write(path, "experiment_id,arm,unit_id,m1\ne,1,u1,1\n\ne,1,u1,2\ne,2,u1,x\n")
    with pytest.raises(CorpusFormatError, match=r"line 4: duplicate unit"):
        ingest_csv(str(path))
    write(path, "experiment_id,arm,unit_id,m1\ne,1,u1,1\ne,2,u1,2\n e ,1,u1 ,3\ne,2,u2,4\n")
    with pytest.raises(CorpusFormatError, match=r"line 4: duplicate unit \(experiment_id='e'"):
        ingest_csv(str(path))
    write(path, "experiment_id,arm,unit_id,m1\ne,1,u1,1\ne,0,u1,2\ne,1,u1,1\n")
    with pytest.raises(CorpusFormatError, match=r"line 3: column 'arm' must be >= 1"):
        ingest_csv(str(path))
    write(path, "experiment_id,arm,unit_id,m1\ne,1,u1,1\ne,1.5,u2,2\n")
    with pytest.raises(CorpusFormatError, match=r"line 3: column 'arm' must be a positive"):
        ingest_csv(str(path))
