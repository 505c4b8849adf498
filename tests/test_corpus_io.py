"""Corpus CSV export and ingestion: byte identity with the per-cell writer,
quoting, the bulk parser's handling of layout and faults, and a
differential test of the parser against the ``csv.reader`` one it replaced."""

import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruleval import (
    ArmData,
    ArmStack,
    CorpusFormatError,
    DecisionRule,
    ExperimentCorpus,
    ExperimentData,
    RewardSpec,
    evaluate_rules,
    ingest_csv,
    make_synthetic_corpus,
    write_corpus_csv,
)
from ruleval import corpus as corpus_module
from ruleval.cli import main
from ruleval.simulator import DEFAULT_PROXIES
import unit_oracle as oracle

SPECIAL = [-0.0, 5e-324, 1e22, 0.1, 1e-5]
BOM = "\ufeff"  # a UTF-8 byte-order mark


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


def test_writer_matches_per_cell_oracle_across_row_blocks(tmp_path, monkeypatch):
    # Blocks of a few rows: arms and ids of different widths span them.
    monkeypatch.setattr(corpus_module, "_EXPORT_BLOCK_SLOTS", 1000)
    corpus = three_arm_corpus(("e", 'q"x', "a,b", "long-id-" * 5))
    write_corpus_csv(corpus, str(tmp_path / "fast.csv"))
    oracle.write_corpus_csv(corpus, str(tmp_path / "cells.csv"))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_writer_pads_unit_positions_to_at_least_six_digits(tmp_path):
    units = np.full((1_000_001, 1), 0.5)
    corpus = ExperimentCorpus((ExperimentData("e", (ArmData(1, units),)),), ("m",))
    write_corpus_csv(corpus, str(tmp_path / "c.csv"))
    text = (tmp_path / "c.csv").read_bytes()
    assert text.startswith(b"experiment_id,arm,unit_id,m\ne,1,u000000,0.5\n")
    assert text.endswith(b"\ne,1,u999999,0.5\ne,1,u1000000,0.5\n")
    # Every position below 10**6 has 6 digits: 16-byte lines, then 17.
    assert len(text) == 28 + 1_000_000 * 16 + 17


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
        ("   ", r"line 3 has 1 fields, header has 5"),
    ],
)
def test_ingest_fault_on_line_three_names_line_and_column(tmp_path, line3, message):
    path = tmp_path / "c.csv"
    write(path, f"experiment_id,arm,unit_id,m1,m2\ne,1,u1,1.0,2.0\n{line3}\ne,2,u2,3,4\n")
    with pytest.raises(CorpusFormatError, match=message):
        ingest_csv(str(path))


def test_ingest_skips_a_byte_order_mark(tmp_path):
    corpus = three_arm_corpus()
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_corpus_csv(corpus, str(plain))
    marked.write_bytes(BOM.encode("utf-8") + plain.read_bytes())
    write(tmp_path / "w.csv", "experiment_id,weight\ne1,2.5\n")
    write(tmp_path / "w_marked.csv", BOM + "experiment_id,weight\ne1,2.5\n")
    for weights in (None, "w"):
        want = ingest_csv(str(plain), weights and str(tmp_path / f"{weights}.csv"))
        got = ingest_csv(str(marked), weights and str(tmp_path / f"{weights}_marked.csv"))
        assert_same_corpus(got, want)
    assert want.experiments[1].weight == 2.5
    # A fault keeps its line and column.
    write(tmp_path / "w_marked.csv", BOM + "experiment_id,weight\ne0,1\ne1,-1\n")
    with pytest.raises(CorpusFormatError, match=r"line 3: column 'weight' must be nonneg"):
        ingest_csv(str(marked), str(tmp_path / "w_marked.csv"))
    write(marked, BOM + "experiment_id,arm,unit_id,m1,m2\ne,1,u1,1.0,2.0\ne,2,u1,1.0,x\n")
    with pytest.raises(CorpusFormatError, match=r"line 3: column 'm2' is not numeric: 'x'"):
        ingest_csv(str(marked))


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


def test_ingest_rejects_an_empty_metric_name_naming_its_column(tmp_path):
    path = tmp_path / "c.csv"
    for header, column in (("experiment_id,arm,unit_id,,y", 4),
                           ("experiment_id,arm,unit_id,y,", 5)):
        write(path, f"{header}\ne,1,u1,1,2\n")
        with pytest.raises(CorpusFormatError,
                           match=f"header column {column} has an empty metric name"):
            ingest_csv(str(path))


def test_ingest_names_the_line_of_an_arm_beyond_64_bits(tmp_path):
    path = tmp_path / "c.csv"
    write(path, "experiment_id,arm,unit_id,m\ne,1,u1,1\ne,9223372036854775808,u1,2\n")
    with pytest.raises(CorpusFormatError,
                       match=r"line 3: column 'arm' is out of range, got 9223372036854775808"):
        ingest_csv(str(path))


@pytest.mark.parametrize("cell", ["2", "2_0"])  # 2_0: a cell only float reads
def test_ingest_rejects_a_nul_in_an_id_cell(tmp_path, cell):
    # A NumPy string array drops a trailing NUL: e1\0 arm 1 and e1 arm 2
    # must not ingest as one two-arm experiment e1.
    path = tmp_path / "c.csv"
    write(path, f"experiment_id,arm,unit_id,m\ne1,2,u1,{cell}\ne1\0,1,u1,1\n")
    with pytest.raises(CorpusFormatError,
                       match=r"line 3: column 'experiment_id' holds a NUL character: 'e1\\x00'"):
        ingest_csv(str(path))
    write(path, f"experiment_id,arm,unit_id,m\ne,1,u1,{cell}\ne,1,u\x001,1\ne,2,u1,1\n")
    with pytest.raises(CorpusFormatError,
                       match=r"line 3: column 'unit_id' holds a NUL character: 'u\\x001'"):
        ingest_csv(str(path))


def test_ingest_parses_from_the_path_unless_newlines_or_the_name_forbid_it(tmp_path):
    # A header of two lines, a compressed-looking name and a quoted \r are
    # read as csv.reader reads them.
    header = 'experiment_id,arm,unit_id,"m\nx"\n'
    for name, rows in (
        ("c.csv", 'e,1,u1,1\ne,2,u1,2\n'),
        ("c.csv.gz", 'e,1,u1,1\ne,2,u1,2\n'),
        ("r.csv", '"e\rf",1,u1,1\n"e\rf",2,u1,2\n'),
    ):
        write(tmp_path / name, header + rows)
        corpus = ingest_csv(str(tmp_path / name))
        assert corpus.metric_names == ("m\nx",)
        assert corpus.stack.ids == (rows[: rows.index(",")].strip('"'),)
        assert corpus.stack.units.tolist() == [[1.0], [2.0]]


@pytest.fixture
def lexsort_calls(monkeypatch):
    """Every ``np.lexsort`` call the test makes, counted."""
    calls, lexsort = [], np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    return calls


def test_ingest_sorts_only_rows_out_of_order_and_reports_the_same_bytes(tmp_path, lexsort_calls):
    corpus = tmp_path / "c.csv"
    assert main(["make-corpus", "--out", str(corpus), "--experiments", "12",
                 "--units", "9", "--seed", "3"]) == 0
    header, *rows = corpus.read_text().splitlines()
    shuffled = tmp_path / "s.csv"
    order = np.random.default_rng(0).permutation(len(rows))
    write(shuffled, "\n".join([header] + [rows[i] for i in order]) + "\n")
    rules = tmp_path / "rules.json"
    write(rules, '{"reward": {"metric": "north_star"}, "fold_counts": [2, 3], '
                 '"bootstrap_replicates": 100, "rules": ['
                 '{"name": "good", "blend": {"metric": "good_proxy"}}, '
                 '{"name": "gated", "blend": {"metric": "bad_proxy"}, '
                 '"gate": "significant-vs-reference"}]}')
    reports = []
    for path in (corpus, shuffled):
        out = tmp_path / f"{path.stem}_report.csv"
        calls = len(lexsort_calls)
        assert main(["evaluate", "--corpus", str(path), "--rules", str(rules),
                     "--out", str(out), "--seed", "1"]) == 0
        reports.append((out.read_bytes(), len(lexsort_calls) - calls))
    assert reports[0][0] == reports[1][0]
    assert [calls for _, calls in reports] == [0, 1]


def test_ingest_strips_unicode_whitespace_around_ids_without_walking(tmp_path, monkeypatch):
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    write(plain, "experiment_id,arm,unit_id,m\ne,1,u1,1\ne,1,u2,2\ne,2,u1,3\n")
    write(padded, "experiment_id,arm,unit_id,m\n\xa0e ,1,\tu1\xa0,1\n"
                  "e\u2003,1, u2\u3000,2\n\u00a0 e\t,2,\xa0u1,3\n")
    monkeypatch.setattr(corpus_module, "_walk_rows", lambda *args: pytest.fail("rows walked"))
    assert_same_corpus(ingest_csv(str(padded)), ingest_csv(str(plain)))


@pytest.mark.parametrize("rows, sorts", [
    ("e,1,u1,1\ne,1,u2,2\ne,1,u2,3\ne,2,u1,4\n", 0),
    ("e,2,u1,4\ne,1,u2,2\ne,1,u1,1\ne,1,u2,3\n", 1),
])
def test_ingest_catches_a_duplicate_with_and_without_sorting(tmp_path, lexsort_calls, rows, sorts):
    path = tmp_path / "c.csv"
    write(path, "experiment_id,arm,unit_id,m\n" + rows)
    line = 4 if sorts == 0 else 5
    with pytest.raises(CorpusFormatError, match=(
            rf"line {line}: duplicate unit \(experiment_id='e', arm=1, unit_id='u2'\)")):
        ingest_csv(str(path))
    assert len(lexsort_calls) == sorts


def test_ingest_parses_unquoted_ids_into_fixed_width_columns(tmp_path, monkeypatch):
    # The byte parse reads ids and unit ids into fixed-width columns, also
    # an id of 100,000 characters (short of ``csv.reader``'s default field
    # limit of 131,072, so the walk reads it too), quoted ids, CRLF and CR
    # line ends and a blank line, without the walk.  An id quoted for its
    # comma is walked.  All give the walk's stack.
    made = tmp_path / "made.csv"
    assert main(["make-corpus", "--out", str(made), "--experiments", "12",
                 "--units", "9", "--seed", "4"]) == 0
    text = made.read_text()
    write(tmp_path / "unended.csv", text.rstrip("\n"))
    write(tmp_path / "quoted.csv", "".join(
        '"' + line.replace(",", '",', 1) for line in text.splitlines(keepends=True)))
    write(tmp_path / "crlf.csv", text, newline="\r\n")
    write(tmp_path / "cr.csv", text, newline="\r")
    write(tmp_path / "blank.csv", text + "\n")
    write(tmp_path / "wide.csv", "experiment_id,arm,unit_id,m\ne,1,u1,1\n"
                                 + "x" * 100_000 + ",1,u1,2\ne,2,u1,3\n")
    write(tmp_path / "comma.csv", text.replace("exp03,", '"a,b",'))
    walk, walks = corpus_module._walk_rows, []
    for name, walked in (("made.csv", False), ("unended.csv", False), ("wide.csv", False),
                         ("quoted.csv", False), ("crlf.csv", False), ("cr.csv", False),
                         ("blank.csv", False), ("comma.csv", True)):
        path = str(tmp_path / name)
        with monkeypatch.context() as patch:
            patch.setattr(corpus_module, "_walk_rows",
                          lambda *args: walks.append(name) or walk(*args))
            bulk = ingest_csv(path).stack
        assert walks == [name] * walked
        walks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(corpus_module, "_bulk_columns", lambda *args: None)
            by_walk = ingest_csv(path).stack
        assert bulk.ids == by_walk.ids
        for field in ("units", "sizes", "starts", "first_arm", "weights"):
            a, b = getattr(bulk, field), getattr(by_walk, field)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_ingest_of_a_quoted_file_with_one_wide_id_keeps_the_unit_column_narrow(tmp_path):
    # The byte parse gathers each column as wide as its own widest cell, so
    # only the ids are as wide as the quoted 5,000-character id: the ids
    # and their sorted copy take 2 x 1,000 x 5,002 x 4 bytes = 40 MB.  One
    # width for both columns would make the units as wide, and the peak
    # twice that.
    rows = [f'"{"w" * 5000 if i == 0 else f"e{i // 10}"}",{i % 2 + 1},"u{i}",{i}\n'
            for i in range(1000)]
    path = tmp_path / "wide.csv"
    write(path, "experiment_id,arm,unit_id,m\n" + "".join(rows))
    tracemalloc.start()
    try:
        corpus = ingest_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(corpus.stack.ids) == 101 and corpus.stack.units.shape == (1000, 1)
    assert peak < 60e6, peak


def test_ingest_walks_comma_ids_in_a_few_times_the_file_size(tmp_path):
    # A quoted id holding a comma sends the file to the walk, which only
    # names faults and hands the cells to the byte parse.  When the walk
    # converted the rows itself, it held every row's cells and four more
    # lists: a tracemalloc peak of 10 times the file, 3.3 MB here (115.6 MB
    # on the 700-experiment default corpus).
    made, comma = tmp_path / "made.csv", tmp_path / "comma.csv"
    assert main(["make-corpus", "--out", str(made), "--experiments", "20", "--seed", "4"]) == 0
    write(comma, re.sub(r"(?m)^exp(\d+),", r'"exp,\1",', made.read_text()))
    tracemalloc.start()
    try:
        walked = ingest_csv(str(comma)).stack
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * os.path.getsize(comma), peak
    plain = ingest_csv(str(made)).stack
    assert walked.ids == tuple(exp_id.replace("exp", "exp,") for exp_id in plain.ids)
    for field in ("units", "sizes", "starts", "first_arm", "weights"):
        a, b = getattr(walked, field), getattr(plain, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_ingest_names_the_line_of_a_cell_past_the_csv_field_limit(tmp_path):
    # csv.reader refuses a cell of more than 131,072 characters: here in a
    # file that a quoted comma or line break sends to the walk, and in a
    # weight file.  Its csv.Error escaped as a traceback, and then named
    # the physical line csv.reader had reached (5 and 4 with the quoted
    # line break) where other errors count records.
    path, weights = tmp_path / "c.csv", tmp_path / "w.csv"
    for exp_id in ('"a,b"', '"a\nb"'):
        write(path, f"experiment_id,arm,unit_id,m\n{exp_id},1,u1,1\n{exp_id},2,"
              + "u" * 200_000 + ",2\n")
        with pytest.raises(CorpusFormatError,
                           match=r"c\.csv: line 3: field larger than field limit \(131072\)$"):
            ingest_csv(str(path))
    for exp_id in ("a", '"a\nb"'):
        write(path, f"experiment_id,arm,unit_id,m\n{exp_id},1,u1,1\n{exp_id},2,u1,2\n")
        write(weights, f"experiment_id,weight\n{exp_id},1\n" + "b" * 200_000 + ",2\n")
        with pytest.raises(CorpusFormatError,
                           match=r"w\.csv: line 3: field larger than field limit \(131072\)$"):
            ingest_csv(str(path), str(weights))


def test_weight_file_joins_on_the_ids(tmp_path):
    path, weights = tmp_path / "c.csv", tmp_path / "w.csv"
    write(path, "".join(["experiment_id,arm,unit_id,m\n"]
                        + [f"{e},{k},u1,{k}\n" for e in ("c", "a", "b") for k in (1, 2)]))
    write(weights, "experiment_id,weight\nc,3\n a ,0.5\n")
    corpus = ingest_csv(str(path), str(weights))
    assert corpus.stack.ids == ("a", "b", "c")
    assert corpus.stack.weights.tolist() == [0.5, 1.0, 3.0]
    assert [e.weight for e in corpus.experiments] == [0.5, 1.0, 3.0]
    for text, message in (
        ("c,3\nzz,1\n", r"line 3: unknown experiment_id 'zz'"),
        ("c,3\nc\0,1\n", r"line 3: unknown experiment_id 'c\\x00'"),
        ("b,x\na,1\na,2\n", r"line 2: column 'weight' is not numeric"),
        ("a,1\nb,2\na,2\n", r"line 4: duplicate experiment_id 'a'"),
    ):
        write(weights, "experiment_id,weight\n" + text)
        with pytest.raises(CorpusFormatError, match=message):
            ingest_csv(str(path), str(weights))


def test_weight_cell_is_stripped_as_metric_cells_are(tmp_path):
    # float() refuses the information separators (\x1c-\x1f) that
    # str.strip removes; metric cells were already stripped first.
    path, weights = tmp_path / "c.csv", tmp_path / "w.csv"
    write(path, "experiment_id,arm,unit_id,m\na,1,u1,1\na,2,u1,2\n")
    write(weights, "experiment_id,weight\na,2\x1c\n")
    assert ingest_csv(str(path), str(weights)).stack.weights.tolist() == [2.0]
    write(weights, "experiment_id,weight\na,x\x1c\n")
    with pytest.raises(CorpusFormatError, match=r"not numeric: 'x\\x1c'$"):
        ingest_csv(str(path), str(weights))


def test_export_ingest_and_evaluate_build_no_per_arm_objects(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("an ArmData was built")

    proxies = tuple(DEFAULT_PROXIES)
    corpus, _ = make_synthetic_corpus(8, 6, 0.2, 0.1, 1.0, 1.0, proxies, seed=2)
    monkeypatch.setattr(ArmData, "__post_init__", refuse)
    write_corpus_csv(corpus, str(tmp_path / "c.csv"))
    back = ingest_csv(str(tmp_path / "c.csv"))
    assert np.array_equal(back.stack.units, corpus.stack.units)
    rules = [("good", DecisionRule(blend=[0.0, 1.0, 0.0])),
             ("gated", DecisionRule(blend=[0.0, 1.0, 0.0], gate="significant-vs-reference"))]
    evaluate_rules(back, rules, RewardSpec.metric(1), fold_counts=(2, 3),
                   bootstrap_replicates=100)
    with pytest.raises(AssertionError, match="an ArmData was built"):
        back.experiments


def test_in_memory_corpus_is_stacked_in_the_order_given():
    corpus = three_arm_corpus(("b", "a"))
    assert corpus.stack.ids == ("b", "a")
    assert corpus.stack.sizes.tolist() == [4, 7, 5, 4, 7]
    assert corpus.stack.first_arm.tolist() == [0, 3, 5]
    assert corpus.stack.starts.tolist() == [0, 4, 11, 16, 20, 27]
    again = ExperimentCorpus(corpus.experiments, corpus.metric_names)
    assert_same_corpus(again, corpus)
    with pytest.raises(CorpusFormatError, match="has 3 metrics, corpus schema has 2"):
        ExperimentCorpus(corpus.experiments, ("y", "p"))


def test_in_memory_corpus_rejects_a_repeated_experiment_id():
    # Accepted, the two were scored as separate experiments sharing every
    # fold permutation, and exported under one id that ingest_csv rejects.
    exps = three_arm_corpus(("a", "b")).experiments
    repeated = (exps[0], exps[1], ExperimentData("a", exps[1].arms))
    with pytest.raises(CorpusFormatError, match="^experiment id 'a' appears more than once"):
        ExperimentCorpus(repeated, ("north_star", "p1", "p2"))


ID_RULE = ("^experiment_id must be a non-empty string without a NUL character or "
           "surrounding whitespace, got ")


def one_id_stack(exp_id):
    return lambda _: ArmStack.from_sizes(np.ones((2, 1)), [1, 1], [2], [exp_id], [1.0])


@pytest.mark.parametrize("field, value, message", [
    ("units", np.nan, r"^experiment 'b', arm 2, unit 1: metric 'p1' is not finite: nan$"),
    ("units", -np.inf, r"^experiment 'b', arm 2, unit 1: metric 'p1' is not finite: -inf$"),
    ("weights", np.inf, r"^experiment 'b': weight must be finite and nonnegative, got inf$"),
    ("weights", -1.0, r"^experiment 'b': weight must be finite and nonnegative, got -1.0$"),
    # Stacks whose parts do not fit together (a function gives the stack).
    ("units", lambda _: ArmStack.from_sizes(np.arange(10.0).reshape(5, 2), [2, 2], [2],
                                            ["e"], [1.0]),
     r"^stack starts must be the running sums of its sizes, from 0 to its 5 unit rows$"),
    ("starts", lambda s: s._replace(starts=s.starts + [0, 1, 1, 1, 1, 0]),
     r"^stack starts must be the running sums of its sizes, from 0 to its 27 unit rows$"),
    ("sizes", lambda s: ArmStack.from_sizes(s.units, [4, 7, 5, 11, 0], [3, 2], s.ids,
                                            s.weights),
     r"^stack sizes must be >= 1, got 0 for arm 4$"),
    ("first_arm", lambda s: s._replace(first_arm=np.array([0, 3, 4])),
     r"^stack first_arm must rise from 0 to the arm count 5, got \[0, 3, 4\]$"),
    ("first_arm", lambda s: s._replace(first_arm=np.array([1, 3, 5])),
     r"^stack first_arm must rise from 0 to the arm count 5, got \[1, 3, 5\]$"),
    ("first_arm", lambda s: s._replace(first_arm=np.array([0, 5, 5])),
     r"^stack first_arm must rise from 0 to the arm count 5, got \[0, 5, 5\]$"),
    ("ids", lambda s: s._replace(ids=("a",)),
     r"^stack has 1 ids and 2 weights for 2 experiments$"),
    ("weights", lambda s: s._replace(weights=np.ones(3)),
     r"^stack has 2 ids and 3 weights for 2 experiments$"),
    # Ids that check_id rejects: the export wrote " a" and read it
    # back as "a", wrote "" and rejected it on ingest, stored "a\0", and
    # raised a TypeError on 3.
    ("ids", one_id_stack(" a"), ID_RULE + "' a'$"),
    ("ids", one_id_stack(""), ID_RULE + "''$"),
    ("ids", one_id_stack("a\0"), ID_RULE + r"'a\\x00'$"),
    ("ids", one_id_stack(3), ID_RULE + "3$"),
])
def test_in_memory_stack_rejects_values_the_export_cannot_write_back(field, value, message):
    # Accepted, a NaN unit was exported as "nan", which ingest_csv rejects,
    # and a stack whose sizes did not cover its units failed the export
    # with a NumPy broadcast error.
    stack = three_arm_corpus(("a", "b")).stack
    if callable(value):
        stack = value(stack)
    else:
        array = getattr(stack, field).copy()
        if field == "units":
            array[stack.starts[4] + 1, 1] = value  # arm 2 of "b", its unit 1
        else:
            array[1] = value
        stack = stack._replace(**{field: array})
    with pytest.raises(CorpusFormatError, match=message):
        ExperimentCorpus(stack, ("north_star", "p1", "p2")[: stack.units.shape[1]])


def test_in_memory_stack_needs_a_column_per_metric():
    # Accepted, the export failed on a NumPy broadcast error.
    stack = three_arm_corpus(("a", "b")).stack
    with pytest.raises(CorpusFormatError,
                       match=r"^stack units have shape \(27, 3\), corpus schema has 2 metrics$"):
        ExperimentCorpus(stack, ("north_star", "p1"))


@pytest.mark.parametrize("experiments", [
    [],
    ArmStack.from_sizes(np.empty((0, 1)), [], [], [], []),
], ids=["list", "stack"])
def test_in_memory_corpus_needs_an_experiment(experiments):
    # Accepted, the corpus exported a header-only file that ingest_csv
    # rejects ("no data rows"), and evaluate_rules scored it as 0.0.
    with pytest.raises(CorpusFormatError, match="^corpus needs at least one experiment$"):
        ExperimentCorpus(experiments, ("a",))


@pytest.mark.parametrize("names, message", [
    (("y", "p", "y"), r"^duplicate metric names \('y', 'p', 'y'\)"),
    (("y", "", "p"), "^column 5 has an empty metric name"),
    (("y", " z", "p"), r"^column 5 has a metric name with surrounding whitespace: ' z'"),
    (("y\n", "p", "z"), r"^column 4 has a metric name with surrounding whitespace: 'y\\n'"),
    (("y", 2, "p"), "^column 5 has a metric name that is not a string: 2"),
])
def test_in_memory_corpus_rejects_metric_names_ingest_cannot_read_back(names, message):
    # Accepted, the export wrote them and ingest rejected the file or read
    # back a different name.
    with pytest.raises(CorpusFormatError, match=message):
        ExperimentCorpus(three_arm_corpus(("a",)).experiments, names)


# ---------------------------------------------------------------------------
# differential: the byte parse with the row walk against csv.reader

IDS = ("e", "f", "a,b", 'q"x', "n\nl", " pad ", "r\r\nn")
METRIC_CELLS = (
    "nan", "inf", "-Infinity", "1_000", " 2.5 ", "", "x", "1e500", "\u0663",
    "0x1", "+.5", "-0", "1e-400", "\xa07", "1,5", '3"', " ", "1.0 \t",
)
ARM_CELLS = ("0", "1.5", "1_0", " 2 ", "+1", "x", "99999999999999999999", "", "\u0661")


def render(cell: str, quoted: bool) -> str:
    if quoted or any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def corpus_texts(draw):
    """A corpus CSV text: valid rows (random ids, arm counts, unit counts,
    quoting, padding and line endings) with up to three faults or odd
    lines mixed in."""
    num_metrics = draw(st.integers(1, 3))
    rows = []
    for exp_id in draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=3, unique=True)):
        for arm in range(1, draw(st.integers(1, 3)) + 1):
            for unit in range(draw(st.integers(1, 3))):
                values = draw(st.lists(
                    st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=num_metrics, max_size=num_metrics))
                rows.append([exp_id, str(arm), f"u{unit}"] + [repr(v) for v in values])
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(("metric", "arm", "id", "extra", "missing", "duplicate")))
        row = list(rows[i])
        if kind == "metric" and len(row) > 3:
            row[draw(st.integers(3, len(row) - 1))] = draw(st.sampled_from(METRIC_CELLS))
        elif kind == "arm":
            row[1] = draw(st.sampled_from(ARM_CELLS))
        elif kind == "id":
            row[draw(st.sampled_from((0, 2)))] = draw(st.sampled_from(("", " ", "u0 ", "z")))
        elif kind == "extra":
            row.append(draw(st.sampled_from(("", "9", " "))))
        elif kind == "missing":
            row.pop()
        if kind == "duplicate":
            rows.insert(i, row)
        else:
            rows[i] = row
    for _ in range(draw(st.integers(0, 2))):  # blank and whitespace-only lines
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(("", " ", "\t"))))
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    header = ["experiment_id", " arm", "unit_id"] + [f"m{j}" for j in range(num_metrics)]
    lines = [",".join(render(c, draw(st.booleans())) for c in header)]
    for row in rows:
        if isinstance(row, str):  # written as is
            lines.append(row)
            continue
        cells = []
        for cell in row:
            pad = draw(st.sampled_from(("", " ", "\t"))) if draw(st.booleans()) else ""
            quoted = draw(st.booleans())
            cells.append(render(cell, quoted) if quoted else pad + render(cell, False) + pad)
        lines.append(",".join(cells))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


def outcome(parse, path):
    """A parse's corpus (ids, arms and value bits) or its error."""
    try:
        corpus = parse(path)
    except Exception as err:  # the type and message are compared
        return (type(err).__name__, str(err))
    return corpus.metric_names, [
        (exp.experiment_id, [(arm.arm_index, arm.units.shape, arm.units.tobytes())
                             for arm in exp.arms])
        for exp in corpus.experiments
    ]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(corpus_texts())
@example('experiment_id,arm,unit_id,m\ne,1,u1,1_000\ne,2,u1,2\n')
@example('experiment_id,arm,unit_id,m\ne,1,u1,1\n  \ne,2,u1,2\n')
@example('experiment_id,arm,unit_id,m\ne,1,u1,1,\ne,2,u1,2\n')
@example('experiment_id,arm,unit_id,m\n"a\nb",1,u1,1\n"a\nb",2,u1,x\n')
@example('experiment_id,arm,unit_id,m\ne,99999999999999999999,u1,1\n')
@example('experiment_id,arm,unit_id,m\n\n\n')
@example('experiment_id,arm,unit_id,m\ne1\0,1,u1,1\ne1,2,u1,2\n')
@example('experiment_id,arm,unit_id,m\ne,1,u1\0,1\ne,1,u1,2_0\n')
@example('experiment_id,arm,unit_id,m\neeee,1,uuuu,1\n\U0001d522\xe9,1,\xfc\U0001d532,2\n'
         '\U0001d522\xe9,2,\xfc\U0001d532,3\neeee,2,uuuu,4\n')
@example('experiment_id,arm,unit_id,m\ne,1,u1,1\ne,2,u1,2\nwidest,1,unit_widest,3')
@example('experiment_id,arm,unit_id,m\ne,1,u1,1\n' + "x" * 100_000 + ',1,u1,2\ne,2,u1,3\n')
# Information separators, which ``str.strip`` removes and ``int`` and
# ``float`` refuse: in an arm cell, in a metric cell (also of a file that
# ``1_000`` sends to the walk to parse), and in an arm cell of a file whose
# duplicate unit on line 6 sends it to the walk.
@example('experiment_id,arm,unit_id,m\ne,1\x1c,u1,2\ne,2,u1,3\n')
@example('experiment_id,arm,unit_id,m\ne,1,u1,2\x1c\ne,2,u1,3\n')
@example('experiment_id,arm,unit_id,m\ne,1,u1,2\x1c\ne,1,u2,1_000\ne,2,u1,3\n')
@example('experiment_id,arm,unit_id,m\ne,1\x1c,u1,2\ne,1,u2,1\ne,2,u1,3\ne,2,u2,4\n'
         'e,2,u2,5\n')
# Cells that the byte parse hands to float or int, and a non-ASCII id.
@example('experiment_id,arm,unit_id,m\ne,1,u1,+1.5\ne,1,u2, 2.5 \ne,1,u3,1_000\n'
         'e,2,u1,1E5\ne,2,u2,.5\ne,2,u3,5.\n')
@example('experiment_id,arm,unit_id,m\ne, 2,u1,1\ne,1,u1,2\n')
@example('experiment_id,arm,unit_id,m\n\xe9\U0001d522,1,u1,1\n\xe9\U0001d522,2,u1,2\n')
# Line ends and quotes that the byte parse reads (\r\r\n ends a record and
# adds a blank one, blank lines around the data, quoted numbers) or leaves
# to the walk (an empty quoted id, text after a closing quote, a space
# before an opening one, an escaped quote, a line break in a header cell,
# also one whose second line would scan as the data row e,1,u1,"1", and a
# one-byte cell '"' whose quote opens a field that csv.reader reads across
# two lines).
@example('experiment_id,arm,unit_id,m\r\r\ne,1,u1,1\r\r\ne,2,u1,2\r\r\n')
@example('experiment_id,arm,unit_id,m\n\n\ne,1,u1,1\ne,2,u1,2\n\n')
@example('experiment_id,arm,unit_id,m\ne,1,u1,"1.5"\ne,2,u1," 2.5 "\n')
@example('experiment_id,arm,unit_id,m\n"",1,u1,1\n"",2,u1,2\n')
@example('experiment_id,arm,unit_id,m\n"e"x,1,u1,1\n"e"x,2,u1,2\n')
@example('experiment_id,arm,unit_id,m\n "e",1,u1,1\n "e",2,u1,2\n')
@example('experiment_id,arm,unit_id,m\n"q""x",1,u1,1\n"q""x",2,u1,2\n')
@example('experiment_id,arm,unit_id,"m\rx"\ne,1,u1,1\ne,2,u1,2\n')
@example('experiment_id,arm,unit_id,"m\ne,1,u1,"1"\ne,2,u1,2\n')
@example('experiment_id,arm,unit_id,m\ne,1,",1\ne,2,a"b,2\n')
# Walked files whose cells the byte parse converts as csv.reader left them,
# reading no quote: a cell whose content starts and ends with a quote, an
# escaped quote beside a quoted comma and a duplicate unit, and a header
# cell holding a NUL (a file with a NUL is walked).
@example('experiment_id,arm,unit_id,m\n"""x""",1,"u,1",1\n"""x""",2,"u,1",2\n')
@example('experiment_id,arm,unit_id,m\n"q""y",1,"u,1",1\n"q""y",2,"u,1",2\n'
         '"q""y",2,"u,1",3\n')
@example('experiment_id,arm,unit_id,"m\0"\ne,1,u1,1\ne,2,u1,2\n')
def test_ingest_matches_the_csv_reader_parser(text):
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert outcome(ingest_csv, path) == outcome(oracle.ingest_csv, path)
    finally:
        os.remove(path)


# Id characters: ASCII, two-, three- and four-byte UTF-8, and whitespace that
# ``str.strip`` removes.
ID_CHARS = "ab09_. \t\xa0\xe9\u2003\u3000\U0001d522"


@st.composite
def unquoted_corpus_texts(draw):
    """A corpus CSV text with no quote and no carriage return, which the byte
    parse reads into fixed-width id and unit columns unless a line is
    ragged: ids and unit ids of up to six ``ID_CHARS``, at most one ragged
    line, with or without a final newline."""
    num_metrics = draw(st.integers(1, 3))
    cells = st.text(ID_CHARS, max_size=6)
    lines = [",".join(["experiment_id", "arm", "unit_id"]
                      + [f"m{j}" for j in range(num_metrics)])]
    for exp_id in draw(st.lists(cells, min_size=1, max_size=3)):
        for arm in range(1, draw(st.integers(1, 3)) + 1):
            for unit_id in draw(st.lists(cells, min_size=1, max_size=3)):
                values = draw(st.lists(
                    st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=num_metrics, max_size=num_metrics))
                lines.append(",".join([exp_id, str(arm), unit_id] + [repr(v) for v in values]))
    if draw(st.booleans()):
        i = draw(st.integers(1, len(lines) - 1))
        lines[i] = draw(st.sampled_from((lines[i] + ",1", lines[i][: lines[i].rindex(",")])))
    return "\n".join(lines) + draw(st.sampled_from(("", "\n")))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(unquoted_corpus_texts())
def test_fixed_width_ingest_matches_the_csv_reader_parser(text):
    test_ingest_matches_the_csv_reader_parser.hypothesis.inner_test(text)
