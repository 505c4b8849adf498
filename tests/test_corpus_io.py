"""Corpus CSV export and ingestion: byte identity with the per-cell writer,
quoting, the bulk parser's handling of layout and faults, and a
differential test of the parser against the ``csv.reader`` one it replaced."""

import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def test_ingest_rejects_an_arm_that_numpy_truncates_with_a_warning(tmp_path, monkeypatch):
    """Some NumPy releases parse an integer cell such as 1.5 as a float,
    truncate it and emit a DeprecationWarning.  With warnings ignored, as
    the command line runs, the walk must still reject the cell."""
    path = tmp_path / "c.csv"
    write(path, "experiment_id,arm,unit_id,m1\ne,1,u1,1\ne,1.5,u2,2\n")
    loadtxt = np.loadtxt

    def truncating_loadtxt(fh, dtype, **kwargs):
        text = fh.read().replace("1.5", "1")
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return loadtxt(io.StringIO(text), dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(CorpusFormatError, match=r"line 3: column 'arm' must be a positive"):
            ingest_csv(str(path))


# ---------------------------------------------------------------------------
# differential: NumPy's C parser with the row walk against csv.reader

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
    newline = draw(st.sampled_from(("\n", "\r\n")))
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
def test_ingest_matches_the_csv_reader_parser(text):
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert outcome(ingest_csv, path) == outcome(oracle.ingest_csv, path)
    finally:
        os.remove(path)
