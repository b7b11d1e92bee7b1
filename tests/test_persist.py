"""File formats: the hapax table and rank sequence round trips, and the
readers' line-numbered errors on malformed or self-contradictory files."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapaxchain.corpus import Document, HapaxTable, build_hapax_table
from hapaxchain.persist import (
    atomic_write_text,
    read_hapax_table,
    read_rank_sequence,
    read_rank_size_csv,
    write_hapax_table,
    write_rank_sequence,
)

HEADER = "word,frequency,dense_rank,ordinal_rank\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def toy_table():
    docs = [Document("d0", ("a", "c")), Document("d1", ("a", "d"))]  # tokens a b b c and a c c d
    return build_hapax_table(docs)


# ------------------------------------------------------------- hapax table


def test_hapax_table_round_trip(tmp_path):
    table = toy_table()
    path = write_hapax_table(tmp_path / "t.csv", table)
    assert path.read_text(encoding="utf-8") == HEADER + "a,2,1,1\nc,1,2,2\nd,1,2,3\n"
    back = read_hapax_table(path)
    assert back == table
    assert (back.dense_ranks, back.alphabet_size, back.total_occurrences) == ((1, 2, 2), 2, 4)


@settings(max_examples=40)
@given(st.dictionaries(st.text("abcdefgh", min_size=1, max_size=4), st.integers(1, 6), min_size=1, max_size=20))
def test_hapax_table_round_trip_any_counts(tmp_path_factory, counts):
    words, frequencies = zip(*sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    table = HapaxTable(words=words, frequencies=frequencies)
    path = write_hapax_table(tmp_path_factory.mktemp("t") / "t.csv", table)
    back = read_hapax_table(path)
    assert back == table
    assert back.dense_ranks == table.dense_ranks
    assert back.alphabet_size == len(set(frequencies))


def test_blank_lines_are_skipped_but_counted(tmp_path):
    path = write(tmp_path, "t.csv", HEADER + "a,2,1,1\n\nc,1,2,2\nd,1,7,3\n")
    with pytest.raises(ValueError, match=r"t\.csv, line 5: dense_rank,ordinal_rank should read 2,3"):
        read_hapax_table(path)


def test_dense_rank_column_must_match_frequencies(tmp_path):
    # The row b,1,7,2 used to load, and the table then had alphabet size 7
    # although it holds two distinct frequencies.
    path = write(tmp_path, "bad.csv", HEADER + "a,2,1,1\nb,1,7,2\n")
    with pytest.raises(ValueError, match=r"bad\.csv, line 3: dense_rank,ordinal_rank should read 2,2: 'b,1,7,2'"):
        read_hapax_table(path)


def test_ordinal_rank_column_must_count_rows(tmp_path):
    path = write(tmp_path, "bad.csv", HEADER + "a,2,1,1\nb,1,2,3\n")
    with pytest.raises(ValueError, match=r"bad\.csv, line 3: dense_rank,ordinal_rank should read 2,2"):
        read_hapax_table(path)


@pytest.mark.parametrize("rows, line", [
    ("b,1,1,1\na,2,1,2\n", 3),  # frequency rises
    ("b,1,1,1\na,1,1,2\n", 3),  # tie not in word order
    ("a,1,1,1\na,1,1,2\n", 3),  # same row twice
    ("a,2,1,1\nb,1,2,2\na,1,2,3\n", 4),  # word repeated with another frequency
    ("a,0,1,1\n", 2),  # not a hapax frequency
])
def test_rows_must_be_distinct_words_in_ordinal_order(tmp_path, rows, line):
    path = write(tmp_path, "bad.csv", HEADER + rows)
    with pytest.raises(ValueError, match=rf"bad\.csv, line {line}: repeated word, frequency below 1, or row out"):
        read_hapax_table(path)


@pytest.mark.parametrize("row", ["c,1", "c,1,2,3,4", "c,one,2,3", "c,1,2,x"])
def test_malformed_row_names_its_line(tmp_path, row):
    path = write(tmp_path, "bad.csv", HEADER + "a,2,1,1\n" + row + "\n")
    with pytest.raises(ValueError, match=r"bad\.csv, line 3: not a row of word,frequency,dense_rank,ordinal_rank"):
        read_hapax_table(path)


@pytest.mark.parametrize("text", ["", HEADER, "word,frequency\na,1\n"])
def test_not_a_table(tmp_path, text):
    path = write(tmp_path, "bad.csv", text)
    with pytest.raises(ValueError, match=r"bad\.csv is not a hapax table file"):
        read_hapax_table(path)


# --------------------------------------------------------------- fit input


def test_fit_input_from_hapax_table_is_its_ordinal_points(tmp_path):
    table = toy_table()
    path = write_hapax_table(tmp_path / "t.csv", table)
    assert read_rank_size_csv(path) == table.ordinal_points() == [(1, 2), (2, 1), (3, 1)]


def test_fit_input_from_rank_size_csv(tmp_path):
    path = write(tmp_path, "p.csv", "rank, size\n1,5.5\n\n2,4\n3,1e-3\n")
    assert read_rank_size_csv(path) == [(1, 5.5), (2, 4.0), (3, 1e-3)]


@pytest.mark.parametrize("row", ["2,4,1", "2,x", "2", "2.5,4"])
def test_fit_input_malformed_row_names_its_line(tmp_path, row):
    path = write(tmp_path, "p.csv", f"rank,size\n1,5\n{row}\n")
    with pytest.raises(ValueError, match=rf"p\.csv, line 3: not a row of rank,size: '{row}'"):
        read_rank_size_csv(path)


def test_fit_input_checks_hapax_table(tmp_path):
    path = write(tmp_path, "bad.csv", HEADER + "a,2,1,1\nb,1,7,2\n")
    with pytest.raises(ValueError, match=r"bad\.csv, line 3"):
        read_rank_size_csv(path)


@pytest.mark.parametrize("text", ["", "size,rank\n1,2\n"])
def test_fit_input_needs_a_known_header(tmp_path, text):
    path = write(tmp_path, "p.csv", text)
    with pytest.raises(ValueError, match=r"expected a 'rank,size' header or a hapax table"):
        read_rank_size_csv(path)


# ----------------------------------------------------------- rank sequence


@settings(max_examples=40)
@given(st.lists(st.integers(1, 500), max_size=50))
def test_rank_sequence_text_is_one_decimal_per_line(tmp_path_factory, values):
    seq = np.array(values, dtype=np.int64)
    path = write_rank_sequence(tmp_path_factory.mktemp("s") / "s.txt", seq)
    assert path.read_text(encoding="utf-8") == "".join(f"{v}\n" for v in values)


@settings(max_examples=40)
@given(st.lists(st.one_of(st.integers(1, 500), st.integers(1, 2**62)), min_size=1, max_size=50))
def test_rank_sequence_round_trip(tmp_path_factory, values):
    path = write_rank_sequence(tmp_path_factory.mktemp("s") / "s.txt", np.array(values, dtype=np.int64))
    back = read_rank_sequence(path)
    assert back.dtype == np.int64 and back.tolist() == values


@pytest.mark.parametrize("values, text", [([2**40], "1099511627776\n"), ([3, -1, 2], "3\n-1\n2\n")])
def test_rank_sequence_writer_formats_each_value(tmp_path, values, text):
    # one string per distinct value: a large rank costs no more than a small one,
    # and a value below 0 is written as itself
    assert write_rank_sequence(tmp_path / "s.txt", values).read_text(encoding="utf-8") == text


def test_rank_sequence_reader_takes_what_int_takes(tmp_path):
    path = write(tmp_path, "s.txt", " 4\n+3\n\n1_000 2\n")
    assert read_rank_sequence(path).tolist() == [4, 3, 1000, 2]


@pytest.mark.parametrize("bad", ["0", "-2", "x", "1.5", "2 0", "99999999999999999999"])
def test_rank_sequence_reader_names_the_line_that_is_not_a_rank(tmp_path, bad):
    path = write(tmp_path, "s.txt", f"1\n\n2\n{bad}\n0\n")  # the blank line still counts
    with pytest.raises(ValueError, match=rf"s\.txt, line 4: not a rank \(an integer >= 1\): {bad!r}$"):
        read_rank_sequence(path)


@pytest.mark.parametrize("text", ["", "\n \n"])
def test_rank_sequence_reader_needs_a_rank(tmp_path, text):
    with pytest.raises(ValueError, match="contains no rank values"):
        read_rank_sequence(write(tmp_path, "s.txt", text))


# ------------------------------------------------------------ atomic writes


def test_failed_atomic_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = write(tmp_path, "report.json", "old\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text(path, "new\n")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
