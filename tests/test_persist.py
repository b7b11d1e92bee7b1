"""File formats: the hapax table and rank sequence round trips, and the
readers' line-numbered errors on malformed or self-contradictory files."""

import json
import math
import os
import re

import numpy as np
import persist_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapaxchain import persist
from hapaxchain.corpus import Corpus, HapaxTable, build_hapax_table
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
    docs = Corpus.of([("d0", ("a", "c")), ("d1", ("a", "d"))])  # tokens a b b c and a c c d
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


@pytest.mark.parametrize("row", ["c,1", "c,1,2,3,4", "c,one,2,3", "c,1,2,x",
                                 f"c,{'9' * 20},2,3"])  # a frequency beyond int64
def test_malformed_row_names_its_line(tmp_path, row):
    path = write(tmp_path, "bad.csv", HEADER + "a,2,1,1\n" + row + "\n")
    with pytest.raises(ValueError, match=r"bad\.csv, line 3: not a row of word,frequency,dense_rank,ordinal_rank"):
        read_hapax_table(path)


@pytest.mark.parametrize("text", ["", HEADER, "word,frequency\na,1\n"])
def test_not_a_table(tmp_path, text):
    path = write(tmp_path, "bad.csv", text)
    with pytest.raises(ValueError, match=r"bad\.csv is not a hapax table file"):
        read_hapax_table(path)


def table_lines(counts):
    """The rows, without line ends, of the table of a word -> frequency mapping."""
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    table = HapaxTable(words=tuple(w for w, _ in rows), frequencies=tuple(f for _, f in rows))
    return [f"{w},{f},{d},{o}" for o, (w, f, d) in enumerate(zip(table.words, table.frequencies, table.dense_ranks), 1)]


def spoil(lines, how, i, j):
    """``lines`` (the rows of a table) spoiled in one of a few ways at rows i and j."""
    lines, i, j = list(lines), i % len(lines), j % len(lines)
    fields = lines[i].split(",")
    if how == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif how == "repeat":
        lines[i] = ",".join([lines[j].split(",")[0], *fields[1:]])
    elif how == "rank":
        fields[2 + j % 2] = str(int(fields[2 + j % 2]) + 1 + j % 3)
        lines[i] = ",".join(fields)
    elif how == "frequency":  # row i's frequency set to j - 2, the dense ranks derived from the new column
        rows = [ln.split(",") for ln in lines]
        rows[i][1] = str(j - 2)
        dense = np.cumsum(np.diff([int(r[1]) for r in rows], prepend=0) != 0)
        lines = [f"{w},{f},{d},{o}" for (w, f, _, o), d in zip(rows, dense.tolist())]
    elif how == "field":
        fields[1 + j % 3] = ["x", "1.0", "", "9" * 20, " 1"][j % 5]
        lines[i] = ",".join(fields)
    elif how == "width":
        lines[i] = ",".join(fields[:3] if j % 2 else [*fields, "1"])
    elif how == "shift" and i + 1 < len(lines):  # a row's last field moved to the next: four fields a row on average
        lines[i], lines[i + 1] = ",".join(fields[:3]), f"{fields[3]},{lines[i + 1]}"
    elif how == "line end":  # a line end that str.splitlines() knows, inside a word
        lines[i] = "\x85" + lines[i]
    elif how == "blank":
        lines.insert(i, "")
    return lines


def outcome(read, path):
    """What ``read(path)`` gives: its error message, its table, or its points bit for bit."""
    try:
        result = read(path)
    except ValueError as exc:
        return str(exc)
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    assert all(type(f) is int for f in result.frequencies)
    return result


def agree(path):
    """Assert that the readers give what the row-by-row reference readers give on ``path``."""
    assert outcome(read_hapax_table, path) == outcome(ref.read_hapax_table, path)
    assert outcome(read_rank_size_csv, path) == outcome(ref.read_rank_size_csv, path)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text("abcé\x00 ", min_size=1, max_size=3), st.integers(1, 4), min_size=1, max_size=12),
       st.sampled_from(["none", "swap", "repeat", "rank", "frequency", "field", "width", "shift", "line end",
                        "blank"]),
       st.integers(0, 11), st.integers(0, 11), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_table_reader_agrees_with_the_row_loop(tmp_path_factory, counts, how, i, j, newline, final_newline):
    lines = [HEADER.rstrip("\n"), *spoil(table_lines(counts), how, i, j)]
    text = newline.join(lines) + (newline if final_newline else "")
    path = tmp_path_factory.mktemp("t") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    agree(path)


@pytest.mark.parametrize("text", [
    HEADER + "a,2,1,1\nb,1,2,2\n\n",  # blank line
    HEADER + "a,2,1,1\nb,1,2,2",  # no final newline
    HEADER + "a,2,1,1\nb,1,2,3\n",  # a rank column off
    HEADER + "a,2,1,1\nb,1,2\n",  # a field short
    HEADER + "a,2,1,1\nb,1,2,99999999999999999999\n",  # beyond int64
    HEADER + "a,2,1,1\nb\x85,1,2,2\n",  # a line end that str.splitlines() knows
    HEADER + "a,2,1\n1,b,1,2,2\n",  # three fields, then five: the columns would line up
    HEADER + "a,1,1,1\nb,2,2,2\n",  # frequency rises
    HEADER + "a,1,1,1\nb,0,2,2\n",  # frequency below 1
    HEADER + "b,1,1,1\na,1,1,2\n",  # tie not in word order
    HEADER + "b,2,1,1\na,1,2,2\nb,1,2,3\n",  # word repeated with another frequency
])
def test_table_texts_agree_with_the_row_loop(tmp_path, text):
    agree(write(tmp_path, "t.csv", text))


def test_crlf_and_blank_lines_read_as_the_plain_table(tmp_path):
    table = toy_table()
    plain = write_hapax_table(tmp_path / "t.csv", table).read_text(encoding="utf-8")
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(plain.replace("\n", "\r\n").encode("utf-8"))
    blank = write(tmp_path, "blank.csv", plain.replace("\n", "\n\n", 2).rstrip("\n"))
    assert read_hapax_table(crlf) == read_hapax_table(blank) == table


# --------------------------------------------------------------- fit input


def test_fit_input_from_hapax_table_is_its_ordinal_points(tmp_path):
    table = toy_table()
    path = write_hapax_table(tmp_path / "t.csv", table)
    points = read_rank_size_csv(path)
    assert points.dtype == np.float64 and points.shape == (3, 2)
    assert points.tolist() == [[1, 2], [2, 1], [3, 1]]


def test_fit_input_from_rank_size_csv(tmp_path):
    path = write(tmp_path, "p.csv", "rank, size\n1,5.5\n\n2,4\n3,1e-3\n")
    points = read_rank_size_csv(path)
    assert points.dtype == np.float64 and points.tolist() == [[1, 5.5], [2, 4.0], [3, 1e-3]]


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


@pytest.mark.parametrize("text", ["rank,size", "rank,size\n", "rank, size\n\n\n"])
def test_fit_input_needs_a_rank_size_row(tmp_path, text):
    path = write(tmp_path, "p.csv", text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} holds no rank,size rows$"):
        read_rank_size_csv(path)


def spoil_points(lines, how, i, j):
    """``lines`` (the rows of a rank,size CSV) spoiled in one of a few ways at rows i and j."""
    lines, i = list(lines), i % len(lines)
    rank, size = lines[i].split(",")
    if how == "rank":
        lines[i] = ",".join([["x", "1.0", "", "9" * 20, " 1", "+2", "1_0", "-3"][j % 8], size])
    elif how == "size":
        lines[i] = ",".join([rank, ["x", "", "nan", "-inf", " 1e-3 ", "1_0.5", "9" * 400, "0x1"][j % 8]])
    elif how == "width":
        lines[i] = rank if j % 2 else f"{lines[i]},1"
    elif how == "shift" and i + 1 < len(lines):  # two fields a row on average
        lines[i], lines[i + 1] = rank, f"{size},{lines[i + 1]}"
    elif how == "line end":
        lines[i] = "\x85" + lines[i]
    elif how == "blank":
        lines.insert(i, "")
    return lines


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=12),
       st.sampled_from(["none", "rank", "size", "width", "shift", "line end", "blank"]),
       st.integers(0, 11), st.integers(0, 15), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_rank_size_reader_agrees_with_the_row_loop(tmp_path_factory, sizes, how, i, j, newline, final_newline):
    rows = [f"{r},{s!r}" for r, s in enumerate(sizes, 1)]
    lines = ["rank,size", *spoil_points(rows, how, i, j)]
    path = tmp_path_factory.mktemp("p") / "p.csv"
    path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode("utf-8"))
    assert outcome(read_rank_size_csv, path) == outcome(ref.read_rank_size_csv, path)


def count_calls(monkeypatch, name):
    """The list that records each call of ``persist.<name>``, which it then wraps."""
    calls, parse = [], getattr(persist, name)
    monkeypatch.setattr(persist, name, lambda *args: calls.append(args) or parse(*args))
    return calls


@pytest.mark.parametrize("read, header, row, bad", [
    (read_hapax_table, HEADER.rstrip(), "w{0:06d},1,1,{0}", "zzz,1,x,1"), (read_rank_size_csv, "rank,size", "{0},1", "x,1")])
def test_a_bad_last_row_is_found_by_halving(tmp_path, monkeypatch, read, header, row, bad):
    rows = 120_000
    path = write(tmp_path, "t.csv", "\n".join([header, *map(row.format, range(1, rows + 1)), bad, ""]))
    calls = count_calls(monkeypatch, "_columns")
    with pytest.raises(ValueError, match=rf"t\.csv, line {rows + 2}: not a row of {header}: '{bad}'$"):
        read(path)
    assert len(calls) <= 2 + np.log2(rows + 1)  # the whole table, then one call per halving
    assert all(block for block, _ in calls)


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


@pytest.mark.parametrize("values, text", [([2**40], "1099511627776\n"), ([3, 1, 3, 2.0], "3\n1\n3\n2\n")])
def test_rank_sequence_writer_formats_each_value(tmp_path, values, text):
    # one string per distinct value: a large rank costs no more than a small one,
    # and an integer-valued float is written as its integer
    assert write_rank_sequence(tmp_path / "s.txt", values).read_text(encoding="utf-8") == text


@pytest.mark.parametrize("values, bad", [
    ([1.5, 2.7, 0, -3], "1.5 at position 0"), ([3, -1, 2], "-1 at position 1"), ([2, 0, 1.5], "0.0 at position 1"),
    ([1, 2, float("nan")], "nan at position 2"), ([True, False], "False at position 1"),
    ([1, 2**70], "1180591620717411303424 at position 1"), (["a", "b"], "'a' at position 0"),
    ([3, None], "None at position 1"), (np.array([2**63], dtype=np.uint64), "9223372036854775808 at position 0"),
])
def test_rank_sequence_writer_refuses_what_its_reader_refuses(tmp_path, values, bad):
    # Written truncated, [1.5, 2.7, 0, -3] read back as a line the reader refuses: "1\n2\n0\n-3\n".
    with pytest.raises(ValueError, match=rf"^ranks must be integers >= 1, got {re.escape(bad)}$"):
        write_rank_sequence(tmp_path / "out" / "s.txt", values)
    assert list(tmp_path.iterdir()) == []


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


# Tokens that are ranks, that are not, and line ends that str.splitlines() knows.
RANK_SPOILERS = ["0", "-2", "x", "1.5", "", " ", "9" * 20, "+3", "1_000", " 7 ", "0x1", "1e3", "-0", "\u0663",
                 "\x85", "\u2028 4", "\x1c", "\t5\x0b6", "\f"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 2**62), min_size=1, max_size=12), st.sampled_from(["none", "line", "token", "insert"]),
       st.integers(0, 11), st.sampled_from(RANK_SPOILERS), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_rank_sequence_reader_agrees_with_the_line_loop(tmp_path_factory, values, how, i, spoiler, newline,
                                                        final_newline):
    lines, i = [str(v) for v in values], i % len(values)
    if how == "line":
        lines[i] = spoiler
    elif how == "token":
        lines[i] = f"{lines[i]} {spoiler}"
    elif how == "insert":
        lines.insert(i, spoiler)
    path = tmp_path_factory.mktemp("s") / "s.txt"
    path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode("utf-8"))
    assert outcome(read_rank_sequence, path) == outcome(ref.read_rank_sequence, path)


# Lines of digits only: blank, a lone 0, leading zeros, 18 digits (the most that always fit int64),
# 19 digits (among them int64's largest value and the one past it) and 20 digits.
PLAIN_LINES = ["", "0", "7", "0042", "9" * 18, "0" * 17 + "1", "9" * 19, str(2**63 - 1), str(2**63), "1" + "0" * 19]


@pytest.mark.parametrize("text", ["0042\n7\n", "\n7\n\n42", "7", "0", "0\n", "\n", "\n\n", "", "7\n0\n", "9" * 18,
                                  "\n".join(PLAIN_LINES[2:6]), *(f"1\n{line}\n3" for line in PLAIN_LINES[6:])])
def test_a_digit_only_rank_file_is_read_as_the_line_loop_reads_it(tmp_path, text):
    path = write(tmp_path, "s.txt", text)
    assert outcome(read_rank_sequence, path) == outcome(ref.read_rank_sequence, path)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(PLAIN_LINES), st.integers(1, 10**18).map(str), st.text("0123456789", max_size=21)),
                max_size=8), st.booleans())
def test_digit_only_rank_files_agree_with_the_line_loop(tmp_path_factory, lines, final_newline):
    path = tmp_path_factory.mktemp("s") / "s.txt"
    path.write_bytes(("\n".join(lines) + ("\n" if final_newline else "")).encode("ascii"))
    assert outcome(read_rank_sequence, path) == outcome(ref.read_rank_sequence, path)


@pytest.mark.parametrize("text, splits", [("3\n17\n" * 1000 + "9" * 18 + "\n", 0), ("3\n\n17", 0), ("3\r\n17\r\n", 1),
                                          ("3 17\n", 1), ("3\n" + str(2**63 - 1) + "\n", 1)])
def test_only_a_file_of_digit_lines_skips_the_token_split(tmp_path, monkeypatch, text, splits):
    path = write(tmp_path, "s.txt", text)
    calls = count_calls(monkeypatch, "_ranks")
    assert read_rank_sequence(path).tolist() == list(map(int, text.split()))
    assert len(calls) == splits


@pytest.mark.parametrize("data, line", [(b"\xff", 1), (b"1\n2\n\n3\xff\n4\n", 4), (b"1\r\n2\r\n\xe9\r\n", 3),
                                        (b"1\r2\r\xc2\x85 3\xe9", 4), (b"1\n\xe2\x82", 2)])
def test_rank_sequence_reader_names_the_line_that_is_not_utf8(tmp_path, data, line):
    path = tmp_path / "s.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=rf"s\.txt, line {line}: invalid UTF-8: 'utf-8' codec can't decode"):
        read_rank_sequence(path)


@pytest.mark.parametrize("data, problem", [(b'{"a": 1,\n "b": "\xff"}', ", line 2: invalid UTF-8: 'utf-8' codec"),
                                           (b'{"a": 1,\n "b"}', ": Expecting ':' delimiter: line 2 column 5"),
                                           (b"[1, 2]", ": must hold a JSON object"), (b'"text"', ": must hold a JSON"),
                                           (b"[" * 100_000 + b"]" * 100_000, ": maximum recursion depth exceeded")])
def test_json_reader_names_the_file_once(tmp_path, data, problem):
    path = tmp_path / "r.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        persist.read_json(path)
    assert str(info.value).startswith(f"{path}{problem}") and str(info.value).count(str(path)) == 1


def test_a_bad_last_rank_is_found_by_halving(tmp_path, monkeypatch):
    lines = 200_000
    path = write(tmp_path, "s.txt", "3\n" * lines + "x\n")
    calls = count_calls(monkeypatch, "_ranks")
    with pytest.raises(ValueError, match=rf"s\.txt, line {lines + 1}: not a rank \(an integer >= 1\): 'x'$"):
        read_rank_sequence(path)
    assert len(calls) <= 2 + np.log2(lines + 1)  # the whole text, then one call per halving
    assert all(text.strip() for text, in calls)


# ------------------------------------------------------- non-finite values


def test_non_finite_floats_are_null_in_json_and_empty_in_csv(tmp_path):
    payload = {"a": [1.5, math.nan, np.float64(-math.inf)], "b": {"c": (math.inf, 2)}, "d": math.nan, "e": None}
    text = persist.write_json(tmp_path / "r.json", payload).read_text(encoding="utf-8")
    assert json.loads(text) == {"a": [1.5, None, None], "b": {"c": [None, 2]}, "d": None, "e": None}
    rows = [[1, math.nan, np.float64(math.inf), None, 0.25, "x"]]
    assert persist.write_csv(tmp_path / "t.csv", list("abcdef"), rows).read_text(encoding="utf-8") == \
        "a,b,c,d,e,f\n1,,,,0.25,x\n"


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
