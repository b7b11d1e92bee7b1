"""Row-by-row reference readers of the hapax table, the rank,size CSV and
the rank sequence.

This is the straightforward loop the package's column-wise readers
replace: each non-blank line after the header split and converted on
its own, then the hapax rows checked one at a time against the words
before them and the ranks their frequencies give; and each line of a
rank sequence split and checked on its own.  An integer field must fit
int64, as the package reads integer columns as int64 arrays.  The tests
compare the package's readers against these: the same table, points or
ranks, or the same error message.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from hapaxchain.corpus import HapaxTable
from hapaxchain.persist import HAPAX_HEADER


def int64(field: str) -> int:
    """``int(field)``, which must fit int64."""
    value = int(field)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{field!r} does not fit int64")
    return value


def _line_error(path, number: int, lines: list[str], problem: str) -> ValueError:
    return ValueError(f"{path}, line {number}: {problem}: {lines[number - 1]!r}")


def _rows(path, lines: list[str], header: str, parse) -> list[tuple]:
    """(line number, *parse(*fields)) of each non-blank line after the header."""
    rows = []
    for number, ln in enumerate(lines[1:], 2):
        try:
            if ln:
                rows.append((number, *parse(*ln.split(","))))
        except (TypeError, ValueError):  # a wrong number of fields, or a field that does not convert
            raise _line_error(path, number, lines, f"not a row of {header}") from None
    return rows


def read_hapax_table(path) -> HapaxTable:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines() or [""]
    rows = lines[0] == HAPAX_HEADER and _rows(path, lines, HAPAX_HEADER,
                                               lambda w, f, d, o: (w, int64(f), int64(d), int64(o)))
    if not rows:
        raise ValueError(f"{path} is not a hapax table file with at least one row")
    _, words, frequencies, *_ = zip(*rows)
    table, seen, previous = HapaxTable(words=words, frequencies=frequencies), set(), ()
    for rank, ((number, word, freq, dense, ordinal), want) in enumerate(zip(rows, table.dense_ranks), 1):
        key = (-freq, word)  # increases strictly down a table in ordinal order
        if freq < 1 or word in seen or key <= previous:
            raise _line_error(path, number, lines, "repeated word, frequency below 1, or row out of ordinal order")
        if (dense, ordinal) != (want, rank):
            raise _line_error(path, number, lines, f"dense_rank,ordinal_rank should read {want},{rank}")
        seen.add(word)
        previous = key
    return table


def read_rank_size_csv(path) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").splitlines() or [""]
    if lines[0] == HAPAX_HEADER:
        return np.array(list(enumerate(read_hapax_table(path).frequencies, 1)), dtype=float)
    if lines[0].replace(" ", "") != "rank,size":
        raise ValueError(f"{path}: expected a 'rank,size' header or a hapax table, got {lines[0]!r}")
    rows = _rows(path, lines, "rank,size", lambda r, s: (int64(r), float(s)))
    if not rows:
        raise ValueError(f"{path} holds no rank,size rows")
    return np.array([(rank, size) for _, rank, size in rows], dtype=float)


def read_rank_sequence(path) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    values = []
    for number, ln in enumerate(lines, 1):
        try:
            ranks = [int64(field) for field in ln.split()]
        except ValueError:
            ranks = [0]
        if min(ranks, default=1) < 1:
            raise _line_error(path, number, lines, "not a rank (an integer >= 1)")
        values.extend(ranks)
    if not values:
        raise ValueError(f"{path} contains no rank values")
    return np.array(values, dtype=np.int64)
