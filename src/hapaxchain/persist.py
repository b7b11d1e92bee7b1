"""File formats and atomic persistence for the pipeline artifacts.

All writers go through a temp-file-plus-rename so a crashed run never
leaves a half-written artifact, and all formats are locale-independent
(comma-delimited CSV, dot decimals, UTF-8 JSON with sorted keys) so
reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .corpus import HapaxTable
from .ranksize import TargetDistribution

__all__ = [
    "atomic_write_text",
    "sha256_file",
    "config_hash",
    "write_json",
    "read_json",
    "write_hapax_table",
    "read_hapax_table",
    "write_rank_sequence",
    "read_rank_sequence",
    "write_target_distribution",
    "write_csv",
    "read_rank_size_csv",
]

FLOAT_FMT = "{:.17g}"
HAPAX_HEADER = "word,frequency,dense_rank,ordinal_rank"


def atomic_write_text(path: str | Path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(config: dict) -> str:
    """Stable hash of a JSON-serializable configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_json(path: str | Path, payload: dict) -> Path:
    return atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT.format(float(value))
    return str(value)


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return atomic_write_text(path, "\n".join(lines) + "\n")


def write_hapax_table(path: str | Path, table: HapaxTable) -> Path:
    rows = enumerate(zip(table.words, table.frequencies, table.dense_ranks), 1)
    return atomic_write_text(path, HAPAX_HEADER + "\n" + "".join(f"{w},{f},{d},{o}\n" for o, (w, f, d) in rows))


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


def _hapax_rows(path, text: str) -> HapaxTable:
    """The table of a hapax table file's text, read and checked row by row; a
    ``ValueError`` names the first line that is not a row or breaks a check."""
    lines = text.splitlines() or [""]
    rows = lines[0] == HAPAX_HEADER and _rows(path, lines, HAPAX_HEADER, lambda w, f, d, o: (w, int(f), int(d), int(o)))
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


# Line ends that str.splitlines() knows besides "\n"; a text holding one is read row by row.
_OTHER_LINE_ENDS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_ROW_SEPARATORS = np.frombuffer(b",,,\n", np.uint8)


def _hapax_columns(text: str) -> HapaxTable | None:
    """The table of a hapax table file's text, read column by column, or None
    unless the text is the header and rows of four fields, each ended by "\n",
    whose integers fit int64 and which pass every check of :func:`_hapax_rows`."""
    header, _, body = text.partition("\n")
    if header != HAPAX_HEADER or not body.endswith("\n") or any(c in body for c in _OTHER_LINE_ENDS):
        return None
    raw = np.frombuffer(body.encode("utf-8"), np.uint8)  # in UTF-8 these two bytes are only "," and "\n"
    separators = raw[(raw == ord(",")) | (raw == ord("\n"))]
    if separators.size % 4 or (separators.reshape(-1, 4) != _ROW_SEPARATORS).any():  # blank lines too
        return None
    cells = body[:-1].replace("\n", ",").split(",")
    words = cells[0::4]
    try:
        freq, dense, ordinal = np.array([cells[1::4], cells[2::4], cells[3::4]], dtype=np.int64)  # int() per cell
    except (ValueError, OverflowError):
        return None
    ties = freq[1:] == freq[:-1]
    in_word_order = np.fromiter(map(str.__lt__, words, words[1:]), bool, len(words) - 1)
    table = HapaxTable(words=tuple(words), frequencies=tuple(freq.tolist()))
    if (freq.min() < 1 or (freq[1:] > freq[:-1]).any() or (ties & ~in_word_order).any()
            or len(set(words)) < len(words) or (ordinal != np.arange(1, len(words) + 1)).any()
            or tuple(dense.tolist()) != table.dense_ranks):
        return None
    return table


def read_hapax_table(path: str | Path) -> HapaxTable:
    """The table a hapax table file holds.  Its words must be distinct, its
    rows in ordinal order and its rank columns equal to the ranks derived
    from its frequencies; a ``ValueError`` names the first line that breaks this.

    A file as :func:`write_hapax_table` writes it is read in one split, its
    integer columns parsed at once and checked as arrays; any other file
    (blank lines, a missing final newline, a field int64 cannot hold) or a
    failed check is read again row by row, which names the line."""
    text = Path(path).read_text(encoding="utf-8")
    return _hapax_columns(text) or _hapax_rows(path, text)


def write_rank_sequence(path: str | Path, values) -> Path:
    values = np.asarray(values, dtype=np.int64)
    distinct = np.unique(values)
    lines = np.array([f"{r}\n" for r in distinct.tolist()], dtype=object)  # one string per distinct value
    return atomic_write_text(path, "".join(lines[np.searchsorted(distinct, values)].tolist()))


def _ranks(text: str) -> np.ndarray | None:
    """The whitespace-separated integers of ``text`` as int64, or None unless each is a rank (>= 1)."""
    try:
        values = np.array(text.split(), dtype=np.int64)  # accepts the spellings int() accepts
    except (ValueError, OverflowError):
        return None
    return values if values.size == 0 or values.min() >= 1 else None


def read_rank_sequence(path: str | Path) -> np.ndarray:
    """The ranks a rank sequence file holds; a ``ValueError`` names the first
    line holding anything but integers >= 1."""
    text = Path(path).read_text(encoding="utf-8")
    values = _ranks(text)
    if values is None:
        lines = text.splitlines()
        number = next(n for n, ln in enumerate(lines, 1) if _ranks(ln) is None)
        raise _line_error(path, number, lines, "not a rank (an integer >= 1)")
    if values.size == 0:
        raise ValueError(f"{path} contains no rank values")
    return values


def write_target_distribution(path: str | Path, target: TargetDistribution) -> Path:
    return write_csv(path, ["rank", "prob"], enumerate(target.probs, 1))


def read_rank_size_csv(path: str | Path) -> np.ndarray:
    """Read fit input as an (n, 2) float array of (rank, size) points, from
    either a rank,size CSV or a hapax table, whose ordinal ranks and
    frequencies then serve as the points."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n")
        if header.replace(" ", "") == "rank,size":
            rows = _rows(path, [header, *fh.read().splitlines()], "rank,size", lambda r, s: (int(r), float(s)))
            return np.array([(rank, size) for _, rank, size in rows], dtype=float)
    if header == HAPAX_HEADER:
        sizes = np.array(read_hapax_table(path).frequencies, dtype=float)
        return np.column_stack((np.arange(1.0, sizes.size + 1), sizes))
    raise ValueError(f"{path}: expected a 'rank,size' header or a hapax table, got {header!r}")
