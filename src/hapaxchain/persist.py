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
import math
import os
import tempfile
from itertools import repeat
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


def _nan_to_null(value):
    """``value`` with each non-finite float in it, which strict JSON cannot hold, replaced by None (null)."""
    if isinstance(value, dict):
        return {k: _nan_to_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nan_to_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path: str | Path, payload: dict) -> Path:
    return atomic_write_text(path, json.dumps(_nan_to_null(payload), sort_keys=True, indent=2, allow_nan=False) + "\n")


def read_json(path: str | Path) -> dict:
    """The JSON object file ``path`` holds; a ``ValueError`` names the file once, and the line of bad UTF-8."""
    try:
        payload = json.loads(_decode(path, Path(path).read_bytes()))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: must hold a JSON object")
    return payload


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT.format(float(value)) if math.isfinite(value) else ""
    return "" if value is None else str(value)


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return atomic_write_text(path, "\n".join(lines) + "\n")


def write_hapax_table(path: str | Path, table: HapaxTable) -> Path:
    rows = enumerate(zip(table.words, table.frequencies, table.dense_ranks), 1)
    return atomic_write_text(path, HAPAX_HEADER + "\n" + "".join(f"{w},{f},{d},{o}\n" for o, (w, f, d) in rows))


def _decode(path, data: bytes) -> str:
    """The bytes ``data`` of file ``path`` as UTF-8 text; a ``ValueError`` names the line of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        number = len((data[:exc.start].decode("utf-8") + "x").splitlines())  # the line the bad byte is on
        raise ValueError(f"{path}, line {number}: invalid UTF-8: {exc}") from None


def _line_error(path, number: int, lines: list[str], problem: str) -> ValueError:
    return ValueError(f"{path}, line {number}: {problem}: {lines[number - 1]!r}")


def _columns(rows: list[str], types: tuple) -> list | None:
    """The columns of comma-separated ``rows``, split at once: a list for ``str``, else an array of that
    dtype (which calls ``int()`` or ``float()`` per cell, so takes the spellings they take); or None
    unless each row has one field per type and each field converts."""
    if set(map(str.count, rows, repeat(","))) != {len(types) - 1}:
        return None
    cells = ",".join(rows).split(",")
    try:
        return [cells[i::len(types)] if t is str else np.array(cells[i::len(types)], dtype=t)
                for i, t in enumerate(types)]
    except (ValueError, OverflowError):  # a field that does not convert, or an integer beyond int64
        return None


def _first_failing(items: list, fails) -> int:
    """The index of the first item that ``fails`` alone, where ``items`` as a whole fails and a block of
    them fails exactly when one of its items does.  The failing block is halved down to one item: about
    log2(len(items)) calls, on non-empty blocks that hold about len(items) items together."""
    lo, hi = 0, len(items)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fails(items[lo:mid]) else (mid, hi)
    return lo


def _row_error(path, lines: list[str], index: int, problem: str) -> ValueError:
    """The error naming row ``index`` (from 0) of a file's ``lines``: its non-blank lines after the first."""
    return _line_error(path, [n for n, ln in enumerate(lines[1:], 2) if ln][index], lines, problem)


def _read_columns(path, lines: list[str], header: str, types: tuple) -> list | None:
    """The :func:`_columns` of a file's rows, or None if it has none; an error names the first line not a row."""
    rows = list(filter(None, lines[1:]))  # the non-blank lines after the header
    columns = _columns(rows, types)
    if columns is None and rows:
        index = _first_failing(rows, lambda block: _columns(block, types) is None)
        raise _row_error(path, lines, index, f"not a row of {header}")
    return columns


def _hapax_table(path, lines: list[str]) -> HapaxTable:
    """The table of a hapax table file's ``lines``, checked as arrays; an error names its first bad line."""
    columns = lines[0] == HAPAX_HEADER and _read_columns(path, lines, HAPAX_HEADER, (str, np.int64, np.int64, np.int64))
    if not columns:
        raise ValueError(f"{path} is not a hapax table file with at least one row")
    words, freq, dense, ordinal = columns
    table, rank = HapaxTable(words=tuple(words), frequencies=tuple(freq.tolist())), np.arange(1, len(words) + 1)
    after = np.fromiter(map(str.__gt__, words[1:], words), bool)  # each word after the one above it
    misplaced = (freq < 1) | np.append(False, (freq[1:] > freq[:-1]) | ((freq[1:] == freq[:-1]) & ~after))
    if len(set(words)) < rank.size:  # each row of a word but its first is misplaced
        first = dict(zip(words[::-1], rank[::-1].tolist()))  # the rank of each word's first row
        misplaced |= np.fromiter(map(first.__getitem__, words), np.int64, rank.size) < rank
    bad = misplaced | (dense != table.dense_ranks) | (ordinal != rank)
    if bad.any():
        i = int(bad.argmax())
        raise _row_error(path, lines, i, "repeated word, frequency below 1, or row out of ordinal order" if misplaced[i]
                         else f"dense_rank,ordinal_rank should read {table.dense_ranks[i]},{i + 1}")
    return table


def read_hapax_table(path: str | Path) -> HapaxTable:
    """The table a hapax table file holds.  Its words must be distinct, its rows in ordinal order and
    its rank columns equal to the ranks its frequencies give; a ``ValueError`` names the first line
    that breaks this, or that is not a row: four fields whose integers fit int64, or is not UTF-8."""
    return _hapax_table(path, _decode(path, Path(path).read_bytes()).splitlines() or [""])


def write_rank_sequence(path: str | Path, values) -> Path:
    values = np.asarray(values, dtype=np.int64)
    distinct, inverse = np.unique(values, return_inverse=True)
    lines = np.array([f"{r}\n" for r in distinct.tolist()], dtype=object)  # one string per distinct value
    return atomic_write_text(path, "".join(lines[inverse].tolist()))


def _ranks(text: str) -> np.ndarray | None:
    """The whitespace-separated integers of ``text`` as int64, or None unless each is a rank (>= 1)."""
    try:
        values = np.array(text.split(), dtype=np.int64)  # accepts the spellings int() accepts
    except (ValueError, OverflowError):
        return None
    return values if values.size == 0 or values.min() >= 1 else None


def _plain_ranks(data: bytes) -> np.ndarray | None:
    """``data`` parsed by one ``np.fromstring`` if it holds only ASCII digits and line feeds, at most 18 digits a
    line (so each fits int64); else None.  On other bytes that call clips overflow and stops at junk with a warning."""
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    plain = not data.translate(None, b"0123456789\n") and np.diff(ends, prepend=-1, append=len(data)).max() <= 19
    return np.fromstring(data, dtype=np.int64, sep="\n") if plain else None  # [0] for a text of line feeds only


def read_rank_sequence(path: str | Path) -> np.ndarray:
    """The ranks a rank sequence file holds; a ``ValueError`` names the first
    line holding anything but integers >= 1, or invalid UTF-8."""
    data = Path(path).read_bytes()
    values = _plain_ranks(data)
    if values is not None and values.size and values.min() >= 1:  # else the split below names the bad line
        return values
    text = _decode(path, data)
    values = _ranks(text)
    if values is None:
        lines = text.splitlines()
        # The lines' tokens are the text's: str.split() splits at every line end str.splitlines() knows.
        index = _first_failing(lines, lambda block: _ranks("\n".join(block)) is None)
        raise _line_error(path, index + 1, lines, "not a rank (an integer >= 1)")
    if values.size == 0:
        raise ValueError(f"{path} contains no rank values")
    return values


def write_target_distribution(path: str | Path, target: TargetDistribution) -> Path:
    return write_csv(path, ["rank", "prob"], enumerate(target.probs, 1))


def read_rank_size_csv(path: str | Path) -> np.ndarray:
    """Fit input as an (n, 2) float array of (rank, size) points: the rows of a rank,size CSV (an int64
    rank and a float size each), or the ordinal ranks and frequencies of a hapax table; a ``ValueError``
    names the first line that is not a row, or not UTF-8."""
    lines = _decode(path, Path(path).read_bytes()).splitlines() or [""]
    if lines[0] == HAPAX_HEADER:
        sizes = np.array(_hapax_table(path, lines).frequencies, dtype=float)
        return np.column_stack((np.arange(1.0, sizes.size + 1), sizes))
    if lines[0].replace(" ", "") != "rank,size":
        raise ValueError(f"{path}: expected a 'rank,size' header or a hapax table, got {lines[0]!r}")
    columns = _read_columns(path, lines, "rank,size", (np.int64, np.float64))
    if columns is None:
        raise ValueError(f"{path} holds no rank,size rows")
    return np.column_stack(columns)
