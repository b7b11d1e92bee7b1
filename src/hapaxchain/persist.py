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


def read_hapax_table(path: str | Path) -> HapaxTable:
    """The table a hapax table file holds.  Its words must be distinct, its
    rows in ordinal order and its rank columns equal to the ranks derived
    from its frequencies; a ``ValueError`` names the first line that breaks this."""
    lines = Path(path).read_text(encoding="utf-8").splitlines() or [""]
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


def read_rank_size_csv(path: str | Path) -> list[tuple[int, float]]:
    """Read fit input: either a rank,size CSV or a hapax table, whose
    ordinal ranks and frequencies then serve as the points."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n")
        if header.replace(" ", "") == "rank,size":
            rows = _rows(path, [header, *fh.read().splitlines()], "rank,size", lambda r, s: (int(r), float(s)))
            return [(rank, size) for _, rank, size in rows]
    if header == HAPAX_HEADER:
        return read_hapax_table(path).ordinal_points()
    raise ValueError(f"{path}: expected a 'rank,size' header or a hapax table, got {header!r}")
