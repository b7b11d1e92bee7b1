"""Corpus ingestion and hapax bookkeeping.

A hapax legomenon is a token occurring exactly once within one document;
its corpus frequency is the number of documents in which it is a hapax.
A corpus is a list of documents in chronological order.  This module
tokenizes documents through one character table, lists each one's
hapaxes in order of appearance as it loads them, tabulates their
frequencies under dense and ordinal ranks, and maps the lists, in corpus
order, through the dense ranks to the rank sequence.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "Document",
    "HapaxTable",
    "IngestionError",
    "EmptyTableError",
    "ConsistencyError",
    "tokenize",
    "extract_document_hapaxes",
    "build_hapax_table",
    "build_rank_sequence",
    "document_paths",
    "load_documents",
]


class IngestionError(RuntimeError):
    """A document could not be read or decoded."""


class EmptyTableError(ValueError):
    """The corpus contains no hapaxes at all."""


class ConsistencyError(RuntimeError):
    """A corpus token is missing from the table it was built from."""


class _CharTable(dict):
    def __missing__(self, code: int) -> str:  # classify each code point once: "'", a letter, or a space
        char = chr(code)
        return self.setdefault(code, "'" if char in "'’ʼ" else char if char.isalnum() and not char.isdecimal() else " ")


_CHARS = _CharTable()
_LOOSE_APOSTROPHE_RE = re.compile(r"'(?:(?![^' ])|(?<![^' ]'))")  # "'" not between two letters


def tokenize(raw_text: str) -> list[str]:
    r"""Split text into lowercase word tokens: runs of letters (``[^\W\d_]``), with an apostrophe
    (``'``, ``’`` or ``ʼ``) kept only between two letters, so "don't" stays whole while quoting
    marks fall away.  The text is put in NFC and lowercased; ``_CHARS`` then blanks every other
    character, caching each code point's class (about 100 MB if every code point is seen), loose
    apostrophes are blanked, and the text is split.
    """
    text = unicodedata.normalize("NFC", raw_text).lower().translate(_CHARS)
    return (_LOOSE_APOSTROPHE_RE.sub(" ", text) if "'" in text else text).split()


@dataclass(frozen=True)
class Document:
    """One document's hapaxes, in order of appearance; its place in the
    corpus list is its chronological position.  A loaded document also
    keeps its file name and the SHA-256 of the bytes it was read from."""

    id: str
    hapaxes: tuple[str, ...]
    file: str = ""
    sha256: str = ""

    def __post_init__(self):
        if "" in self.hapaxes:
            raise ValueError("hapaxes must not contain empty strings")


@dataclass(frozen=True)
class HapaxTable:
    """Corpus-level hapax frequencies, from which every rank derives.

    ``words`` are in ordinal order (frequency descending, ties broken
    lexicographically), so ``words[i]`` has ordinal rank ``i + 1``, and
    ``frequencies`` align with them.  Dense ranks give equal frequencies
    one shared rank with no gaps; ``alphabet_size`` counts them.
    """

    words: tuple[str, ...]
    frequencies: tuple[int, ...]

    @cached_property
    def dense_ranks(self) -> tuple[int, ...]:
        """Dense rank of each word: one more than the number of frequency changes above it."""
        return tuple(np.cumsum(np.diff(self.frequencies, prepend=0) != 0).tolist())

    @cached_property
    def total_occurrences(self) -> int:
        return sum(self.frequencies)

    @property
    def alphabet_size(self) -> int:
        return self.dense_ranks[-1] if self.dense_ranks else 0

    def dense_rank_of(self) -> dict[str, int]:
        return dict(zip(self.words, self.dense_ranks))


def extract_document_hapaxes(tokens) -> list[str]:
    """Tokens occurring exactly once in a document's tokens, in order of appearance
    (a ``Counter`` keeps first-seen order, and a hapax is seen only once)."""
    return [tok for tok, c in Counter(tokens).items() if c == 1]


def build_hapax_table(corpus: list[Document]) -> HapaxTable:
    """Aggregate per-document hapaxes into the corpus frequency table."""
    if not corpus:
        raise ValueError("corpus must contain at least one document")
    freq: Counter[str] = Counter()
    for doc in corpus:
        freq.update(doc.hapaxes)
    if not freq:
        raise EmptyTableError("corpus yields an empty table: no hapaxes found")

    words = sorted(sorted(freq), key=freq.__getitem__, reverse=True)  # stable: ties stay in word order
    return HapaxTable(words=tuple(words), frequencies=tuple(map(freq.__getitem__, words)))


def build_rank_sequence(corpus: list[Document], table: HapaxTable) -> np.ndarray:
    """The dense ranks (int64) of each document's hapaxes, in corpus order and,
    within a document, in order of appearance."""
    rank_of = table.dense_rank_of()
    out: list[int] = []
    for doc in corpus:
        try:
            out.extend(map(rank_of.__getitem__, doc.hapaxes))
        except KeyError as exc:
            raise ConsistencyError(f"hapax {exc.args[0]!r} from document {doc.id!r} missing from table") from None
    return np.array(out, dtype=np.int64)


def document_paths(input_dir: str | Path, manifest: str | Path | None = None) -> list[Path]:
    """The documents of a directory in (chronological) order: the manifest
    file order when given (one file name per line, no file twice), otherwise
    the ``.txt`` files in lexicographic file-name order."""
    root = Path(input_dir)
    if not root.is_dir():
        raise IngestionError(f"input directory not found: {root}")
    if manifest is not None:
        try:
            lines = Path(manifest).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise IngestionError(f"invalid UTF-8 in manifest {manifest}: {exc}") from exc
        paths = [root / ln.strip() for ln in lines if ln.strip()]
        for p in paths:
            if not p.is_file():
                raise IngestionError(f"manifest names a missing file: {p}")
        repeated = sorted(p.name for p, c in Counter(p.resolve() for p in paths).items() if c > 1)
        if repeated:
            raise IngestionError(f"manifest names a file more than once: {', '.join(repeated)}")
    else:
        paths = sorted(root.glob("*.txt"), key=lambda p: p.name)
    if not paths:
        raise IngestionError(f"no documents found in {root}")
    return paths


def load_documents(input_dir: str | Path, manifest: str | Path | None = None) -> list[Document]:
    """Read the documents of :func:`document_paths`, in its order, and list each one's hapaxes.
    Each file is read once: its bytes are decoded as strict UTF-8, with no newline
    translation (CR and LF both separate tokens), and the document keeps their SHA-256."""
    docs = []
    for path in document_paths(input_dir, manifest):
        try:
            data = path.read_bytes()
            text = data.decode("utf-8", "strict")
        except UnicodeDecodeError as exc:
            raise IngestionError(f"invalid UTF-8 in {path}: {exc}") from exc
        except OSError as exc:
            raise IngestionError(f"cannot read {path}: {exc}") from exc
        docs.append(Document(path.stem, tuple(extract_document_hapaxes(tokenize(text))),
                             path.name, hashlib.sha256(data).hexdigest()))
    return docs
