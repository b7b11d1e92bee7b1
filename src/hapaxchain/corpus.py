"""Corpus ingestion and hapax bookkeeping.

A hapax legomenon is a token occurring exactly once within one document;
its corpus frequency is the number of documents in which it is a hapax.
A corpus is its documents in chronological order, held as one
:class:`Corpus`.  This module tokenizes documents through one character
table and, as it loads them, lists each one's hapaxes in order of
appearance as ids: each distinct hapax gets the next id when first
seen.  The frequency table is one count of those ids under dense and
ordinal ranks, and the rank sequence maps the ids, in corpus order,
through the dense ranks.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, count, filterfalse, repeat
from pathlib import Path

import numpy as np

from .stats import _map_on_cpus, _usable_cpus

__all__ = [
    "Corpus",
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


def _number(word_lists: Iterable[Sequence[str]], ids: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """The ids of the words of each list, in order, as one int32 array, and the end of each
    list's ids; a word not yet in ``ids`` gets the next id there when first seen."""
    codes = [np.zeros(0, np.int32)]
    for words in word_lists:
        ids.update(zip(filterfalse(ids.__contains__, words), count(len(ids))))
        codes.append(np.fromiter(map(ids.__getitem__, words), np.int32, len(words)))
    return np.concatenate(codes), np.cumsum([len(c) for c in codes[1:]], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Corpus:
    """A corpus held as hapax ids: each distinct hapax once in ``words``, in
    first-seen order, and every hapax occurrence as its index into ``words``
    in ``codes``, in corpus order; document ``k`` owns
    ``codes[ends[k - 1]:ends[k]]`` (from 0 for the first).  ``ids``,
    ``files`` and ``digests`` hold each document's id, file name and SHA-256."""

    ids: tuple[str, ...]
    files: tuple[str, ...]
    digests: tuple[str, ...]
    words: tuple[str, ...]
    codes: np.ndarray
    ends: np.ndarray

    @classmethod
    def of(cls, documents: Iterable[tuple[str, Sequence[str]]]) -> Corpus:
        """A corpus of ``(id, hapaxes)`` pairs, in chronological order, with no file names or digests."""
        names, hapax_lists = tuple(zip(*documents)) or ((), ())
        for hapaxes in hapax_lists:
            if isinstance(hapaxes, str):
                raise ValueError(f"hapaxes must be a sequence of strings, not the string {hapaxes!r}")
            for h in hapaxes:
                if not isinstance(h, str) or not h:
                    raise ValueError("hapaxes must not contain empty strings" if isinstance(h, str)
                                     else f"hapaxes must be strings, got {h!r}")
        ids: dict[str, int] = {}
        codes, ends = _number(hapax_lists, ids)
        return cls(names, ("",) * len(names), ("",) * len(names), tuple(ids), codes, ends)


def extract_document_hapaxes(tokens) -> list[str]:
    """Tokens occurring exactly once in a document's tokens, in order of appearance
    (a ``Counter`` keeps first-seen order, and a hapax is seen only once)."""
    return [tok for tok, c in Counter(tokens).items() if c == 1]


def build_hapax_table(corpus: Corpus) -> HapaxTable:
    """Aggregate per-document hapaxes into the corpus frequency table: one count of the
    hapax ids, ordered by word, then stably by descending frequency."""
    if not corpus.ids:
        raise ValueError("corpus must contain at least one document")
    if not corpus.codes.size:
        raise EmptyTableError("corpus yields an empty table: no hapaxes found")
    words, freq = corpus.words, np.bincount(corpus.codes)
    by_word = np.array(sorted(range(len(words)), key=words.__getitem__))
    order = by_word[np.argsort(-freq[by_word], kind="stable")]
    return HapaxTable(words=tuple(map(words.__getitem__, order.tolist())), frequencies=tuple(freq[order].tolist()))


def build_rank_sequence(corpus: Corpus, table: HapaxTable) -> np.ndarray:
    """The dense ranks (int64) of each document's hapaxes, in corpus order and,
    within a document, in order of appearance: each distinct word is looked up once."""
    rank_of = table.dense_rank_of()
    ranks = np.fromiter(map(rank_of.get, corpus.words, repeat(0)), np.int64, len(corpus.words))  # 0: not in the table
    seq = ranks[corpus.codes]
    missing = np.flatnonzero(seq == 0)
    if missing.size:
        at = int(missing[0])
        doc = int(np.searchsorted(corpus.ends, at, side="right"))
        raise ConsistencyError(f"hapax {corpus.words[corpus.codes[at]]!r} from document {corpus.ids[doc]!r} "
                               "missing from table")
    return seq


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


def _load_chunk(paths: list[Path], joined: bool) -> tuple[list[str], str | dict[str, int], np.ndarray, np.ndarray]:
    """Read, hash and tokenize the documents at ``paths``, in order: their digests, the
    chunk's hapax words in first-seen order, and its hapax ids with each document's end.
    The words come as their id dict or, ``joined``, as one space-joined string, as no token
    holds whitespace: from a worker, one string pickles in a tenth of the time a list takes."""
    digests = []

    def hapax_lists():
        for path in paths:
            try:
                data = path.read_bytes()
                text = data.decode("utf-8", "strict")
            except UnicodeDecodeError as exc:
                raise IngestionError(f"invalid UTF-8 in {path}: {exc}") from exc
            except OSError as exc:
                raise IngestionError(f"cannot read {path}: {exc}") from exc
            digests.append(hashlib.sha256(data).hexdigest())
            yield extract_document_hapaxes(tokenize(text))

    ids: dict[str, int] = {}
    codes, ends = _number(hapax_lists(), ids)
    return digests, " ".join(ids) if joined else ids, codes, ends


def load_documents(input_dir: str | Path, manifest: str | Path | None = None) -> Corpus:
    """Read the documents of :func:`document_paths`, in its order, and list each one's hapaxes.
    Each file is read once: its bytes are decoded as strict UTF-8, with no newline
    translation (CR and LF both separate tokens), and the document keeps their SHA-256.
    The documents load in contiguous chunks, one per usable CPU (``stats._map_on_cpus``);
    each chunk's words are then renumbered into the corpus's first-seen order."""
    paths = document_paths(input_dir, manifest)
    n = min(len(_usable_cpus()), len(paths))
    chunks = [paths[len(paths) * k // n:len(paths) * (k + 1) // n] for k in range(n)]
    digests, words, codes, ends = zip(*_map_on_cpus(partial(_load_chunk, joined=n > 1), chunks))
    ids = dict(zip(words[0].split(), count())) if n > 1 else words[0]  # the first chunk's ids are the corpus's
    later, word_ends = _number([w.split() for w in words[1:]], ids)  # each later chunk's words as corpus ids
    codes = [codes[0], *(later[start:end][c] for start, end, c in zip([0, *word_ends[:-1]], word_ends, codes[1:]))]
    ends = [e + start for start, e in zip(np.cumsum([0, *map(len, codes[:-1])]), ends)]
    return Corpus(tuple(p.stem for p in paths), tuple(p.name for p in paths), tuple(chain.from_iterable(digests)),
                  tuple(ids), np.concatenate(codes), np.concatenate(ends))
