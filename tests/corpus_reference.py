"""Reference forms of the corpus fast paths.

``tokenize`` is the tokenizer as a regular expression: ``TOKEN_RE`` finds
runs of Unicode letters with internal apostrophes in the NFC text, its
curly apostrophes made straight, lowercased.  ``corpus.tokenize`` finds
the same tokens through a character table.  ``corpus_id`` is the corpus
record as the CLI built it from paths: list the documents again and hash
each file, instead of taking the digests ``load_documents`` keeps.
A document here is a tuple ``(id, hapaxes, file, sha256)``, or the pair
``(id, hapaxes)`` that ``Corpus.of`` takes.  ``build_hapax_table`` and
``build_rank_sequence`` walk every hapax occurrence of each document's
strings, with a ``Counter`` and a ``dict`` lookup, where the package
counts the hapax ids of a ``Corpus`` and looks each distinct word up
once.  ``load_documents`` reads the documents one by one in this process
into a plain list of such tuples, and ``documents`` decodes a ``Corpus``
into the same tuples from its ``words``, ``codes`` and ``ends``.  The
tests compare the package against each.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np

from hapaxchain import persist
from hapaxchain.corpus import (ConsistencyError, Corpus, EmptyTableError, HapaxTable, document_paths,
                               extract_document_hapaxes)
from hapaxchain.corpus import tokenize as corpus_tokenize

TOKEN_RE = re.compile(r"[^\W\d_]+(?:'[^\W\d_]+)*")
_APOSTROPHES = str.maketrans({"’": "'", "ʼ": "'"})


def tokenize(raw_text: str) -> list[str]:
    return TOKEN_RE.findall(unicodedata.normalize("NFC", raw_text).translate(_APOSTROPHES).lower())


def corpus_id(corpus: Path, manifest: Path | None = None) -> dict:
    """One SHA-256 over the file name and SHA-256 of each document, in reading
    order, and the manifest by file name and SHA-256, if any."""
    docs = [[p.name, persist.sha256_file(p)] for p in document_paths(corpus, manifest)]
    manifest_id = ({"manifest": manifest.name, "manifest_sha256": persist.sha256_file(manifest)} if manifest
                   else {"manifest": None})
    return {"corpus_sha256": persist.config_hash({"documents": docs}), **manifest_id}


def build_hapax_table(docs) -> HapaxTable:
    if not docs:
        raise ValueError("corpus must contain at least one document")
    freq: Counter[str] = Counter()
    for _, hapaxes, *_ in docs:
        freq.update(hapaxes)
    if not freq:
        raise EmptyTableError("corpus yields an empty table: no hapaxes found")
    words = sorted(sorted(freq), key=freq.__getitem__, reverse=True)  # stable: ties stay in word order
    return HapaxTable(words=tuple(words), frequencies=tuple(map(freq.__getitem__, words)))


def build_rank_sequence(docs, table: HapaxTable) -> np.ndarray:
    rank_of = table.dense_rank_of()
    out: list[int] = []
    for doc_id, hapaxes, *_ in docs:
        try:
            out.extend(map(rank_of.__getitem__, hapaxes))
        except KeyError as exc:
            raise ConsistencyError(f"hapax {exc.args[0]!r} from document {doc_id!r} missing from table") from None
    return np.array(out, dtype=np.int64)


def load_documents(input_dir: Path, manifest: Path | None = None) -> list[tuple[str, tuple[str, ...], str, str]]:
    docs = []
    for path in document_paths(input_dir, manifest):
        data = path.read_bytes()
        hapaxes = extract_document_hapaxes(corpus_tokenize(data.decode("utf-8", "strict")))
        docs.append((path.stem, tuple(hapaxes), path.name, hashlib.sha256(data).hexdigest()))
    return docs


def documents(corpus: Corpus) -> list[tuple[str, tuple[str, ...], str, str]]:
    """Each document of ``corpus`` as ``(id, hapaxes, file, sha256)``: its hapaxes are the
    ``words`` at its run of ``codes``, which ends at its entry of ``ends``."""
    starts = [0, *corpus.ends[:-1].tolist()]
    return [(doc_id, tuple(corpus.words[c] for c in corpus.codes[start:end].tolist()), file, digest)
            for doc_id, start, end, file, digest in zip(corpus.ids, starts, corpus.ends.tolist(), corpus.files,
                                                        corpus.digests)]
