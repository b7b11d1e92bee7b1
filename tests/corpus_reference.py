"""Reference forms of two corpus fast paths.

``tokenize`` is the tokenizer as a regular expression: ``TOKEN_RE`` finds
runs of Unicode letters with internal apostrophes in the NFC text, its
curly apostrophes made straight, lowercased.  ``corpus.tokenize`` finds
the same tokens through a character table.  ``corpus_id`` is the corpus
record as the CLI built it from paths: list the documents again and hash
each file, instead of taking the digests ``load_documents`` keeps.  The
tests compare the package against both.
"""

from __future__ import annotations

import re
import unicodedata
from pathlib import Path

from hapaxchain import persist
from hapaxchain.corpus import document_paths

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
