"""Corpus ingestion, hapax tabulation and rank sequence tests."""

import hashlib
import os
import re
import sys
import tempfile
import unicodedata
from collections import Counter
from pathlib import Path
from unittest import mock

import corpus_reference as reference
import numpy as np
import pytest
from corpus_reference import TOKEN_RE
from corpus_reference import tokenize as reference_tokenize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hapaxchain import corpus as corpus_mod
from hapaxchain.corpus import (
    ConsistencyError,
    Corpus,
    Document,
    EmptyTableError,
    IngestionError,
    build_hapax_table,
    build_rank_sequence,
    document_paths,
    extract_document_hapaxes,
    load_documents,
    tokenize,
)


def doc(tokens, name="doc"):
    return Document(id=name, hapaxes=tuple(extract_document_hapaxes(tokens)))


def reference_rank_sequence(token_corpus, table):
    """The per-token walk over each document's raw tokens: each token counted
    once in its document, in document order."""
    rank_of = table.dense_rank_of()
    out = []
    for tokens in token_corpus:
        counts = Counter(tokens)
        out.extend(rank_of[tok] for tok in tokens if counts[tok] == 1)
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------- tokenize


def test_tokenize_single_word_strips_punctuation():
    assert tokenize("Senate!") == ["senate"]


def test_tokenize_empty_input():
    assert tokenize("") == []


def test_tokenize_plain_sentence():
    assert tokenize("Fellow Citizens of the Senate") == [
        "fellow", "citizens", "of", "the", "senate",
    ]


def test_tokenize_digits_and_punctuation_separate():
    assert tokenize("4th of July, 1776: fireworks!") == ["th", "of", "july", "fireworks"]


def test_tokenize_internal_apostrophes_survive():
    assert tokenize("Don't, 'tis o'clock'") == ["don't", "tis", "o'clock"]
    # curly apostrophe normalized
    assert tokenize("don’t") == ["don't"]


def test_tokenize_unicode_letters():
    assert tokenize("naïve café — coöperate") == ["naïve", "café", "coöperate"]
    assert tokenize(unicodedata.normalize("NFD", "naïve café")) == ["naïve", "café"]  # NFC first


# ASCII letters in both cases, digits, "_", apostrophes, punctuation and whitespace;
# apostrophes alone, doubled, leading and trailing, among capitals, digits, "_" and
# the separators str.split() takes for whitespace; and any ASCII text.
ascii_text = (
    st.text(st.sampled_from("aBzZ09_'' -.,;:!?\"()\t\n"), max_size=60)
    | st.lists(st.sampled_from(["'", "''", "a", "zq", "Don", "T", "_", "0", "9", " ", "-", "\n",
                                "\x0b", "\x1c", "\x1d", "\x1e", "\x1f"]), max_size=30).map("".join)
    | st.text(st.characters(max_codepoint=127), max_size=60))
# The three apostrophes, combining marks (one with no precomposed form after "a"),
# letters that lowercase to two code points or that are digits of no decimal value,
# next to any character; and any text.
unicode_text = (
    ascii_text
    | st.lists(st.sampled_from(["'", "’", "ʼ", "\u0301", "\u0308", "\u0327", "\u093f", "a", "E", "i", "İ", "ß",
                                "é", "я", "Й", "Ⅻ", "²", "٣", "_", " ", "—", "“"]) | st.characters(),
               max_size=30).map("".join)
    | st.text(max_size=60))


@settings(max_examples=1000)
@given(unicode_text)
@example("".join(map(chr, range(128))))
@example("Don’t be NAIVE")
@example("a naïve don't")
def test_tokenize_finds_the_reference_patterns_tokens(text):
    tokens = tokenize(text)
    assert type(tokens) is list and tokens == reference_tokenize(text)


def test_char_table_classifies_each_code_point_as_the_pattern_does():
    # A fresh table, so the module's own cache only holds characters it has seen in texts.
    chars = [chr(code) for code in range(sys.maxunicode + 1) if not 0xD800 <= code <= 0xDFFF]
    table = corpus_mod._CharTable()
    mapped = "".join(chars).translate(table)
    want = ["'" if char in "'’ʼ" else char if TOKEN_RE.fullmatch(char) else " " for char in chars]
    assert [(char, got) for char, got, w in zip(chars, mapped, want) if got != w] == []
    assert len(mapped) == len(table) == len(chars)


def test_tokenize_deterministic():
    text = "Some text, repeated; exactly the same."
    assert tokenize(text) == tokenize(text)


# ------------------------------------------------------ document hapaxes


def test_hapaxes_basic():
    assert extract_document_hapaxes(["a", "b", "b", "c"]) == ["a", "c"]


def test_hapaxes_none():
    assert extract_document_hapaxes(["a", "a"]) == []


def test_hapaxes_mixed_counts():
    assert extract_document_hapaxes(["a", "b", "b", "c", "c", "c", "d"]) == ["a", "d"]


def test_hapaxes_empty_document():
    assert extract_document_hapaxes([]) == []


def test_hapaxes_in_order_of_appearance():
    assert extract_document_hapaxes(["c", "b", "a", "b", "d"]) == ["c", "a", "d"]


def test_document_rejects_an_empty_hapax():
    with pytest.raises(ValueError, match=r"^hapaxes must not contain empty strings$"):
        Document(id="d", hapaxes=("a", ""))


# ------------------------------------------------------------ hapax table


def toy_corpus():
    return [doc(["a", "b", "b", "c"], "d0"), doc(["a", "c", "c", "d"], "d1")]


def test_build_table_toy_corpus():
    table = build_hapax_table(toy_corpus())
    assert table.words == ("a", "c", "d")
    assert table.frequencies == (2, 1, 1)
    assert table.dense_ranks == (1, 2, 2)
    assert table.dense_rank_of() == {"a": 1, "c": 2, "d": 2}
    assert table.total_occurrences == 4
    assert table.alphabet_size == 2


def test_build_table_single_doc():
    table = build_hapax_table([doc(["a"])])
    assert (table.words, table.frequencies, table.dense_ranks) == (("a",), (1,), (1,))
    assert table.total_occurrences == 1
    assert table.alphabet_size == 1


def test_build_table_no_hapaxes():
    with pytest.raises(EmptyTableError):
        build_hapax_table([doc(["a", "a", "b", "b"])])


def test_build_table_empty_corpus():
    with pytest.raises(ValueError):
        build_hapax_table([])


# ---------------------------------------------------------- rank sequence


def test_rank_sequence_toy_corpus():
    corpus = toy_corpus()
    table = build_hapax_table(corpus)
    seq = build_rank_sequence(corpus, table)
    assert seq.tolist() == [1, 2, 1, 2]
    assert table.alphabet_size == 2


def test_rank_sequence_is_one_int64_rank_per_occurrence():
    corpus = toy_corpus()
    table = build_hapax_table(corpus)
    seq = build_rank_sequence(corpus, table)
    assert seq.dtype == np.int64 and seq.ndim == 1
    assert len(seq) == table.total_occurrences


def test_rank_sequence_single_doc():
    corpus = [doc(["a"])]
    seq = build_rank_sequence(corpus, build_hapax_table(corpus))
    assert seq.tolist() == [1]


def test_rank_sequence_repeated_doc():
    corpus = [doc(["a"]), doc(["a"]), doc(["a"])]
    table = build_hapax_table(corpus)
    seq = build_rank_sequence(corpus, table)
    assert seq.tolist() == [1, 1, 1]
    assert set(table.frequencies) == {3}


def test_rank_sequence_follows_list_order():
    corpus = [doc(["b", "c"], "first"), doc(["c", "a"], "second")]
    table = build_hapax_table(corpus)  # c: 2 documents => dense rank 1; a, b => dense rank 2
    assert build_rank_sequence(corpus, table).tolist() == [2, 1, 1, 2]
    assert build_rank_sequence(corpus[::-1], table).tolist() == [1, 2, 2, 1]


def test_rank_sequence_missing_word_fails():
    corpus = toy_corpus()
    table = build_hapax_table(corpus[:1])
    with pytest.raises(ConsistencyError):
        build_rank_sequence(corpus, table)


def test_rank_sequence_missing_word_names_word_and_document():
    table = build_hapax_table([doc(["a"])])
    with pytest.raises(ConsistencyError, match=r"^hapax 'b' from document 'late' missing from table$"):
        build_rank_sequence([doc(["a"], "early"), doc(["a", "b"], "late")], table)


# -------------------------------------------------------------- invariants


token_lists = st.lists(
    st.sampled_from(["a", "b", "c", "d", "e", "f", "g"]), min_size=0, max_size=12
)


@settings(max_examples=80)
@given(st.lists(token_lists, min_size=1, max_size=6))
def test_corpus_invariants(token_corpus):
    corpus = [doc(toks, f"d{i}") for i, toks in enumerate(token_corpus)]
    total_hapaxes = sum(len(d.hapaxes) for d in corpus)
    if total_hapaxes == 0:
        with pytest.raises(EmptyTableError):
            build_hapax_table(corpus)
        return
    table = build_hapax_table(corpus)
    seq = build_rank_sequence(corpus, table)
    assert len(seq) == total_hapaxes == table.total_occurrences

    words, frequencies, dense_ranks = table.words, table.frequencies, table.dense_ranks
    assert len(words) == len(frequencies) == len(dense_ranks)
    assert table.dense_rank_of() == dict(zip(words, dense_ranks))

    # reference derivations: one key sort, and dense ranks from the distinct frequencies
    counts = Counter(w for d in corpus for w in d.hapaxes)
    assert list(zip(words, frequencies)) == sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    dense_of = {f: i + 1 for i, f in enumerate(sorted(set(frequencies), reverse=True))}
    assert dense_ranks == tuple(dense_of[f] for f in frequencies)

    # dense rank is order-isomorphic to descending frequency
    for f1, d1 in zip(frequencies, dense_ranks):
        for f2, d2 in zip(frequencies, dense_ranks):
            assert (f1 > f2) == (d1 < d2)

    # words are in ordinal order: frequency descending, lexicographic inside a class
    for (w1, f1), (w2, f2) in zip(zip(words, frequencies), zip(words[1:], frequencies[1:])):
        assert f1 > f2 or (f1 == f2 and w1 < w2)

    assert table.alphabet_size == len(set(frequencies))
    assert max(dense_ranks) == table.alphabet_size


@settings(max_examples=200)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f"]), max_size=15), min_size=1, max_size=8))
def test_rank_sequence_equals_per_token_walk(token_corpus):
    corpus = [doc(toks, f"d{i}") for i, toks in enumerate(token_corpus)]
    if not any(d.hapaxes for d in corpus):
        return
    table = build_hapax_table(corpus)
    seq = build_rank_sequence(corpus, table)
    want = reference_rank_sequence(token_corpus, table)
    assert seq.dtype == want.dtype and seq.tolist() == want.tolist()


@settings(max_examples=40)
@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=10), st.randoms())
def test_table_invariant_under_token_permutation(tokens, rnd):
    shuffled = tokens[:]
    rnd.shuffle(shuffled)
    base = [doc(tokens), doc(["x"])]
    permuted = [doc(shuffled), doc(["x"])]
    assert build_hapax_table(base) == build_hapax_table(permuted)


def write_documents(root: Path, token_corpus) -> None:
    for i, tokens in enumerate(token_corpus):
        (root / f"d{i:02d}.txt").write_text(" ".join(tokens), encoding="utf-8")


def outcome(fn, *args):
    """What ``fn(*args)`` gives: ``("ok", value)``, or the type and message of its corpus error."""
    try:
        value = fn(*args)
    except (ConsistencyError, EmptyTableError) as exc:
        return type(exc), str(exc)
    return "ok", (value.dtype, value.tolist()) if isinstance(value, np.ndarray) else value


# Few words, so ties and hapaxes shared across documents are common; a word
# twice in a document is no hapax there, so some documents have none.
few_words = st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", "g"]), max_size=10)


@settings(max_examples=120, deadline=None)
@given(st.lists(few_words, min_size=1, max_size=8), st.integers(1, 3), st.integers(0, 7))
def test_builders_equal_the_reference_walks(token_corpus, cpus, foreign_docs):
    # The same documents by hand and loaded from files on 1-3 CPUs; a foreign table, built
    # from the first ``foreign_docs`` documents only, may lack words of later ones.
    hand = [doc(tokens, f"d{i:02d}") for i, tokens in enumerate(token_corpus)]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
        write_documents(Path(tmp), token_corpus)
        loaded = load_documents(tmp)
        assert list(loaded) == reference.load_documents(Path(tmp))
    want_table = outcome(reference.build_hapax_table, hand)
    foreign = hand[:foreign_docs] + [Document("extra", ("zz",))]
    for docs in (hand, loaded):
        assert outcome(build_hapax_table, docs) == want_table
        if want_table[0] == "ok":
            table = want_table[1]
            assert outcome(build_rank_sequence, docs, table) == outcome(reference.build_rank_sequence, hand, table)
        table = reference.build_hapax_table(foreign)
        assert outcome(build_rank_sequence, docs, table) == outcome(reference.build_rank_sequence, hand, table)


def test_a_hapax_listed_twice_counts_twice_as_in_the_reference():
    corpus = [Document("d0", ("a", "b", "a")), Document("d1", ("b",))]
    table = build_hapax_table(corpus)
    assert table == reference.build_hapax_table(corpus)
    assert build_rank_sequence(corpus, table).tolist() == reference.build_rank_sequence(corpus, table).tolist()


def test_a_loaded_corpus_missing_from_the_table_names_the_first_document(tmp_path):
    # Two words are missing, "late" first seen in d01 and "later" in d02.
    write_documents(tmp_path, [["early"], ["late", "early"], ["later", "late"]])
    table = build_hapax_table([doc(["early"])])
    with pytest.raises(ConsistencyError, match=r"^hapax 'late' from document 'd01' missing from table$"):
        build_rank_sequence(load_documents(tmp_path), table)


def test_a_corpus_holds_each_hapax_once_and_every_occurrence_as_an_id(tmp_path):
    write_documents(tmp_path, [["b", "a", "b", "c"], ["a", "a"], ["c", "d"]])
    corpus = load_documents(tmp_path)
    assert isinstance(corpus, Corpus) and len(corpus) == 3
    assert corpus.words == ("a", "c", "d")
    assert corpus.codes.dtype == np.int32 and corpus.codes.tolist() == [0, 1, 1, 2]
    assert corpus.ends.tolist() == [2, 2, 4]
    assert [d.hapaxes for d in corpus] == [("a", "c"), (), ("c", "d")]
    assert corpus[-1] == corpus[2] and corpus[1:] == [corpus[1], corpus[2]]
    with pytest.raises(IndexError):
        corpus[3]
    assert Corpus.of(corpus) is corpus


# ----------------------------------------------------------------- loading


def test_load_documents_lexicographic_order(tmp_path):
    (tmp_path / "b.txt").write_text("beta words", encoding="utf-8")
    (tmp_path / "a.txt").write_text("alpha words", encoding="utf-8")
    docs = load_documents(tmp_path)
    assert [d.id for d in docs] == ["a", "b"]


def test_load_documents_manifest_order(tmp_path):
    (tmp_path / "b.txt").write_text("beta", encoding="utf-8")
    (tmp_path / "a.txt").write_text("alpha", encoding="utf-8")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("b.txt\na.txt\n", encoding="utf-8")
    docs = load_documents(tmp_path, manifest)
    assert [d.id for d in docs] == ["b", "a"]


def test_load_documents_manifest_missing_file(tmp_path):
    (tmp_path / "a.txt").write_text("alpha", encoding="utf-8")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("a.txt\nmissing.txt\n", encoding="utf-8")
    with pytest.raises(IngestionError, match="missing.txt"):
        load_documents(tmp_path, manifest)


def test_load_documents_manifest_names_a_file_twice(tmp_path):
    # Reading the document twice would count its hapaxes in two documents.
    (tmp_path / "a.txt").write_text("alpha", encoding="utf-8")
    (tmp_path / "b.txt").write_text("beta", encoding="utf-8")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("a.txt\nb.txt\n./a.txt\n", encoding="utf-8")
    with pytest.raises(IngestionError, match=r"^manifest names a file more than once: a\.txt$"):
        load_documents(tmp_path, manifest)


def test_load_documents_empty_dir(tmp_path):
    with pytest.raises(IngestionError, match="no documents"):
        load_documents(tmp_path)


def test_document_paths_missing_directory(tmp_path):
    with pytest.raises(IngestionError, match=rf"^input directory not found: {re.escape(str(tmp_path / 'absent'))}$"):
        document_paths(tmp_path / "absent")


def test_load_documents_unreadable_file_names_it(tmp_path):
    (tmp_path / "a.txt").write_text("alpha", encoding="utf-8")
    (tmp_path / "b.txt").mkdir()  # listed as a document, but a directory cannot be read as text
    with pytest.raises(IngestionError, match=rf"^cannot read {re.escape(str(tmp_path / 'b.txt'))}: "):
        load_documents(tmp_path)


def test_load_documents_keeps_each_files_name_and_digest(tmp_path):
    (tmp_path / "a.txt").write_bytes(b"alpha beta")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "b.txt").write_bytes(b"\xef\xbb\xbfgamma\r\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("sub/b.txt\na.txt\n", encoding="utf-8")
    docs = load_documents(tmp_path, manifest)
    assert [(d.id, d.file) for d in docs] == [("b", "b.txt"), ("a", "a.txt")]
    assert [d.sha256 for d in docs] == [hashlib.sha256(p.read_bytes()).hexdigest()
                                        for p in (sub / "b.txt", tmp_path / "a.txt")]


def test_load_documents_reads_crlf_cr_and_bom_documents_as_lf(tmp_path):
    # Bytes are decoded without newline translation; CR, LF and a BOM all separate tokens.
    text = "Don't stop'\nthe 'music' now\n\nthe end\nnaïve o'clock\n"
    variants = {"lf": text, "crlf": text.replace("\n", "\r\n"), "cr": text.replace("\n", "\r"),
                "bom": "\ufeff" + text, "bom_crlf": "\ufeff" + text.replace("\n", "\r\n"),
                "ascii_crlf": text.replace("ï", "i").replace("\n", "\r\n")}
    for name, variant in variants.items():
        (tmp_path / f"{name}.txt").write_bytes(variant.encode("utf-8"))
    hapaxes = {d.id: d.hapaxes for d in load_documents(tmp_path)}
    assert hapaxes["lf"] == ("don't", "stop", "music", "now", "end", "naïve", "o'clock")
    for name in ("crlf", "cr", "bom", "bom_crlf"):
        assert hapaxes[name] == hapaxes["lf"], name
    assert hapaxes["ascii_crlf"] == tuple(h.replace("ï", "i") for h in hapaxes["lf"])


def test_load_documents_invalid_utf8_names_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe invalid \x80")
    with pytest.raises(IngestionError, match="bad.txt"):
        load_documents(tmp_path)
