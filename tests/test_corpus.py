"""Corpus ingestion, hapax tabulation and rank sequence tests."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapaxchain.corpus import (
    ConsistencyError,
    Document,
    EmptyTableError,
    IngestionError,
    build_hapax_table,
    build_rank_sequence,
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


# ------------------------------------------------------------ hapax table


def toy_corpus():
    return [doc(["a", "b", "b", "c"], "d0"), doc(["a", "c", "c", "d"], "d1")]


def test_build_table_toy_corpus():
    table = build_hapax_table(toy_corpus())
    assert table.words == ("a", "c", "d")
    assert table.frequencies == (2, 1, 1)
    assert table.dense_ranks == (1, 2, 2)
    assert table.dense_rank_of() == {"a": 1, "c": 2, "d": 2}
    assert table.ordinal_points() == [(1, 2), (2, 1), (3, 1)]
    assert table.total_occurrences == 4
    assert table.alphabet_size == 2


def test_build_table_single_doc():
    table = build_hapax_table([doc(["a"])])
    assert (table.words, table.frequencies, table.dense_ranks) == (("a",), (1,), (1,))
    assert table.ordinal_points() == [(1, 1)]
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

    # ordinal ranks are a bijection onto 1..n, lexicographic inside a class
    points = table.ordinal_points()
    assert sorted(r for r, _ in points) == list(range(1, len(words) + 1))
    by_ordinal = [(words[r - 1], f) for r, f in sorted(points)]
    assert [f for _, f in by_ordinal] == list(frequencies)
    for (w1, f1), (w2, f2) in zip(by_ordinal, by_ordinal[1:]):
        if f1 == f2:
            assert w1 < w2

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


def test_load_documents_invalid_utf8_names_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe invalid \x80")
    with pytest.raises(IngestionError, match="bad.txt"):
        load_documents(tmp_path)
