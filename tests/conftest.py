import functools

import numpy as np
import pytest


@pytest.fixture
def toy_corpus_dir(tmp_path):
    """Two documents whose hand-derived table is a:2, c:1, d:1 and whose
    rank sequence is [1, 2, 1, 2]."""
    corpus = tmp_path / "toy_corpus"
    corpus.mkdir()
    (corpus / "doc0.txt").write_text("a b b c", encoding="utf-8")
    (corpus / "doc1.txt").write_text("a c c d", encoding="utf-8")
    return corpus


@pytest.fixture
def rich_corpus_dir(tmp_path):
    """Twelve documents giving ten hapaxes with frequency profile
    12,7,5,4,3,2,2,1,1,1: enough points (and enough curvature) for the
    fit stage to land on an interior optimum."""
    frequencies = {
        "anchor": 12, "breeze": 7, "cedar": 5, "dune": 4, "ember": 3,
        "frost": 2, "gale": 2, "harbor": 1, "inlet": 1, "juniper": 1,
    }
    corpus = tmp_path / "rich_corpus"
    corpus.mkdir()
    for i in range(max(frequencies.values())):
        words = [w for w, f in frequencies.items() if f > i]
        (corpus / f"doc{i:02d}.txt").write_text(
            " ".join(words + ["filler", "filler"]), encoding="utf-8"
        )
    return corpus


@pytest.fixture(scope="session")
def long_document_points():
    """``points(seed)``: the (ordinal rank, hapax frequency) fit points of a
    generated corpus of few long documents, 500 x 1 700 Zipf(1) tokens over
    300 000 words.  The fit drives this shape towards beta = -1."""

    @functools.cache
    def points(seed):
        rng = np.random.default_rng(seed)
        vocab = 300_000
        weights = 1.0 / np.arange(1, vocab + 1)
        ids = rng.choice(vocab, size=(500, 1_700), p=weights / weights.sum())
        hapaxes = []
        for doc in ids:
            words, counts = np.unique(doc, return_counts=True)
            hapaxes.append(words[counts == 1])
        freq = np.bincount(np.concatenate(hapaxes), minlength=vocab)
        sizes = np.sort(freq[freq > 0])[::-1]
        return np.column_stack((np.arange(1, sizes.size + 1), sizes))

    return points
