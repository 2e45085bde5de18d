import math

import numpy as np
import pytest

from gandr.errors import EmptyCorpus
from gandr.retrieval import InvertedIndex
from gandr.tfidf import TfidfConfig, TfidfVectorizer, tokenize_text


def test_tokenize_lowercases_and_drops_punctuation():
    assert tokenize_text("Could you connect me, to the Musicals?") == [
        "could", "you", "connect", "me", "to", "the", "musicals"]
    assert tokenize_text("什么 word-word 42") == ["什么", "word", "word", "42"]
    assert tokenize_text("...!!!") == []


CORPUS = [["a", "b"], ["a", "c"], ["a", "b", "b"]]


def fitted_vectors(vectorizer, docs):
    """Fit, then vectorize each document alone: the reference the batched
    ``fit_transform`` must equal bit for bit."""
    vectorizer.fit(docs)
    return [vectorizer.transform(tokens) for tokens in docs]


def hand_vector(counts: dict[str, float], idf: dict[str, float],
                order: list[str]) -> list[float]:
    weights = [counts[t] * idf[t] for t in order]
    norm = 0.0
    for w in weights:
        norm += w * w
    norm = math.sqrt(norm)
    return [w / norm for w in weights]


def test_three_doc_corpus_against_hand_computation():
    # df: a in 3 docs, b in 2, c in 1; idf = ln((1+N)/(1+df)) + 1
    idf = {"a": math.log(4 / 4) + 1, "b": math.log(4 / 3) + 1,
           "c": math.log(4 / 2) + 1}
    vectorizer = TfidfVectorizer()
    vectors = fitted_vectors(vectorizer, CORPUS)

    assert vectorizer.vocabulary_ == {"a": 0, "b": 1, "c": 2}
    assert vectorizer.idf_.tolist() == [idf["a"], idf["b"], idf["c"]]

    expected = [
        hand_vector({"a": 1, "b": 1}, idf, ["a", "b"]),
        hand_vector({"a": 1, "c": 1}, idf, ["a", "c"]),
        hand_vector({"a": 1, "b": 2}, idf, ["a", "b"]),
    ]
    # bitwise agreement with the reference arithmetic is intentional: the
    # retrieval oracle tests depend on it
    assert vectors[0].weights.tolist() == expected[0]
    assert vectors[1].weights.tolist() == expected[1]
    assert vectors[2].weights.tolist() == expected[2]
    assert vectors[0].term_ids.tolist() == [0, 1]
    assert vectors[1].term_ids.tolist() == [0, 2]
    assert vectors[2].term_ids.tolist() == [0, 1]

    doc, term, weights = TfidfVectorizer().fit_transform(CORPUS)
    assert doc.tolist() == [0, 0, 1, 1, 2, 2]
    assert term.tolist() == [0, 1, 0, 2, 0, 1]
    assert weights.tolist() == expected[0] + expected[1] + expected[2]


def test_cosine_matches_hand_computation():
    idf_b = math.log(4 / 3) + 1
    n1 = math.sqrt(1 + idf_b ** 2)
    n3 = math.sqrt(1 + (2 * idf_b) ** 2)
    expected = (1 / n1) * (1 / n3) + (idf_b / n1) * (2 * idf_b / n3)
    scores = InvertedIndex(CORPUS).scores(CORPUS[0])
    assert scores[2] == pytest.approx(expected, rel=1e-15)
    # doc1 vs doc2 share only the zero-idf term 'a'
    assert scores[1] == pytest.approx(
        (1 / n1) * (1 / math.sqrt(1 + (math.log(2) + 1) ** 2)), rel=1e-15)


def test_normalized_vectors_have_unit_norm():
    index = InvertedIndex(CORPUS)
    for i, vec in enumerate(fitted_vectors(TfidfVectorizer(), CORPUS)):
        assert float(np.sum(vec.weights ** 2)) == pytest.approx(1.0, abs=1e-12)
        assert index.scores(CORPUS[i])[i] == pytest.approx(1.0, abs=1e-12)


def test_sublinear_tf():
    vectorizer = TfidfVectorizer(TfidfConfig(sublinear_tf=True))
    vectors = fitted_vectors(vectorizer, CORPUS)
    idf_a = 1.0
    idf_b = math.log(4 / 3) + 1
    wa, wb = 1.0 * idf_a, (1 + math.log(2)) * idf_b
    norm = math.sqrt(wa * wa + wb * wb)
    assert vectors[2].weights.tolist() == pytest.approx([wa / norm, wb / norm],
                                                        rel=1e-15)


def test_unnormalized_keeps_raw_weights():
    vectorizer = TfidfVectorizer(TfidfConfig(normalize=False))
    vectors = fitted_vectors(vectorizer, CORPUS)
    idf_b = math.log(4 / 3) + 1
    assert vectors[2].weights.tolist() == [1.0, 2 * idf_b]
    # retrieval scores unnormalized vectors by their raw dot product
    index = InvertedIndex(CORPUS, TfidfConfig(normalize=False))
    assert index.scores(CORPUS[2])[2] == 1.0 + (2 * idf_b) * (2 * idf_b)


def test_unknown_tokens_are_dropped():
    vectorizer = TfidfVectorizer()
    vectorizer.fit(CORPUS)
    assert vectorizer.transform(["zzz", "qqq"]).term_ids.size == 0
    mixed = vectorizer.transform(["a", "zzz"])
    assert mixed.term_ids.tolist() == [0]


def test_zero_vector_cosine_is_zero():
    index = InvertedIndex(CORPUS + [[]])
    assert index.scores([]).tolist() == [0.0] * 4
    assert index.scores(["a", "b"])[3] == 0.0


def test_fit_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        TfidfVectorizer().fit([])


def test_vocabulary_independent_of_document_order():
    a = TfidfVectorizer().fit(CORPUS)
    b = TfidfVectorizer().fit(list(reversed(CORPUS)))
    assert a.vocabulary_ == b.vocabulary_
    assert a.idf_.tolist() == b.idf_.tolist()

