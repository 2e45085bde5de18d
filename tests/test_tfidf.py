import math

import numpy as np
import pytest

from gandr.errors import GandrError
from gandr.tfidf import TfidfVectorizer, tokenize_text

from conftest import fit_channel


def test_tokenize_lowercases_and_drops_punctuation():
    assert tokenize_text("Could you connect me, to the Musicals?") == [
        "could", "you", "connect", "me", "to", "the", "musicals"]
    assert tokenize_text("什么 word-word 42") == ["什么", "word", "word", "42"]
    assert tokenize_text("...!!!") == []


CORPUS = [["a", "b"], ["a", "c"], ["a", "b", "b"]]


def fitted_vectors(vectorizer, docs):
    """Fit, then vectorize each document alone, as ``(term_ids, weights)``:
    the reference the batched ``fit_transform`` must equal bit for bit."""
    vectorizer.fit_transform(docs)
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
    assert [w.tolist() for _, w in vectors] == expected
    assert [ids.tolist() for ids, _ in vectors] == [[0, 1], [0, 2], [0, 1]]

    # term-major postings: a in docs 0, 1, 2; b in 0, 2; c in 1
    indptr, doc_ids, weights = TfidfVectorizer().fit_transform(CORPUS)
    assert indptr.tolist() == [0, 3, 5, 6]
    assert doc_ids.tolist() == [0, 1, 2, 0, 2, 1]
    assert weights.tolist() == [expected[0][0], expected[1][0], expected[2][0],
                                expected[0][1], expected[2][1], expected[1][1]]
    assert weights.tobytes() == np.array(
        [vectors[d][1][i] for i, d in
         [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (1, 1)]]).tobytes()


def test_cosine_matches_hand_computation():
    idf_b = math.log(4 / 3) + 1
    n1 = math.sqrt(1 + idf_b ** 2)
    n3 = math.sqrt(1 + (2 * idf_b) ** 2)
    expected = (1 / n1) * (1 / n3) + (idf_b / n1) * (2 * idf_b / n3)
    scores = fit_channel(CORPUS).scores(CORPUS[0])
    assert scores[2] == pytest.approx(expected, rel=1e-15)
    # doc1 vs doc2 share only the zero-idf term 'a'
    assert scores[1] == pytest.approx(
        (1 / n1) * (1 / math.sqrt(1 + (math.log(2) + 1) ** 2)), rel=1e-15)


def test_normalized_vectors_have_unit_norm():
    channel = TfidfVectorizer()
    for i, (_, weights) in enumerate(fitted_vectors(channel, CORPUS)):
        assert float(np.sum(weights ** 2)) == pytest.approx(1.0, abs=1e-12)
        assert channel.scores(CORPUS[i])[i] == pytest.approx(1.0, abs=1e-12)


def test_unknown_tokens_are_dropped():
    vectorizer = TfidfVectorizer()
    vectorizer.fit_transform(CORPUS)
    assert vectorizer.transform(["zzz", "qqq"])[0].size == 0
    mixed_ids, _ = vectorizer.transform(["a", "zzz"])
    assert mixed_ids.tolist() == [0]


def test_zero_vector_cosine_is_zero():
    channel = fit_channel(CORPUS + [[]])
    assert channel.scores([]).tolist() == [0.0] * 4
    assert channel.scores(["a", "b"])[3] == 0.0


def test_fit_empty_corpus_raises():
    with pytest.raises(GandrError, match="^cannot fit a vectorizer on zero "
                                         "documents$"):
        TfidfVectorizer().fit_transform([])


@pytest.mark.parametrize("docs", [iter([]), (d for d in [])])
def test_fit_empty_iterator_raises(docs):
    with pytest.raises(GandrError) as caught:
        TfidfVectorizer().fit_transform(docs)
    assert str(caught.value) == "cannot fit a vectorizer on zero documents"


def test_vocabulary_independent_of_document_order():
    a, b = TfidfVectorizer(), TfidfVectorizer()
    a.fit_transform(CORPUS)
    b.fit_transform(list(reversed(CORPUS)))
    assert a.vocabulary_ == b.vocabulary_
    assert a.idf_.tolist() == b.idf_.tolist()

