import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gandr import _kernels
from gandr.retrieval import Exemplar
from gandr.tfidf import TfidfVectorizer, tokenize_text

from conftest import fit_channel, make_random_corpus


def random_csr(rng, n_terms, n_docs, density=0.3):
    indptr = [0]
    doc_ids = []
    weights = []
    for _ in range(n_terms):
        docs = np.flatnonzero(rng.random(n_docs) < density)
        doc_ids.extend(docs.tolist())
        weights.extend(rng.random(len(docs)).tolist())
        indptr.append(len(doc_ids))
    return (np.array(indptr, dtype=np.int64),
            np.array(doc_ids, dtype=np.int64),
            np.array(weights, dtype=np.float64))


def test_numpy_kernel_matches_manual_accumulation():
    rng = np.random.default_rng(1)
    indptr, doc_ids, weights = random_csr(rng, 12, 9)
    term_ids = np.array([0, 3, 7, 11], dtype=np.int64)
    query_weights = rng.random(4)
    scores = _kernels.score_postings(term_ids, query_weights, indptr,
                                     doc_ids, weights, 9)
    expected = np.zeros(9)
    for qi, t in enumerate(term_ids):
        for k in range(indptr[t], indptr[t + 1]):
            expected[doc_ids[k]] += query_weights[qi] * weights[k]
    assert scores.tolist() == expected.tolist()


def test_empty_query_scores_all_zero():
    rng = np.random.default_rng(3)
    indptr, doc_ids, weights = random_csr(rng, 5, 7)
    empty = np.empty(0, dtype=np.int64)
    scores = _kernels.score_postings(empty, np.empty(0), indptr, doc_ids,
                                     weights, 7)
    assert scores.tolist() == [0.0] * 7


def naive_postings(vectors, n_terms):
    """Transpose per-document ``(term_ids, weights)`` vectors term by term,
    docs in ascending order."""
    indptr, doc_ids, weights = [0], [], []
    for t in range(n_terms):
        for doc, (vec_ids, vec_weights) in enumerate(vectors):
            hit = np.flatnonzero(vec_ids == t)
            if hit.size:
                doc_ids.append(doc)
                weights.append(float(vec_weights[hit[0]]))
        indptr.append(len(doc_ids))
    return indptr, doc_ids, weights


@pytest.mark.parametrize("empty_at", [None, 0, 7, 14])
def test_postings_equal_naive_transposition(empty_at):
    """Array-built postings match a per-document transposition bit for bit,
    also when an utterance tokenizes to nothing."""
    rng = np.random.default_rng(5)
    corpus = make_random_corpus(rng, 14)
    if empty_at is not None:
        corpus.insert(empty_at, Exemplar(99, "?!", "[IN:X ]"))
    docs = [tokenize_text(e.utterance) for e in corpus]
    channel = fit_channel(docs)
    vectors = [channel.transform(tokens) for tokens in docs]
    indptr, doc_ids, weights = naive_postings(
        vectors, len(channel.vocabulary_))
    assert channel.n_docs == len(corpus)
    assert channel.indptr.tolist() == indptr
    assert channel.doc_ids.tolist() == doc_ids
    assert channel.weights.tolist() == weights
    assert channel.indptr.dtype == np.int64
    assert channel.doc_ids.dtype == np.int64
    assert channel.weights.dtype == np.float64


# short unicode tokens from a small alphabet, so documents repeat tokens
# and share them; empty documents and a lone document are drawn too
_token = st.text(alphabet="ab\u00e9\u4e2d\U0001f600 ", max_size=2)
_docs = st.lists(st.lists(_token, max_size=8), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(docs=_docs)
@example(docs=[["a", "a", "b"]])
@example(docs=[[]])
@example(docs=[[], ["\u00e9", "\u00e9", "\u4e2d"], [], ["\U0001f600"], []])
def test_batched_fit_equals_per_document_transform(docs):
    """The batched fit's vocabulary, idf and postings equal, byte for byte,
    a per-document fit: Counter document frequencies and ``transform`` of
    each document, transposed term by term."""
    df = Counter()
    for tokens in docs:
        df.update(set(tokens))
    terms = sorted(df)
    idf = np.array([math.log((1.0 + len(docs)) / (1.0 + df[t])) + 1.0
                    for t in terms], dtype=np.float64)

    channel = TfidfVectorizer()
    fit_indptr, fit_doc_ids, fit_weights = channel.fit_transform(docs)
    assert channel.vocabulary_ == {t: i for i, t in enumerate(terms)}
    assert channel.idf_.dtype == np.float64
    assert channel.idf_.tobytes() == idf.tobytes()

    vectors = [channel.transform(tokens) for tokens in docs]
    indptr, doc_ids, weights = naive_postings(vectors, len(terms))
    assert channel.indptr.tobytes() == np.array(indptr, np.int64).tobytes()
    assert channel.doc_ids.tobytes() == np.array(doc_ids, np.int64).tobytes()
    assert channel.weights.tobytes() == \
        np.array(weights, np.float64).tobytes()

    # the channel keeps the arrays the fit returns, not copies
    assert fit_indptr is channel.indptr
    assert fit_doc_ids is channel.doc_ids
    assert fit_weights is channel.weights


def test_long_document_norm_is_summed_in_term_order():
    """A document of 48 distinct terms with varied idf, where pairwise
    summation gives other bits than adding in term order, still fits to
    exactly the weights ``transform`` gives it."""
    # term i occurs 1 + i % 5 times in document 0; document j (1..12)
    # holds every term whose index is divisible by j, so df varies
    words = [f"w{i:02d}" for i in range(48)]
    docs = [[w for i, w in enumerate(words) for _ in range(1 + i % 5)]]
    docs += [[w for i, w in enumerate(words) if i % j == 0]
             for j in range(1, 13)]
    vectorizer = TfidfVectorizer()
    indptr, doc_ids, weights = vectorizer.fit_transform(docs)
    squares = [((1 + i % 5) * float(vectorizer.idf_[i])) ** 2
               for i in range(48)]
    in_order = 0.0
    for square in squares:
        in_order += square
    assert len(set(vectorizer.idf_.tolist())) > 5
    assert float(np.sum(squares)) != in_order

    vectors = [vectorizer.transform(tokens) for tokens in docs]
    expected = naive_postings(vectors, len(words))
    assert indptr.tobytes() == np.array(expected[0], np.int64).tobytes()
    assert doc_ids.tobytes() == np.array(expected[1], np.int64).tobytes()
    assert weights.tobytes() == np.array(expected[2], np.float64).tobytes()


def test_index_over_only_empty_documents():
    channel = fit_channel([[], []])
    assert channel.indptr.tolist() == [0]
    assert channel.scores(["anything"]).tolist() == [0.0, 0.0]

