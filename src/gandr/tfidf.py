"""One TF-IDF retrieval channel, plus the utterance tokenizer.

Utterances are tokenized as lowercase ``\\w+`` runs; parses are tokenized
as their intent/slot labels (see :func:`gandr.top_parse.structure_tokens`).
Each feeds its own channel, a :class:`TfidfVectorizer`.

Weighting: tf is the raw in-document count, idf is
``ln((1 + N) / (1 + df)) + 1``, and vectors are L2-normalized. Retrieval
scores are dot products of these vectors, i.e. cosine similarities in
[0, 1], so both channels share one scale and ``alpha`` weighs them as
it says.

A corpus is fitted in one sort straight into term-major CSR postings
(``fit_transform``), optionally with a multiplicity per document, so
that a corpus of repeated documents is fitted from one row per distinct
document; the channel keeps the postings. A query is vectorized on its
own (``transform``), and ``scores`` runs its vector over the postings.
The fit and ``transform`` give the same bits for the same document,
because the arithmetic order is pinned: idf goes through ``math.log``
one term at a time, each weight is ``tf * idf``, and a document's
squared norm is summed weight by weight in ascending term order,
starting from 0.0, before one square root and one division per
weight. ``np.bincount`` adds in entry order, which in term-major
postings is each document's ascending term order; the pairwise
summation of ``np.sum`` or ``np.add.reduceat`` would not.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .errors import EmptyCorpus

_WORD_RE = re.compile(r"\w+")


def tokenize_text(text: str) -> list[str]:
    """Lowercased word tokens; punctuation and whitespace are dropped."""
    return _WORD_RE.findall(text.lower())


_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_WEIGHTS = np.empty(0, dtype=np.float64)


class TfidfVectorizer:
    """One channel: fits a vocabulary, idf and postings over token lists,
    vectorizes a query, and scores it against every fitted document.

    Term ids are assigned by sorted term order, so a given corpus always
    produces the same ids regardless of document order. Unknown tokens at
    transform time are dropped. The fit keeps the CSR postings it returns
    as ``indptr``, ``doc_ids`` and ``weights``, for ``n_docs`` documents;
    the document vectors themselves are not kept.
    """

    def __init__(self):
        self.vocabulary_: dict[str, int] = {}
        self.idf_: np.ndarray = _EMPTY_WEIGHTS
        self.indptr: np.ndarray = np.zeros(1, dtype=np.int64)
        self.doc_ids: np.ndarray = _EMPTY_IDS
        self.weights: np.ndarray = _EMPTY_WEIGHTS
        self.n_docs = 0

    def transform(self, tokens: Iterable[str]
                  ) -> tuple[np.ndarray, np.ndarray]:
        """The query vector as ``(term_ids, weights)``; ids ascend."""
        counts = Counter(tokens)
        pairs = sorted((self.vocabulary_[t], c) for t, c in counts.items()
                       if t in self.vocabulary_)
        if not pairs:
            return _EMPTY_IDS, _EMPTY_WEIGHTS
        ids = np.array([tid for tid, _ in pairs], dtype=np.int64)
        weights = [count * float(self.idf_[tid]) for tid, count in pairs]
        acc = 0.0
        for w in weights:
            acc += w * w
        # tf >= 1 and idf >= 1, so a vector with entries has norm > 0
        return ids, np.array(weights) / math.sqrt(acc)

    def fit_transform(self, docs: Sequence[Sequence[str]],
                      multiplicities: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fit on ``docs`` and vectorize them all as term-major postings.

        Returns CSR ``(indptr, doc_ids, weights)`` (int64, int64, float64):
        ``indptr[t]:indptr[t+1]`` slices the entries of term ``t``, whose
        doc ids ascend, and each weight is bit for bit what ``transform``
        gives that document for that term after the fit. A document
        without tokens has no entries. Norms are summed by ``bincount``,
        which adds in entry order; a document's entries come in ascending
        term order, so its sum runs as ``transform``'s does.

        ``multiplicities`` (ints >= 1, one per doc) fits a corpus in which
        each doc occurs that many times, holding one row per distinct doc:
        a term's df sums the multiplicities of the docs holding it, and N
        is their total. A doc's weights depend only on its own counts, the
        idf and its norm, so each row gets the bits every copy would get
        in the fit over the repeated corpus.
        """
        n_docs = len(docs)
        if n_docs == 0:
            raise EmptyCorpus("cannot fit a vectorizer on zero documents")
        vocabulary = {t: i for i, t in enumerate(sorted(set().union(*docs)))}
        self.vocabulary_ = vocabulary
        n_terms = len(vocabulary)

        # one int64 key per token, term * n_docs + doc, so a single sort
        # counts every (term, doc) pair and leaves them term-major
        lengths = np.fromiter(map(len, docs), dtype=np.int64, count=n_docs)
        tokens = itertools.chain.from_iterable(docs)
        keys = np.fromiter(map(vocabulary.__getitem__, tokens),
                           dtype=np.int64, count=int(lengths.sum()))
        keys *= n_docs
        keys += np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
        keys, counts = np.unique(keys, return_counts=True)
        term, doc = np.divmod(keys, n_docs)

        postings = np.bincount(term, minlength=n_terms)
        indptr = np.zeros(n_terms + 1, dtype=np.int64)
        np.cumsum(postings, out=indptr[1:])
        df, n = postings, n_docs
        if multiplicities is not None:
            # float sums of ints stay exact far past any store size
            df = np.bincount(term, weights=multiplicities[doc],
                             minlength=n_terms).astype(np.int64)
            n = int(multiplicities.sum())
        self.idf_ = np.array(
            [math.log((1.0 + n) / (1.0 + d)) + 1.0 for d in df.tolist()],
            dtype=np.float64)
        weights = counts.astype(np.float64) * self.idf_[term]
        # tf >= 1 and idf >= 1, so no document with entries has norm 0
        weights /= np.sqrt(np.bincount(doc, weights=weights * weights,
                                       minlength=n_docs))[doc]
        self.indptr, self.doc_ids, self.weights = indptr, doc, weights
        self.n_docs = n_docs
        return indptr, doc, weights

    def scores(self, tokens: Iterable[str]) -> np.ndarray:
        """Similarity of the query against every document, dense float64.

        Each document's score accumulates term contributions in ascending
        term-id order.
        """
        term_ids, weights = self.transform(tokens)
        return _kernels.score_postings(term_ids, weights, self.indptr,
                                       self.doc_ids, self.weights,
                                       self.n_docs)
