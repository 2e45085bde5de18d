"""One TF-IDF retrieval channel, plus the utterance tokenizer.

Utterances are tokenized as lowercase ``\\w+`` runs; parses are tokenized
as their intent/slot labels (see :func:`gandr.top_parse.structure_tokens`).
Each feeds its own channel, a :class:`TfidfVectorizer`.

Weighting: tf is the raw in-document count, idf is
``ln((1 + N) / (1 + df)) + 1``, and vectors are L2-normalized. Retrieval
scores are dot products of these vectors, i.e. cosine similarities in
[0, 1], so both channels share one scale and ``alpha`` weighs them as
it says.

A corpus is fitted in one pass over its documents and one sort,
straight into term-major CSR postings (``fit_transform``), optionally
with a multiplicity per document, so that a corpus of repeated documents
is fitted from one row per distinct document; the channel keeps the
postings. The documents may come from a generator: the fit reads each
once and keeps an int64 term id per token, never the tokens themselves.
A query is vectorized on its own (``transform``), and ``scores`` runs
its vector over the postings. The fit and ``transform`` give the same
bits for the same document, because the arithmetic order is pinned: idf
goes through ``math.log`` one term at a time, each weight is
``tf * idf``, and a document's squared norm is summed weight by weight
in ascending term order, starting from 0.0, before one square root and
one division per weight. ``np.bincount`` adds in entry order, which in
term-major postings is each document's ascending term order; the
pairwise summation of ``np.sum`` or ``np.add.reduceat`` would not.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import Counter, defaultdict
from typing import Iterable

import numpy as np

from . import _kernels
from .errors import GandrError

_WORD_RE = re.compile(r"\w+")


def tokenize_text(text: str) -> list[str]:
    """Lowercased word tokens; punctuation and whitespace are dropped."""
    return _WORD_RE.findall(text.lower())


_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_WEIGHTS = np.empty(0, dtype=np.float64)
_ID_CHUNK = 1 << 16


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

    def fit_transform(self, docs: Iterable[Iterable[str]],
                      multiplicities: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fit on ``docs`` and vectorize them all as term-major postings.

        ``docs`` may be any iterable of token iterables, a generator
        included: it is read once, and each document's tokens are dropped
        as soon as they are read, so the corpus's tokens are never held
        together; what is kept is one int64 term id per token.

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
        # term ids in order of first sight, one per token, and the number
        # of tokens per document; an unseen term's id is the dict's size.
        # A list takes the ids fastest; every _ID_CHUNK of them move into
        # an int64 array, so the corpus costs about 8 bytes a token
        first_seen: defaultdict[str, int] = defaultdict()
        first_seen.default_factory = first_seen.__len__
        see = first_seen.__getitem__
        ids, chunks, lengths = [], [], array("q")
        for tokens in docs:
            before = len(ids)
            ids.extend(map(see, tokens))
            lengths.append(len(ids) - before)
            if len(ids) >= _ID_CHUNK:
                chunks.append(np.array(ids, dtype=np.int64))
                ids.clear()
        chunks.append(np.array(ids, dtype=np.int64))
        del ids
        n_docs = len(lengths)
        if n_docs == 0:
            raise GandrError("cannot fit a vectorizer on zero documents")
        vocabulary = {t: i for i, t in enumerate(sorted(first_seen))}
        self.vocabulary_ = vocabulary
        n_terms = len(vocabulary)
        rank = np.fromiter(map(vocabulary.__getitem__, first_seen),
                           dtype=np.int64, count=n_terms)

        # one int64 key per token, term * n_docs + doc, so a single sort
        # counts every (term, doc) pair and leaves them term-major
        ids = np.concatenate(chunks)
        del chunks
        keys = rank[ids]
        del ids
        keys *= n_docs
        keys += np.repeat(np.arange(n_docs, dtype=np.int64),
                          np.frombuffer(lengths, dtype=np.int64))
        keys.sort()
        # each run of equal keys is one (term, doc) pair, and its length is
        # the pair's tf; every full-size array goes as soon as it is used
        n_tokens = keys.size
        first = np.empty(n_tokens, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        del first
        doc = keys[starts]
        del keys
        weights = np.empty(starts.size, dtype=np.float64)  # tf, for now
        np.subtract(starts[1:], starts[:-1], out=weights[:-1])
        weights[-1:] = n_tokens - starts[-1:]
        del starts
        term = doc // n_docs
        doc %= n_docs

        postings = np.bincount(term, minlength=n_terms)
        indptr = np.zeros(n_terms + 1, dtype=np.int64)
        np.cumsum(postings, out=indptr[1:])
        df, n = postings, n_docs
        if multiplicities is not None:
            # float sums of ints stay exact far past any store size
            df = np.bincount(term, weights=multiplicities[doc],
                             minlength=n_terms).astype(np.int64)
            n = int(multiplicities.sum())
        del term
        self.idf_ = np.array(
            [math.log((1.0 + n) / (1.0 + d)) + 1.0 for d in df.tolist()],
            dtype=np.float64)
        # the entries are term-major, so each term's idf repeats over its
        # postings
        weights *= np.repeat(self.idf_, postings)
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
