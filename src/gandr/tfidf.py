"""TF-IDF vectors over token sequences, plus the two tokenizers used here.

Utterances are tokenized as lowercase ``\\w+`` runs; parses are tokenized
as their intent/slot labels (see :func:`gandr.top_parse.structure_tokens`).
Both feed the same vectorizer.

Weighting: tf is the raw in-document count (``1 + ln(tf)`` when
``sublinear_tf``), idf is ``ln((1 + N) / (1 + df)) + 1``, and vectors are
L2-normalized unless ``normalize`` is off. Retrieval scores are dot
products of these vectors: cosine similarity when normalized, raw dot
products of the unnormalized weights otherwise.

A corpus is fitted in one batched array pass (``fit_transform``); a
query is vectorized on its own (``transform``). Both give the same bits
for the same document, because the arithmetic order is pinned: idf and
sublinear tf go through ``math.log`` one term or count at a time, each
weight is ``tf * idf``, and a document's squared norm is summed weight by
weight in ascending term order, starting from 0.0, before one square root
and one division per weight. The batched fit keeps that order by adding
the j-th squared weight of every document in step j; the pairwise
summation of ``np.sum`` or ``np.add.reduceat`` would change the bits.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyCorpus

_WORD_RE = re.compile(r"\w+")


def tokenize_text(text: str) -> list[str]:
    """Lowercased word tokens; punctuation and whitespace are dropped."""
    return _WORD_RE.findall(text.lower())


@dataclass(frozen=True)
class TfidfConfig:
    sublinear_tf: bool = False
    normalize: bool = True


@dataclass(frozen=True)
class SparseVector:
    """A sparse vector as parallel arrays; term ids are strictly ascending."""

    term_ids: np.ndarray
    weights: np.ndarray


_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_WEIGHTS = np.empty(0, dtype=np.float64)

EMPTY_VECTOR = SparseVector(_EMPTY_IDS, _EMPTY_WEIGHTS)


class TfidfVectorizer:
    """Fits a vocabulary and idf over token lists, then maps them to vectors.

    Term ids are assigned by sorted term order, so a given corpus always
    produces the same ids regardless of document order. Unknown tokens at
    transform time are dropped.
    """

    def __init__(self, config: TfidfConfig = TfidfConfig()):
        self.config = config
        self.vocabulary_: dict[str, int] = {}
        self.idf_: np.ndarray = _EMPTY_WEIGHTS

    def fit(self, docs: Sequence[Sequence[str]]) -> "TfidfVectorizer":
        self.fit_transform(docs)
        return self

    def transform(self, tokens: Iterable[str]) -> SparseVector:
        counts = Counter(tokens)
        pairs = sorted((self.vocabulary_[t], c) for t, c in counts.items()
                       if t in self.vocabulary_)
        if not pairs:
            return EMPTY_VECTOR
        ids = np.array([tid for tid, _ in pairs], dtype=np.int64)
        weights = np.zeros(len(pairs), dtype=np.float64)
        for k, (tid, count) in enumerate(pairs):
            tf = 1.0 + math.log(count) if self.config.sublinear_tf else float(count)
            weights[k] = tf * float(self.idf_[tid])
        if self.config.normalize:
            acc = 0.0
            for k in range(weights.shape[0]):
                acc += float(weights[k]) * float(weights[k])
            norm = math.sqrt(acc)
            if norm > 0.0:
                weights = weights / norm
        return SparseVector(ids, weights)

    def fit_transform(self, docs: Sequence[Sequence[str]]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fit on ``docs`` and vectorize them all in one array pass.

        Returns parallel ``(doc, term, weight)`` arrays (int64, int64,
        float64) sorted by doc, then term: the nonzero entries of every
        document vector, bit for bit what ``transform`` gives each
        document after the fit. A document without tokens has no entries.
        """
        n_docs = len(docs)
        if n_docs == 0:
            raise EmptyCorpus("cannot fit a vectorizer on zero documents")
        vocabulary = {t: i for i, t in enumerate(sorted(set().union(*docs)))}
        self.vocabulary_ = vocabulary
        n_terms = len(vocabulary)

        # one int64 key per token, doc * n_terms + term, so a single sort
        # counts every (doc, term) pair and leaves them in (doc, term) order
        lengths = np.fromiter(map(len, docs), dtype=np.int64, count=n_docs)
        tokens = itertools.chain.from_iterable(docs)
        keys = np.fromiter(map(vocabulary.__getitem__, tokens),
                           dtype=np.int64, count=int(lengths.sum()))
        keys += np.repeat(np.arange(n_docs, dtype=np.int64) * n_terms, lengths)
        keys, counts = np.unique(keys, return_counts=True)
        doc, term = np.divmod(keys, n_terms)

        df = np.bincount(term, minlength=n_terms)
        self.idf_ = np.array(
            [math.log((1.0 + n_docs) / (1.0 + d)) + 1.0 for d in df.tolist()],
            dtype=np.float64)
        if self.config.sublinear_tf:
            values, which = np.unique(counts, return_inverse=True)
            tf = np.array([1.0 + math.log(c) for c in values.tolist()],
                          dtype=np.float64)[which]
        else:
            tf = counts.astype(np.float64)
        weights = tf * self.idf_[term]
        if self.config.normalize:
            # tf >= 1 and idf >= 1, so no document with entries has norm 0
            weights /= np.sqrt(_squared_norms(doc, weights, n_docs))[doc]
        return doc, term, weights


def _squared_norms(doc: np.ndarray, weights: np.ndarray,
                   n_docs: int) -> np.ndarray:
    """Each document's sum of squared weights, added in entry order.

    Step j adds the j-th entry of every document that has one, so each
    sum runs 0.0 + w0*w0 + w1*w1 + ... exactly as ``transform`` adds it.
    Documents are visited longest first, so step j touches only a prefix
    of that order and the whole pass costs one add per entry.
    """
    nnz = np.bincount(doc, minlength=n_docs)
    starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(nnz[:-1], out=starts[1:])
    longest_first = np.argsort(-nnz, kind="stable")
    # longer[j]: how many documents have more than j entries
    longer = n_docs - np.cumsum(np.bincount(nnz))
    squares = weights * weights
    acc = np.zeros(n_docs, dtype=np.float64)
    for j in range(int(nnz.max())):
        live = longest_first[:longer[j]]
        acc[live] += squares[starts[live] + j]
    return acc
