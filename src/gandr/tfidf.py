"""TF-IDF vectors over token sequences, plus the two tokenizers used here.

Utterances are tokenized as lowercase ``\\w+`` runs; parses are tokenized
as their intent/slot labels (see :func:`gandr.top_parse.structure_tokens`).
Both feed the same vectorizer.

Weighting: tf is the raw in-document count (``1 + ln(tf)`` when
``sublinear_tf``), idf is ``ln((1 + N) / (1 + df)) + 1``, and vectors are
L2-normalized unless ``normalize`` is off. Retrieval scores are dot
products of these vectors: cosine similarity when normalized, raw dot
products of the unnormalized weights otherwise.
"""

from __future__ import annotations

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

    @property
    def nnz(self) -> int:
        return int(self.term_ids.shape[0])


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
        self.n_docs_: int = 0

    def fit(self, docs: Sequence[Iterable[str]]) -> "TfidfVectorizer":
        if len(docs) == 0:
            raise EmptyCorpus("cannot fit a vectorizer on zero documents")
        df: Counter[str] = Counter()
        for tokens in docs:
            df.update(set(tokens))
        self.n_docs_ = len(docs)
        self.vocabulary_ = {t: i for i, t in enumerate(sorted(df))}
        idf = np.zeros(len(self.vocabulary_), dtype=np.float64)
        for term, tid in self.vocabulary_.items():
            idf[tid] = math.log((1.0 + self.n_docs_) / (1.0 + df[term])) + 1.0
        self.idf_ = idf
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

    def fit_transform(self, docs: Sequence[Iterable[str]]) -> list[SparseVector]:
        self.fit(docs)
        return [self.transform(tokens) for tokens in docs]
