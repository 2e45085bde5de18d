"""Exemplar store and hybrid input/output retrieval.

An :class:`ExemplarStore` keeps (utterance, parse) pairs and two TF-IDF
indexes over them: one over utterance word tokens, one over the intent and
slot labels of the parse. A query is scored against every exemplar as

    relevance = (1 - alpha) * input_sim + alpha * output_sim

where ``input_sim`` compares the query utterance with exemplar utterances
and ``output_sim`` compares a preliminary parse of the query with exemplar
parses. ``alpha`` is the mixing weight: 0 ranks purely by input text, 1
purely by parse structure.

Candidates are ordered by descending relevance with ties broken by
ascending exemplar id. ``retrieve_topk`` takes the head of that ordering;
``retrieve_sampled`` draws from it with geometrically decaying rank
probabilities (used to diversify training data, not at inference). Only
that head is materialised: the k best candidates, or as many as the
deepest sampled rank needs, found by a partition instead of a full sort.
``retrieve_topk_alphas`` takes the head at several alphas from one
scoring of the query, since only the mix depends on alpha.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence

import numpy as np

from . import _kernels
from .augment import check_separator_safe
from .errors import (
    ConfigError,
    DuplicateId,
    EmptyCorpus,
    MalformedRow,
    RecordNotFound,
    StoreTooSmall,
)
from .tfidf import TfidfConfig, TfidfVectorizer, tokenize_text
from .top_parse import parse_top, structure_tokens


@dataclass(frozen=True)
class Exemplar:
    """One training pair: an utterance and its bracketed parse.

    Construction is the one gate for what may become an exemplar, whether
    the row comes from a dataset, a store file or library code: both
    fields must be strings, the utterance must not be blank, neither
    field may collide with a prompt separator, and the parse must be well
    formed. Otherwise it raises MalformedRow (SeparatorCollision for a
    separator) or MalformedParse. The parse's intent/slot labels, in
    document order and interned, are kept as ``labels``; they feed the
    output index and template matching, so no exemplar is parsed twice.
    """

    exemplar_id: int
    utterance: str
    parse: str
    domain: str | None = None
    labels: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("utterance", "parse"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise MalformedRow(
                    f"{name} must be a string, got {type(value).__name__}")
        if not self.utterance.strip():
            raise MalformedRow("empty utterance")
        check_separator_safe(self.utterance)
        check_separator_safe(self.parse)
        labels = structure_tokens(parse_top(self.parse))
        object.__setattr__(self, "labels", tuple(map(sys.intern, labels)))


@dataclass(frozen=True)
class ScoredExemplar:
    """A retrieval hit: similarities, their mix, and 0-based rank."""

    exemplar_id: int
    relevance: float
    input_sim: float
    output_sim: float
    rank: int


def validate_alpha(alpha: float) -> float:
    if not isinstance(alpha, (int, float)) or isinstance(alpha, bool):
        raise ConfigError(f"alpha must be a number, got {alpha!r}")
    alpha = float(alpha)
    if math.isnan(alpha) or not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


class InvertedIndex:
    """TF-IDF postings in CSR layout.

    ``post_indptr[t]:post_indptr[t+1]`` slices the (doc, weight) postings of
    term ``t``; doc ids within a slice ascend. The postings are the fitted
    document vectors transposed; the vectors themselves are not kept.
    """

    def __init__(self, token_docs: Sequence[Sequence[str]],
                 config: TfidfConfig = TfidfConfig()):
        self.vectorizer = TfidfVectorizer(config)
        doc_ids, term_ids, weights = self.vectorizer.fit_transform(token_docs)
        self.n_docs = len(token_docs)
        n_terms = len(self.vectorizer.vocabulary_)

        # a stable sort keeps doc ids ascending within each term's slice
        by_term = np.argsort(term_ids, kind="stable")
        self.post_indptr = np.zeros(n_terms + 1, dtype=np.int64)
        np.cumsum(np.bincount(term_ids, minlength=n_terms),
                  out=self.post_indptr[1:])
        self.post_doc_ids = doc_ids[by_term]
        self.post_weights = weights[by_term]

    def scores(self, tokens: Iterable[str]) -> np.ndarray:
        """Similarity of the query against every document, dense float64.

        Each document's score accumulates term contributions in ascending
        term-id order.
        """
        q = self.vectorizer.transform(tokens)
        return _kernels.score_postings(q.term_ids, q.weights,
                                       self.post_indptr, self.post_doc_ids,
                                       self.post_weights, self.n_docs)


class ExemplarStore:
    """Exemplars plus lazily built input/output indexes.

    Every :class:`Exemplar` was checked when it was constructed, so the
    store only refuses a duplicate id, and its output index is fitted from
    the labels each exemplar kept. Mutation marks the indexes stale; they
    are rebuilt on first use. Rebuilding is a pure function of the
    exemplar set, so a store reloaded from disk scores identically.
    """

    def __init__(self, config: TfidfConfig = TfidfConfig()):
        self.config = config
        self._exemplars: dict[int, Exemplar] = {}
        self._dirty = True
        self._ids: np.ndarray = np.empty(0, dtype=np.int64)
        self._input_index: InvertedIndex | None = None
        self._output_index: InvertedIndex | None = None

    def add(self, exemplar: Exemplar) -> None:
        if exemplar.exemplar_id in self._exemplars:
            raise DuplicateId(f"exemplar id {exemplar.exemplar_id} already present")
        self._exemplars[exemplar.exemplar_id] = exemplar
        self._dirty = True

    def add_many(self, exemplars: Iterable[Exemplar]) -> None:
        for exemplar in exemplars:
            self.add(exemplar)

    def __len__(self) -> int:
        return len(self._exemplars)

    def __contains__(self, exemplar_id: int) -> bool:
        return exemplar_id in self._exemplars

    def get(self, exemplar_id: int) -> Exemplar:
        try:
            return self._exemplars[exemplar_id]
        except KeyError:
            raise RecordNotFound(f"no exemplar with id {exemplar_id}") from None

    @property
    def exemplars(self) -> list[Exemplar]:
        """All exemplars in ascending id order."""
        return [self._exemplars[i] for i in sorted(self._exemplars)]

    def build(self) -> None:
        """Fit both indexes now. Implicit on first retrieval."""
        if not self._exemplars:
            raise EmptyCorpus("store has no exemplars")
        ordered = self.exemplars
        self._ids = np.array([e.exemplar_id for e in ordered], dtype=np.int64)
        self._input_index = InvertedIndex(
            [tokenize_text(e.utterance) for e in ordered], self.config)
        self._output_index = InvertedIndex(
            [e.labels for e in ordered], self.config)
        self._dirty = False

    def ensure_built(self) -> None:
        if self._dirty:
            self.build()

    @property
    def input_index(self) -> InvertedIndex:
        self.ensure_built()
        assert self._input_index is not None
        return self._input_index

    @property
    def output_index(self) -> InvertedIndex:
        self.ensure_built()
        assert self._output_index is not None
        return self._output_index

    def similarities(self, query: str,
                     preliminary: str | None) -> tuple[np.ndarray, np.ndarray]:
        """(input_sim, output_sim) of every exemplar, in ascending id
        order; output_sim is zero everywhere without a preliminary."""
        self.ensure_built()
        in_sims = self.input_index.scores(tokenize_text(query))
        if preliminary is None:
            return in_sims, np.zeros(len(self._exemplars), dtype=np.float64)
        return in_sims, self.output_index.scores(structure_tokens(preliminary))

    def score_all(self, query: str, alpha: float,
                  preliminary: str | None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Score every exemplar; returns (ids, relevance, input_sim, output_sim)."""
        alpha = _check_mix(alpha, preliminary)
        in_sims, out_sims = self.similarities(query, preliminary)
        return self._ids, _mix(in_sims, out_sims, alpha), in_sims, out_sims


def _check_mix(alpha: float, preliminary: str | None) -> float:
    alpha = validate_alpha(alpha)
    if alpha > 0.0 and preliminary is None:
        raise ConfigError("alpha > 0 requires a preliminary parse")
    return alpha


def _mix(in_sims: np.ndarray, out_sims: np.ndarray, alpha: float) -> np.ndarray:
    """Relevance: ``(1 - alpha) * input_sim + alpha * output_sim``."""
    return (1.0 - alpha) * in_sims + alpha * out_sims


def _candidate_order(ids: np.ndarray, relevance: np.ndarray,
                     exclude_ids: Collection[int], depth: int) -> np.ndarray:
    """Indices of the ``depth`` best candidates, best first, ties by
    ascending id. ``ids`` must ascend, and ``depth`` must not exceed the
    candidates left after exclusions.

    Only candidates strictly better than the depth-th key are sorted; the
    tie group at that key follows in index order, which is id order, so a
    query that scores every exemplar alike costs O(n), not a sort.
    """
    keys = np.negative(relevance)
    if len(exclude_ids):
        excluded = np.fromiter(exclude_ids, dtype=np.int64)
        # ids ascend, so a binary search finds each excluded position; an
        # id past the largest lands on the last one and fails the match
        at = np.minimum(np.searchsorted(ids, excluded), ids.shape[0] - 1)
        keys[at[ids[at] == excluded]] = np.inf
    boundary = np.partition(keys, depth - 1)[depth - 1]
    better = np.flatnonzero(keys < boundary)
    head = better[np.lexsort((ids[better], keys[better]))]
    ties = np.flatnonzero(keys == boundary)[:depth - head.shape[0]]
    return np.concatenate((head, ties))


def _check_k(k: int, store: ExemplarStore,
             exclude_ids: Collection[int]) -> int:
    """Validate k against the exemplars left after exclusions; returns
    how many are left."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ConfigError(f"k must be a positive integer, got {k!r}")
    available = len(store) - sum(i in store for i in set(exclude_ids))
    if k > available:
        raise StoreTooSmall(
            f"requested {k} exemplars but only {available} are available")
    return available


def _hit(scored, i, rank) -> ScoredExemplar:
    ids, relevance, in_sims, out_sims = scored
    return ScoredExemplar(exemplar_id=int(ids[i]),
                          relevance=float(relevance[i]),
                          input_sim=float(in_sims[i]),
                          output_sim=float(out_sims[i]),
                          rank=int(rank))


def _topk(scored, k: int,
          exclude_ids: Collection[int]) -> list[ScoredExemplar]:
    head = _candidate_order(scored[0], scored[1], exclude_ids, k)
    return [_hit(scored, i, rank) for rank, i in enumerate(head)]


def retrieve_topk(store: ExemplarStore, query: str, k: int,
                  alpha: float = 0.0, preliminary: str | None = None,
                  exclude_ids: Collection[int] = ()) -> list[ScoredExemplar]:
    """The k most relevant exemplars, best first."""
    scored = store.score_all(query, alpha, preliminary)
    _check_k(k, store, exclude_ids)
    return _topk(scored, k, exclude_ids)


def retrieve_topk_alphas(store: ExemplarStore, query: str, k: int,
                         alphas: Sequence[float],
                         preliminary: str | None = None,
                         exclude_ids: Collection[int] = ()
                         ) -> list[list[ScoredExemplar]]:
    """``retrieve_topk`` at each of ``alphas``, in order.

    Only the mix depends on alpha, so the query's similarities are scored
    once and mixed per alpha with the formula ``score_all`` uses: every
    hit is bit for bit the one ``retrieve_topk`` returns.
    """
    alphas = [_check_mix(alpha, preliminary) for alpha in alphas]
    in_sims, out_sims = store.similarities(query, preliminary)
    _check_k(k, store, exclude_ids)
    return [_topk((store._ids, _mix(in_sims, out_sims, alpha), in_sims, out_sims),
                  k, exclude_ids) for alpha in alphas]


def sample_geometric_ranks(n: int, k: int, p: float,
                           rng: np.random.Generator) -> list[int]:
    """Draw k distinct ranks from [0, n) without replacement.

    Each draw follows a geometric distribution over the ranks still
    available, truncated to the remaining count and renormalized:
    P(pick the r-th remaining rank) = p * (1-p)**r / (1 - (1-p)**m) for m
    remaining. Draws use the closed-form inverse CDF, one uniform each.
    Returned ranks are positions in the original [0, n) ordering. p >= 1
    degenerates to always taking the best remaining rank.
    """
    if not 0.0 < p:
        raise ConfigError(f"sampling decay p must be positive, got {p}")
    if k > n:
        raise StoreTooSmall(f"requested {k} draws from {n} candidates")
    picks: list[int] = []
    for m in range(n, n - k, -1):
        if p >= 1.0:
            r = 0
        else:
            u = rng.random()
            z = -math.expm1(m * math.log1p(-p))
            r = math.ceil(math.log1p(-u * z) / math.log1p(-p)) - 1
            r = min(max(r, 0), m - 1)
        # the r-th remaining rank skips every earlier pick at or below it
        for q in sorted(picks):
            if q <= r:
                r += 1
        picks.append(r)
    return picks


def retrieve_sampled(store: ExemplarStore, query: str, k: int, p: float,
                     rng: np.random.Generator, alpha: float = 0.0,
                     preliminary: str | None = None,
                     exclude_ids: Collection[int] = ()) -> list[ScoredExemplar]:
    """Draw k exemplars with geometrically decaying rank probabilities.

    Ranks refer to the same relevance ordering ``retrieve_topk`` uses, and
    the reported ``rank`` of each hit is its position in that full
    ordering. Results are in draw order, not rank order.
    """
    scored = store.score_all(query, alpha, preliminary)
    picks = sample_geometric_ranks(_check_k(k, store, exclude_ids), k, p, rng)
    head = _candidate_order(scored[0], scored[1], exclude_ids, max(picks) + 1)
    return [_hit(scored, head[rank], rank) for rank in picks]
