"""Exemplar store and hybrid input/output retrieval.

An :class:`ExemplarStore` keeps (utterance, parse) pairs and two TF-IDF
channels over them (each a :class:`gandr.tfidf.TfidfVectorizer`): one
over utterance word tokens, one over the intent and slot labels of the
parse. A query is scored against every exemplar as

    relevance = (1 - alpha) * input_sim + alpha * output_sim

where ``input_sim`` compares the query utterance with exemplar utterances
and ``output_sim`` compares a preliminary parse of the query with exemplar
parses. ``alpha`` is the mixing weight: 0 ranks purely by input text, 1
purely by parse structure. At alpha 0 the relevance is ``input_sim``
itself, and without a preliminary the output channel is not scored at
all; such hits report an ``output_sim`` of 0.0. ``output_sim`` depends on
an exemplar's parse only through its label multiset, so the output
channel holds one row per distinct multiset (a template), and is scored
over templates; each exemplar reads its template's score.

Candidates are ordered by descending relevance with ties broken by
ascending exemplar id. ``retrieve_topk_alphas`` is the one selector: it
takes the head of that ordering at each of several alphas from one
scoring of the query, since only the mix depends on alpha. On a large
store an exact prefilter first narrows the candidates to those that can
reach the head. Above alpha 0 it bounds the relevances of each template
from its output term and the best input term, and only the members of the
templates that can reach the head are mixed and ordered. At alpha 0, or
where that bound does not narrow the store, the mixed scores are narrowed
by the maxima of strided groups of them. A head at most 12 deep (the
default k is 4) is then taken by ``argmin`` rounds, one pass over the
candidates per rank, and a deeper one by a partition; neither sorts the
whole store. An excluded exemplar is dropped from a head taken one rank
deeper per exclusion. ``retrieve_topk`` is its one-alpha case, and both
pipeline passes select through it. ``retrieve_sampled`` draws ranks with
geometrically decaying probabilities (used to diversify training data,
not at inference) and reads them from the top-k head as deep as its
deepest draw.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, repeat
from typing import Collection, Sequence

import numpy as np

from .augment import _prompt_pair, check_separator_safe
from .errors import ConfigError, GandrError, MalformedRow
from .tfidf import TfidfVectorizer, tokenize_text
from .top_parse import parse_labels, structure_tokens, template


def is_int64(value) -> bool:
    """The id rule: an int, not a bool, that fits the store's int64 ids."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and -2**63 <= value < 2**63


@dataclass(frozen=True)
class Exemplar:
    """One training pair: an utterance and its bracketed parse.

    Construction is the one gate for what may become an exemplar, whether
    the row comes from a dataset, a store file or library code: the id
    must be an int, not a bool, that fits 64 bits, both text fields must
    be strings, the domain a string or None, the utterance must not be
    blank, neither text field may collide with a prompt separator, and
    the parse must be well formed. Otherwise it raises MalformedRow
    (SeparatorCollision for a separator) or MalformedParse. The parse is
    checked once by ``parse_labels``, and no tree is built; the tuple of
    labels it returns, in document order and interned, is kept as
    ``labels`` for the output channel and template matching. Exemplars
    whose parses share a bracket skeleton share that tuple.

    Two facts that prompts and template recall read for every hit are
    derived on first use and cached in the instance ``__dict__``, never at
    load or build: ``_prompt_pair`` and ``_template``. They are not
    fields, so equality, hashing, repr and ``asdict`` ignore them.
    """

    exemplar_id: int
    utterance: str
    parse: str
    domain: str | None = None
    labels: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not is_int64(self.exemplar_id):
            raise MalformedRow(f"exemplar id must be a 64-bit integer, "
                               f"got {self.exemplar_id!r}")
        for name in ("utterance", "parse"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise MalformedRow(
                    f"{name} must be a string, got {type(value).__name__}")
        if not isinstance(self.domain, (str, type(None))):
            raise MalformedRow(f"domain must be a string or null, "
                               f"got {type(self.domain).__name__}")
        if not self.utterance.strip():
            raise MalformedRow("empty utterance")
        check_separator_safe(self.utterance)
        check_separator_safe(self.parse)
        object.__setattr__(self, "labels", parse_labels(self.parse))

    @cached_property
    def _prompt_pair(self) -> tuple[str, int]:
        return _prompt_pair(self.utterance, self.parse)

    @cached_property
    def _template(self) -> tuple[str, ...]:
        return template(self.labels)


@dataclass(frozen=True)
class ScoredExemplar:
    """A retrieval hit: similarities, their mix, and 0-based rank."""

    exemplar_id: int
    relevance: float
    input_sim: float
    output_sim: float
    rank: int


def _scored(exemplar_id: int, relevance: float, input_sim: float,
            output_sim: float, rank: int) -> ScoredExemplar:
    """``ScoredExemplar(...)`` without the five ``object.__setattr__``
    calls of a frozen dataclass's ``__init__``: half the cost per hit. The
    fields go in in field order, which ``vars()`` and so the records keep.
    """
    hit = object.__new__(ScoredExemplar)
    hit.__dict__.update(exemplar_id=exemplar_id, relevance=relevance,
                        input_sim=input_sim, output_sim=output_sim, rank=rank)
    return hit


@contextmanager
def collector_paused():
    """Run the body with the cyclic garbage collector off.

    Loading and fitting a store allocate objects that all outlive the
    command, so collections during them find nothing to free, yet each
    full one walks the whole store. The caller's state is restored on
    every exit, errors included: a collector that was off stays off. It
    also decorates a function.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def validate_alpha(alpha: float) -> float:
    if not isinstance(alpha, (int, float)) or isinstance(alpha, bool):
        raise ConfigError(f"alpha must be a number, got {alpha!r}")
    alpha = float(alpha)
    if math.isnan(alpha) or not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def validate_k(k: int, name: str = "k") -> int:
    """The rule for k and for a prompt budget: an int, not a bool, >= 1."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ConfigError(f"{name} must be a positive integer, got {k!r}")
    return k


# kept for perfbench/spans.py, which reads it; ROADMAP item 1 drops that
InvertedIndex = TfidfVectorizer


class ExemplarStore:
    """Exemplars plus lazily fitted input/output channels.

    Every :class:`Exemplar` was checked when it was constructed, so the
    store only refuses a duplicate id, and its output channel is fitted
    from the labels each exemplar kept: one row per distinct label
    multiset, weighted by how many exemplars share it. Mutation marks the
    channels stale; they are refitted on first use. Refitting is a pure
    function of the exemplar set, so a store reloaded from disk scores
    identically.
    """

    def __init__(self):
        self._exemplars: dict[int, Exemplar] = {}
        self._dirty = True
        self._ids: np.ndarray = np.empty(0, dtype=np.int64)
        self._template_of: np.ndarray = np.empty(0, dtype=np.int64)
        # exemplar positions grouped by template, each group in id order;
        # template t's group is _by_template[_template_starts[t]:
        # _template_starts[t + 1]]
        self._by_template: np.ndarray = np.empty(0, dtype=np.int64)
        self._template_starts: np.ndarray = np.zeros(1, dtype=np.int64)
        self._channels: tuple[TfidfVectorizer, TfidfVectorizer] | None = None

    def add(self, exemplar: Exemplar) -> None:
        if exemplar.exemplar_id in self._exemplars:
            raise MalformedRow(f"exemplar id {exemplar.exemplar_id} already present")
        self._exemplars[exemplar.exemplar_id] = exemplar
        self._dirty = True

    def __len__(self) -> int:
        return len(self._exemplars)

    def __contains__(self, exemplar_id: int) -> bool:
        return exemplar_id in self._exemplars

    def get(self, exemplar_id: int) -> Exemplar:
        try:
            return self._exemplars[exemplar_id]
        except KeyError:
            raise GandrError(f"no exemplar with id {exemplar_id}") from None

    @property
    def exemplars(self) -> list[Exemplar]:
        """All exemplars in ascending id order."""
        return [self._exemplars[i] for i in sorted(self._exemplars)]

    @collector_paused()
    def build(self) -> None:
        """Fit both channels now, with the collector paused. Implicit on
        first retrieval."""
        if not self._exemplars:
            raise GandrError("store has no exemplars")
        ordered = self.exemplars
        self._ids = np.array([e.exemplar_id for e in ordered], dtype=np.int64)
        # template ids in order of first use, keyed by top_parse.template.
        # Each distinct label sequence is sorted once: the seed-1 perfbench
        # stores hold 872, 5,374 and 13,411 of them in 2k, 30k and 100k
        # exemplars, and hashing a raw sequence costs less than sorting it
        sequences: dict[tuple[str, ...], int] = {}
        sequence_of = np.fromiter(
            (sequences.setdefault(e.labels, len(sequences)) for e in ordered),
            dtype=np.int64, count=len(ordered))
        templates: dict[tuple[str, ...], int] = {}
        self._template_of = np.fromiter(
            (templates.setdefault(template(labels), len(templates))
             for labels in sequences),
            dtype=np.int64, count=len(sequences))[sequence_of]
        counts = np.bincount(self._template_of)
        self._by_template = np.argsort(self._template_of, kind="stable")
        self._template_starts = np.concatenate(([0], np.cumsum(counts)))
        inputs, outputs = TfidfVectorizer(), TfidfVectorizer()
        inputs.fit_transform(tokenize_text(e.utterance) for e in ordered)
        outputs.fit_transform(templates, counts)
        self._channels = (inputs, outputs)
        self._dirty = False

    def ensure_built(self) -> None:
        if self._dirty:
            self.build()

    def similarities(self, query: str, preliminary: str | None
                     ) -> tuple[np.ndarray, np.ndarray | None]:
        """(input_sim of every exemplar in ascending id order, output_sim
        of every template). Exemplar ``i`` has output_sim
        ``output_sim[self._template_of[i]]``. Without a preliminary there
        is nothing to compare parses with, so the output channel is not
        scored and output_sim is None.
        """
        self.ensure_built()
        inputs, outputs = self._channels
        in_sims = inputs.scores(tokenize_text(query))
        if preliminary is None:
            return in_sims, None
        return in_sims, outputs.scores(structure_tokens(preliminary))


def validate_mix(alpha: float, preliminary: str | None) -> float:
    alpha = validate_alpha(alpha)
    if alpha > 0.0 and preliminary is None:
        raise ConfigError("alpha > 0 requires a preliminary parse")
    return alpha


def _mix(in_sims: np.ndarray, out_sims: np.ndarray | None,
         template_of: np.ndarray, alpha: float) -> np.ndarray:
    """Relevance: ``(1 - alpha) * input_sim + alpha * output_sim``.

    ``out_sims`` holds one score per template, so the output term is
    ``(alpha * out_sims)[template_of]``: each exemplar gathers the
    product its template got, which is the product a per-exemplar
    output_sim would give, while the multiply runs over templates only.
    The gathered products are added into the input term in place, which
    spares the temporary numpy does not elide below 256 KiB (about 32k
    exemplars).

    At alpha 0 that is ``input_sim`` itself, bit for bit: similarities
    are sums of positive products, so none is -0.0, and ``x + 0.0 == x``
    for every other x. The array is shared, not copied, so the caller
    must not write into what this returns.
    """
    if alpha == 0.0:
        return in_sims
    relevance = (1.0 - alpha) * in_sims
    relevance += (alpha * out_sims)[template_of]
    return relevance


# a store smaller than this orders its candidates without the prefilter,
# which costs more than it saves there (see _candidate_order)
_PREFILTER_MIN_STORE = 20000
# rows of the prefilter's grid: each column maximum covers this many scores
_GRID_ROWS = 64


def _reaching(relevance: np.ndarray, need: int) -> np.ndarray | None:
    """Ascending positions that hold every score at least the need-th
    largest, or None when the prefilter would not narrow the scores.

    The first ``_GRID_ROWS * m`` scores are viewed as a grid of m strided
    columns; the threshold is the need-th largest column maximum. At
    least ``need`` scores (those maxima) reach it, so the need-th largest
    score does too, and every score at or above it sits in a column
    whose maximum reaches the threshold, or in the tail past the grid.
    """
    n = relevance.shape[0]
    m = n // _GRID_ROWS
    if n < _PREFILTER_MIN_STORE or need > m:
        return None
    grid = relevance[:_GRID_ROWS * m].reshape(_GRID_ROWS, m)
    col_max = grid.max(axis=0)
    threshold = np.partition(col_max, m - need)[m - need]
    cols = np.flatnonzero(col_max >= threshold)
    if 4 * cols.shape[0] > m:
        # broad ties (an all-zero query): the gather would cost more
        # than ordering every score
        return None
    members = np.arange(0, _GRID_ROWS * m, m)[:, None] + cols
    return np.concatenate((members.ravel(), np.arange(_GRID_ROWS * m, n)))


def _template_reach(store: ExemplarStore, in_sims: np.ndarray,
                    out_sims: np.ndarray | None, alpha: float,
                    need: int) -> np.ndarray | None:
    """Ascending positions of the members of every template that can hold
    one of the ``need`` best relevances at ``alpha``, or None when this
    bound does not apply or would not narrow the store.

    Every relevance in template t is ``fl(fl((1 - alpha) * input_sim) +
    low_t)`` with ``low_t = alpha * out_t``, the product ``_mix`` adds.
    Similarities are non-negative and rounding is monotone, so it is at
    least ``low_t`` and at most ``fl((1 - alpha) * max input_sim) +
    low_t``. The threshold is a value ``need`` exemplars are known to
    reach: the best template's low when that template holds ``need``
    exemplars, else the need-th largest low, since every template holds
    one. Every relevance at or above the need-th largest then lies in a
    template whose upper bound reaches the threshold. ``np.sort`` picks
    that low: most lows are 0.0, which makes ``np.partition`` 15x slower.

    On perfbench stream queries (alpha 0.75, k=4, one pinned CPU) the
    bound took a median query 14-15% slower at 2k exemplars, 27% faster
    at 30k and 43% faster at 100k, so smaller stores keep the dense path.
    """
    n = store._ids.shape[0]
    if alpha == 0.0 or n < _PREFILTER_MIN_STORE:
        return None
    starts = store._template_starts
    lows = alpha * out_sims
    best = int(lows.argmax())
    if starts[best + 1] - starts[best] >= need:
        threshold = lows[best]
    elif need <= lows.shape[0]:
        threshold = np.sort(lows)[-need]
    else:
        return None
    if threshold == 0.0:
        # a preliminary sharing no label with the store: every template
        # reaches the threshold
        return None
    reached = np.flatnonzero((1.0 - alpha) * in_sims.max() + lows >= threshold)
    first = starts[reached]
    sizes = starts[reached + 1] - first
    total = int(sizes.sum())
    if 4 * total > n:
        return None
    # the groups of the reached templates, laid end to end
    at = np.arange(total) + np.repeat(first - (np.cumsum(sizes) - sizes), sizes)
    members = store._by_template[at]
    members.sort()
    return members


# heads at most this deep are taken by argmin rounds, deeper ones by a
# partition (see _candidate_order)
_ROUNDS_MAX_DEPTH = 12


def _candidate_order(relevance: np.ndarray, depth: int) -> np.ndarray:
    """Positions of the ``depth`` best candidates, best first, ties by
    position. ``relevance`` is only read. The candidates are the whole
    store or the members ``_template_reach`` keeps, both in id order, so
    ties by position are ties by id.

    From _PREFILTER_MIN_STORE candidates up, an exact grid prefilter
    (``_reaching``) first keeps, in position order, the head and every
    candidate tying its last member. Below that size an interleaved
    timeit of ``retrieve_topk`` on one pinned CPU of a 2-vCPU x86-64 host
    measured the prefilter slower than a full pass (+11-13% per query at
    2k, even at 16k, 8-13% faster at 20k), so every candidate is ordered,
    as also happens when the prefilter would keep more than a quarter of
    them (an all-zero query at 100k orders in 528 µs so, in 1117 µs
    through the prefilter).

    The head is read from keys, the negated relevances. A head at most
    _ROUNDS_MAX_DEPTH deep is taken by ``argmin`` rounds, a deeper one by
    a partition (``_head_by_rounds``, ``_head_by_partition``); both break
    ties by position, and neither sorts a query that scores every
    exemplar alike. Most relevances of a small store are 0.0, and on that
    many ties ``np.partition`` is slow. On the inputs of perfbench units
    and stream queries (one pinned CPU of a 2-vCPU x86-64 host) rounds
    took a 2k selection from 17 to 6.5 µs at depth 4. Each round is a
    pass over the candidates, so the partition wins deeper down: rounds
    beat or tied it up to depth 12 on every input measured (2k, 30k and
    100k candidates), and lost from depth 16 or 20 on all but all-zero
    arrays.
    """
    candidates = _reaching(relevance, depth)
    if candidates is not None:
        relevance = relevance[candidates]
    keys = np.negative(relevance)
    order = _head_by_rounds(keys, depth) if depth <= _ROUNDS_MAX_DEPTH \
        else _head_by_partition(keys, depth)
    return order if candidates is None else candidates[order]


def _head_by_rounds(keys: np.ndarray, depth: int) -> np.ndarray:
    """Positions of the ``depth`` smallest keys, smallest first, ties by
    position: each round takes the first smallest and overwrites it with
    +inf, so ``keys`` must be the caller's own."""
    order = np.empty(depth, dtype=np.int64)
    for rank in range(depth):
        order[rank] = best = keys.argmin()
        keys[best] = np.inf
    return order


def _head_by_partition(keys: np.ndarray, depth: int) -> np.ndarray:
    """Positions of the ``depth`` smallest keys, smallest first, ties by
    position: only the keys strictly below the depth-th are sorted, by a
    stable sort, and the ties at it follow in position order."""
    boundary = np.partition(keys, depth - 1)[depth - 1]
    better = np.flatnonzero(keys < boundary)
    head = better[np.argsort(keys[better], kind="stable")]
    ties = np.flatnonzero(keys == boundary)[:depth - head.shape[0]]
    return np.concatenate((head, ties))


def _check_k(k: int, store: ExemplarStore,
             exclude_ids: Collection[int]) -> frozenset[int]:
    """Build the store, then validate k, every excluded id (by the id
    rule, so ``True`` never stands for exemplar 1), and k against the
    exemplars left after exclusions; returns the excluded ids the store
    holds."""
    store.ensure_built()
    validate_k(k)
    for exemplar_id in exclude_ids:
        if not is_int64(exemplar_id):
            raise ConfigError(f"excluded id must be a 64-bit integer, "
                              f"got {exemplar_id!r}")
    held = frozenset(i for i in exclude_ids if i in store)
    available = len(store) - len(held)
    if k > available:
        raise GandrError(
            f"requested {k} exemplars but only {available} are available")
    return held


def retrieve_topk(store: ExemplarStore, query: str, k: int,
                  alpha: float = 0.0, preliminary: str | None = None,
                  exclude_ids: Collection[int] = ()) -> list[ScoredExemplar]:
    """The k most relevant exemplars, best first: the one-alpha case of
    ``retrieve_topk_alphas``."""
    return retrieve_topk_alphas(store, query, k, [alpha], preliminary,
                                exclude_ids)[0]


def retrieve_topk_alphas(store: ExemplarStore, query: str, k: int,
                         alphas: Sequence[float],
                         preliminary: str | None = None,
                         exclude_ids: Collection[int] = ()
                         ) -> list[list[ScoredExemplar]]:
    """The k most relevant exemplars at each of ``alphas``, in order, each
    list best first.

    Only the mix depends on alpha, so the query's similarities are scored
    once and mixed per alpha. Where ``_template_reach`` bounds the head
    to a few templates, only their members are mixed and ordered, with
    the same operations, so every relevance keeps its bits.

    Selection runs on positions; ids enter at the end. Each excluded id
    the store holds deepens the ordered head by one rank, and is then
    dropped from it, which leaves the rest in order.
    """
    alphas = [validate_mix(alpha, preliminary) for alpha in alphas]
    held = _check_k(k, store, exclude_ids)
    need = k + len(held)
    in_sims, out_sims = store.similarities(query, preliminary)
    ids, template_of = store._ids, store._template_of
    hits = []
    for alpha in alphas:
        members = _template_reach(store, in_sims, out_sims, alpha, need)
        kept = slice(None) if members is None else members
        relevance = _mix(in_sims[kept], out_sims, template_of[kept], alpha)
        order = _candidate_order(relevance, need)
        head = order if members is None else members[order]
        if held:
            ranks = [r for r, i in enumerate(ids[head].tolist())
                     if i not in held][:k]
            order, head = order[ranks], head[ranks]
        # gathered and converted as arrays, which costs less than reading
        # the hits' fields one numpy scalar at a time
        outputs = repeat(0.0) if out_sims is None \
            else out_sims[template_of[head]].tolist()
        hits.append(list(map(_scored, ids[head].tolist(),
                             relevance[order].tolist(),
                             in_sims[head].tolist(), outputs, count())))
    return hits


def validate_p(p: float) -> float:
    """The rule for the geometric decay p of rank sampling: a real
    number, not a bool, that is positive."""
    if not isinstance(p, (int, float)) or isinstance(p, bool):
        raise ConfigError(f"sampling decay p must be a number, got {p!r}")
    if not 0.0 < p:
        raise ConfigError(f"sampling decay p must be positive, got {p}")
    return p


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
    validate_p(p)
    if k > n:
        raise GandrError(f"requested {k} draws from {n} candidates")
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

    Each hit is the ``retrieve_topk`` hit at a drawn rank, read from the
    head as deep as the deepest draw, so its ``rank`` is its position in
    the full ordering. Results are in draw order, not rank order.
    """
    validate_mix(alpha, preliminary)
    available = len(store) - len(_check_k(k, store, exclude_ids))
    picks = sample_geometric_ranks(available, k, p, rng)
    hits = retrieve_topk(store, query, max(picks) + 1, alpha, preliminary,
                         exclude_ids)
    return [hits[rank] for rank in picks]
