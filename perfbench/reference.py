"""An independent reference for what gandr should output.

Nothing here imports gandr. It follows the behaviour gandr documents,
step by step, so that its results are expected to agree bit for bit:

* tokens: lowercase ``\\w+`` runs of utterances; the ``[``-opening labels of
  parses; for a preliminary, anything shaped like ``IN:x`` / ``SL:x``.
* tf-idf: raw counts times ``ln((1+N)/(1+df)) + 1``, divided by the L2
  norm summed term by term in ascending term-id order.
* score: each document accumulates ``q[t] * d[t]`` over the query's terms
  in ascending term-id order, starting from 0.0.
* relevance: ``(1 - alpha) * input_sim + alpha * output_sim``; candidates
  ordered by relevance descending, then exemplar id ascending.
* sampling: truncated geometric ranks by the closed-form inverse CDF, one
  uniform per draw.
* prompts: ``query || utt & parse || ...``, whole exemplars only, within
  a whitespace-token budget.

Scores over a large store are computed with numpy, one term at a time,
which is the same sequence of float operations as the per-document loop
above; ranking uses plain Python sorting.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter

import numpy as np

_WORD = re.compile(r"\w+")
_OPEN = re.compile(r"\[(\S+)")
_LABEL = re.compile(r"(?:IN:|SL:)\w+", re.IGNORECASE)


def text_tokens(text: str) -> list[str]:
    return _WORD.findall(text.lower())


def label_tokens(parse: str) -> list[str]:
    """Labels of a canonical parse: the tokens that open a node."""
    return _OPEN.findall(parse.upper())


def prediction_label_tokens(text: str) -> list[str]:
    """Labels salvaged from any prediction text, well formed or not."""
    return [m.group(0).upper() for m in _LABEL.finditer(text)]


class Channel:
    """A tf-idf index over one token list per document."""

    def __init__(self, docs: list[list[str]]):
        n = len(docs)
        self.n = n
        tokens = list(itertools.chain.from_iterable(docs))
        self.vocab = {t: i for i, t in enumerate(sorted(set(tokens)))}
        lengths = np.fromiter(map(len, docs), dtype=np.int64, count=n)
        term = np.array(list(map(self.vocab.__getitem__, tokens)), dtype=np.int64)
        doc = np.repeat(np.arange(n, dtype=np.int64), lengths)
        # one (doc, term) entry per distinct pair, ordered by doc then term
        pair, count = np.unique(doc * len(self.vocab) + term, return_counts=True)
        doc, term = np.divmod(pair, len(self.vocab))
        df = np.bincount(term, minlength=len(self.vocab))
        self.idf = [math.log((1.0 + n) / (1.0 + d)) + 1.0 for d in df.tolist()]
        weight = count.astype(np.float64) * np.asarray(self.idf)[term]
        # squared norm summed in term order: add the j-th term of every
        # document at once, for j = 0, 1, 2, ...
        first = np.searchsorted(doc, np.arange(n))
        position = np.arange(doc.shape[0]) - first[doc]
        sq = np.zeros(n)
        for j in range(int(position.max()) + 1 if position.size else 0):
            at = position == j
            sq[doc[at]] += weight[at] * weight[at]
        # every listed document has a positive weight, so a positive norm
        weight = weight / np.sqrt(sq)[doc]
        by_term = np.lexsort((doc, term))
        self.post_doc = doc[by_term]
        self.post_weight = weight[by_term]
        self.indptr = np.concatenate(([0], np.cumsum(df)))

    def query(self, tokens: list[str]) -> list[tuple[int, float]]:
        counts = Counter(t for t in tokens if t in self.vocab)
        items = sorted((self.vocab[t], c) for t, c in counts.items())
        weights = [float(c) * self.idf[i] for i, c in items]
        acc = 0.0
        for w in weights:
            acc += w * w
        norm = math.sqrt(acc)
        if norm > 0.0:
            weights = [w / norm for w in weights]
        return [(i, w) for (i, _), w in zip(items, weights)]

    def scores(self, tokens: list[str]) -> np.ndarray:
        out = np.zeros(self.n)
        for t, qw in self.query(tokens):
            s, e = self.indptr[t], self.indptr[t + 1]
            out[self.post_doc[s:e]] += qw * self.post_weight[s:e]
        return out


class Reference:
    """Retrieval over (utterance, parse) exemplars with ids 0..N-1."""

    def __init__(self, exemplars: list[tuple[str, str]]):
        self.exemplars = exemplars
        self.inputs = Channel([text_tokens(u) for u, _ in exemplars])
        self.outputs = Channel([label_tokens(p) for _, p in exemplars])

    def _scored(self, query: str, alpha: float, preliminary: str | None):
        in_sim = self.inputs.scores(text_tokens(query))
        if preliminary is None:
            out_sim = np.zeros(self.inputs.n)
        else:
            out_sim = self.outputs.scores(prediction_label_tokens(preliminary))
        return (1.0 - alpha) * in_sim + alpha * out_sim, in_sim, out_sim

    @staticmethod
    def _prefix(relevance: np.ndarray, m: int, exclude: frozenset[int]) -> list[int]:
        """The first m ids of the ordering, ties by ascending id."""
        m_all = min(m + len(exclude), relevance.shape[0])
        cut = np.partition(relevance, relevance.shape[0] - m_all)[-m_all]
        tied = np.flatnonzero(relevance >= cut)
        ranked = sorted(zip((-relevance[tied]).tolist(), tied.tolist()))
        return [i for _, i in ranked if i not in exclude][:m]

    def topk(self, query: str, k: int, alpha: float = 0.0,
             preliminary: str | None = None) -> list[tuple]:
        """Hits as (id, relevance, input_sim, output_sim, rank)."""
        rel, in_sim, out_sim = self._scored(query, alpha, preliminary)
        return [(i, float(rel[i]), float(in_sim[i]), float(out_sim[i]), r)
                for r, i in enumerate(self._prefix(rel, k, frozenset()))]

    def sampled(self, query: str, k: int, p: float, uniforms: list[float],
                alpha: float, preliminary: str | None,
                exclude: frozenset[int]) -> list[tuple]:
        """Hits in draw order, one uniform per draw; ranks in the full order."""
        n = self.inputs.n - sum(1 for i in exclude if 0 <= i < self.inputs.n)
        remaining = list(range(n))
        ranks = []
        for u in uniforms[:k]:
            m = len(remaining)
            z = -math.expm1(m * math.log1p(-p))
            r = math.ceil(math.log1p(-u * z) / math.log1p(-p)) - 1
            ranks.append(remaining.pop(min(max(r, 0), m - 1)))
        rel, in_sim, out_sim = self._scored(query, alpha, preliminary)
        order = self._prefix(rel, max(ranks) + 1, exclude)
        return [(order[r], float(rel[order[r]]), float(in_sim[order[r]]),
                 float(out_sim[order[r]]), r) for r in ranks]

    def prompt(self, query: str, ids: list[int],
               budget: int | None) -> tuple[str, bool]:
        """The augmented prompt text and whether exemplars were dropped."""
        parts, used = [query], len(query.split())
        for i in ids:
            utterance, parse = self.exemplars[i]
            cost = 2 + len(utterance.split()) + len(parse.split())
            if budget is not None and used + cost > budget:
                return " || ".join(parts), True
            parts.append(utterance + " & " + parse)
            used += cost
        return " || ".join(parts), False


def template(parse: str) -> tuple[str, ...]:
    """The sorted multiset of a parse's labels."""
    return tuple(sorted(label_tokens(parse)))


def same_hits(got, want) -> bool:
    """Hit lists equal field by field, floats compared bit for bit."""
    def key(hit):
        i, rel, s_in, s_out, rank = hit
        return (int(i), float(rel).hex(), float(s_in).hex(),
                float(s_out).hex(), int(rank))
    return [key(h) for h in got] == [key(h) for h in want]
