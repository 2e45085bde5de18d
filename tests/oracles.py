"""Independent reference implementations the real code is checked against.

Everything here is deliberately naive: dict-based sparse vectors, O(N)
scoring loops, no shared code with the package beyond dataclass field
access. The arithmetic is sequenced the same way the package documents
(per-document accumulation in ascending term-id order), so agreement is
expected to be exact, not approximate.
"""

from __future__ import annotations

import math
import re


def text_tokens(text: str) -> list[str]:
    return re.findall(r"\w+", text.lower())


def label_tokens(parse: str) -> list[str]:
    """Labels of a canonical single-spaced parse: the tokens opening nodes."""
    return [tok[1:] for tok in parse.split() if tok.startswith("[")]


def prediction_label_tokens(text: str) -> list[str]:
    """Salvage labels from arbitrary (possibly malformed) prediction text."""
    return [m.group(0).upper()
            for m in re.finditer(r"(?:IN:|SL:)\w+", text, re.IGNORECASE)]


def fit_tfidf(docs: list[list[str]]):
    """Returns (transform, doc_vectors); vectors are {term_id: weight} dicts."""
    n = len(docs)
    vocab = sorted({t for d in docs for t in d})
    tid = {t: i for i, t in enumerate(vocab)}
    df = {t: 0 for t in vocab}
    for d in docs:
        for t in set(d):
            df[t] += 1
    idf = {tid[t]: math.log((1.0 + n) / (1.0 + df[t])) + 1.0 for t in vocab}

    def transform(tokens: list[str]) -> dict[int, float]:
        counts: dict[int, int] = {}
        for t in tokens:
            if t in tid:
                i = tid[t]
                counts[i] = counts.get(i, 0) + 1
        items = sorted(counts.items())
        weights = [float(c) * idf[i] for i, c in items]
        norm = 0.0
        for w in weights:
            norm += w * w
        norm = math.sqrt(norm)
        if norm > 0.0:
            weights = [w / norm for w in weights]
        return dict(zip((i for i, _ in items), weights))

    return transform, [transform(d) for d in docs]


def sparse_dot(q: dict[int, float], d: dict[int, float]) -> float:
    acc = 0.0
    for t in sorted(q):
        if t in d:
            acc += q[t] * d[t]
    return acc


def brute_force_ranking(exemplars, query: str, alpha: float,
                        preliminary: str | None = None):
    """Full ranking as (id, relevance, input_sim, output_sim) tuples."""
    in_transform, in_docs = fit_tfidf(
        [text_tokens(e.utterance) for e in exemplars])
    out_transform, out_docs = fit_tfidf(
        [label_tokens(e.parse) for e in exemplars])
    q_in = in_transform(text_tokens(query))
    q_out = out_transform(prediction_label_tokens(preliminary)) \
        if preliminary is not None else {}
    rows = []
    for pos, exemplar in enumerate(exemplars):
        s_in = sparse_dot(q_in, in_docs[pos])
        s_out = sparse_dot(q_out, out_docs[pos])
        relevance = (1.0 - alpha) * s_in + alpha * s_out
        rows.append((exemplar.exemplar_id, relevance, s_in, s_out))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def truncated_geometric_pmf(p: float, n: int) -> list[float]:
    """P(rank = r) for r in [0, n) under decay p, renormalized to the n ranks."""
    z = 1.0 - (1.0 - p) ** n
    return [p * (1.0 - p) ** r / z for r in range(n)]


def split_augmented(text: str) -> tuple[str, list[tuple[str, str]]]:
    """Invert build_augmented_input: (query, [(utterance, parse), ...]).

    The separators are spelled out here, not imported, so a change to the
    wire format fails the comparison. Each exemplar chunk splits on its
    last " & ", so parses containing no separator round-trip exactly.
    """
    chunks = text.split(" || ")
    pairs = []
    for chunk in chunks[1:]:
        if " & " not in chunk:
            raise ValueError(
                f"exemplar chunk has no utterance/parse separator: {chunk!r}")
        utterance, parse = chunk.rsplit(" & ", 1)
        pairs.append((utterance, parse))
    return chunks[0], pairs
