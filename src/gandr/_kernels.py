"""Scoring kernel over a CSR postings layout.

The kernel accumulates each document's score term by term in the order
the query terms are given. Its one caller, ``TfidfVectorizer.scores``,
passes term ids in ascending order, which makes any equally ordered
reference computation agree bit for bit.
"""

from __future__ import annotations

import numpy as np


def score_postings(term_ids: np.ndarray, query_weights: np.ndarray,
                   indptr: np.ndarray, doc_ids: np.ndarray,
                   weights: np.ndarray, n_docs: int) -> np.ndarray:
    """Accumulate query-weighted postings into a dense score vector.

    One ``np.add.at`` per term adds that term's products in place. Doc ids
    are unique within one term's postings, so each document still gets
    one addition per term, in term order, starting from 0.0: the bits of
    a fancy-index add, in one pass over the slice instead of a gather, an
    add and a scatter (numpy 1.25 gave ``ufunc.at`` its fast path).
    """
    scores = np.zeros(n_docs, dtype=np.float64)
    for t, w in zip(term_ids.tolist(), query_weights.tolist()):
        s, e = indptr[t], indptr[t + 1]
        np.add.at(scores, doc_ids[s:e], w * weights[s:e])
    return scores
