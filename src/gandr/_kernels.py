"""Scoring kernel over a CSR postings layout.

The kernel accumulates each document's score term by term in the order
the query terms are given. Callers pass term ids in ascending order, which
makes any equally ordered reference computation agree bit for bit.
"""

from __future__ import annotations

import numpy as np


def score_postings(term_ids: np.ndarray, query_weights: np.ndarray,
                   indptr: np.ndarray, doc_ids: np.ndarray,
                   weights: np.ndarray, n_docs: int) -> np.ndarray:
    """Accumulate query-weighted postings into a dense score vector."""
    scores = np.zeros(n_docs, dtype=np.float64)
    for qi in range(term_ids.shape[0]):
        t = int(term_ids[qi])
        s = int(indptr[t])
        e = int(indptr[t + 1])
        # doc ids are unique within one term's postings, so a fancy-index
        # add is a plain read-modify-write per document
        scores[doc_ids[s:e]] += query_weights[qi] * weights[s:e]
    return scores
