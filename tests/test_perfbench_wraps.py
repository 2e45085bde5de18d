"""perfbench's tracer still installs on gandr.

``perfbench/spans.py`` wraps gandr's classes and functions by name, and
reads each owner (``gandr.retrieval.InvertedIndex``,
``gandr.tfidf.TfidfVectorizer``, ...) as an attribute. A removed owner
crashes ``perfbench/run.py --trace 1``, and a call that bypasses a wrap
zeroes a per-layer metric; this test catches both for the retrieval
channels without running the benchmark.
"""

import importlib
from pathlib import Path

import numpy as np

import gandr

from conftest import make_random_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_records_the_channel_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    exemplars = make_random_corpus(np.random.default_rng(4), 20)
    with spans.Tracer() as tracer:
        spans.setup_wraps(tracer, gandr)
        spans.work_wraps(tracer, gandr, {})
        store = gandr.ExemplarStore()
        for exemplar in exemplars:
            store.add(exemplar)
        gandr.retrieve_topk(store, exemplars[0].utterance, 3, alpha=0.5,
                            preliminary=exemplars[1].parse)
    recorded = {span.name for span in tracer.spans}
    assert {"retrieval.build", "tfidf.fit_transform", "tfidf.transform",
            "kernels.score_postings"} <= recorded
