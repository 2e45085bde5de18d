"""perfbench's tracer still installs on gandr.

``perfbench/spans.py`` wraps gandr's classes and functions by name, and
reads each owner (``gandr.retrieval.InvertedIndex``,
``gandr.tfidf.TfidfVectorizer``, ...) as an attribute. A removed owner
crashes ``perfbench/run.py --trace 1``, and a call that bypasses a wrap
zeroes a per-layer metric; these tests catch both for the retrieval
channels and for the sweep's evaluation without running the benchmark.
"""

import importlib
from pathlib import Path

import numpy as np

import gandr

from conftest import make_random_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans_and_store(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    store = gandr.ExemplarStore()
    for exemplar in make_random_corpus(np.random.default_rng(4), 20):
        store.add(exemplar)
    return importlib.import_module("spans"), store


def test_tracer_records_the_channel_spans(monkeypatch):
    spans, store = _spans_and_store(monkeypatch)
    exemplars = store.exemplars
    with spans.Tracer() as tracer:
        spans.setup_wraps(tracer, gandr)
        spans.work_wraps(tracer, gandr, {})
        gandr.retrieve_topk(store, exemplars[0].utterance, 3, alpha=0.5,
                            preliminary=exemplars[1].parse)
    recorded = {span.name for span in tracer.spans}
    assert {"retrieval.build", "tfidf.fit_transform", "tfidf.transform",
            "kernels.score_postings"} <= recorded


def test_tracer_records_the_sweep_spans(monkeypatch):
    spans, store = _spans_and_store(monkeypatch)
    samples = [gandr.Sample(i, e.utterance, gold=e.parse)
               for i, e in enumerate(store.exemplars)]
    endpoint = gandr.StaticGenerator(samples[0].gold)
    with spans.Tracer() as tracer:
        spans.work_wraps(tracer, gandr, {"final": endpoint})
        rows = gandr.evaluation.run_sweep(
            store, samples, endpoint, endpoint, gandr.PipelineConfig(k=2),
            gandr.evaluation.SweepAxis.ALPHA, [0.0, 0.5], [0])
    assert len(rows) == 2
    names = [span.name for span in tracer.spans]
    assert names.count("evaluation.run_sweep") == 1
    assert names.count("evaluation.evaluate") == 2


# names perfbench still wraps that gandr no longer has; ROADMAP item 1a,
# which edits perfbench/spans.py, empties this list
STALE_WRAPS = {"pipeline.retrieve_topk", "ExemplarStore.score_all",
               "evaluation.parse_top"}


def test_every_wrap_target_exists(monkeypatch):
    """Every name the tracer is asked to wrap exists in gandr, by the
    lookup ``Tracer.wrap`` makes, save the stale ones. A rename of
    ``_candidate_order`` or of any other wrapped name then fails here,
    where the tracer would skip it and a per-layer metric would read 0."""
    spans, _ = _spans_and_store(monkeypatch)
    asked = []
    monkeypatch.setattr(spans.Tracer, "wrap",
                        lambda self, owner, attr, *args, **kwargs:
                        asked.append((owner, attr)))
    tracer = spans.Tracer()
    spans.setup_wraps(tracer, gandr)
    spans.work_wraps(tracer, gandr, {"final": gandr.StaticGenerator("x")})
    missing = set()
    for owner, attr in asked:
        found = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if found is None:
            owner_name = getattr(owner, "__name__", type(owner).__name__)
            missing.add(f"{owner_name.removeprefix('gandr.')}.{attr}")
    assert len(asked) > 20
    assert missing == STALE_WRAPS
