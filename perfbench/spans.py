"""Spans around gandr's public calls, recorded from outside the package.

A :class:`Tracer` replaces functions on gandr's modules and classes with
wrappers while it is active and puts the originals back when it ends, so
untraced runs execute gandr unmodified. Each span records its name, start,
end, parent span and the sample it belongs to; spans stay in memory until
the run ends. Self time is a span's duration minus the time its child
spans cover. Names absent from the installed gandr are skipped, and the
metrics that depend on them read 0.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    sample: int | None
    unit: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Installs wrappers on enter, removes them on exit."""

    def __init__(self, samples_by_query: dict[str, int] | None = None):
        self.spans: list[Span] = []
        self.unit = 0
        self._samples = samples_by_query or {}
        self._local = threading.local()
        self._main_stack: list[tuple[int, int | None]] = []
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, owner, attr: str, name: str, query_arg: int | None = None,
             note=None, before=None, inline: bool = False) -> None:
        """Record a span per call of ``owner.attr``.

        ``query_arg`` names the positional argument holding the query
        text, which identifies the sample. ``before(args, kwargs)`` and,
        on success, ``note(args, kwargs, result)`` return extra attributes
        for the span. An ``inline`` span is counted but its time stays in
        its parent's self time.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # worker threads of the pipeline hang off the caller's open span
            outer = stack or tracer._main_stack
            parent, sample = outer[-1] if outer else (None, None)
            if query_arg is not None and len(args) > query_arg:
                sample = tracer._samples.get(args[query_arg], sample)
            with tracer._id_lock:
                tracer._next_id += 1
                span_id = tracer._next_id
            stack.append((span_id, sample))
            attrs = before(args, kwargs) if before is not None else {}
            if inline:
                attrs["inline"] = True
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                attrs["failed"] = True
                raise
            else:
                if note is not None:
                    attrs.update(note(args, kwargs, result))
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, parent, name, start, end,
                                         sample, tracer.unit, attrs))

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """One JSON line per span; prompt texts stay out of the file."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = dict(vars(s), attrs={k: v for k, v in s.attrs.items()
                                           if k != "prompts"})
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None and not s.attrs.get("inline"):
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for a, b in sorted(children.get(s.span_id, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[s.span_id] = (s.end - s.start) - covered
    return out


def setup_wraps(tracer: Tracer, gandr) -> None:
    """Coarse spans only: per-document calls during a build are too many."""
    tracer.wrap(gandr.data_io, "load_store", "data_io.load_store")
    tracer.wrap(gandr.retrieval.ExemplarStore, "build", "retrieval.build")
    tracer.wrap(gandr.retrieval.InvertedIndex, "__init__", "retrieval.index_fit")
    tracer.wrap(gandr.tfidf.TfidfVectorizer, "fit_transform",
                "tfidf.fit_transform")


def work_wraps(tracer: Tracer, gandr, endpoints: dict) -> None:
    """Spans at every layer boundary the workloads cross."""
    retrieval, pipeline, evaluation = gandr.retrieval, gandr.pipeline, gandr.evaluation

    def hits(args, kwargs, result):
        return {"hits": len(result),
                "exclusions": len(kwargs.get("exclude_ids", ()))}

    def touched(args, kwargs, result):
        term_ids, indptr = args[0], args[2]
        return {"postings": int((indptr[term_ids + 1] - indptr[term_ids]).sum())}

    for module in (pipeline, evaluation):
        tracer.wrap(module, "run_pipeline", "pipeline.run")
    tracer.wrap(pipeline, "emit_training_pairs", "pipeline.emit_training_pairs")
    tracer.wrap(pipeline, "_bulk_generate", "pipeline.bulk_generate")
    tracer.wrap(pipeline, "retrieve_topk", "retrieval.retrieve_topk", 1, hits)
    tracer.wrap(pipeline, "retrieve_sampled", "retrieval.retrieve_sampled", 1, hits)
    tracer.wrap(pipeline, "build_augmented_input", "augment.build", 0,
                lambda a, k, r: {"truncated": bool(r.truncated)})
    tracer.wrap(retrieval.ExemplarStore, "score_all", "retrieval.score_all", 1)
    # ordering is part of selection, so its time stays with the caller
    tracer.wrap(retrieval, "_candidate_order", "retrieval.order",
                note=lambda a, k, r: {"ordered": len(r)}, inline=True)
    tracer.wrap(retrieval, "sample_geometric_ranks", "retrieval.sample_ranks")
    tracer.wrap(retrieval, "tokenize_text", "tfidf.tokenize")
    tracer.wrap(retrieval, "structure_tokens", "top_parse.structure_tokens")
    tracer.wrap(gandr.tfidf.TfidfVectorizer, "transform", "tfidf.transform")
    tracer.wrap(gandr._kernels, "score_postings", "kernels.score_postings",
                note=touched)
    tracer.wrap(evaluation, "run_sweep", "evaluation.run_sweep")
    tracer.wrap(evaluation, "evaluate", "evaluation.evaluate",
                note=lambda a, k, r: {"records": len(a[0])})
    tracer.wrap(evaluation, "parse_top", "top_parse.parse_top")
    for name in ("write_records", "write_training_pairs", "atomic_write_text"):
        tracer.wrap(gandr.data_io, name, "data_io.write")
    for role, endpoint in endpoints.items():
        tracer.wrap(endpoint, "generate", "generator.generate",
                    before=lambda a, k, role=role: {
                        "role": role, "items": len(a[0]),
                        "prompts": list(a[0])})


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    selfs = self_times(spans)

    def total(name, own=False):
        return sum(selfs[s.span_id] if own else s.end - s.start
                   for s in spans if s.name == name)

    return {
        "data_io.load_store_s": total("data_io.load_store"),
        "retrieval.build_s": total("retrieval.build"),
        "tfidf.fit_transform_s": total("tfidf.fit_transform"),
        "retrieval.index_fit_self_s": total("retrieval.index_fit", own=True),
    }


def work_metrics(spans: list[Span], units: int, items: int) -> dict[str, float]:
    """Per-layer figures of the traced work phase.

    Times per call are means; ``_s`` figures, generator counts and
    ``pass1_items`` are per work unit (one pass over the workload's
    items); ``calls_per_item`` is per item completed.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def us_per_call(name, own=False):
        return 1e6 * _mean(selfs[s.span_id] if own else s.end - s.start
                           for s in by_name[name])

    def per_unit(value):
        return value / units if units else 0.0

    selects = by_name["retrieval.retrieve_topk"] + by_name["retrieval.retrieve_sampled"]
    ordered = sum(s.attrs.get("ordered", 0) for s in by_name["retrieval.order"])
    returned = sum(s.attrs.get("hits", 0) for s in selects)
    builds = by_name["augment.build"]
    generates = by_name["generator.generate"]
    answered = sum(g.attrs["items"] for g in generates if not g.attrs.get("failed"))
    sent = sum(g.attrs["items"] for g in generates)

    # the first endpoint call of a bulk generation is the batch; any
    # further calls under it are the per-item fallback
    first_call, fallback = {}, 0
    for g in sorted(generates, key=lambda g: g.start):
        if g.parent in first_call:
            fallback += g.attrs["items"]
        else:
            first_call[g.parent] = g
    pass1 = defaultdict(list)
    for g in first_call.values():
        if g.attrs["role"] == "preliminary":
            pass1[g.unit].extend(g.attrs["prompts"])
    pass1_items = sum(len(p) for p in pass1.values())
    pass1_unique = sum(len(set(p)) for p in pass1.values())

    write_ids = {s.span_id for s in by_name["data_io.write"]}
    # writers call each other; count the outermost write only
    writes = [s for s in by_name["data_io.write"] if s.parent not in write_ids]
    evaluates = by_name["evaluation.evaluate"]
    records = sum(s.attrs.get("records", 0) for s in evaluates)
    evaluate_s = sum(s.end - s.start for s in evaluates)

    calls = {name: len(by_name[name]) / items if items else 0.0
             for name in ("tfidf.tokenize", "tfidf.transform",
                          "top_parse.structure_tokens")}
    return {
        "kernels.score_postings_us_per_call": us_per_call("kernels.score_postings"),
        "kernels.postings_touched_per_call": _mean(
            s.attrs.get("postings", 0) for s in by_name["kernels.score_postings"]),
        "retrieval.score_all_self_us": us_per_call("retrieval.score_all", own=True),
        "retrieval.select_self_us": 1e6 * _mean(selfs[s.span_id] for s in selects),
        "retrieval.candidates_ordered_per_query": ordered / len(selects) if selects else 0.0,
        "retrieval.select.useful_ratio": returned / ordered if ordered else 0.0,
        "retrieval.exclusions_per_query": _mean(s.attrs.get("exclusions", 0) for s in selects),
        "retrieval.sample_ranks_us_per_call": us_per_call("retrieval.sample_ranks"),
        "tfidf.tokenize_us_per_call": us_per_call("tfidf.tokenize"),
        "tfidf.tokenize.calls_per_item": calls["tfidf.tokenize"],
        "tfidf.transform_us_per_call": us_per_call("tfidf.transform"),
        "tfidf.transform.calls_per_item": calls["tfidf.transform"],
        "top_parse.structure_tokens_us_per_call": us_per_call("top_parse.structure_tokens"),
        "top_parse.structure_tokens.calls_per_item": calls["top_parse.structure_tokens"],
        "augment.build_us_per_call": us_per_call("augment.build"),
        "augment.truncated_share": _mean(float(s.attrs.get("truncated", False)) for s in builds),
        "generator.calls": per_unit(len(generates)),
        "generator.items": per_unit(sent),
        "generator.failed_calls": per_unit(sum(1 for g in generates if g.attrs.get("failed"))),
        "generator.fallback_items": per_unit(fallback),
        "generator.answered_ratio": answered / sent if sent else 0.0,
        "generator.generate_self_s": per_unit(sum(selfs[g.span_id] for g in generates)),
        "pipeline.run_self_s": per_unit(sum(selfs[s.span_id] for s in by_name["pipeline.run"])),
        "evaluation.evaluate_us_per_record": 1e6 * evaluate_s / records if records else 0.0,
        # evaluation calls parse_top only while scoring records
        "top_parse.parse_top_calls_per_record": (
            len(by_name["top_parse.parse_top"]) / records if records else 0.0),
        "evaluation.sweep.pass1_items": per_unit(pass1_items),
        "evaluation.sweep.pass1_unique_ratio": pass1_unique / pass1_items if pass1_items else 0.0,
        "data_io.write_s": per_unit(sum(s.end - s.start for s in writes)),
    }
