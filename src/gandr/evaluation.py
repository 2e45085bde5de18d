"""Scoring predictions and sweeping pipeline settings.

Two metrics: exact match (whitespace-normalized string equality between
final prediction and gold parse) and template recall at K (did any of the
top-K retrieved exemplars share the gold parse's template, i.e. its
multiset of intent/slot labels, as :func:`gandr.top_parse.template` gives
it). Failed samples count against both denominators; a pipeline that
skips half its inputs scores accordingly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

from .data_io import Fraction, apply_split, validate_fraction
from .errors import ConfigError, GandrError, shown
from .pipeline import (
    PipelineConfig,
    PredictionRecord,
    Sample,
    run_pipeline,
    run_pipeline_alphas,
)
from .retrieval import ExemplarStore, _check_k, validate_alpha, validate_k
from .top_parse import parse_labels, template


def normalize_for_match(text: str) -> str:
    """Collapse runs of whitespace and strip the ends; case is kept."""
    return " ".join(text.split())


def exact_match(prediction: str | None, gold: str, casefold: bool = False) -> bool:
    """Whitespace-normalized equality; a missing prediction never matches."""
    if prediction is None:
        return False
    a, b = normalize_for_match(prediction), normalize_for_match(gold)
    if casefold:
        return a.casefold() == b.casefold()
    return a == b


@functools.lru_cache(maxsize=1 << 16)
def _gold_template(gold: str) -> tuple[str, ...]:
    """The template of a gold parse, parsed once per distinct gold. A gold
    that does not parse raises MalformedParse, and lru_cache keeps no
    exception."""
    return template(parse_labels(gold))


def _template_hit(record: PredictionRecord, gold_template: tuple[str, ...],
                  store: ExemplarStore, k: int | None, multiset: bool) -> bool:
    """Did any top-k exemplar feeding the final pass match gold's template?
    Multiset matching compares templates, each exemplar's derived once;
    set matching compares label sets."""
    hits = record.pass2_retrievals
    if hits is None:
        hits = record.pass1_retrievals
    if multiset:
        return any(store.get(hit.exemplar_id)._template == gold_template
                   for hit in hits[:k])
    gold = set(gold_template)
    return any(set(store.get(hit.exemplar_id).labels) == gold
               for hit in hits[:k])


@dataclass(frozen=True)
class DomainStats:
    n: int
    exact_match: float
    template_recall: float


@dataclass(frozen=True)
class EvalReport:
    n: int
    exact_match: float
    template_recall: float
    n_failed: int
    per_domain: Mapping[str, DomainStats]


def validate_recall_k(k: int | None) -> None:
    """The rule for a recall cutoff: None (every recorded hit) or an int,
    not a bool, >= 1."""
    if k is None:
        return
    if not isinstance(k, int) or isinstance(k, bool):
        raise ConfigError(f"recall k must be an integer, got {k!r}")
    if k < 1:
        raise ConfigError(f"recall k must be at least 1, got {shown(k)}")


def validate_records(records: Sequence[PredictionRecord]) -> None:
    """The rule for records to score: at least one."""
    if not records:
        raise ConfigError("nothing to evaluate: no records")


def validate_sample_fraction(fraction: float | None) -> None:
    """The rule for a sweep's sample fraction: None (all) or a fraction."""
    if fraction is not None:
        validate_fraction(fraction, "sample fraction")


def validate_sweep_lists(values: Sequence, seeds: Sequence) -> None:
    """The rule for a sweep's axis values and seeds: neither list empty."""
    if not values or not seeds:
        raise ConfigError("sweep needs at least one value and one seed")


def evaluate(records: Sequence[PredictionRecord], store: ExemplarStore,
             k: int | None = None, multiset: bool = True,
             casefold: bool = False) -> EvalReport:
    """Aggregate exact match and template recall, overall and per domain.

    Golds are parsed through one cache that every call shares, so a gold
    that many records or sweep rows hold is parsed once.
    """
    validate_recall_k(k)
    validate_records(records)
    em_flags: list[bool] = []
    recall_flags: list[bool] = []
    domains: dict[str, list[int]] = {}
    n_failed = 0
    for i, record in enumerate(records):
        if record.gold is None:
            raise GandrError(f"sample {record.sample_id} has no gold parse")
        if record.final is None:
            n_failed += 1
        em_flags.append(exact_match(record.final, record.gold, casefold))
        recall_flags.append(_template_hit(
            record, _gold_template(record.gold), store, k, multiset))
        if record.domain_tag is not None:
            domains.setdefault(record.domain_tag, []).append(i)

    def mean(flags: Sequence[bool]) -> float:
        return sum(flags) / len(flags)

    per_domain = {
        domain: DomainStats(
            n=len(idx),
            exact_match=mean([em_flags[i] for i in idx]),
            template_recall=mean([recall_flags[i] for i in idx]),
        )
        for domain, idx in sorted(domains.items())
    }
    return EvalReport(n=len(records), exact_match=mean(em_flags),
                      template_recall=mean(recall_flags), n_failed=n_failed,
                      per_domain=per_domain)


class SweepAxis(Enum):
    ALPHA = "alpha"
    K = "k"


@dataclass(frozen=True)
class SweepRow:
    value: float | int
    seed: int
    exact_match: float
    template_recall: float


def run_sweep(store: ExemplarStore, samples: Sequence[Sample],
              preliminary_generator, final_generator,
              base_config: PipelineConfig, axis: SweepAxis,
              values: Sequence[float | int], seeds: Sequence[int],
              recall_k: int | None = None,
              sample_fraction: float | None = None) -> list[SweepRow]:
    """Score the pipeline at each axis value for each seed; one row per
    (value, seed), values outer.

    The axis value overrides alpha or k in the base config; every value
    is checked as given, by the rule for alpha or k, and every k against
    the store, before any sample runs.
    The seed subsamples the evaluation set when ``sample_fraction`` is
    given; otherwise the seed is a row label only. The pipeline runs over
    the union of the seeds' subsets, once through ``run_pipeline_alphas``
    on the alpha axis and once per distinct k on the k axis, and each row
    scores its own subset's records in subset order. So every alpha
    builds on the same preliminary, and each distinct gold is parsed
    once for every row that scores it. Given endpoints that answer a
    prompt the same way every time, the rows equal those of a separate
    ``run_pipeline`` per (value, seed).
    """
    validate_sweep_lists(values, seeds)
    validate_recall_k(recall_k)
    validate_sample_fraction(sample_fraction)
    if axis is SweepAxis.K:
        ks = [validate_k(v) for v in values]
        _check_k(max(ks), store, ())
    else:
        alphas = [validate_alpha(v) for v in values]
    positions = range(len(samples))
    subsets = [positions if sample_fraction is None
               else apply_split(positions, Fraction(sample_fraction), seed)
               for seed in seeds]
    union = sorted(set().union(*subsets))
    at = {i: n for n, i in enumerate(union)}
    chosen = [samples[i] for i in union]
    if axis is SweepAxis.ALPHA:
        runs = run_pipeline_alphas(store, chosen, preliminary_generator,
                                   final_generator, base_config, alphas)
    else:
        by_k = {k: run_pipeline(store, chosen, preliminary_generator,
                                final_generator, replace(base_config, k=k))
                for k in dict.fromkeys(ks)}
        runs = [by_k[k] for k in ks]
    rows: list[SweepRow] = []
    for value, records in zip(values, runs):
        for seed, subset in zip(seeds, subsets):
            report = evaluate([records[at[i]] for i in subset], store,
                              k=recall_k)
            rows.append(SweepRow(value=value, seed=int(seed),
                                 exact_match=report.exact_match,
                                 template_recall=report.template_recall))
    return rows


def format_sweep_tsv(rows: Sequence[SweepRow], config_note: str = "") -> str:
    """Render sweep rows as TSV with a leading comment echoing the config."""
    lines = []
    if config_note:
        lines.append("# config: " + config_note)
    lines.append("value\tseed\texact_match\ttemplate_recall")
    for row in rows:
        lines.append(f"{row.value}\t{row.seed}\t"
                     f"{row.exact_match:.6f}\t{row.template_recall:.6f}")
    return "\n".join(lines) + "\n"
