"""Two-pass retrieve/generate orchestration.

For each sample the pipeline retrieves exemplars by input similarity,
prompts a preliminary endpoint, re-retrieves with the preliminary parse
mixed in (weight ``alpha``), and prompts the final endpoint. Modes:

* INPUT_ONLY: single pass, pure input retrieval (alpha pinned to 0).
* GANDR: both passes, configured alpha for the second.
* OUTPUT_ONLY: both passes, second pass pinned to alpha 1.

Generation runs in batches. When a batch fails and the failure policy is
SKIP_SAMPLE, the batch is replayed item by item so one bad sample cannot
take down its batchmates; ABORT propagates the first error.

Every sample yields one PredictionRecord, in input order, capturing both
passes end to end. Records never contain wall-clock data, so identical
inputs produce byte-identical record files.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .augment import AugmentedInput, build_augmented_input
from .errors import ConfigError, GenerationError, MissingGold, MissingPrediction
from .retrieval import (
    ExemplarStore,
    ScoredExemplar,
    retrieve_sampled,
    retrieve_topk,
    validate_alpha,
)

STATUS_OK = "ok"
STATUS_PASS1_FAILED = "pass1_failed"
STATUS_PASS2_FAILED = "pass2_failed"


class PipelineMode(Enum):
    INPUT_ONLY = "input-only"
    GANDR = "gandr"
    OUTPUT_ONLY = "output-only"


class FailurePolicy(Enum):
    SKIP_SAMPLE = "skip"
    ABORT = "abort"


@dataclass(frozen=True)
class Sample:
    """One evaluation or training query; gold may be absent for pure runs."""

    sample_id: int
    utterance: str
    gold: str | None = None
    domain: str | None = None


@dataclass(frozen=True)
class PipelineConfig:
    mode: PipelineMode = PipelineMode.GANDR
    alpha: float = 0.75
    k: int = 4
    budget: int | None = None
    failure_policy: FailurePolicy = FailurePolicy.SKIP_SAMPLE
    jobs: int = 1

    def __post_init__(self):
        validate_alpha(self.alpha)
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ConfigError(f"k must be a positive integer, got {self.k!r}")
        if self.budget is not None and self.budget < 1:
            raise ConfigError(f"budget must be positive, got {self.budget}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be positive, got {self.jobs}")

    @property
    def pass2_alpha(self) -> float:
        """The mixing weight actually used by the second pass."""
        if self.mode is PipelineMode.INPUT_ONLY:
            return 0.0
        if self.mode is PipelineMode.OUTPUT_ONLY:
            return 1.0
        return self.alpha


@dataclass(frozen=True)
class PredictionRecord:
    """Everything the pipeline did for one sample."""

    sample_id: int
    query: str
    gold: str | None
    pass1_retrievals: tuple[ScoredExemplar, ...]
    pass1_augmented: AugmentedInput
    preliminary: str | None
    pass2_retrievals: tuple[ScoredExemplar, ...] | None
    pass2_augmented: AugmentedInput | None
    final: str | None
    status: str
    domain_tag: str | None = None

    def to_dict(self) -> dict:
        def hits(retrievals):
            if retrievals is None:
                return None
            return [vars(r) for r in retrievals]

        def aug(a: AugmentedInput | None):
            if a is None:
                return None
            return {"text": a.text, "query": a.query,
                    "exemplar_ids": list(a.exemplar_ids),
                    "truncated": a.truncated}

        return {
            "sample_id": self.sample_id,
            "query": self.query,
            "gold": self.gold,
            "pass1_retrievals": hits(self.pass1_retrievals),
            "pass1_augmented": aug(self.pass1_augmented),
            "preliminary": self.preliminary,
            "pass2_retrievals": hits(self.pass2_retrievals),
            "pass2_augmented": aug(self.pass2_augmented),
            "final": self.final,
            "status": self.status,
            "domain_tag": self.domain_tag,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PredictionRecord":
        def hits(raw):
            if raw is None:
                return None
            return tuple(ScoredExemplar(**h) for h in raw)

        def aug(raw):
            if raw is None:
                return None
            return AugmentedInput(text=raw["text"], query=raw["query"],
                                  exemplar_ids=tuple(raw["exemplar_ids"]),
                                  truncated=raw["truncated"])

        return cls(
            sample_id=data["sample_id"],
            query=data["query"],
            gold=data.get("gold"),
            pass1_retrievals=hits(data["pass1_retrievals"]) or (),
            pass1_augmented=aug(data["pass1_augmented"]),
            preliminary=data.get("preliminary"),
            pass2_retrievals=hits(data.get("pass2_retrievals")),
            pass2_augmented=aug(data.get("pass2_augmented")),
            final=data.get("final"),
            status=data["status"],
            domain_tag=data.get("domain_tag"),
        )


@dataclass(frozen=True)
class TrainingPair:
    """One fine-tuning example: augmented prompt in, gold parse out."""

    sample_id: int
    text: str
    target: str
    exemplar_ids: tuple[int, ...]


def _bulk_generate(generator, prompts: Sequence[str],
                   policy: FailurePolicy) -> list[str | None]:
    """Generate for all prompts; None marks items that failed under SKIP."""
    if not prompts:
        return []
    try:
        return list(generator.generate(list(prompts)))
    except GenerationError:
        if policy is FailurePolicy.ABORT:
            raise
    outputs: list[str | None] = []
    for prompt in prompts:
        try:
            outputs.append(generator.generate([prompt])[0])
        except GenerationError:
            outputs.append(None)
    return outputs


def _map_ordered(fn: Callable, items: Sequence, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def run_pipeline(store: ExemplarStore, samples: Sequence[Sample],
                 preliminary_generator, final_generator,
                 config: PipelineConfig = PipelineConfig()) -> list[PredictionRecord]:
    """Run the full flow over samples; one record per sample, input order."""
    if not samples:
        return []
    store.ensure_built()
    single_pass = config.mode is PipelineMode.INPUT_ONLY

    def first_retrieve(sample: Sample):
        hits = retrieve_topk(store, sample.utterance, config.k, alpha=0.0)
        exemplars = [store.get(h.exemplar_id) for h in hits]
        augmented = build_augmented_input(sample.utterance, exemplars,
                                          config.budget)
        return tuple(hits), augmented

    pass1 = _map_ordered(first_retrieve, samples, config.jobs)
    generator1 = final_generator if single_pass else preliminary_generator
    outputs1 = _bulk_generate(generator1, [aug.text for _, aug in pass1],
                              config.failure_policy)

    if single_pass:
        return [
            PredictionRecord(
                sample_id=s.sample_id, query=s.utterance, gold=s.gold,
                pass1_retrievals=hits, pass1_augmented=aug,
                preliminary=None, pass2_retrievals=None, pass2_augmented=None,
                final=out,
                status=STATUS_OK if out is not None else STATUS_PASS1_FAILED,
                domain_tag=s.domain)
            for s, (hits, aug), out in zip(samples, pass1, outputs1)
        ]

    alpha = config.pass2_alpha
    live = [i for i, out in enumerate(outputs1) if out is not None]

    def second_retrieve(index: int):
        sample = samples[index]
        hits = retrieve_topk(store, sample.utterance, config.k, alpha=alpha,
                             preliminary=outputs1[index])
        exemplars = [store.get(h.exemplar_id) for h in hits]
        augmented = build_augmented_input(sample.utterance, exemplars,
                                          config.budget)
        return tuple(hits), augmented

    pass2 = dict(zip(live, _map_ordered(second_retrieve, live, config.jobs)))
    outputs2 = _bulk_generate(final_generator,
                              [pass2[i][1].text for i in live],
                              config.failure_policy)
    finals = dict(zip(live, outputs2))

    records = []
    for i, (sample, (hits1, aug1)) in enumerate(zip(samples, pass1)):
        preliminary = outputs1[i]
        if preliminary is None:
            records.append(PredictionRecord(
                sample_id=sample.sample_id, query=sample.utterance,
                gold=sample.gold, pass1_retrievals=hits1, pass1_augmented=aug1,
                preliminary=None, pass2_retrievals=None, pass2_augmented=None,
                final=None, status=STATUS_PASS1_FAILED,
                domain_tag=sample.domain))
            continue
        hits2, aug2 = pass2[i]
        final = finals[i]
        records.append(PredictionRecord(
            sample_id=sample.sample_id, query=sample.utterance,
            gold=sample.gold, pass1_retrievals=hits1, pass1_augmented=aug1,
            preliminary=preliminary, pass2_retrievals=hits2,
            pass2_augmented=aug2, final=final,
            status=STATUS_OK if final is not None else STATUS_PASS2_FAILED,
            domain_tag=sample.domain))
    return records


def self_exclusion(sample: Sample, exclude_self: bool) -> Collection[int]:
    """Exemplar ids a training sample must not retrieve: with
    ``exclude_self``, the exemplar whose id equals the sample id, so a
    sample drawn from the store never retrieves itself."""
    return {sample.sample_id} if exclude_self else ()


def emit_training_pairs(store: ExemplarStore, samples: Sequence[Sample],
                        k: int, p: float, rng: np.random.Generator,
                        alpha: float = 0.0,
                        preliminaries: Mapping[int, str] | None = None,
                        budget: int | None = None,
                        exclude_self: bool = True) -> list[TrainingPair]:
    """Build fine-tuning pairs with geometric exemplar sampling.

    Stage 1 (``alpha=0``, no preliminaries) trains the preliminary model;
    stage 2 passes each sample's preliminary parse so retrieval mixes in
    output similarity, matching what the final model sees at inference.
    ``exclude_self`` drops the sample's own store entry (see
    ``self_exclusion``).
    """
    alpha = validate_alpha(alpha)
    pairs: list[TrainingPair] = []
    for sample in samples:
        if sample.gold is None:
            raise MissingGold(f"sample {sample.sample_id} has no gold parse")
        preliminary = None
        if alpha > 0.0:
            if preliminaries is None or sample.sample_id not in preliminaries:
                raise MissingPrediction(
                    f"sample {sample.sample_id} has no preliminary parse "
                    f"but alpha={alpha} needs one")
            preliminary = preliminaries[sample.sample_id]
        hits = retrieve_sampled(store, sample.utterance, k, p, rng,
                                alpha=alpha, preliminary=preliminary,
                                exclude_ids=self_exclusion(sample,
                                                           exclude_self))
        exemplars = [store.get(h.exemplar_id) for h in hits]
        augmented = build_augmented_input(sample.utterance, exemplars, budget)
        pairs.append(TrainingPair(
            sample_id=sample.sample_id, text=augmented.text,
            target=sample.gold, exemplar_ids=augmented.exemplar_ids))
    return pairs
